"""Playout biasing and match play.

Shows the four-step move distribution (uniform base, reactive weights,
proactive weights, floor + normalise), then plays two quick seeded
matches: line-strategy random vs uniform random, and bridge-biased MCTS
vs vanilla MCTS.
"""

from pathlib import Path

import geoweave as gw
from geoweave.search import AgentSpec, biased_move_distribution, compile_feature_set, play_match

FIXTURES = Path(__file__).parent.parent / "fixtures"

rules = gw.hex_rules(7)
bridge = gw.load_feature_set(FIXTURES / "bridge.fs")
indexes = compile_feature_set(bridge, rules)

# White bridge at (1,1)-(2,2); Black has just intruded at (1,2).
board = rules.graph
intrusion = gw.hex_cell(board, 1, 2)
values = [0] * board.cell_count
values[gw.hex_cell(board, 1, 1)] = values[gw.hex_cell(board, 2, 2)] = 2
values[intrusion] = 1
state = rules.position(values, mover=2, last_move=intrusion)

legal = rules.legal_moves(state)
probs = biased_move_distribution(state, legal, indexes[2])
ranked = sorted(zip(probs, legal), reverse=True)
print("probability mass after the intrusion (top 3 moves):")
for p, cell in ranked[:3]:
    q, r = cell % 7, cell // 7
    print(f"  cell {cell}=({q},{r}): {p:.4f}")
print(f"uniform would be {1.0 / len(legal):.4f}; the completion cell gets six times that\n")

line4 = gw.load_feature_set(FIXTURES / "line4.fs")
result = play_match(
    gw.line4_rules(7, 7),
    AgentSpec(feature_set=line4, playouts=0),  # raw biased policy
    AgentSpec(playouts=0),                     # uniform random
    games=200,
    seed=1,
)
print(f"line-strategy random vs uniform random, 200 games: "
      f"{result.wins_a}-{result.wins_b}-{result.draws} "
      f"(win rate {result.win_rate_a:.2f}, 95% CI [{result.ci_low:.2f}, {result.ci_high:.2f}])")

result = play_match(
    rules,
    AgentSpec(feature_set=bridge, playouts=200),
    AgentSpec(playouts=200),
    games=20,
    seed=2,
)
print(f"bridge-biased MCTS vs vanilla MCTS (200 playouts, 20 games): "
      f"{result.wins_a}-{result.wins_b}-{result.draws} "
      f"(win rate {result.win_rate_a:.2f})")
print("(the acceptance suite runs the full 1000-playout, 200-game version)")
