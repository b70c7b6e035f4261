"""Features, instances, and bit-parallel matching.

Parses the hex bridge feature, expands it into compiled instances, and
matches it against the classic position: Black intrudes into a White
bridge, and the feature points straight at the completion cell.
"""

from pathlib import Path

import geoweave as gw
from geoweave.dsl import serialize_feature

FIXTURES = Path(__file__).parent.parent / "fixtures"

bridge = gw.load_feature_set(FIXTURES / "bridge.fs")
print("feature:", serialize_feature(bridge.features[0]))

rules = gw.hex_rules(7)
board = rules.graph

# One instance index per player perspective: friend/enemy are resolved to
# concrete cell values at instantiation time.
white = gw.instantiate(bridge, board, mover=2)
print(f"\ninstances for White on 7x7 hex: {len(white.instances)}")
print(f"reactive buckets (indexed by the opponent's last move): {len(white.reactive_by_last_move)}")

# An instance keeps only its tests, action and last-move cells; where it
# was placed is compiled again on demand.
inst, anchor, *_ = gw.instance_placements(bridge, board, mover=2)[0]
print("\none compiled instance:")
print(f"  anchor {anchor}, action -> {inst.action_to}, last move key {inst.last_move_cell}")
print(f"  mask:   {inst.mask:#x}")
print(f"  target: {inst.target:#x}")
print("  matching is one AND+compare on the whole board, whatever the pattern's size")

# White stones at (1,1) and (2,2) form a bridge; Black just played the
# intrusion at (1,2).  The empty carrier cell (2,1) completes it.
intrusion = gw.hex_cell(board, 1, 2)
values = [0] * board.cell_count
values[gw.hex_cell(board, 1, 1)] = values[gw.hex_cell(board, 2, 2)] = 2
values[intrusion] = 1
state = rules.position(values, mover=2, last_move=intrusion)

hits = [i for i in white.reactive_for(intrusion) if gw.match_instance(i, state.board)]
completion = gw.hex_cell(board, 2, 1)
print(f"\nBlack intrudes at cell {intrusion}")
print(f"matching reactive instances: {len(hits)}")
print(f"recommended reply: cell {hits[0].action_to} (bridge completion is {completion})")
print("the instance sums the weights of:")
for position in hits[0].features:
    print(" ", serialize_feature(bridge.features[position]))

empty = rules.initial_state()
print(f"same instance on an empty board matches: {gw.match_instance(hits[0], empty.board)}")
