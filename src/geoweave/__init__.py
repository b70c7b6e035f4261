"""geoweave: geometry-independent piece-pattern features for board games.

Patterns are defined as walks over a board graph, compiled once into
bit-parallel matchers, and used to bias MCTS playouts.  See README.md for
the tour and docs/dsl.md for the feature file format.
"""

from .board import (
    OFF_BOARD,
    BoardError,
    BoardGraph,
    HexRhombus,
    Semi3464,
    Square,
    Symmetry,
    Triangular,
    back_index,
    build_board,
    hex_cell,
    square_cell,
)
from .chunkset import CHUNK_BITS
from .dsl import (
    DslError,
    dump_feature_set,
    feature_set_hash,
    load_feature_set,
    parse_feature,
    parse_feature_set,
    save_feature_set,
    serialize_feature,
)
from .features import (
    Constraint,
    ElementKind,
    Feature,
    FeatureError,
    FeatureSet,
    PatternElement,
)
from .games import (
    GameRules,
    GameState,
    HexRules,
    IllegalMove,
    Line4Rules,
    game_from_name,
    hex_rules,
    line4_rules,
)
from .instancer import (
    FeatureInstance,
    InstanceIndex,
    InstancerError,
    instance_placements,
    instantiate,
    match_instance,
)
from .search import (
    AgentSpec,
    MatchCounters,
    MatchResult,
    biased_move_distribution,
    biased_scores,
    compile_feature_set,
    mcts_best_move,
    play_match,
    run_playout,
)
from .walks import (
    ResolvedSite,
    Walk,
    WalkError,
    format_walk,
    make_walk,
    mirror_walk,
    normalize_turn,
    parse_walk,
    resolve_walk,
    resolve_walk_branches,
    round_turn,
)

__version__ = "0.1.0"
