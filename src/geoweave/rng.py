"""Deterministic 64-bit RNG for every seeded stream in geoweave.

SplitMix64 is used directly as the draw generator, in exact integer
arithmetic, so a seed fixes the whole draw sequence and the frozen match
tallies can compare full trajectories rather than statistics.
"""

from __future__ import annotations

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM = 0xA0761D6478BD642F
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def mix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (next_state, output)."""
    state = (state + _GAMMA) & _M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return state, z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Independent child seed for worker/game/ply streams."""
    _, z = mix64((seed ^ (_STREAM * (index + 1))) & _M64)
    return z


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next_u64(self) -> int:
        self.state, z = mix64(self.state)
        return z

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits: the top bits of
        ``next_u64``, with its mix step written out inline."""
        state = self.state = (self.state + _GAMMA) & _M64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return ((z ^ (z >> 31)) >> 11) * _INV53
