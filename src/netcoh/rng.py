"""Counter-based random streams and Haar/Ginibre sampling.

All randomness in the package flows through Philox, a counter-based 64-bit
generator whose output is bit-reproducible across platforms.  Independent
substreams are derived from a single master seed by hashing a tuple of lane
indices into the second key word, so results do not depend on the order in
which substreams are consumed.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

# SplitMix64-style multiplier; lane tuples map to distinct key words with
# overwhelming probability for the small index ranges used here.
_LANE_MULT = 0x9E3779B97F4A7C15

DEFAULT_SEED = 0xC0FFEE


def _mix_lanes(lanes: tuple[int, ...]) -> int:
    h = 0
    for lane in lanes:
        h = (h * _LANE_MULT + (int(lane) + 1)) & MASK64
        h ^= h >> 31
    return h


def substream(seed: int, *lanes: int) -> np.random.Generator:
    """Return an independent generator for (seed, *lanes).

    The Philox key is (seed, mix(lanes)); distinct lane tuples give
    statistically independent streams under the same master seed.
    """
    key = np.array([int(seed) & MASK64, _mix_lanes(lanes)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def ginibre(dim: int, gen: np.random.Generator) -> np.ndarray:
    """Square complex Gaussian matrix with i.i.d. standard complex normal entries."""
    return (gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))) / np.sqrt(2.0)


def haar_unitary(dim: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    z = ginibre(dim, gen)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases.conj()
