"""Counter-based random streams and Haar/Ginibre sampling.

All randomness in the package flows through Philox, a counter-based 64-bit
generator whose output is bit-reproducible across platforms.  Independent
substreams are derived from a single master seed by hashing a tuple of lane
indices into the second key word, so results do not depend on the order in
which substreams are consumed.

A Philox stream is fixed by its key and counter alone.  ``substream`` builds
one generator per lane tuple; ``draw_substreams`` builds one generator and
rekeys it for each lane tuple (counter 0, output buffers cleared), which
gives exactly the values a fresh ``substream`` would, at about a fifth of
the cost per stream.  This module is the only place a generator is built,
so every stream's key comes from ``_philox_key``.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

import numpy as np

MASK64 = (1 << 64) - 1

# SplitMix64-style multiplier; lane tuples map to distinct key words with
# overwhelming probability for the small index ranges used here.
_LANE_MULT = 0x9E3779B97F4A7C15

DEFAULT_SEED = 0xC0FFEE

# A fresh Philox generator's counter and output buffer; its buffer position
# says the buffer is used up, so the next draw runs the counter.
_PHILOX_ZEROS = np.zeros(4, dtype=np.uint64)
_PHILOX_BUFFER_SIZE = 4

_T = TypeVar("_T")


def _mix_lanes(lanes: tuple[int, ...]) -> int:
    h = 0
    for lane in lanes:
        h = (h * _LANE_MULT + (int(lane) + 1)) & MASK64
        h ^= h >> 31
    return h


def _philox_key(seed: int, lanes: tuple[int, ...]) -> tuple[int, int]:
    """The Philox key of stream (seed, *lanes): (seed, mix(lanes))."""
    return int(seed) & MASK64, _mix_lanes(lanes)


def substream(seed: int, *lanes: int) -> np.random.Generator:
    """Return an independent generator for (seed, *lanes).

    The Philox key is (seed, mix(lanes)); distinct lane tuples give
    statistically independent streams under the same master seed.
    """
    key = np.array(_philox_key(seed, lanes), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_substreams(
    seed: int, lanes: Iterable[tuple[int, ...]], draw: Callable[[np.random.Generator], _T]
) -> list[_T]:
    """``[draw(substream(seed, *l)) for l in lanes]``, bit for bit, through one
    generator rekeyed per lane tuple.

    Each stream starts as a fresh generator does: key (seed, mix(l)),
    counter 0, and no buffered output, including the half of a 64-bit word
    a 32-bit draw leaves behind.  ``draw`` must not keep the generator, which
    the next lane tuple rekeys.
    """
    gen = substream(seed)
    bits = gen.bit_generator
    out = []
    for lane in lanes:
        bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": _PHILOX_ZEROS, "key": _philox_key(seed, lane)},
            "buffer": _PHILOX_ZEROS,
            "buffer_pos": _PHILOX_BUFFER_SIZE,
            "has_uint32": 0,
            "uinteger": 0,
        }
        out.append(draw(gen))
    return out


def ginibre_stack(normals: np.ndarray, dim: int) -> np.ndarray:
    """A (N, d, d) stack of Ginibre matrices from a (N, 2 d^2) array of
    standard normal draws: each row's first d^2 values are the real parts
    and the next d^2 the imaginary parts, both row-major."""
    z = normals.reshape(-1, 2, dim, dim)
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def ginibre(dim: int, gen: np.random.Generator) -> np.ndarray:
    """Square complex Gaussian matrix with i.i.d. standard complex normal
    entries: ``ginibre_stack`` on one draw of 2 d^2 standard normals."""
    return ginibre_stack(gen.standard_normal(2 * dim * dim), dim)[0]


def haar_unitaries(z: np.ndarray) -> np.ndarray:
    """Haar-random unitaries from a (N, d, d) stack of Ginibre matrices: one
    batched QR, and each column's phase fixed by its R diagonal entry."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = diag / np.abs(diag)
    return q * phases.conj()[..., None, :]


def haar_unitary(dim: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: ``haar_unitaries`` on one Ginibre draw."""
    return haar_unitaries(ginibre(dim, gen)[None])[0]
