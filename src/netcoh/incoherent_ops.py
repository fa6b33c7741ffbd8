"""Kraus-channel machinery for the resource theory of coherence.

Covers verification of incoherent and strict-incoherent channels, the
permutation generators of the classical-gate image, the dephase-sandwich
construction, and the classical-computation embedding and extraction maps.

All structural checks are relative to a ProductBasis: Kraus operators are
expressed in that basis frame before testing sparsity patterns.  Entries of
magnitude at most 1e-10 are treated as structural zeros, matching the
package-wide identity tolerance.

A channel is held as one read-only complex (K, d, d) stack of its Kraus
operators, and the checks are array code over it: the sparsity tests take
one support mask over the stack in the basis frame, and each witness is the
first hit in operator, then column (or row) order (``argmax`` over the
flattened mask).  The matrix-unit test visits one operator at a time, so it
can stop at the first that fails: for F it forms the d x d x d products
F_ak conj(F_bl) with a = b and with k = l, which bounds its working memory
at O(d^3) per operator, not O(K d^3) per channel.  ``embed_classical`` and
``sandwich_dephase`` stack basis outer products into their Kraus sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .coherence import ProductBasis
from .linalg import (
    ATOL_IDENTITY,
    ATOL_SPECTRAL,
    DensityMatrix,
    DimensionMismatchError,
    check_finite,
)

STRUCTURAL_ZERO = ATOL_IDENTITY
PRUNE_NORM = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    """Finite Kraus set with a completeness certificate, held as a read-only
    complex (K, d, d) copy of the operators given (a sequence or a stack).

    Invariant: || sum_i F_i^dag F_i - I ||_max <= 1e-9, which makes the
    channel trace preserving to the same tolerance.
    """

    kraus: np.ndarray

    def __post_init__(self):
        try:
            ops = np.array(self.kraus, dtype=complex)
        except ValueError as exc:
            raise DimensionMismatchError(f"Kraus operators must form one array: {exc}") from exc
        if ops.size == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
            raise DimensionMismatchError(f"expected a (K, d, d) Kraus stack, got {ops.shape}")
        check_finite(ops, "F")
        # reduce adds in operator order, as a loop does; sum(axis=0) may not.
        total = reduce(np.add, ops.conj().transpose(0, 2, 1) @ ops)
        err = float(np.max(np.abs(total - np.eye(ops.shape[1]))))
        if not err <= ATOL_SPECTRAL:  # fails on NaN too
            raise ValueError(f"Kraus completeness violated: ||sum F'F - I||_max = {err:.3e}")
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    @classmethod
    def unitary(cls, u: np.ndarray) -> "KrausChannel":
        return cls((u,))


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    if channel.dim != rho.dim:
        raise DimensionMismatchError(f"channel dim {channel.dim} != state dim {rho.dim}")
    out = reduce(np.add, channel.kraus @ rho.matrix @ channel.kraus.conj().transpose(0, 2, 1))
    return DensityMatrix(out, rho.dims)


def compose_channels(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """Channel applying ``inner`` first, then ``outer``; outer-major operator order."""
    if outer.dim != inner.dim:
        raise DimensionMismatchError("cannot compose channels of different dimension")
    d = outer.dim
    return KrausChannel((outer.kraus[:, None] @ inner.kraus[None]).reshape(-1, d, d))


def _in_frame(channel: KrausChannel, basis: ProductBasis) -> np.ndarray:
    """The Kraus operators in the basis frame, as one (K, d, d) stack."""
    if channel.dim != basis.dim:
        raise DimensionMismatchError(f"channel dim {channel.dim} != basis dim {basis.dim}")
    b = basis.matrix
    return b.conj().T @ channel.kraus @ b


@dataclass(frozen=True)
class ColumnWitness:
    """Column of a Kraus operator with more than one non-zero entry."""

    kraus_index: int
    column: int
    rows: tuple[int, ...]


@dataclass(frozen=True)
class StrictnessWitness:
    """Matrix unit |k><l| on which the dephasing commutation fails."""

    kraus_index: int
    ket: int
    bra: int


def is_incoherent(
    channel: KrausChannel, basis: ProductBasis
) -> tuple[bool, ColumnWitness | None]:
    """Every Kraus operator maps basis states to multiples of basis states.

    Equivalent to at most one non-zero entry per column of each Kraus
    operator in the basis frame.  On failure the witness names the first
    offending (kraus, column) with its non-zero rows.
    """
    support = np.abs(_in_frame(channel, basis)) > STRUCTURAL_ZERO
    bad = support.sum(axis=1) > 1  # (K, d): columns with several non-zero rows
    if not bad.any():
        return True, None
    i, col = np.unravel_index(np.argmax(bad), bad.shape)
    rows = tuple(int(r) for r in np.nonzero(support[i, :, col])[0])
    return False, ColumnWitness(int(i), int(col), rows)


def _sparsity_strict(frames: np.ndarray) -> tuple[bool, StrictnessWitness | None]:
    # Per operator, a bad column is reported before a bad row.
    support = np.abs(frames) > STRUCTURAL_ZERO
    d = frames.shape[-1]
    bad = np.concatenate((support.sum(axis=1) > 1, support.sum(axis=2) > 1), axis=1)
    if not bad.any():
        return True, None
    i, j = np.unravel_index(np.argmax(bad), bad.shape)
    if j < d:
        row = np.nonzero(support[i, :, j])[0][0]
        return False, StrictnessWitness(int(i), int(row), int(j))
    col = np.nonzero(support[i, j - d, :])[0][0]
    return False, StrictnessWitness(int(i), int(j - d), int(col))


def _matrix_unit_strict(frames: np.ndarray) -> tuple[bool, StrictnessWitness | None]:
    # Definitional check: dephasing commutes with each Kraus operator on
    # every matrix unit |k><l|.  F|k><l|F^dag has entries F_ak conj(F_bl);
    # the commutator keeps its diagonal (a = b) when k != l and its
    # off-diagonal (a != b) when k = l.
    diag = np.arange(frames.shape[-1])
    for i, (f, fc) in enumerate(zip(frames, frames.conj())):
        gap = np.abs(f[:, :, None] * fc[:, None, :]).max(axis=0)  # [k, l], a = b
        same = np.abs(f[:, None, :] * fc[None, :, :])  # [a, b, k], k = l
        same[diag, diag] = 0.0
        gap[diag, diag] = same.max(axis=(0, 1))
        above = gap > STRUCTURAL_ZERO
        if above.any():
            k, l = np.unravel_index(np.argmax(above), above.shape)
            return False, StrictnessWitness(i, int(k), int(l))
    return True, None


def _strict(frames: np.ndarray) -> tuple[bool, StrictnessWitness | None]:
    ok_units, witness_units = _matrix_unit_strict(frames)
    ok_sparse, witness_sparse = _sparsity_strict(frames)
    if ok_units != ok_sparse:
        raise ArithmeticError(
            "strictness tests disagree (matrix-unit vs sparsity); "
            "channel has entries at the structural-zero boundary"
        )
    return ok_units, witness_units if not ok_units else witness_sparse


def is_strict_incoherent(
    channel: KrausChannel, basis: ProductBasis
) -> tuple[bool, StrictnessWitness | None]:
    """Neither creates nor consumes coherence: dephasing commutes with every
    Kraus operator.

    Two equivalent tests run and must agree: the definitional commutation
    check on the full matrix-unit operator basis, and the shortcut that each
    Kraus operator has at most one non-zero entry per row and per column.
    Disagreement means a tolerance-boundary pathology and raises.
    """
    return _strict(_in_frame(channel, basis))


def usi_generators(basis: ProductBasis) -> list[KrausChannel]:
    """Adjacent-transposition permutation channels, generating all of sym(basis).

    Returns d-1 unitary channels; each swaps neighbouring basis vectors and
    passes the strict-incoherence test.
    """
    d = basis.dim
    if d < 2:
        raise ValueError("need basis dimension >= 2")
    b = basis.matrix
    out = []
    for i in range(d - 1):
        perm = np.eye(d, dtype=complex)
        perm[[i, i + 1]] = perm[[i + 1, i]]
        out.append(KrausChannel.unitary(b @ perm @ b.conj().T))
    return out


@dataclass(frozen=True)
class StochasticMatrix:
    """Column-stochastic real matrix: entries >= 0, each column sums to 1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected square matrix, got {m.shape}")
        if np.min(m) < -1e-12:
            raise ValueError("stochastic matrix entries must be non-negative")
        col_err = float(np.max(np.abs(m.sum(axis=0) - 1.0)))
        if not col_err <= 1e-12:
            raise ValueError(f"columns must sum to 1 (max deviation {col_err:.3e})")
        m = np.clip(m, 0.0, None)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _basis_units(b: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Stack of |b_r><b_c| over paired index arrays, each entry as np.outer forms it."""
    return b[:, rows].T[:, :, None] * b[:, cols].conj().T[:, None, :]


def embed_classical(g: StochasticMatrix, basis: ProductBasis) -> KrausChannel:
    """Quantum channel realizing a stochastic map on basis-diagonal states.

    Kraus set {sqrt(g_ij) |i><j|} in the basis frame; strict incoherent by
    construction, and diag(p) maps to diag(g p).
    """
    if g.dim != basis.dim:
        raise DimensionMismatchError(f"stochastic dim {g.dim} != basis dim {basis.dim}")
    rows, cols = np.nonzero(g.matrix > 0.0)
    weights = np.sqrt(g.matrix[rows, cols])[:, None, None]
    return KrausChannel(weights * _basis_units(basis.matrix, rows, cols))


def extract_classical(channel: KrausChannel, basis: ProductBasis) -> StochasticMatrix:
    """Stochastic action of a strict incoherent channel on basis states.

    G_ij = <i| channel(|j><j|) |i>; inverse of embed_classical on diagonal
    states.  Raises if the channel is not strict incoherent.
    """
    frames = _in_frame(channel, basis)
    ok, witness = _strict(frames)
    if not ok:
        raise ValueError(f"channel is not strict incoherent (witness {witness})")
    g = (np.abs(frames) ** 2).sum(axis=0)
    # Zero any structural dust so columns sum to exactly 1 within 1e-12.
    g[g < STRUCTURAL_ZERO**2] = 0.0
    g = g / g.sum(axis=0, keepdims=True)
    return StochasticMatrix(g)


def sandwich_dephase(inner: KrausChannel, basis: ProductBasis) -> KrausChannel:
    """Compose dephase, then ``inner``, then dephase, as one Kraus set.

    The members are {|k><k| F_i |j><j|} in the basis frame, pruned of
    numerically-zero operators (norm <= 1e-12).  The result is always strict
    incoherent, acts like the composed map on every state, and agrees with
    ``inner`` followed by dephasing on basis-diagonal inputs.

    Note the structural test is passed no matter what ``inner`` computes:
    sandwiched channels keep the full input-output power of ``inner`` on
    basis-diagonal states while never touching coherence.  Whether such a
    map decomposes into a short product of permutation generators is a
    question about descriptions, not matrices, and is not asserted here.
    """
    frames = _in_frame(inner, basis)
    i, rows, cols = np.nonzero(np.abs(frames) > PRUNE_NORM)
    coeffs = frames[i, rows, cols][:, None, None]
    return KrausChannel(coeffs * _basis_units(basis.matrix, rows, cols))
