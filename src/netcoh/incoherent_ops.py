"""Kraus-channel machinery for the resource theory of coherence.

Covers verification of incoherent and strict-incoherent channels, the
permutation generators of the classical-gate image, the dephase-sandwich
construction, and the classical-computation embedding and extraction maps.

All structural checks are relative to a ProductBasis: Kraus operators are
expressed in that basis frame before testing sparsity patterns.  Entries of
magnitude at most 1e-10 are treated as structural zeros, matching the
package-wide identity tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coherence import ProductBasis
from .linalg import (
    ATOL_SPECTRAL,
    DensityMatrix,
    DimensionMismatchError,
    as_square_matrix,
    matrix_from_json,
    matrix_to_json,
)

STRUCTURAL_ZERO = 1e-10
PRUNE_NORM = 1e-12


@dataclass(frozen=True)
class KrausChannel:
    """Finite Kraus set with a completeness certificate.

    Invariant: || sum_i F_i^dag F_i - I ||_max <= 1e-9, which makes the
    channel trace preserving to the same tolerance.
    """

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.kraus:
            raise ValueError("a channel needs at least one Kraus operator")
        mats = []
        dim = None
        for f in self.kraus:
            m = as_square_matrix(f)
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise DimensionMismatchError("Kraus operators must share one dimension")
            m = m.copy()
            m.setflags(write=False)
            mats.append(m)
        total = sum(m.conj().T @ m for m in mats)
        err = float(np.max(np.abs(total - np.eye(dim))))
        if not err <= ATOL_SPECTRAL:  # fails on NaN too
            raise ValueError(f"Kraus completeness violated: ||sum F'F - I||_max = {err:.3e}")
        object.__setattr__(self, "kraus", tuple(mats))

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @classmethod
    def unitary(cls, u: np.ndarray) -> "KrausChannel":
        return cls((u,))


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    if channel.dim != rho.dim:
        raise DimensionMismatchError(f"channel dim {channel.dim} != state dim {rho.dim}")
    out = sum(f @ rho.matrix @ f.conj().T for f in channel.kraus)
    return DensityMatrix(out, rho.dims)


def compose_channels(outer: KrausChannel, inner: KrausChannel) -> KrausChannel:
    """Channel applying ``inner`` first, then ``outer``."""
    if outer.dim != inner.dim:
        raise DimensionMismatchError("cannot compose channels of different dimension")
    return KrausChannel(tuple(f @ g for f in outer.kraus for g in inner.kraus))


def _check_channel_basis(channel: KrausChannel, basis: ProductBasis) -> np.ndarray:
    if channel.dim != basis.dim:
        raise DimensionMismatchError(f"channel dim {channel.dim} != basis dim {basis.dim}")
    return basis.matrix


def _in_frame(channel: KrausChannel, basis: ProductBasis) -> list[np.ndarray]:
    b = _check_channel_basis(channel, basis)
    return [b.conj().T @ f @ b for f in channel.kraus]


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
    for i, f in enumerate(_in_frame(channel, basis)):
        support = np.abs(f) > STRUCTURAL_ZERO
        counts = support.sum(axis=0)
        bad = np.nonzero(counts > 1)[0]
        if bad.size:
            col = int(bad[0])
            rows = tuple(int(r) for r in np.nonzero(support[:, col])[0])
            return False, ColumnWitness(i, col, rows)
    return True, None


def _sparsity_strict(frames: Sequence[np.ndarray]) -> tuple[bool, StrictnessWitness | None]:
    for i, f in enumerate(frames):
        support = np.abs(f) > STRUCTURAL_ZERO
        col_bad = np.nonzero(support.sum(axis=0) > 1)[0]
        if col_bad.size:
            col = int(col_bad[0])
            rows = np.nonzero(support[:, col])[0]
            return False, StrictnessWitness(i, int(rows[0]), col)
        row_bad = np.nonzero(support.sum(axis=1) > 1)[0]
        if row_bad.size:
            row = int(row_bad[0])
            cols = np.nonzero(support[row, :])[0]
            return False, StrictnessWitness(i, row, int(cols[0]))
    return True, None


def _matrix_unit_strict(frames: Sequence[np.ndarray]) -> tuple[bool, StrictnessWitness | None]:
    # Definitional check: dephasing commutes with each Kraus operator on
    # every matrix unit |k><l|.
    for i, f in enumerate(frames):
        d = f.shape[0]
        for k in range(d):
            for l in range(d):
                pushed = np.outer(f[:, k], f[:, l].conj())
                lhs = np.diag(np.diagonal(pushed))
                rhs = pushed if k == l else np.zeros_like(pushed)
                if float(np.max(np.abs(lhs - rhs))) > STRUCTURAL_ZERO:
                    return False, StrictnessWitness(i, k, l)
    return True, None


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
    frames = _in_frame(channel, basis)
    ok_units, witness_units = _matrix_unit_strict(frames)
    ok_sparse, witness_sparse = _sparsity_strict(frames)
    if ok_units != ok_sparse:
        raise ArithmeticError(
            "strictness tests disagree (matrix-unit vs sparsity); "
            "channel has entries at the structural-zero boundary"
        )
    return ok_units, witness_units if not ok_units else witness_sparse


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


@dataclass(frozen=True)
class ClassicalState:
    """Probability vector over the computational alphabet."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float).reshape(-1)
        if np.min(p) < -1e-12:
            raise ValueError("probabilities must be non-negative")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    @property
    def dim(self) -> int:
        return self.probabilities.shape[0]


def embed_classical(g: StochasticMatrix, basis: ProductBasis) -> KrausChannel:
    """Quantum channel realizing a stochastic map on basis-diagonal states.

    Kraus set {sqrt(g_ij) |i><j|} in the basis frame; strict incoherent by
    construction, and diag(p) maps to diag(g p).
    """
    if g.dim != basis.dim:
        raise DimensionMismatchError(f"stochastic dim {g.dim} != basis dim {basis.dim}")
    b = basis.matrix
    kraus = []
    for i in range(g.dim):
        for j in range(g.dim):
            w = g.matrix[i, j]
            if w > 0.0:
                kraus.append(np.sqrt(w) * np.outer(b[:, i], b[:, j].conj()))
    return KrausChannel(tuple(kraus))


def extract_classical(channel: KrausChannel, basis: ProductBasis) -> StochasticMatrix:
    """Stochastic action of a strict incoherent channel on basis states.

    G_ij = <i| channel(|j><j|) |i>; inverse of embed_classical on diagonal
    states.  Raises if the channel is not strict incoherent.
    """
    ok, witness = is_strict_incoherent(channel, basis)
    if not ok:
        raise ValueError(f"channel is not strict incoherent (witness {witness})")
    frames = _in_frame(channel, basis)
    d = channel.dim
    g = np.zeros((d, d))
    for f in frames:
        g += np.abs(f) ** 2
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
    b = _check_channel_basis(inner, basis)
    frames = _in_frame(inner, basis)
    d = inner.dim
    kraus = []
    for f in frames:
        for k in range(d):
            for j in range(d):
                c = f[k, j]
                if abs(c) > PRUNE_NORM:
                    kraus.append(c * np.outer(b[:, k], b[:, j].conj()))
    return KrausChannel(tuple(kraus))


def channel_to_json(channel: KrausChannel) -> list[dict]:
    return [matrix_to_json(f) for f in channel.kraus]


def channel_from_json(objs: list[dict]) -> KrausChannel:
    return KrausChannel(tuple(matrix_from_json(o) for o in objs))
