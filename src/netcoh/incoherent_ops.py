"""Kraus-channel machinery for the resource theory of coherence.

Covers verification of incoherent and strict-incoherent channels, the
permutation generators of the classical-gate image, the dephase-sandwich
construction, the classical-computation embedding and extraction maps, and
a generator of random incoherent channels.

All structural checks are relative to a ProductBasis: Kraus operators are
expressed in that basis frame before testing sparsity patterns.  Entries of
magnitude at most 1e-10 are treated as structural zeros, matching the
package-wide identity tolerance.

A channel is held as one read-only complex (K, d, d) stack of its Kraus
operators.  The checks are array code over a zero-padded (N, K, d, d) stack
of N channels, and a one-channel check is its N = 1 case: ``pad_kraus``
appends zero operators to the shorter sets, which add exact 0.0 to every
sum and no support, so no verdict or witness moves.
``require_kraus_stack`` validates each member as ``KrausChannel`` does,
``in_frame_stack`` takes every member into its own basis frame, and
``incoherent_stack`` and ``strict_incoherent_stack`` return each member's
verdict and witness.  The sparsity tests take one support mask over the
stack, and each witness is the first hit in operator, then column (or row)
order (``argmax`` over the member's flattened mask).  The matrix-unit test
forms, for each operator F, the d x d x d products F_ak conj(F_bl) with
a = b and with k = l.  It visits the operators in blocks, for every member
not yet failed, and stops once all have failed; a block of B operators on
P members holds P B d^3 products, and B is the most that keeps this within
``MAX_BLOCK_ENTRIES`` (2^18), or 1.  So its working memory is
O(max(2^18, N d^3)) entries, not O(N K d^3).
``embed_classical`` and ``sandwich_dephase`` stack basis outer products into
their Kraus sets.  A random incoherent channel is drawn alone
(``draw_incoherent_kraus``, in stream order) and built with others
(``build_incoherent_kraus``, one ``hermitian_eig`` call per group size for
every channel given).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .coherence import ProductBasis
from .linalg import (
    ATOL_IDENTITY,
    ATOL_SPECTRAL,
    DensityMatrix,
    DimensionMismatchError,
    check_finite,
    hermitian_eig,
)

STRUCTURAL_ZERO = ATOL_IDENTITY
PRUNE_NORM = 1e-12

# Most complex products the matrix-unit strictness test forms at once: a
# block of B operators on P members forms P B d^3 of them.
MAX_BLOCK_ENTRIES = 1 << 18


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
        require_kraus_stack(ops[None])
        ops.setflags(write=False)
        object.__setattr__(self, "kraus", ops)

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    @classmethod
    def unitary(cls, u: np.ndarray) -> "KrausChannel":
        return cls((u,))


def pad_kraus(sets: Sequence[np.ndarray]) -> np.ndarray:
    """One complex (N, K, d, d) stack of N Kraus sets of d x d operators,
    the shorter sets zero-padded at the end of the operator axis."""
    k = max(len(ops) for ops in sets)
    d = sets[0].shape[-1]
    stack = np.zeros((len(sets), k, d, d), dtype=complex)
    for member, ops in zip(stack, sets):
        member[: len(ops)] = ops
    return stack


def require_kraus_stack(stack: np.ndarray) -> None:
    """``KrausChannel``'s checks on each member of a zero-padded (N, K, d, d)
    stack: a (K, d, d) shape, finite entries, then completeness,
    || sum_i F_i^dag F_i - I ||_max <= 1e-9.

    The checks run on the whole stack at once.  If one fails, the first
    member that fails raises the error it raises alone.
    """
    if stack.size == 0:
        raise ValueError("a channel needs at least one Kraus operator")
    if stack.ndim != 4 or stack.shape[2] != stack.shape[3]:
        raise DimensionMismatchError(f"expected a (K, d, d) Kraus stack, got {stack.shape[1:]}")
    # A non-finite member's products would warn; its error is NaN or
    # infinite, so it fails the tolerance and check_finite names it.
    with np.errstate(invalid="ignore"):
        products = stack.conj().swapaxes(-2, -1) @ stack
        # reduce adds in operator order, as a loop does; sum(axis=1) may not.
        total = reduce(np.add, products.swapaxes(0, 1))
        errs = np.abs(total - np.eye(stack.shape[-1])).max(axis=(-2, -1))
    if np.all(errs <= ATOL_SPECTRAL):  # fails on NaN too
        return
    for member, err in zip(stack, errs.tolist()):
        check_finite(member, "F")
        if not err <= ATOL_SPECTRAL:
            raise ValueError(f"Kraus completeness violated: ||sum F'F - I||_max = {err:.3e}")


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


def in_frame_stack(kraus: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Each member of a (N, K, d, d) Kraus stack in its own basis frame,
    B^dag F B, for a (N, d, d) stack of global basis matrices B."""
    return bases.conj().swapaxes(-2, -1)[:, None] @ kraus @ bases[:, None]


def _in_frame(channel: KrausChannel, basis: ProductBasis) -> np.ndarray:
    """The Kraus operators in the basis frame, as one (K, d, d) stack."""
    if channel.dim != basis.dim:
        raise DimensionMismatchError(f"channel dim {channel.dim} != basis dim {basis.dim}")
    return in_frame_stack(channel.kraus[None], basis.matrix[None])[0]


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


def _first_hits(bad: np.ndarray) -> list[int | None]:
    """Per member of a (N, ...) mask, the flat index of its first True
    entry, or None if it has none."""
    flat = bad.reshape(len(bad), -1)
    hits = flat.argmax(axis=1).tolist()
    return [j if any_bad else None for any_bad, j in zip(flat.any(axis=1).tolist(), hits)]


def incoherent_stack(frames: np.ndarray) -> list[tuple[bool, ColumnWitness | None]]:
    """``is_incoherent``'s verdict and witness for each member of a (N, K, d, d)
    stack of Kraus operators in their basis frames."""
    support = np.abs(frames) > STRUCTURAL_ZERO
    d = frames.shape[-1]
    bad = support.sum(axis=2) > 1  # (N, K, d): columns with several non-zero rows
    verdicts = []
    for member, hit in zip(support, _first_hits(bad)):
        if hit is None:
            verdicts.append((True, None))
            continue
        i, col = divmod(hit, d)
        rows = tuple(int(r) for r in np.nonzero(member[i, :, col])[0])
        verdicts.append((False, ColumnWitness(i, col, rows)))
    return verdicts


def is_incoherent(
    channel: KrausChannel, basis: ProductBasis
) -> tuple[bool, ColumnWitness | None]:
    """Every Kraus operator maps basis states to multiples of basis states.

    Equivalent to at most one non-zero entry per column of each Kraus
    operator in the basis frame.  On failure the witness names the first
    offending (kraus, column) with its non-zero rows.
    """
    return incoherent_stack(_in_frame(channel, basis)[None])[0]


def _sparsity_strict(frames: np.ndarray) -> list[tuple[bool, StrictnessWitness | None]]:
    # Per operator, a bad column is reported before a bad row.
    support = np.abs(frames) > STRUCTURAL_ZERO
    d = frames.shape[-1]
    bad = np.concatenate((support.sum(axis=2) > 1, support.sum(axis=3) > 1), axis=2)
    verdicts = []
    for member, hit in zip(support, _first_hits(bad)):
        if hit is None:
            verdicts.append((True, None))
            continue
        i, j = divmod(hit, 2 * d)
        if j < d:
            row = np.nonzero(member[i, :, j])[0][0]
            verdicts.append((False, StrictnessWitness(i, int(row), j)))
        else:
            col = np.nonzero(member[i, j - d, :])[0][0]
            verdicts.append((False, StrictnessWitness(i, j - d, int(col))))
    return verdicts


def _matrix_unit_strict(frames: np.ndarray) -> list[tuple[bool, StrictnessWitness | None]]:
    # Definitional check: dephasing commutes with each Kraus operator on
    # every matrix unit |k><l|.  F|k><l|F^dag has entries F_ak conj(F_bl);
    # the commutator keeps its diagonal (a = b) when k != l and its
    # off-diagonal (a != b) when k = l.  Operators are tested in blocks, on
    # the members that passed every earlier block; a member's witness is
    # its first hit in operator, then (k, l) order.
    n, k, d, _ = frames.shape
    diag = np.arange(d)
    verdicts: list[tuple[bool, StrictnessWitness | None]] = [(True, None)] * n
    pending = np.arange(n)
    lo = 0
    while lo < k and pending.size:
        hi = min(k, lo + max(1, MAX_BLOCK_ENTRIES // (pending.size * d**3)))
        f = frames[pending, lo:hi]
        fc = f.conj()
        gap = np.abs(f[..., :, :, None] * fc[..., :, None, :]).max(axis=-3)  # [k, l], a = b
        same = np.abs(f[..., :, None, :] * fc[..., None, :, :])  # [a, b, k], k = l
        same[..., diag, diag, :] = 0.0
        gap[..., diag, diag] = same.max(axis=(-3, -2))
        hits = _first_hits(gap > STRUCTURAL_ZERO)
        for member, hit in zip(pending.tolist(), hits):
            if hit is not None:
                i, unit = divmod(hit, d * d)
                verdicts[member] = (False, StrictnessWitness(lo + i, *divmod(unit, d)))
        pending = pending[[hit is None for hit in hits]]
        lo = hi
    return verdicts


def strict_incoherent_stack(frames: np.ndarray) -> list[tuple[bool, StrictnessWitness | None]]:
    """``is_strict_incoherent``'s verdict and witness for each member of a
    (N, K, d, d) stack of Kraus operators in their basis frames; raises on
    the first member whose two tests disagree."""
    units = _matrix_unit_strict(frames)
    for (ok_units, _), (ok_sparse, _) in zip(units, _sparsity_strict(frames)):
        if ok_units != ok_sparse:
            raise ArithmeticError(
                "strictness tests disagree (matrix-unit vs sparsity); "
                "channel has entries at the structural-zero boundary"
            )
    return units


def is_strict_incoherent(
    channel: KrausChannel, basis: ProductBasis
) -> tuple[bool, StrictnessWitness | None]:
    """Neither creates nor consumes coherence: dephasing commutes with every
    Kraus operator.

    Two equivalent tests run and must agree: the definitional commutation
    check on the full matrix-unit operator basis, and the shortcut that each
    Kraus operator has at most one non-zero entry per row and per column.
    Disagreement means a tolerance-boundary pathology and raises.  On
    failure the witness is the matrix-unit test's.
    """
    return strict_incoherent_stack(_in_frame(channel, basis)[None])[0]


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
    ok, witness = strict_incoherent_stack(frames[None])[0]
    if not ok:
        raise ValueError(f"channel is not strict incoherent (witness {witness})")
    return classical_action(frames)


def classical_action(frames: np.ndarray) -> StochasticMatrix:
    """G_ij = sum_m |F_m[i, j]|^2 for a strict incoherent channel's (K, d, d)
    Kraus operators in the basis frame, not checked for strictness: the
    body of ``extract_classical``, for a caller that has run the test."""
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


# Completion weights are at least 1 - 0.95^2 = 0.0975, far above this floor,
# so every completion row is drawn before its weight is known.
COMPLETION_FLOOR = 1e-14


def draw_incoherent_kraus(d: int, gen: np.random.Generator) -> tuple:
    """The draws of one random incoherent channel on d levels, in stream
    order, for ``build_incoherent_kraus``.

    A random column order is cut into groups of one or two columns.  Each
    group draws a complex amplitude vector w scaled to a norm in
    [0.2, 0.95], the row it feeds, and one row for each of its g
    completion members.  Returns one (columns, w, row, completion rows)
    tuple per group.
    """
    order = gen.permutation(d)
    columns = []
    i = 0
    while i < d:
        size = 2 if (i + 1 < d and gen.random() < 0.6) else 1
        columns.append(order[i : i + size].tolist())
        i += size
    groups = []
    for cols in columns:
        w = gen.standard_normal(len(cols)) + 1j * gen.standard_normal(len(cols))
        w *= (0.2 + 0.75 * gen.random()) / np.linalg.norm(w)
        row = int(gen.integers(d))
        completion_rows = [int(gen.integers(d)) for _ in cols]
        groups.append((cols, w, row, completion_rows))
    return tuple(groups)


def build_incoherent_kraus(d: int, draws: Sequence[tuple]) -> list[np.ndarray]:
    """The (K, d, d) Kraus stack of each channel drawn by
    ``draw_incoherent_kraus``, with exact completeness.

    Each group feeds its row through w, and its completeness deficit
    I - conj(w) w^T is eigen-factored into single-row members, one per
    eigenvalue, after the group's own member.  One ``hermitian_eig`` call
    per group size covers every group of every channel.  Two-column members
    have two entries in one row, so generic draws are incoherent but not
    strict; all-singleton draws are strict.
    """
    groups = [group for draw in draws for group in draw]
    completions: list = [None] * len(groups)
    for size in sorted({len(w) for _, w, _, _ in groups}):
        members = [j for j, (_, w, _, _) in enumerate(groups) if len(w) == size]
        w = np.stack([groups[j][1] for j in members])
        lam, vec = hermitian_eig(np.eye(size) - w.conj()[:, :, None] * w[:, None, :])
        if not np.all(lam > COMPLETION_FLOOR):
            raise ArithmeticError("completion weight below 1e-14; the draws would shift")
        for j, comp in zip(members, np.sqrt(lam)[:, None, :] * vec.conj()):
            completions[j] = comp
    stacks = []
    pending = iter(completions)
    for draw in draws:
        ops = np.zeros((len(draw) + d, d, d), dtype=complex)
        m = 0
        for cols, w, row, completion_rows in draw:
            ops[m, row, cols] = w
            comp = next(pending)
            for c, r in enumerate(completion_rows):
                ops[m + 1 + c, r, cols] = comp[:, c]
            m += 1 + len(cols)
        stacks.append(ops)
    return stacks


def random_incoherent_kraus(d: int, gen: np.random.Generator) -> np.ndarray:
    """Kraus operators of a random incoherent channel on d levels, as a
    (K, d, d) stack with exact completeness: ``build_incoherent_kraus`` on
    one ``draw_incoherent_kraus``.  ``random_incoherent_channel`` wraps
    them."""
    return build_incoherent_kraus(d, [draw_incoherent_kraus(d, gen)])[0]


def random_incoherent_channel(d: int, gen: np.random.Generator) -> KrausChannel:
    """Random incoherent channel on d levels (``random_incoherent_kraus``)."""
    return KrausChannel(random_incoherent_kraus(d, gen))
