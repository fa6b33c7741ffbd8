"""Dephasing, entropic quantities, coherence measures, and discord.

All entropies and coherence figures are in bits (logarithm base 2), so one
maximally coherent qubit carries exactly 1.0 bit.  The convention
0 log 0 := 0 applies throughout; eigenvalues in [-1e-9, 0) are clamped to
zero before entropy evaluation and anything more negative is a hard error.
State entropies take their spectra from stacked ``linalg.hermitian_eig``
calls, or in closed form at d = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .linalg import (
    ATOL_SPECTRAL,
    GATE_MATRICES,
    PSD_FLOOR,
    DensityMatrix,
    DimensionMismatchError,
    InvalidStateError,
    as_square_matrix,
    density_stack,
    hermitian_eig,
    partial_trace_stack,
    require_integer,
    subsystem_indices,
    tensor,
    tensor_stack,
    unitarity_errors,
)
from .rng import DEFAULT_SEED, ginibre_stack, haar_unitaries, haar_unitary, substream

A_TO_B = "a_to_b"
B_TO_A = "b_to_a"

EIGENVALUE_CLAMP = PSD_FLOOR
IDENTITY_AGREEMENT_TOL = ATOL_SPECTRAL

Cut = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class ProductBasis:
    """Orthonormal product basis: one unitary of column vectors per subsystem.

    The global basis matrix is the tensor product of the local matrices, so
    global column (i_0, i_1, ...) in lexicographic order is the tensor
    product of local columns i_k.
    """

    local_bases: tuple[np.ndarray, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(require_integer(d, "subsystem dim", DimensionMismatchError) for d in self.dims)
        mats = []
        if len(self.local_bases) != len(dims):
            raise DimensionMismatchError(
                f"{len(self.local_bases)} local bases for {len(dims)} subsystems"
            )
        for mat, d in zip(self.local_bases, dims):
            m = as_square_matrix(mat)
            if m.shape[0] != d:
                raise DimensionMismatchError(f"local basis dim {m.shape[0]} != subsystem dim {d}")
            require_unitary_stack(m[None])
            m = m.copy()
            m.setflags(write=False)
            mats.append(m)
        object.__setattr__(self, "local_bases", tuple(mats))
        object.__setattr__(self, "dims", dims)

    @cached_property
    def matrix(self) -> np.ndarray:
        m = tensor(*self.local_bases)
        m.setflags(write=False)
        return m

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @classmethod
    def computational(cls, dims: Sequence[int]) -> "ProductBasis":
        return cls(tuple(np.eye(int(d), dtype=complex) for d in dims), tuple(dims))

    def subset(self, subsystems: Iterable[int]) -> "ProductBasis":
        """Basis restricted to a subset of subsystems, in original order."""
        idx = subsystem_indices(subsystems, len(self.dims), "basis subset")
        return ProductBasis(
            tuple(self.local_bases[i] for i in idx), tuple(self.dims[i] for i in idx)
        )


def require_unitary_stack(stack: np.ndarray) -> None:
    """``ProductBasis``'s check on each local basis of a (N, d, d) stack:
    ``ValueError`` unless every one is unitary within 1e-9."""
    if not np.all(unitarity_errors(stack) <= ATOL_SPECTRAL):
        raise ValueError("local basis matrix is not unitary within 1e-9")


def product_basis_normals(dims: Sequence[int]) -> int:
    """Standard normal draws one product basis on ``dims`` takes: 2 d_k^2
    per subsystem (one Ginibre matrix each)."""
    return sum(2 * int(d) ** 2 for d in dims)


def haar_product_bases(normals: Sequence[np.ndarray], dims: Sequence[int]) -> list:
    """Haar-random product bases from N rows of ``product_basis_normals(dims)``
    standard normals (a sequence or an (N, n) array), one basis per row:
    each row is cut, in subsystem order, into one Ginibre matrix per
    subsystem (``ginibre_stack``).  Returns one (N, d_k, d_k) stack of
    unitaries per subsystem, each from one batched QR and checked by
    ``require_unitary_stack``."""
    normals = np.asarray(normals, dtype=float).reshape(len(normals), product_basis_normals(dims))
    cuts = np.cumsum([0] + [2 * int(d) ** 2 for d in dims])
    stacks = [
        haar_unitaries(ginibre_stack(normals[:, lo:hi], int(d)))
        for lo, hi, d in zip(cuts[:-1], cuts[1:], dims)
    ]
    for u in stacks:
        require_unitary_stack(u)
    return stacks


def random_product_bases(gens: Sequence[np.random.Generator], dims: Sequence[int]) -> list:
    """Haar-random product bases, one per generator, each drawing one Ginibre
    matrix per subsystem in subsystem order: ``haar_product_bases`` on one
    draw of ``product_basis_normals(dims)`` standard normals per generator."""
    n = product_basis_normals(dims)
    return haar_product_bases([gen.standard_normal(n) for gen in gens], dims)


def random_product_basis(dims: Sequence[int], gen: np.random.Generator) -> ProductBasis:
    """One Haar-random product basis: ``random_product_bases`` for N = 1."""
    return ProductBasis(tuple(u[0] for u in random_product_bases([gen], dims)), tuple(dims))


def _check_basis(rho: DensityMatrix, basis: ProductBasis) -> None:
    if basis.dims != rho.dims:
        raise DimensionMismatchError(f"basis dims {basis.dims} != state dims {rho.dims}")


def normalize_cut(dims: Sequence[int], cut: Cut) -> Cut:
    if len(cut) != 2:
        raise DimensionMismatchError(f"cut {cut} must have exactly two groups")
    group_a, group_b = (subsystem_indices(group, len(dims), "cut") for group in cut)
    if not group_a or not group_b:
        raise DimensionMismatchError("both cut groups must be non-empty")
    if sorted(group_a + group_b) != list(range(len(dims))):
        raise DimensionMismatchError(f"cut {cut} does not partition {len(dims)} subsystems")
    return group_a, group_b


BIPARTITE_CUT: Cut = ((0,), (1,))


# ---------------------------------------------------------------------------
# Dephasing


@lru_cache(maxsize=64)
def _dephase_mask(dims: tuple[int, ...], subsystems: tuple[int, ...]) -> np.ndarray:
    """Entries a dephasing of ``subsystems`` keeps: those whose row and
    column agree on every listed subsystem's digit."""
    total = int(np.prod(dims))
    digits = np.array(np.unravel_index(np.arange(total), dims))
    mask = np.ones((total, total), dtype=bool)
    for k in subsystems:
        mask &= digits[k][:, None] == digits[k][None, :]
    mask.setflags(write=False)
    return mask


def _dephased_stack(
    rho: np.ndarray, frame: np.ndarray, dims: tuple[int, ...], subsystems: tuple[int, ...]
) -> np.ndarray:
    """``dephase`` of each state of a (N, d, d) stack in its own global basis
    matrix (a (N, d, d) stack), before validation."""
    frame_h = frame.conj().swapaxes(-2, -1)
    inside = frame_h @ rho @ frame
    inside[..., ~_dephase_mask(dims, subsystems)] = 0.0
    return frame @ inside @ frame_h


def dephase(
    rho: DensityMatrix, basis: ProductBasis, subsystems: Iterable[int] | None = None
) -> DensityMatrix:
    """Zero the off-diagonal elements of the listed subsystems in ``basis``.

    With ``subsystems=None`` all subsystems are dephased (the fully dephasing
    channel).  The map is idempotent and trace preserving.
    """
    _check_basis(rho, basis)
    n = len(rho.dims)
    subs = tuple(range(n)) if subsystems is None else subsystem_indices(subsystems, n, "dephased")
    mat = _dephased_stack(rho.matrix[None], basis.matrix[None], rho.dims, subs)[0]
    return DensityMatrix(mat, rho.dims)


# ---------------------------------------------------------------------------
# Entropies


def entropies_of_probabilities(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits of each row of a (N, n) array, with
    0 log 0 := 0 and roundoff clamping.

    Fails closed: a NaN entry (whose comparisons are all false) or an entry
    below the clamp floor raises ``ValueError``, and so does an infinite
    entry, through the non-finite sum it leaves; the first such row's
    figure is named.  If any entry is zero or clamped, each row sums its
    positive terms alone, as a shorter row would: a row's bits never depend
    on the other rows.
    """
    if not p.min() >= EIGENVALUE_CLAMP:
        lowest = p.min(axis=-1)
        k = int(np.argmax(~(lowest >= EIGENVALUE_CLAMP)))
        raise ValueError(
            f"probability {lowest[k]:.3e} is NaN or below clamp floor {EIGENVALUE_CLAMP:.1e}"
        )
    positive = p > 0.0
    if positive.all():
        q = np.ascontiguousarray(p)
        entropies = -(q * np.log2(q)).sum(axis=-1)
    else:
        entropies = np.array([-(nz * np.log2(nz)).sum() for nz in map(np.compress, positive, p)])
    finite = np.isfinite(entropies)
    if not finite.all():
        raise ValueError(f"entropy {entropies[np.argmin(finite)]} of probabilities is not finite")
    return entropies


def entropy_of_probabilities(p: np.ndarray) -> float:
    """Shannon entropy in bits of all entries of ``p``: one row of
    ``entropies_of_probabilities``."""
    p = np.asarray(p).real.astype(np.float64, copy=False)
    return float(entropies_of_probabilities(p.reshape(1, -1))[0])


def _eigvals_2x2(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian 2x2 matrices on the last two axes."""
    top, bottom = m[..., 0, 0].real, m[..., 1, 1].real
    half_tr = (top + bottom) / 2.0
    radius = np.hypot((top - bottom) / 2.0, np.abs(m[..., 0, 1]))
    return np.stack([half_tr - radius, half_tr + radius], axis=-1)


def _von_neumann_entropies(states: np.ndarray) -> np.ndarray:
    """S in bits of each state of a validated (N, d, d) stack, from one
    ``hermitian_eig`` call or the closed form at d = 2 (a validated state is
    exactly Hermitian, so symmetrizing it keeps its bits)."""
    if states.shape[-1] == 2:
        return entropies_of_probabilities(_eigvals_2x2(states))
    return entropies_of_probabilities(hermitian_eig(states)[0])


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) in bits; lies in [0, log2 dim].  The one-state case of
    ``_von_neumann_entropies``."""
    return float(_von_neumann_entropies(rho.matrix[None])[0])


def _basis_probabilities(rho_mat: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Outcome probabilities <b_i|rho|b_i> of measuring rho in the columns of
    b; both may carry a leading stack axis."""
    return (b.conj() * (rho_mat @ b)).sum(axis=-2).real


def rec(rho: DensityMatrix, basis: ProductBasis) -> float:
    """Relative entropy of coherence: S(dephased rho) - S(rho), in bits.

    Zero exactly on states diagonal in the basis; additive over tensor
    products; non-increasing under incoherent operations.
    """
    _check_basis(rho, basis)
    probs = _basis_probabilities(rho.matrix, basis.matrix)
    return entropy_of_probabilities(probs) - von_neumann_entropy(rho)


def _cut_states(states: np.ndarray, dims: tuple[int, ...], groups: Cut) -> list[np.ndarray]:
    """A validated (N, d, d) stack and its two validated marginal stacks."""
    return [states] + [density_stack(partial_trace_stack(states, dims, g)) for g in groups]


def mutual_information_stack(states: np.ndarray, dims: tuple[int, ...], groups: Cut) -> np.ndarray:
    """S(A) + S(B) - S(AB) of each state of a validated (N, d, d) stack,
    across normalized cut ``groups``."""
    s_ab, s_a, s_b = (_von_neumann_entropies(m) for m in _cut_states(states, dims, groups))
    return s_a + s_b - s_ab


def mutual_information(rho: DensityMatrix, cut: Cut = BIPARTITE_CUT) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) across the cut, in bits."""
    groups = normalize_cut(rho.dims, cut)
    return float(mutual_information_stack(rho.matrix[None], rho.dims, groups)[0])


def dephased_mutual_information_stack(
    states: np.ndarray, local_bases: Sequence[np.ndarray], dims: Sequence[int], cut: Cut
) -> np.ndarray:
    """Mutual information of each state of a (N, d, d) stack, or of one
    (1, d, d) state in every basis, fully dephased in its product basis of
    (N, d_k, d_k) stacks ``local_bases``: H(p_A) + H(p_B) - H(p) of its
    outcome distribution p, with no decomposition of the dephased matrix."""
    group_a, group_b = normalize_cut(dims, cut)
    probs = np.clip(_basis_probabilities(states, tensor_stack(*local_bases)), 0.0, None)
    grid = probs.reshape(-1, *dims)
    p_a = grid.sum(axis=tuple(k + 1 for k in group_b)).reshape(len(probs), -1)
    p_b = grid.sum(axis=tuple(k + 1 for k in group_a)).reshape(len(probs), -1)
    h = entropies_of_probabilities
    return h(p_a) + h(p_b) - h(probs)


# ---------------------------------------------------------------------------
# Net global coherence


@dataclass(frozen=True)
class CoherenceReport:
    """Coherence figures for one state, basis, and bipartition, in bits.

    ``rec_net`` equals both ``rec_global - sum(rec_local)`` and
    ``mutual_info - mutual_info_dephased``; the two routes are computed
    independently and must agree within 1e-9.
    """

    rec_global: float
    rec_local: tuple[float, ...]
    rec_net: float
    mutual_info: float
    mutual_info_dephased: float

    def __post_init__(self):
        route_difference = self.rec_global - sum(self.rec_local)
        route_mutual = self.mutual_info - self.mutual_info_dephased
        if not abs(self.rec_net - route_difference) <= IDENTITY_AGREEMENT_TOL:
            raise ValueError("rec_net inconsistent with rec_global - sum(rec_local)")
        if not abs(self.rec_net - route_mutual) <= IDENTITY_AGREEMENT_TOL:
            raise ValueError("rec_net inconsistent with the mutual-information route")

    def to_json(self) -> dict:
        from .reporting import sig

        return {
            "rec_global": sig(self.rec_global),
            "rec_local": [sig(x) for x in self.rec_local],
            "rec_net": sig(self.rec_net),
            "mutual_info": sig(self.mutual_info),
            "mutual_info_dephased": sig(self.mutual_info_dephased),
        }


class CoherenceFigures(NamedTuple):
    """``CoherenceReport``'s figures for a stack of N states, as arrays of
    shape (N,), and (N, 2) for ``rec_local``."""

    rec_global: np.ndarray
    rec_local: np.ndarray
    rec_net: np.ndarray
    mutual_info: np.ndarray
    mutual_info_dephased: np.ndarray


def net_global_coherence_stack(
    states: np.ndarray,
    local_bases: Sequence[np.ndarray],
    dims: Sequence[int],
    cut: Cut = BIPARTITE_CUT,
) -> CoherenceFigures:
    """Net global coherence of each state of a stack, by both routes of
    ``net_global_coherence``, in one pass of array code.

    ``states`` is a (N, d, d) stack validated by ``density_stack``, and
    ``local_bases[k]`` a (N, d_k, d_k) stack of the states' unitary bases
    on subsystem k.  Member i's figures are bit for bit those of a one-state
    call.  Neither the positivity floor nor the route agreement is checked:
    the caller decides what a violation means.
    """
    dims = tuple(int(d) for d in dims)
    groups = normalize_cut(dims, cut)
    cut_states = _cut_states(states, dims, groups)
    frames = [tensor_stack(*local_bases)] + [
        tensor_stack(*(local_bases[k] for k in group)) for group in groups
    ]
    s_rho, s_a, s_b = entropies = [_von_neumann_entropies(m) for m in cut_states]
    rec_global, *rec_locals = (
        entropies_of_probabilities(_basis_probabilities(m, b)) - s
        for m, b, s in zip(cut_states, frames, entropies)
    )
    dephased = density_stack(_dephased_stack(states, frames[0], dims, tuple(range(len(dims)))))
    return CoherenceFigures(
        rec_global=rec_global,
        rec_local=np.stack(rec_locals, axis=-1),
        rec_net=rec_global - sum(rec_locals),
        mutual_info=s_a + s_b - s_rho,
        mutual_info_dephased=mutual_information_stack(dephased, dims, groups),
    )


def net_global_coherence(
    rho: DensityMatrix, basis: ProductBasis, cut: Cut = BIPARTITE_CUT
) -> CoherenceReport:
    """Net global coherence across a cut, computed by two independent routes.

    Route one is the REC H(p) - S(rho) minus the marginal RECs H(p_X) -
    S(rho_X), with p the outcome probabilities in ``basis`` and p_X those in
    the tensor of group X's local bases.  Route two is S(rho_A) + S(rho_B) -
    S(rho), route one's three entropies, minus the dephased state's mutual
    information, for which it decomposes the dephased matrix and its
    marginals itself: nine entropies in all.  The figures are the one-state
    case of ``net_global_coherence_stack``.  The report checks that the
    routes agree within 1e-9.  A result below -1e-9 raises
    ``InvalidStateError``: a state whose eigenvalues sit just inside the PSD
    floor can pass ``DensityMatrix`` and still drive it there.
    """
    _check_basis(rho, basis)
    figures = net_global_coherence_stack(
        rho.matrix[None], [u[None] for u in basis.local_bases], rho.dims, cut
    )
    net = float(figures.rec_net[0])
    if net < PSD_FLOOR:
        raise InvalidStateError(f"net coherence {net:.3e} below the positivity floor")
    return CoherenceReport(
        rec_global=float(figures.rec_global[0]),
        rec_local=tuple(figures.rec_local[0].tolist()),
        rec_net=net,
        mutual_info=float(figures.mutual_info[0]),
        mutual_info_dephased=float(figures.mutual_info_dephased[0]),
    )


# ---------------------------------------------------------------------------
# Basis-dependent discord


def require_bipartite(rho: DensityMatrix) -> None:
    if len(rho.dims) != 2:
        raise DimensionMismatchError(f"expected a two-subsystem state, got dims {rho.dims}")


def _measured_side(direction: str) -> int:
    if direction == A_TO_B:
        return 0
    if direction == B_TO_A:
        return 1
    raise ValueError(f"direction must be {A_TO_B!r} or {B_TO_A!r}, got {direction!r}")


def _block_kernel(rho_mat: np.ndarray, dims: tuple[int, int], side: int) -> np.ndarray:
    """rho as a (d_m^2, d_o^2) map from an operator X on the measured side to
    Tr_m[(X (x) I) rho]: row (a, c) takes X[c, a], so the row vector of X is
    ``X.T.reshape(-1)``."""
    d_m, d_o = dims[side], dims[1 - side]
    t = rho_mat.reshape(dims + dims)
    if side == 1:
        t = t.transpose(1, 0, 3, 2)
    return t.transpose(0, 2, 1, 3).reshape(d_m * d_m, d_o * d_o)


def _conditional_blocks(
    rho_mat: np.ndarray, dims: tuple[int, int], side: int, basis_mat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weights p_i and unnormalized conditional blocks <i|rho|i> on the other side.

    ``basis_mat`` may carry leading batch axes.  Returns (weights, blocks)
    with blocks of shape (..., d_measured, d_other, d_other).
    """
    d_m, d_o = dims[side], dims[1 - side]
    # blocks[..., i, b, d] = sum_ac conj(u[a, i]) u[c, i] t[a, b, c, d]: the
    # projectors' entries times the kernel, one gemm for all.
    projectors = np.einsum("...ai,...ci->...iac", basis_mat.conj(), basis_mat)
    blocks = (projectors.reshape(-1, d_m * d_m) @ _block_kernel(rho_mat, dims, side)).reshape(
        projectors.shape[:-2] + (d_o, d_o)
    )
    weights = np.einsum("...bb->...", blocks).real
    return weights, blocks


def _discord_from_blocks(
    weights: np.ndarray,
    blocks: np.ndarray,
    mutual_info_value: float,
    entropy_other: float | np.ndarray,
) -> np.ndarray:
    """I(rho) - I(dephased-on-side rho) from the conditional blocks.

    The one-sided dephased state is block diagonal: its entropy is
    H(p) + sum_i p_i S(cond_i), its measured-side marginal has spectrum p,
    and its unmeasured marginal is that of rho (precomputed entropy_other).
    The mutual information of the dephased state thus collapses to
    entropy_other - sum_i p_i S(cond_i / p_i).  ``blocks`` has shape
    (..., outcomes, d_other, d_other) and ``weights`` (..., outcomes); the
    result has the leading batch shape, against which ``entropy_other`` may
    also be an array that broadcasts.  Qubit-sized (2x2) blocks take their
    spectra in closed form, larger ones from ``np.linalg.eigvalsh``.
    """
    spectra = _eigvals_2x2(blocks) if blocks.shape[-1] == 2 else np.linalg.eigvalsh(blocks)
    lam = np.clip(spectra, 0.0, None)
    w = weights[..., None]
    keep = (lam > 0.0) & (w > 1e-15)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(keep, -lam * np.log2(lam / w), 0.0)
    conditional_term = np.sum(terms, axis=(-2, -1))
    return mutual_info_value - (entropy_other - conditional_term)


def _discord_fixed_entropies(
    rho_mat: np.ndarray,
    dims: tuple[int, int],
    side: int,
    basis_mat: np.ndarray,
    mutual_info_value: float,
    entropy_other: float,
) -> np.ndarray:
    """Basis-dependent discord for every basis on the leading axes of
    ``basis_mat`` at once; returns an array of the batch shape (0-d for one
    basis).  The blocks of all bases and outcomes come from one gemm."""
    weights, blocks = _conditional_blocks(rho_mat, dims, side, basis_mat)
    return _discord_from_blocks(weights, blocks, mutual_info_value, entropy_other)


def basis_dependent_discord(rho: DensityMatrix, basis: ProductBasis, direction: str) -> float:
    """Mutual-information loss under one-sided dephasing, in bits.

    Nonnegative; zero for states already block-diagonal in the measured
    side's basis.
    """
    require_bipartite(rho)
    _check_basis(rho, basis)
    side = _measured_side(direction)
    cut_states = _cut_states(rho.matrix[None], rho.dims, BIPARTITE_CUT)
    s_ab, s_a, s_b = (float(_von_neumann_entropies(m)[0]) for m in cut_states)
    mi, ent_other = s_a + s_b - s_ab, (s_a, s_b)[1 - side]
    return float(
        _discord_fixed_entropies(rho.matrix, rho.dims, side, basis.local_bases[side], mi, ent_other)
    )


# ---------------------------------------------------------------------------
# Discord minimization over local bases

# Search parameters, not tolerance tiers.  A basis scoring below
# ZERO_DISCORD_FLOOR ends the search for its side.  A seed stops once a sweep
# gains less than MIN_SWEEP_GAIN, or after MAX_SWEEPS sweeps even if the last
# one still gained more: on a flat valley one seed can otherwise crawl for
# hundreds.
ZERO_DISCORD_FLOOR = 1e-10
MIN_SWEEP_GAIN = 1e-9
MAX_SWEEPS = 40


def _givens(d: int, p: int, q: int, theta, phi) -> np.ndarray:
    """Complex Givens rotation in the (p, q) plane, broadcast over the angles."""
    theta, phi = np.broadcast_arrays(theta, phi)
    g = np.zeros(theta.shape + (d, d), dtype=complex)
    g[..., range(d), range(d)] = 1.0
    g[..., p, p] = g[..., q, q] = np.cos(theta)
    g[..., p, q] = -np.sin(theta) * np.exp(1j * phi)
    g[..., q, p] = np.sin(theta) * np.exp(-1j * phi)
    return g


def _basis_from_angles(seed_unitary: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Seed unitary times the Givens product for the angle vector on the last
    axis of ``angles``; broadcasts over leading axes of both arguments."""
    d = seed_unitary.shape[-1]
    u = seed_unitary
    k = 0
    for p in range(d - 1):
        for q in range(p + 1, d):
            u = u @ _givens(d, p, q, angles[..., k], angles[..., k + 1])
            k += 2
    return u


def minimize_discord(
    rho: DensityMatrix,
    direction: str,
    *,
    seed: int = DEFAULT_SEED,
    restarts: int = 32,
) -> tuple[float, ProductBasis]:
    """Minimum of the basis-dependent discord over local product bases.

    The objective depends only on the measured side's basis, so the search
    runs over that side.  Column phases are omitted because dephasing
    projectors are invariant under them.  The measured marginal's
    eigenbasis and then the identity are tried first, and the first of
    them scoring below 1e-10 is returned, so that zero-discord states come
    back with a marginal-diagonalizing witness.

    A qubit measured side is searched deterministically, and ``seed`` and
    ``restarts`` have no effect.  Its measurements are the Bloch directions
    n, with projectors (I +- n.sigma)/2 (Luo, PRA 77, 042303 (2008)), so
    the conditional blocks (T_0 +- sum_k n_k T_k)/2, with
    T_k = Tr_m[(sigma_k (x) I) rho], are affine in n.  A fixed grid over the
    hemisphere is scored in one batch, and its ``_BLOCH_STARTS`` best points
    are refined by 9x9 zooms in (theta, phi) down to ``_ZOOM_TOL``; a zoom
    whose best point is on its edge moves without shrinking.  The angles
    are taken in the principal-axis frame of n -> sum_k n_k T_k.  The
    lowest point, or the lower of the two first bases if that is no higher,
    is the result; its basis is the eigenbasis of n.sigma.  Both directions
    of a two-qubit verdict run in one batched search through
    ``minimize_discord_pair``, with the same results as two calls here.

    A larger measured side is searched over a seed unitary times a product
    of complex Givens rotations.  The two first bases are joined by
    ``restarts`` Haar-random seeds on substreams derived from ``seed`` by
    counter, built only when neither of them returned, and the seeds
    descend the rotation angles together, one coordinate at a time: a
    17-point grid (the whole period on the first sweep, +-1/8 of it after),
    zooms into the best point's bracket down to 1e-5, one parabolic step,
    and a move only on strict improvement.  A seed stops when a sweep gains
    less than 1e-9 or after ``MAX_SWEEPS``; the first seed ending below
    1e-10, else the lowest, is the result.

    The unmeasured side of the returned basis is the eigenbasis of a
    generically weighted mixture of the conditional blocks, which for
    zero-discord states simultaneously diagonalizes them.  For states with
    degenerate marginal or conditional spectra the optimizer reports the
    best value found; no constructive basis search is attempted.
    """
    require_bipartite(rho)
    (result,) = _minimize_sides(rho, (_measured_side(direction),), seed, restarts)
    return result


def minimize_discord_pair(
    rho: DensityMatrix, *, seed: int = DEFAULT_SEED, restarts: int = 32
) -> tuple[tuple[float, ProductBasis], tuple[float, ProductBasis]]:
    """``minimize_discord`` in both directions: (A -> B result, B -> A result).

    The mutual information and both marginals are computed once, and every
    qubit measured side that its first bases do not settle joins one Bloch
    search, so a two-qubit state pays for one search instead of two.  Each
    result is bit for bit the one ``minimize_discord`` returns.
    """
    require_bipartite(rho)
    result_ab, result_ba = _minimize_sides(rho, (0, 1), seed, restarts)
    return result_ab, result_ba


def _minimize_sides(
    rho: DensityMatrix, sides: tuple[int, ...], seed: int, restarts: int
) -> list[tuple[float, ProductBasis]]:
    """``minimize_discord``'s result for each measured side in ``sides``."""
    cut_states = _cut_states(rho.matrix[None], rho.dims, BIPARTITE_CUT)
    s_ab, *entropies = (float(_von_neumann_entropies(m)[0]) for m in cut_states)
    mi = entropies[0] + entropies[1] - s_ab  # mutual_information's sum
    results = {}
    pending = {}  # qubit side -> its first bases and their values
    for side in sides:
        d_m, ent_other = rho.dims[side], entropies[1 - side]
        # For zero-discord states every basis may reach the floor, and this one
        # also diagonalizes the measured marginal (what witnesses downstream want).
        _, marginal_basis = hermitian_eig(cut_states[1 + side][0])
        first = np.stack([marginal_basis, np.eye(d_m, dtype=complex)])
        values = _discord_fixed_entropies(rho.matrix, rho.dims, side, first, mi, ent_other)
        if np.any(values < ZERO_DISCORD_FLOOR):
            best = int(np.argmax(values < ZERO_DISCORD_FLOOR))
            results[side] = _discord_result(rho, side, float(values[best]), first[best])
        elif d_m == 2:
            pending[side] = first, values
        else:
            best_val, best_u = _minimize_givens(
                rho, side, first, values, mi, ent_other, seed, restarts
            )
            results[side] = _discord_result(rho, side, best_val, best_u)
    if pending:
        found = _minimize_bloch(rho, list(pending), mi, [entropies[1 - s] for s in pending])
        for (side, (first, values)), (best_val, best_u) in zip(pending.items(), found):
            best = int(np.argmin(values))
            if values[best] <= best_val:
                best_val, best_u = float(values[best]), first[best]
            results[side] = _discord_result(rho, side, best_val, best_u)
    return [results[side] for side in sides]


def _minimize_givens(
    rho: DensityMatrix,
    side: int,
    first: np.ndarray,
    first_values: np.ndarray,
    mi: float,
    ent_other: float,
    seed: int,
    restarts: int,
) -> tuple[float, np.ndarray]:
    """Givens-angle descent for a measured side of dimension 3 or more, from
    the two first bases (scored ``first_values``) and ``restarts`` Haar seeds;
    returns the best value and measured-side basis."""
    d_m = rho.dims[side]

    def objective(umat: np.ndarray) -> np.ndarray:
        return _discord_fixed_entropies(rho.matrix, rho.dims, side, umat, mi, ent_other)

    seeds = np.concatenate(
        [first] + [haar_unitary(d_m, substream(seed, 0x5EED, r))[None] for r in range(restarts)]
    )
    values = np.concatenate([first_values, objective(seeds[2:])])
    angles = np.zeros((len(seeds), d_m * (d_m - 1)))  # (theta, phi) per index pair

    active = np.arange(len(seeds)) if np.all(values >= ZERO_DISCORD_FLOOR) else np.arange(0)
    for sweep in range(MAX_SWEEPS):
        if active.size == 0:
            break
        previous = values[active]
        rows = np.arange(active.size)
        for k in range(angles.shape[1]):
            # A coarse scan of the whole period on the first sweep guards
            # against multimodal coordinates.
            half = math.pi if sweep == 0 else math.pi / 4
            trial = np.repeat(angles[active, None, :], 17, axis=1)
            best_x = angles[active, k]
            # Zoom into the best point's bracket, 2 * half wide after the
            # division, until it is narrower than 1e-5.
            while half >= 5e-6:
                trial[..., k] = best_x[:, None] + np.linspace(-half, half, 17)
                vals = objective(_basis_from_angles(seeds[active, None], trial))
                j = np.argmin(vals, axis=1)
                best_x = trial[rows, j, k]
                half /= 8
            # The grid leaves the angle up to half a spacing (now ``half``)
            # off, which tilts a zero-discord witness as much; a parabola
            # through the best point and its neighbours removes most of it.
            j = np.clip(j, 1, 15)
            f_lo, f_mid, f_hi = vals[rows, j - 1], vals[rows, j], vals[rows, j + 1]
            curvature = f_lo - 2.0 * f_mid + f_hi
            step = (f_lo - f_hi) / (2.0 * np.where(curvature > 0.0, curvature, np.inf))
            vertex = trial[:, 0].copy()
            vertex[:, k] = trial[rows, j, k] + half * np.clip(step, -1.0, 1.0)
            vertex_val = objective(_basis_from_angles(seeds[active], vertex))
            for x, val in ((best_x, vals.min(axis=1)), (vertex[:, k], vertex_val)):
                move = val < values[active]
                angles[active[move], k] = x[move]
                values[active[move]] = val[move]
        active = active[previous - values[active] >= MIN_SWEEP_GAIN]

    below = np.flatnonzero(values < ZERO_DISCORD_FLOOR)
    best = int(below[0]) if below.size else int(np.argmin(values))
    return float(values[best]), _basis_from_angles(seeds[best], angles[best])


# Pauli matrices sigma_x, sigma_y, sigma_z, and the rows of I and of each of
# them for ``_block_kernel``.
_PAULI = np.stack([GATE_MATRICES[name] for name in "XYZ"])
_PAULI_ROWS = np.concatenate([np.eye(2)[None], _PAULI]).transpose(0, 2, 1).reshape(4, 4)

# Bloch-direction grid over the upper hemisphere (n and -n give the same
# measurement): the pole once, 16 polar rings of 32 azimuths, and on the
# equator, where n and -n are both present, only the first half.
_GRID_STEPS = np.array([math.pi / 32, math.pi / 16])  # (theta, phi) spacing
_GRID_ANGLES = np.concatenate(
    [
        np.zeros((1, 2)),
        np.array([(i, j) for i in range(1, 17) for j in range(32) if i < 16 or j < 16])
        * _GRID_STEPS,
    ]
)
# The best grid points are refined, each by 9x9 zooms that shrink 4x a
# round until both half-widths are below ``_ZOOM_TOL``; a start still moving
# after ``_ZOOM_ROUNDS`` keeps its best point (13-16 rounds are typical).
_BLOCH_STARTS = 4
_ZOOM_TOL = 1e-8
_ZOOM_ROUNDS = 100
# Offsets in units of the zoom's half-widths, nearest the centre first, so
# that ties at the rounding floor keep the centre instead of drifting.
_ZOOM = (
    np.array(
        sorted(
            ((i, j) for j in range(-4, 5) for i in range(-4, 5)),
            key=lambda o: o[0] ** 2 + o[1] ** 2,
        )
    )
    / 4
)


def _bloch_vectors(angles: np.ndarray) -> np.ndarray:
    """Unit vectors for (theta, phi) pairs on the last axis."""
    theta, phi = angles[..., 0], angles[..., 1]
    sin_theta = np.sin(theta)
    return np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), np.cos(theta)], axis=-1)


_GRID_VECTORS = _bloch_vectors(_GRID_ANGLES)


def _minimize_bloch(
    rho: DensityMatrix, sides: list[int], mi: float, ent_others: list[float]
) -> list[tuple[float, np.ndarray]]:
    """Lowest discord over qubit measurements (grid, then multi-start zooms)
    and the eigenbasis of n.sigma at its Bloch direction n, for each of one
    or two measured qubit sides (two only when both sides are qubits).

    The sides are searched in one batch, axis 0 of every array, and each
    leaves the batch once its own steps are below ``_ZOOM_TOL``: a finished
    side that kept zooming would move its last bits, so each side ends
    exactly where a search of it alone ends."""
    d_o = rho.dims[1 - sides[0]]
    rows, frames = [], []
    for side in sides:
        t = _PAULI_ROWS @ _block_kernel(rho.matrix, rho.dims, side)  # rows T_0 .. T_3
        # Angles are taken in the principal-axis frame of n -> sum_k n_k T_k
        # (eigenvectors of the Gram matrix Re Tr(T_k T_l)), the largest axis
        # along x and the smallest along z.  A Bell-diagonal state with two
        # near-equal correlations then has its flat valley on the equator,
        # along a grid line, and its minimum on a grid point.  The Gram
        # matrix is real, so its eigenvectors come back real.
        _, axes = hermitian_eig((t[1:] @ t[1:].conj().T).real)
        frame = axes[:, ::-1].real
        frames.append(frame)
        rows.append(np.concatenate([t[:1], frame.T @ t[1:]]))
    # Per side: T_0 broadcast over (starts, points), and the framed T_1 .. T_3
    # over starts, so each (points, 3) @ (3, d_o^2) product is one gemm.
    t_rows = np.stack(rows)[:, None]
    t0, t_frame = t_rows[:, :, :1], t_rows[:, :, 1:]
    ent_others = np.array(ent_others)[:, None, None]

    def objective(vectors: np.ndarray) -> np.ndarray:
        """Discord of the live sides, whose rows alone ``t0``, ``t_frame`` and
        ``ent_others`` hold, at Bloch vectors (sides, ..., points, 3)."""
        shift = vectors @ t_frame
        blocks = np.empty(shift.shape[:-1] + (2, d_o * d_o), dtype=complex)
        np.subtract(t0, shift, out=blocks[..., 0, :])
        np.add(t0, shift, out=blocks[..., 1, :])
        # Halving the real and imaginary parts apart: a complex ``/= 2``
        # takes numpy's general complex division, several times slower,
        # for the same nonzero bits.
        halves = blocks.view(np.float64)
        halves /= 2
        blocks = blocks.reshape(shift.shape[:-1] + (2, d_o, d_o))
        weights = np.einsum("...bb->...", blocks).real
        return _discord_from_blocks(weights, blocks, mi, ent_others)

    grid_vals = objective(_GRID_VECTORS)[:, 0]
    order = np.argsort(grid_vals, axis=1, kind="stable")[:, :_BLOCH_STARTS]
    live = np.arange(len(sides))  # indices into ``sides`` still zooming
    centres, vals = _GRID_ANGLES[order], grid_vals[live[:, None], order]
    steps = np.tile(_GRID_STEPS, (len(sides), _BLOCH_STARTS, 1))
    starts = np.arange(_BLOCH_STARTS)
    ends = [None] * len(sides)
    # A zoom whose best point lies on its edge may have cut the minimum off
    # (a flat, tilted valley), so it moves on without shrinking.  The zoom
    # grid holds its centre, so no round moves a start uphill.
    for _ in range(_ZOOM_ROUNDS):
        done = steps.max(axis=(1, 2)) < _ZOOM_TOL
        if done.any():
            for k in np.flatnonzero(done):
                ends[live[k]] = centres[k], vals[k]
            keep = ~done
            live, centres, vals, steps = live[keep], centres[keep], vals[keep], steps[keep]
            t0, t_frame, ent_others = t0[keep], t_frame[keep], ent_others[keep]
            if live.size == 0:
                break
        trial = centres[:, :, None, :] + _ZOOM * steps[:, :, None, :]
        trial_vals = objective(_bloch_vectors(trial))
        j = np.argmin(trial_vals, axis=2)
        picked = (np.arange(live.size)[:, None], starts, j)
        centres, vals = trial[picked], trial_vals[picked]
        steps[np.abs(_ZOOM[j]).max(axis=2) < 1.0] /= 4
    for k, side in enumerate(live):  # still moving after _ZOOM_ROUNDS
        ends[side] = centres[k], vals[k]
    results = []
    for frame, (side_centres, side_vals) in zip(frames, ends):
        best = int(np.argmin(side_vals))
        n = frame @ _bloch_vectors(side_centres[best])
        _, basis = hermitian_eig(np.tensordot(n, _PAULI, 1))
        results.append((float(side_vals[best]), basis))
    return results


def _discord_result(
    rho: DensityMatrix, side: int, value: float, measured_basis: np.ndarray
) -> tuple[float, ProductBasis]:
    """The minimum with its product basis: the measured side's basis and, on
    the unmeasured side, the eigenbasis of a generic mixture of the
    conditional blocks (distinct weights break accidental degeneracy)."""
    _, blocks = _conditional_blocks(rho.matrix, rho.dims, side, measured_basis)
    mix_weights = 1.0 + 0.37 * np.arange(len(blocks))
    generic = sum(w * b for w, b in zip(mix_weights, blocks))
    generic = generic / max(np.trace(generic).real, 1e-12)
    _, other_basis = hermitian_eig(generic)
    pair = (measured_basis, other_basis) if side == 0 else (other_basis, measured_basis)
    return max(value, 0.0) if value > PSD_FLOOR else value, ProductBasis(pair, rho.dims)
