"""Dephasing, entropic quantities, coherence measures, and discord.

All entropies and coherence figures are in bits (logarithm base 2), so one
maximally coherent qubit carries exactly 1.0 bit.  The convention
0 log 0 := 0 applies throughout; eigenvalues in [-1e-9, 0) are clamped to
zero before entropy evaluation and anything more negative is a hard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    DensityMatrix,
    DimensionMismatchError,
    as_square_matrix,
    hermitian_eig,
    is_unitary,
    partial_trace,
    tensor,
)
from .rng import DEFAULT_SEED, haar_unitary, substream

A_TO_B = "a_to_b"
B_TO_A = "b_to_a"

EIGENVALUE_CLAMP = -1e-9
IDENTITY_AGREEMENT_TOL = 1e-9

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
        dims = tuple(int(d) for d in self.dims)
        mats = []
        if len(self.local_bases) != len(dims):
            raise DimensionMismatchError(
                f"{len(self.local_bases)} local bases for {len(dims)} subsystems"
            )
        for mat, d in zip(self.local_bases, dims):
            m = as_square_matrix(mat)
            if m.shape[0] != d:
                raise DimensionMismatchError(f"local basis dim {m.shape[0]} != subsystem dim {d}")
            if not is_unitary(m):
                raise ValueError("local basis matrix is not unitary within 1e-9")
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
        idx = sorted(set(int(i) for i in subsystems))
        return ProductBasis(
            tuple(self.local_bases[i] for i in idx), tuple(self.dims[i] for i in idx)
        )


def random_product_basis(dims: Sequence[int], gen: np.random.Generator) -> ProductBasis:
    return ProductBasis(tuple(haar_unitary(int(d), gen) for d in dims), tuple(dims))


def _check_basis(rho: DensityMatrix, basis: ProductBasis) -> None:
    if basis.dims != rho.dims:
        raise DimensionMismatchError(f"basis dims {basis.dims} != state dims {rho.dims}")


def normalize_cut(dims: Sequence[int], cut: Cut) -> Cut:
    group_a = tuple(sorted(set(int(i) for i in cut[0])))
    group_b = tuple(sorted(set(int(i) for i in cut[1])))
    n = len(dims)
    if not group_a or not group_b:
        raise DimensionMismatchError("both cut groups must be non-empty")
    if sorted(group_a + group_b) != list(range(n)):
        raise DimensionMismatchError(f"cut {cut} does not partition {n} subsystems")
    return group_a, group_b


BIPARTITE_CUT: Cut = ((0,), (1,))


# ---------------------------------------------------------------------------
# Dephasing


def _dephase_mask(dims: tuple[int, ...], subsystems: tuple[int, ...]) -> np.ndarray:
    total = int(np.prod(dims))
    digits = np.array(np.unravel_index(np.arange(total), dims))
    mask = np.ones((total, total), dtype=bool)
    for k in subsystems:
        mask &= digits[k][:, None] == digits[k][None, :]
    return mask


def dephase(
    rho: DensityMatrix, basis: ProductBasis, subsystems: Iterable[int] | None = None
) -> DensityMatrix:
    """Zero the off-diagonal elements of the listed subsystems in ``basis``.

    With ``subsystems=None`` all subsystems are dephased (the fully dephasing
    channel).  The map is idempotent and trace preserving.
    """
    _check_basis(rho, basis)
    if subsystems is None:
        subs = tuple(range(len(rho.dims)))
    else:
        subs = tuple(sorted(set(int(s) for s in subsystems)))
        if any(s < 0 or s >= len(rho.dims) for s in subs):
            raise DimensionMismatchError(f"subsystems {subs} out of range")
    b = basis.matrix
    frame = b.conj().T @ rho.matrix @ b
    frame[~_dephase_mask(rho.dims, subs)] = 0.0
    return DensityMatrix(b @ frame @ b.conj().T, rho.dims)


# ---------------------------------------------------------------------------
# Entropies


def entropy_of_probabilities(p: np.ndarray) -> float:
    """Shannon entropy in bits with 0 log 0 := 0 and roundoff clamping."""
    p = np.real(np.asarray(p, dtype=complex))
    if np.min(p) < EIGENVALUE_CLAMP:
        raise ValueError(f"probability {np.min(p):.3e} below clamp floor {EIGENVALUE_CLAMP:.1e}")
    p = np.clip(p, 0.0, None)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def _eigvals_2x2(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian 2x2 matrices on the last two axes."""
    top, bottom = m[..., 0, 0].real, m[..., 1, 1].real
    half_tr = (top + bottom) / 2.0
    radius = np.hypot((top - bottom) / 2.0, np.abs(m[..., 0, 1]))
    return np.stack([half_tr - radius, half_tr + radius], axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) in bits; lies in [0, log2 dim].

    Except at d = 2 the spectrum cached on ``rho`` is used, so repeated
    entropies of one state cost one eigendecomposition.
    """
    if rho.dim == 2:
        return entropy_of_probabilities(_eigvals_2x2(rho.matrix))
    return entropy_of_probabilities(rho.spectrum)


def _basis_probabilities(rho: DensityMatrix, basis: ProductBasis) -> np.ndarray:
    """Outcome probabilities <b_i|rho|b_i> of measuring rho in the product basis."""
    b = basis.matrix
    return np.real(np.sum(b.conj() * (rho.matrix @ b), axis=0))


def rec(rho: DensityMatrix, basis: ProductBasis) -> float:
    """Relative entropy of coherence: S(dephased rho) - S(rho), in bits.

    Zero exactly on states diagonal in the basis; additive over tensor
    products; non-increasing under incoherent operations.
    """
    _check_basis(rho, basis)
    return entropy_of_probabilities(_basis_probabilities(rho, basis)) - von_neumann_entropy(rho)


def mutual_information(rho: DensityMatrix, cut: Cut = BIPARTITE_CUT) -> float:
    """I(A:B) = S(A) + S(B) - S(AB) across the cut, in bits."""
    group_a, group_b = normalize_cut(rho.dims, cut)
    s_a = von_neumann_entropy(partial_trace(rho, group_a))
    s_b = von_neumann_entropy(partial_trace(rho, group_b))
    return s_a + s_b - von_neumann_entropy(rho)


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


def net_global_coherence(
    rho: DensityMatrix, basis: ProductBasis, cut: Cut = BIPARTITE_CUT
) -> CoherenceReport:
    """Net global coherence across a cut, computed by two independent routes.

    Route one subtracts the marginal coherences from the global one; route
    two subtracts the dephased-state mutual information from the raw mutual
    information.  They agree within 1e-9 (raise otherwise) and the result is
    nonnegative up to -1e-9.
    """
    _check_basis(rho, basis)
    group_a, group_b = normalize_cut(rho.dims, cut)
    # Both routes share rho and its marginals, whose spectra are cached on
    # them; route two decomposes the dephased matrix on its own.
    marginals = [partial_trace(rho, group) for group in (group_a, group_b)]
    rec_global = rec(rho, basis)
    rec_locals = [
        rec(marg, basis.subset(group)) for marg, group in zip(marginals, (group_a, group_b))
    ]
    net = rec_global - sum(rec_locals)
    s_a, s_b = (von_neumann_entropy(marg) for marg in marginals)
    mi = s_a + s_b - von_neumann_entropy(rho)
    mi_deph = mutual_information(dephase(rho, basis), (group_a, group_b))
    if abs(net - (mi - mi_deph)) > IDENTITY_AGREEMENT_TOL:
        raise ArithmeticError(
            f"net-coherence routes disagree by {abs(net - (mi - mi_deph)):.3e}"
        )
    if net < -IDENTITY_AGREEMENT_TOL:
        raise ArithmeticError(f"net coherence {net:.3e} below the positivity floor")
    return CoherenceReport(
        rec_global=rec_global,
        rec_local=tuple(rec_locals),
        rec_net=net,
        mutual_info=mi,
        mutual_info_dephased=mi_deph,
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


def _conditional_blocks(
    rho_mat: np.ndarray, dims: tuple[int, int], side: int, basis_mat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weights p_i and unnormalized conditional blocks <i|rho|i> on the other side.

    ``basis_mat`` may carry leading batch axes.  Returns (weights, blocks)
    with blocks of shape (..., d_measured, d_other, d_other).
    """
    d_m, d_o = dims[side], dims[1 - side]
    t = rho_mat.reshape(dims + dims)
    if side == 1:
        t = t.transpose(1, 0, 3, 2)
    # blocks[..., i, b, d] = sum_ac conj(u[a, i]) u[c, i] t[a, b, c, d]: the
    # projectors' entries times a (d_m^2, d_o^2) kernel, one gemm for all.
    kernel = t.transpose(0, 2, 1, 3).reshape(d_m * d_m, d_o * d_o)
    projectors = np.einsum("...ai,...ci->...iac", basis_mat.conj(), basis_mat)
    blocks = (projectors.reshape(-1, d_m * d_m) @ kernel).reshape(
        projectors.shape[:-2] + (d_o, d_o)
    )
    weights = np.einsum("...bb->...", blocks).real
    return weights, blocks


def _discord_fixed_entropies(
    rho_mat: np.ndarray,
    dims: tuple[int, int],
    side: int,
    basis_mat: np.ndarray,
    mutual_info_value: float,
    entropy_other: float,
) -> np.ndarray:
    """I(rho) - I(dephased-on-side rho) given precomputed constants.

    Uses the block structure of the one-sided dephased state: its entropy is
    H(p) + sum_i p_i S(cond_i), its measured-side marginal has spectrum p,
    and its unmeasured marginal is that of rho (precomputed entropy_other).
    The mutual information of the dephased state thus collapses to
    entropy_other - sum_i p_i S(cond_i / p_i).  Evaluated for every basis
    on the leading axes of ``basis_mat`` at once; returns an array of the
    batch shape (0-d for one basis).  The blocks of all bases and outcomes
    come from one gemm; qubit-sized (2x2) blocks take their spectra in
    closed form, larger ones from ``np.linalg.eigvalsh``.
    """
    weights, blocks = _conditional_blocks(rho_mat, dims, side, basis_mat)
    spectra = _eigvals_2x2(blocks) if blocks.shape[-1] == 2 else np.linalg.eigvalsh(blocks)
    lam = np.clip(spectra, 0.0, None)
    w = weights[..., None]
    keep = (lam > 0.0) & (w > 1e-15)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(keep, -lam * np.log2(lam / w), 0.0)
    conditional_term = np.sum(terms, axis=(-2, -1))
    return mutual_info_value - (entropy_other - conditional_term)


def basis_dependent_discord(rho: DensityMatrix, basis: ProductBasis, direction: str) -> float:
    """Mutual-information loss under one-sided dephasing, in bits.

    Nonnegative; zero for states already block-diagonal in the measured
    side's basis.
    """
    require_bipartite(rho)
    _check_basis(rho, basis)
    side = _measured_side(direction)
    other = 1 - side
    mi = mutual_information(rho, BIPARTITE_CUT)
    ent_other = von_neumann_entropy(partial_trace(rho, (other,)))
    return float(
        _discord_fixed_entropies(rho.matrix, rho.dims, side, basis.local_bases[side], mi, ent_other)
    )


# ---------------------------------------------------------------------------
# Discord minimization over local bases

# A seed stops after this many sweeps even if the last one still gained
# 1e-9: on a flat valley one seed can otherwise crawl for hundreds.
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
    runs over that side: a seed unitary times a product of complex Givens
    rotations (for a qubit, the measurement's Bloch direction, as in Luo,
    PRA 77, 042303 (2008)).  Column phases are omitted because dephasing
    projectors are invariant under them.  Seeds are the marginal eigenbasis
    (first, so that zero-discord states come back with a
    marginal-diagonalizing witness), the identity, and ``restarts``
    Haar-random unitaries on substreams derived from ``seed`` by counter.

    All seeds are evaluated in one batch, and the first one below 1e-10 is
    the result.  Otherwise the seeds descend the rotation angles together,
    one coordinate at a time: a 17-point grid (the whole period on the first
    sweep, +-1/8 of it after), zooms into the best point's bracket down to
    1e-5, one parabolic step, and a move only on strict improvement.  A seed
    stops when a sweep gains less than 1e-9 or after ``MAX_SWEEPS``; the
    first seed ending below 1e-10, else the lowest, is the result.

    The unmeasured side of the returned basis is the eigenbasis of a
    generically weighted mixture of the conditional blocks, which for
    zero-discord states simultaneously diagonalizes them.  For states with
    degenerate marginal or conditional spectra the optimizer reports the
    best value found; no constructive basis search beyond the restarts is
    attempted.
    """
    require_bipartite(rho)
    side = _measured_side(direction)
    d_m = rho.dims[side]
    mi = mutual_information(rho, BIPARTITE_CUT)
    ent_other = von_neumann_entropy(partial_trace(rho, (1 - side,)))

    def objective(umat: np.ndarray) -> np.ndarray:
        return _discord_fixed_entropies(rho.matrix, rho.dims, side, umat, mi, ent_other)

    # Marginal eigenbasis first: for zero-discord states every basis may
    # reach the floor, and this seed is the one that also diagonalizes the
    # measured marginal (what witness construction downstream wants).
    _, marginal_basis = hermitian_eig(partial_trace(rho, (side,)).matrix)
    seeds = np.stack(
        [marginal_basis, np.eye(d_m, dtype=complex)]
        + [haar_unitary(d_m, substream(seed, 0x5EED, r)) for r in range(restarts)]
    )
    angles = np.zeros((len(seeds), d_m * (d_m - 1)))  # (theta, phi) per index pair
    values = objective(seeds)

    # Theta flips the sign of a 2x2 block under a pi shift, which leaves the
    # basis projectors unchanged only when the block is the whole matrix.
    theta_period = math.pi if d_m == 2 else 2.0 * math.pi
    active = np.arange(len(seeds)) if np.all(values >= 1e-10) else np.arange(0)
    for sweep in range(MAX_SWEEPS):
        if active.size == 0:
            break
        previous = values[active]
        rows = np.arange(active.size)
        for k in range(angles.shape[1]):
            period = theta_period if k % 2 == 0 else 2.0 * math.pi
            # A coarse scan of the whole period on the first sweep guards
            # against multimodal coordinates.
            half = period / 2 if sweep == 0 else period / 8
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
        active = active[previous - values[active] >= 1e-9]

    below = np.flatnonzero(values < 1e-10)
    best = int(below[0]) if below.size else int(np.argmin(values))
    best_val = float(values[best])
    best_u = _basis_from_angles(seeds[best], angles[best])

    # Unmeasured-side witness basis: eigenbasis of a generic mixture of the
    # conditional blocks (distinct weights break accidental degeneracy).
    _, blocks = _conditional_blocks(rho.matrix, rho.dims, side, best_u)
    mix_weights = 1.0 + 0.37 * np.arange(len(blocks))
    generic = sum(w * b for w, b in zip(mix_weights, blocks))
    generic = generic / max(np.trace(generic).real, 1e-12)
    _, other_basis = hermitian_eig(generic)
    pair = (best_u, other_basis) if side == 0 else (other_basis, best_u)
    return max(best_val, 0.0) if best_val > -1e-9 else best_val, ProductBasis(pair, rho.dims)
