"""Correlation-hierarchy predicates for bipartite states.

Decides product, classical-classical, one-way classical, and PPT membership
at two-qubit (and 2x3 for PPT) scale, and aggregates them into a verdict
together with the net-coherence figure in a caller-chosen basis.

The discord-zero threshold is 1e-6 bits: optimizer floors sit near 1e-9
while genuinely discordant random states land at 1e-3 or more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import (
    A_TO_B,
    B_TO_A,
    BIPARTITE_CUT,
    ProductBasis,
    minimize_discord,
    net_global_coherence,
    require_bipartite,
)
from .linalg import (
    DensityMatrix,
    DimensionMismatchError,
    hermitian_eig,
    partial_trace,
    partial_transpose,
    tensor,
)
from .rng import DEFAULT_SEED

DISCORD_ZERO_THRESHOLD = 1e-6
DIAGONALITY_TOL = 1e-7
PRODUCT_TOL = 1e-9
NET_COHERENCE_WITNESS_THRESHOLD = 1e-6


@dataclass(frozen=True)
class CorrelationVerdict:
    """Aggregated hierarchy membership for one bipartite state."""

    is_product: bool
    is_cc: bool
    is_qc_a_to_b: bool
    is_qc_b_to_a: bool
    is_ppt: bool
    discord_a_to_b: float
    discord_b_to_a: float
    rec_net_in_basis: float
    quantum_correlated: bool
    witness_basis: ProductBasis | None = None

    def to_json(self) -> dict:
        from .linalg import matrix_to_json
        from .reporting import sig

        out = {
            "is_product": self.is_product,
            "is_cc": self.is_cc,
            "is_qc_a_to_b": self.is_qc_a_to_b,
            "is_qc_b_to_a": self.is_qc_b_to_a,
            "is_ppt": self.is_ppt,
            "discord_a_to_b": sig(self.discord_a_to_b),
            "discord_b_to_a": sig(self.discord_b_to_a),
            "rec_net_in_basis": sig(self.rec_net_in_basis),
            "quantum_correlated": self.quantum_correlated,
            "witness_basis": None,
        }
        if self.witness_basis is not None:
            out["witness_basis"] = [matrix_to_json(m) for m in self.witness_basis.local_bases]
        return out


def is_product(rho: DensityMatrix, tol: float = PRODUCT_TOL) -> bool:
    """True iff the state equals the tensor product of its marginals."""
    require_bipartite(rho)
    marg_a = partial_trace(rho, (0,)).matrix
    marg_b = partial_trace(rho, (1,)).matrix
    return bool(np.max(np.abs(rho.matrix - tensor(marg_a, marg_b))) <= tol)


def _diagonalizes(rho: DensityMatrix, basis: ProductBasis, tol: float) -> bool:
    b = basis.matrix
    frame = b.conj().T @ rho.matrix @ b
    off = frame - np.diag(np.diagonal(frame))
    return bool(np.max(np.abs(off)) <= tol)


def is_cc(
    rho: DensityMatrix,
    *,
    seed: int = DEFAULT_SEED,
    restarts: int = 32,
    threshold: float = DISCORD_ZERO_THRESHOLD,
) -> tuple[bool, ProductBasis | None]:
    """Classical-classical test: zero minimized discord both ways plus a
    product basis that diagonalizes the state.

    The witness combines the measured-side bases found by the two directional
    minimizations (each returned basis already carries a simultaneous
    eigenbasis of the conditionals on its unmeasured side).
    """
    require_bipartite(rho)
    result_ab = minimize_discord(rho, A_TO_B, seed=seed, restarts=restarts)
    if result_ab[0] > threshold:
        return False, None
    result_ba = minimize_discord(rho, B_TO_A, seed=seed, restarts=restarts)
    return _cc_witness(rho, result_ab, result_ba, threshold)


def _cc_witness(
    rho: DensityMatrix,
    result_ab: tuple[float, ProductBasis],
    result_ba: tuple[float, ProductBasis],
    threshold: float,
) -> tuple[bool, ProductBasis | None]:
    """``is_cc``'s verdict from the two directional (value, basis) minima."""
    (val_ab, basis_ab), (val_ba, basis_ba) = result_ab, result_ba
    if val_ab > threshold or val_ba > threshold:
        return False, None
    _, eig_a = hermitian_eig(partial_trace(rho, (0,)).matrix)
    _, eig_b = hermitian_eig(partial_trace(rho, (1,)).matrix)
    candidates = [
        basis_ab,
        basis_ba,
        ProductBasis((basis_ab.local_bases[0], basis_ba.local_bases[1]), rho.dims),
        ProductBasis((eig_a, eig_b), rho.dims),
    ]
    for cand in candidates:
        if _diagonalizes(rho, cand, DIAGONALITY_TOL):
            return True, cand
    return False, None


def is_one_way_qc(
    rho: DensityMatrix,
    direction: str,
    *,
    seed: int = DEFAULT_SEED,
    restarts: int = 32,
    threshold: float = DISCORD_ZERO_THRESHOLD,
) -> bool:
    """True iff the state is classical on the measured side of ``direction``,
    i.e. its minimized discord in that direction vanishes."""
    require_bipartite(rho)
    val, _ = minimize_discord(rho, direction, seed=seed, restarts=restarts)
    return val <= threshold


def ppt_separability(rho: DensityMatrix) -> tuple[bool, float]:
    """Positive-partial-transpose test; decides separability at 2x2 and 2x3.

    Returns (is_ppt, min eigenvalue of the partial transpose).
    """
    require_bipartite(rho)
    if sorted(rho.dims) not in ([2, 2], [2, 3]):
        raise DimensionMismatchError(
            f"PPT separability is decided only for 2x2 and 2x3 systems, got {rho.dims}"
        )
    pt = partial_transpose(rho, 1)
    eigvals, _ = hermitian_eig(pt)
    min_eig = float(eigvals[0])
    return min_eig >= -1e-9, min_eig


def classify(
    rho: DensityMatrix,
    basis: ProductBasis,
    *,
    seed: int = DEFAULT_SEED,
    restarts: int = 32,
    threshold: float = DISCORD_ZERO_THRESHOLD,
) -> CorrelationVerdict:
    """Full hierarchy verdict plus net coherence in the given basis.

    The state counts as quantum correlated iff its net global coherence in
    ``basis`` exceeds 1e-6 bits.
    """
    require_bipartite(rho)
    result_ab = minimize_discord(rho, A_TO_B, seed=seed, restarts=restarts)
    result_ba = minimize_discord(rho, B_TO_A, seed=seed, restarts=restarts)
    discord_ab, discord_ba = result_ab[0], result_ba[0]
    cc, witness = _cc_witness(rho, result_ab, result_ba, threshold)
    ppt, _min_eig = ppt_separability(rho)
    rec_net = net_global_coherence(rho, basis, BIPARTITE_CUT).rec_net
    return CorrelationVerdict(
        is_product=is_product(rho),
        is_cc=cc,
        is_qc_a_to_b=discord_ab <= threshold,
        is_qc_b_to_a=discord_ba <= threshold,
        is_ppt=ppt,
        discord_a_to_b=discord_ab,
        discord_b_to_a=discord_ba,
        rec_net_in_basis=rec_net,
        quantum_correlated=rec_net > NET_COHERENCE_WITNESS_THRESHOLD,
        witness_basis=witness,
    )
