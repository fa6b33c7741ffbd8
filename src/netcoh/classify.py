"""Correlation-hierarchy predicates for bipartite states.

Decides product, classical-classical, one-way classical, and PPT membership
at two-qubit (and 2x3 for PPT) scale, and aggregates them into a verdict
together with the net-coherence figure in a caller-chosen basis.

The discord-zero threshold is 1e-6 bits: optimizer floors sit near 1e-9
while genuinely discordant random states land at 1e-3 or more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import (
    A_TO_B,
    B_TO_A,
    BIPARTITE_CUT,
    ProductBasis,
    minimize_discord,
    minimize_discord_pair,
    net_global_coherence,
    require_bipartite,
)
from .linalg import (
    ATOL_SPECTRAL,
    PSD_FLOOR,
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
PRODUCT_TOL = ATOL_SPECTRAL
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


def _require_threshold(threshold: float) -> None:
    """Fail closed: every "discord > threshold" comparison is false for a
    NaN threshold, and no discord can meet a negative one."""
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be a finite number >= 0, got {threshold!r}")


def is_product(rho: DensityMatrix) -> bool:
    """True iff the state equals the tensor product of its marginals."""
    require_bipartite(rho)
    marg_a = partial_trace(rho, (0,)).matrix
    marg_b = partial_trace(rho, (1,)).matrix
    return bool(np.max(np.abs(rho.matrix - tensor(marg_a, marg_b))) <= PRODUCT_TOL)


def is_cc(
    rho: DensityMatrix,
    *,
    seed: int = DEFAULT_SEED,
    restarts: int = 32,
    threshold: float = DISCORD_ZERO_THRESHOLD,
) -> tuple[bool, ProductBasis | None]:
    """Classical-classical test: zero minimized discord both ways plus a
    product basis that diagonalizes the state.

    The witness is the basis found by the A->B minimization: its measured
    side is the optimal measurement on A, and its unmeasured side a
    simultaneous eigenbasis of B's conditional states.  The B->A search
    runs only when that basis is a witness, so a state classical on A alone
    costs one minimization.  ``seed`` and ``restarts`` reach only a
    minimization whose measured side is larger than a qubit; a qubit side
    is searched deterministically.
    """
    _require_threshold(threshold)
    require_bipartite(rho)
    result_ab = minimize_discord(rho, A_TO_B, seed=seed, restarts=restarts)
    witness = _ab_witness(rho, result_ab, threshold)
    if witness is None:
        return False, None
    discord_ba, _ = minimize_discord(rho, B_TO_A, seed=seed, restarts=restarts)
    return (True, witness) if discord_ba <= threshold else (False, None)


def _ab_witness(
    rho: DensityMatrix, result_ab: tuple[float, ProductBasis], threshold: float
) -> ProductBasis | None:
    """The A->B (value, basis) minimum's basis if that discord vanishes and
    the basis diagonalizes the state, else None.  It is the CC witness iff
    the B->A discord vanishes too."""
    discord_ab, basis = result_ab
    if discord_ab > threshold:
        return None
    frame = basis.matrix.conj().T @ rho.matrix @ basis.matrix
    if np.max(np.abs(frame - np.diag(np.diagonal(frame)))) <= DIAGONALITY_TOL:
        return basis
    return None


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
    _require_threshold(threshold)
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
    return min_eig >= PSD_FLOOR, min_eig


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
    ``basis`` exceeds 1e-6 bits.  ``seed`` and ``restarts`` are passed to
    ``minimize_discord_pair``, which ignores them when the measured side is
    a qubit, so a two-qubit verdict is the same for every seed.
    """
    _require_threshold(threshold)
    require_bipartite(rho)
    # Rejects unsupported dims before the discord search, the costly step.
    ppt, _min_eig = ppt_separability(rho)
    result_ab, result_ba = minimize_discord_pair(rho, seed=seed, restarts=restarts)
    discord_ab, discord_ba = result_ab[0], result_ba[0]
    witness = _ab_witness(rho, result_ab, threshold) if discord_ba <= threshold else None
    rec_net = net_global_coherence(rho, basis, BIPARTITE_CUT).rec_net
    return CorrelationVerdict(
        is_product=is_product(rho),
        is_cc=witness is not None,
        is_qc_a_to_b=discord_ab <= threshold,
        is_qc_b_to_a=discord_ba <= threshold,
        is_ppt=ppt,
        discord_a_to_b=discord_ab,
        discord_b_to_a=discord_ba,
        rec_net_in_basis=rec_net,
        quantum_correlated=rec_net > NET_COHERENCE_WITNESS_THRESHOLD,
        witness_basis=witness,
    )
