"""Named verification suites behind the ``verify`` CLI command.

Each suite sweeps a seeded ensemble, returns one row per sampled instance
for CSV export, and an overall pass flag.  Instance generators draw from
counter-derived substreams, so results are independent of chunking and of
the worker count used to parallelize a sweep.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import coherence as coh
from . import incoherent_ops as iops
from .classify import DISCORD_ZERO_THRESHOLD
from .coherence import (
    A_TO_B,
    B_TO_A,
    BIPARTITE_CUT,
    ProductBasis,
    minimize_discord,
    mutual_information,
    net_global_coherence,
    random_product_basis,
)
from .linalg import (
    DensityMatrix,
    hermitian_eig,
    random_density_matrix,
    random_pure_density,
    tensor,
)
from .ndqc2 import (
    iota_factor,
    predicted_se,
    privacy_audit,
    sample_run_with_record,
)
from .rng import haar_unitary, substream

SUITE_NAMES = ("thm4", "thm5", "thm6", "lemma1", "isomorphism", "se-scaling", "privacy")

# Substream lane tags, one per ensemble family.
_LANE_THM4 = 40
_LANE_THM5 = 50
_LANE_THM6 = 60
_LANE_LEMMA1 = 10
_LANE_ISO = 11
_LANE_SE = 12
_LANE_PRIVACY = 13


@dataclass
class SuiteResult:
    name: str
    passed: bool
    rows: list[dict]
    failures: list[str] = field(default_factory=list)

    @property
    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        detail = f" ({len(self.failures)} failures)" if self.failures else ""
        return f"{self.name}: {status}, {len(self.rows)} instances{detail}"


def _parallel_rows(
    worker: Callable[[tuple], list[dict]], chunks: Sequence[tuple], workers: int
) -> list[dict]:
    if workers <= 1 or len(chunks) <= 1:
        results = [worker(chunk) for chunk in chunks]
    else:
        with multiprocessing.get_context("fork").Pool(processes=workers) as pool:
            results = pool.map(worker, chunks)
    rows: list[dict] = []
    for part in results:
        rows.extend(part)
    return rows


def _chunk_ranges(total: int, pieces: int) -> list[tuple[int, int]]:
    edges = np.linspace(0, total, pieces + 1).astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(pieces) if edges[i] < edges[i + 1]]


def dephased_mutual_info(rho: DensityMatrix, basis: ProductBasis, cut=BIPARTITE_CUT) -> float:
    """Mutual information of the fully dephased state via its outcome
    distribution; cheaper than building the dephased matrix for sweeps."""
    probs = np.clip(coh._basis_probabilities(rho, basis), 0.0, None)
    grid = probs.reshape(rho.dims)
    group_a, group_b = coh.normalize_cut(rho.dims, cut)
    p_a = grid.sum(axis=tuple(group_b)).reshape(-1)
    p_b = grid.sum(axis=tuple(group_a)).reshape(-1)
    h = coh.entropy_of_probabilities
    return h(p_a) + h(p_b) - h(probs)


# ---------------------------------------------------------------------------
# Positivity and route agreement (thm4)


def _random_cc_diagonal(dims, gen) -> tuple[DensityMatrix, ProductBasis]:
    basis = random_product_basis(dims, gen)
    p = gen.random(int(np.prod(dims)))
    p /= p.sum()
    b = basis.matrix
    mat = (b * p) @ b.conj().T
    return DensityMatrix(mat, tuple(dims)), basis


def _thm4_chunk(args: tuple) -> list[dict]:
    seed, start, stop, kind = args
    rows = []
    for i in range(start, stop):
        gen = substream(seed, _LANE_THM4, {"2x2": 0, "2x4": 1, "product": 2, "cc": 3}[kind], i)
        if kind in ("2x2", "2x4"):
            dims = (2, 2) if kind == "2x2" else (2, 4)
            rho = random_density_matrix(dims, gen)
            basis = random_product_basis(dims, gen)
        elif kind == "product":
            dims = (2, 2)
            a = random_density_matrix((2,), gen)
            b = random_density_matrix((2,), gen)
            rho = DensityMatrix(tensor(a.matrix, b.matrix), dims)
            basis = random_product_basis(dims, gen)
        else:
            dims = (2, 2)
            rho, basis = _random_cc_diagonal(dims, gen)
        report = net_global_coherence(rho, basis, BIPARTITE_CUT)
        route7 = report.rec_global - sum(report.rec_local)
        route8 = report.mutual_info - report.mutual_info_dephased
        rows.append(
            {
                "kind": kind,
                "index": i,
                "rec_net": report.rec_net,
                "route_gap": abs(route7 - route8),
            }
        )
    return rows


def suite_thm4(
    seed: int,
    n_two_qubit: int = 1000,
    n_2x4: int = 100,
    n_product: int = 200,
    n_cc: int = 200,
    workers: int = 1,
) -> SuiteResult:
    """Net-coherence positivity and two-route agreement on random ensembles,
    with equality on product states and basis-diagonal CC states."""
    chunks = []
    for kind, total in (("2x2", n_two_qubit), ("2x4", n_2x4), ("product", n_product), ("cc", n_cc)):
        for lo, hi in _chunk_ranges(total, max(workers, 1) * 4):
            chunks.append((seed, lo, hi, kind))
    rows = _parallel_rows(_thm4_chunk, chunks, workers)
    failures = []
    for row in rows:
        if row["rec_net"] < -1e-9:
            failures.append(f"{row['kind']}[{row['index']}]: rec_net {row['rec_net']:.3e} < -1e-9")
        if row["route_gap"] > 1e-9:
            failures.append(f"{row['kind']}[{row['index']}]: route gap {row['route_gap']:.3e}")
        if row["kind"] in ("product", "cc") and row["rec_net"] > 1e-9:
            failures.append(
                f"{row['kind']}[{row['index']}]: equality case rec_net {row['rec_net']:.3e}"
            )
    return SuiteResult("thm4", not failures, rows, failures)


# ---------------------------------------------------------------------------
# Pure states (thm5)


def _thm5_chunk(args: tuple) -> list[dict]:
    seed, start, stop, kind, n_bases = args
    rows = []
    for i in range(start, stop):
        gen = substream(seed, _LANE_THM5, 0 if kind == "haar" else 1, i)
        if kind == "haar":
            rho = random_pure_density((2, 2), gen)
        else:
            va = random_pure_density((2,), gen)
            vb = random_pure_density((2,), gen)
            rho = DensityMatrix(tensor(va.matrix, vb.matrix), (2, 2))
        marg = rho.marginal((0,))
        entanglement_entropy = coh.von_neumann_entropy(marg)
        mi = mutual_information(rho, BIPARTITE_CUT)
        nets = []
        for b_idx in range(n_bases):
            basis = random_product_basis((2, 2), substream(seed, _LANE_THM5, 2, i, b_idx))
            net = mi - dephased_mutual_info(rho, basis)
            if b_idx == 0:
                # Cross-validate the sweep shortcut against the full report.
                full = net_global_coherence(rho, basis, BIPARTITE_CUT).rec_net
                if abs(full - net) > 1e-9:
                    net = math.nan
            nets.append(net)
        rows.append(
            {
                "kind": kind,
                "index": i,
                "entanglement_entropy": entanglement_entropy,
                "rec_net_min": min(nets),
                "rec_net_max": max(nets),
            }
        )
    return rows


def suite_thm5(
    seed: int,
    n_pure: int = 500,
    n_product: int = 100,
    n_bases: int = 20,
    workers: int = 1,
) -> SuiteResult:
    """Pure-state law: entangled iff positive net coherence, product implies
    zero, checked in sampled product bases."""
    chunks = []
    for kind, total in (("haar", n_pure), ("product", n_product)):
        for lo, hi in _chunk_ranges(total, max(workers, 1) * 4):
            chunks.append((seed, lo, hi, kind, n_bases))
    rows = _parallel_rows(_thm5_chunk, chunks, workers)
    failures = []
    for row in rows:
        if math.isnan(row["rec_net_min"]):
            failures.append(f"{row['kind']}[{row['index']}]: route cross-check failed")
            continue
        if row["kind"] == "product":
            if row["rec_net_max"] > 1e-9:
                failures.append(
                    f"product[{row['index']}]: rec_net {row['rec_net_max']:.3e} > 1e-9"
                )
        else:
            entangled = row["entanglement_entropy"] > 1e-6
            coherent = row["rec_net_min"] > 1e-6
            if entangled != coherent:
                failures.append(
                    f"haar[{row['index']}]: EE {row['entanglement_entropy']:.3e} vs "
                    f"min rec_net {row['rec_net_min']:.3e}"
                )
    return SuiteResult("thm5", not failures, rows, failures)


# ---------------------------------------------------------------------------
# CC recovery and discordant states (thm6)


def _random_rotated_cc(gen) -> DensityMatrix:
    ua = haar_unitary(2, gen)
    ub = haar_unitary(2, gen)
    p = gen.random((2, 2))
    p /= p.sum()
    mat = sum(
        p[i, j]
        * tensor(
            np.outer(ua[:, i], ua[:, i].conj()),
            np.outer(ub[:, j], ub[:, j].conj()),
        )
        for i in range(2)
        for j in range(2)
    )
    return DensityMatrix(mat, (2, 2))


def _thm6_cc_chunk(args: tuple) -> list[dict]:
    seed, start, stop = args
    rows = []
    for i in range(start, stop):
        gen = substream(seed, _LANE_THM6, 0, i)
        rho = _random_rotated_cc(gen)
        val_ab, basis_ab = minimize_discord(rho, A_TO_B, seed=seed + i)
        val_ba, basis_ba = minimize_discord(rho, B_TO_A, seed=seed + i)
        candidates = [
            basis_ab,
            basis_ba,
            ProductBasis((basis_ab.local_bases[0], basis_ba.local_bases[1]), rho.dims),
        ]
        best_net = math.inf
        for cand in candidates:
            net = net_global_coherence(rho, cand, BIPARTITE_CUT).rec_net
            best_net = min(best_net, net)
        rows.append(
            {
                "kind": "cc",
                "index": i,
                "discord_ab": val_ab,
                "discord_ba": val_ba,
                "rec_net_witness": best_net,
            }
        )
    return rows


def _thm6_discordant_chunk(args: tuple) -> list[dict]:
    seed, start, stop, n_bases = args
    rows = []
    for i in range(start, stop):
        attempt = 0
        while True:
            gen = substream(seed, _LANE_THM6, 1, i, attempt)
            rho = random_density_matrix((2, 2), gen)
            val_ab, _ = minimize_discord(rho, A_TO_B, seed=seed + i, restarts=8)
            val_ba, _ = minimize_discord(rho, B_TO_A, seed=seed + i, restarts=8)
            if min(val_ab, val_ba) > 0.01:
                break
            attempt += 1
            if attempt > 50:
                raise RuntimeError("rejection sampling failed to find a discordant state")
        mi = mutual_information(rho, BIPARTITE_CUT)
        net_min = math.inf
        for b_idx in range(n_bases):
            basis = random_product_basis((2, 2), substream(seed, _LANE_THM6, 2, i, b_idx))
            net_min = min(net_min, mi - dephased_mutual_info(rho, basis))
        rows.append(
            {
                "kind": "discordant",
                "index": i,
                "discord_ab": val_ab,
                "discord_ba": val_ba,
                "rec_net_min": net_min,
            }
        )
    return rows


def suite_thm6(
    seed: int,
    n_cc: int = 200,
    n_discordant: int = 200,
    n_bases: int = 50,
    workers: int = 1,
) -> SuiteResult:
    """Rotated CC states: the discord minimizer recovers a basis with
    vanishing net coherence.  Discordant states: positive net coherence in
    every sampled product basis."""
    cc_chunks = [
        (seed, lo, hi) for lo, hi in _chunk_ranges(n_cc, max(workers, 1) * 4)
    ]
    rows = _parallel_rows(_thm6_cc_chunk, cc_chunks, workers)
    disc_chunks = [
        (seed, lo, hi, n_bases) for lo, hi in _chunk_ranges(n_discordant, max(workers, 1) * 4)
    ]
    rows.extend(_parallel_rows(_thm6_discordant_chunk, disc_chunks, workers))
    failures = []
    for row in rows:
        if row["kind"] == "cc":
            if max(row["discord_ab"], row["discord_ba"]) > DISCORD_ZERO_THRESHOLD:
                failures.append(f"cc[{row['index']}]: discord floor not reached")
            if row["rec_net_witness"] > 1e-6:
                failures.append(
                    f"cc[{row['index']}]: witness rec_net {row['rec_net_witness']:.3e} > 1e-6"
                )
        else:
            if row["rec_net_min"] <= 1e-6:
                failures.append(
                    f"discordant[{row['index']}]: rec_net {row['rec_net_min']:.3e} <= 1e-6"
                )
    return SuiteResult("thm6", not failures, rows, failures)


# ---------------------------------------------------------------------------
# Strictness tests (lemma1)


def _random_incoherent_channel(d: int, gen) -> iops.KrausChannel:
    """Random incoherent Kraus set with exact completeness.

    Columns are partitioned into groups of one or two; each group feeds one
    random row through a random amplitude vector, and the group's
    completeness deficit is eigen-factored into further single-row members.
    Two-column members have two entries in one row, so generic draws are
    incoherent but not strict; all-singleton draws are strict.
    """
    order = gen.permutation(d)
    groups = []
    i = 0
    while i < d:
        size = 2 if (i + 1 < d and gen.random() < 0.6) else 1
        groups.append([int(c) for c in order[i : i + size]])
        i += size
    members = []
    for group in groups:
        g = len(group)
        w = gen.standard_normal(g) + 1j * gen.standard_normal(g)
        w *= (0.2 + 0.75 * gen.random()) / np.linalg.norm(w)
        f = np.zeros((d, d), dtype=complex)
        f[int(gen.integers(d)), group] = w
        members.append(f)
        deficit = np.eye(g) - np.outer(w.conj(), w)
        lam, vec = hermitian_eig(deficit)
        for m in range(g):
            if lam[m] > 1e-14:
                comp = np.zeros((d, d), dtype=complex)
                comp[int(gen.integers(d)), group] = np.sqrt(lam[m]) * vec[:, m].conj()
                members.append(comp)
    return iops.KrausChannel(tuple(members))


def _permutation_channel(d: int, gen, basis: ProductBasis) -> iops.KrausChannel:
    perm = gen.permutation(d)
    p = np.zeros((d, d), dtype=complex)
    p[perm, np.arange(d)] = 1.0
    b = basis.matrix
    return iops.KrausChannel.unitary(b @ p @ b.conj().T)


def _lemma1_chunk(args: tuple) -> list[dict]:
    seed, start, stop = args
    rows = []
    for i in range(start, stop):
        gen = substream(seed, _LANE_LEMMA1, i)
        dims = (2, 2)
        d = 4
        rotated = bool(gen.integers(2))
        basis = (
            random_product_basis(dims, gen) if rotated else ProductBasis.computational(dims)
        )
        family = i % 4
        if family == 0:
            channel = _random_incoherent_channel(d, gen)
            if rotated:
                b = basis.matrix
                channel = iops.KrausChannel(tuple(b @ f @ b.conj().T for f in channel.kraus))
        elif family == 1:
            channel = iops.KrausChannel.unitary(haar_unitary(d, gen))
        elif family == 2:
            channel = _permutation_channel(d, gen, basis)
        else:
            b = basis.matrix
            channel = iops.KrausChannel(
                tuple(np.outer(b[:, k], b[:, k].conj()) for k in range(d))
            )
        incoherent, _ = iops.is_incoherent(channel, basis)
        strict, _ = iops.is_strict_incoherent(channel, basis)  # raises on test disagreement
        rows.append(
            {
                "index": i,
                "family": ("projected", "unitary", "permutation", "dephasing")[family],
                "incoherent": incoherent,
                "strict": strict,
            }
        )
    return rows


def suite_lemma1(seed: int, n_channels: int = 1000, workers: int = 1) -> SuiteResult:
    """Agreement of the definitional and sparsity strictness tests across
    random channels, plus the canonical pass and fail cases."""
    chunks = [(seed, lo, hi) for lo, hi in _chunk_ranges(n_channels, max(workers, 1) * 4)]
    rows = _parallel_rows(_lemma1_chunk, chunks, workers)
    failures = []
    for row in rows:
        if row["strict"] and not row["incoherent"]:
            failures.append(f"channel[{row['index']}]: strict but not incoherent")
        if row["family"] in ("permutation", "dephasing") and not row["strict"]:
            failures.append(f"channel[{row['index']}]: {row['family']} failed strictness")

    basis2 = ProductBasis.computational((2,))
    s2 = math.sqrt(0.5)
    hadamard = iops.KrausChannel.unitary(np.array([[s2, s2], [s2, -s2]], dtype=complex))
    h_inc, _ = iops.is_incoherent(hadamard, basis2)
    h_strict, _ = iops.is_strict_incoherent(hadamard, basis2)
    plus_channel = iops.KrausChannel(
        (
            np.array([[s2, s2], [0, 0]], dtype=complex),  # |0><+|
            np.array([[0, 0], [s2, -s2]], dtype=complex),  # |1><-|
        )
    )
    p_inc, _ = iops.is_incoherent(plus_channel, basis2)
    p_strict, witness = iops.is_strict_incoherent(plus_channel, basis2)
    for label, value, expected in (
        ("hadamard incoherent", h_inc, False),
        ("hadamard strict", h_strict, False),
        ("plus-channel incoherent", p_inc, True),
        ("plus-channel strict", p_strict, False),
    ):
        rows.append({"index": label, "family": "canonical", "incoherent": value, "strict": value})
        if value != expected:
            failures.append(f"canonical case {label}: got {value}, expected {expected}")
    if witness is None:
        failures.append("plus-channel strictness failure carries no witness")
    return SuiteResult("lemma1", not failures, rows, failures)


# ---------------------------------------------------------------------------
# Classical-computation embedding (isomorphism)


def _iso_chunk(args: tuple) -> list[dict]:
    seed, start, stop = args
    rows = []
    for i in range(start, stop):
        gen = substream(seed, _LANE_ISO, i)
        d = int(gen.integers(2, 9))
        g = gen.random((d, d))
        g /= g.sum(axis=0, keepdims=True)
        stoch = iops.StochasticMatrix(g)
        basis = ProductBasis((haar_unitary(d, gen),), (d,))
        channel = iops.embed_classical(stoch, basis)
        strict, _ = iops.is_strict_incoherent(channel, basis)
        round_trip = iops.extract_classical(channel, basis)
        rt_err = float(np.max(np.abs(round_trip.matrix - g)))
        p = gen.random(d)
        p /= p.sum()
        b = basis.matrix
        rho = DensityMatrix((b * p) @ b.conj().T, (d,))
        out = iops.apply_channel(channel, rho)
        out_frame = b.conj().T @ out.matrix @ b
        action_err = float(np.max(np.abs(np.diagonal(out_frame).real - g @ p)))
        off_err = float(np.max(np.abs(out_frame - np.diag(np.diagonal(out_frame)))))
        rows.append(
            {
                "index": i,
                "dim": d,
                "strict": strict,
                "round_trip_err": rt_err,
                "action_err": max(action_err, off_err),
            }
        )
    return rows


def suite_isomorphism(seed: int, n: int = 100, workers: int = 1) -> SuiteResult:
    """Embedding of stochastic maps round-trips exactly and reproduces the
    classical action on diagonal states."""
    chunks = [(seed, lo, hi) for lo, hi in _chunk_ranges(n, max(workers, 1) * 4)]
    rows = _parallel_rows(_iso_chunk, chunks, workers)
    failures = []
    for row in rows:
        if not row["strict"]:
            failures.append(f"iso[{row['index']}]: embedded channel not strict")
        if row["round_trip_err"] > 1e-10:
            failures.append(f"iso[{row['index']}]: round trip err {row['round_trip_err']:.3e}")
        if row["action_err"] > 1e-10:
            failures.append(f"iso[{row['index']}]: action err {row['action_err']:.3e}")
    return SuiteResult("isomorphism", not failures, rows, failures)


# ---------------------------------------------------------------------------
# Precision scaling (se-scaling)


def suite_se_scaling(
    seed: int,
    shot_grid: Sequence[int] = (1_000, 10_000, 100_000),
    reps: int = 6,
    workers: int = 1,
) -> SuiteResult:
    """Empirical standard error tracks the predicted inverse-root law within
    a factor of three, with log-log slope -0.5 +/- 0.1."""
    gen = substream(seed, _LANE_SE)
    u_a = haar_unitary(4, gen)
    u_b = haar_unitary(4, gen)
    rows = []
    failures = []
    mean_ses = []
    for m in shot_grid:
        ses = []
        for r in range(reps):
            report, _ = sample_run_with_record(2, u_a, u_b, int(m), seed + 7919 * r)
            ses.append(report.se_empirical)
        se_mean = float(np.mean(ses))
        predicted = predicted_se(iota_factor(u_a), iota_factor(u_b), int(m), report.rec_control)
        ratio = se_mean / predicted
        rows.append({"shots": int(m), "se_empirical": se_mean, "se_predicted": predicted, "ratio": ratio})
        mean_ses.append(se_mean)
        if not (1.0 / 3.0 <= ratio <= 3.0):
            failures.append(f"shots={m}: SE ratio {ratio:.3f} outside [1/3, 3]")
    slope = float(np.polyfit(np.log(list(shot_grid)), np.log(mean_ses), 1)[0])
    rows.append({"shots": "slope", "se_empirical": slope, "se_predicted": -0.5, "ratio": None})
    if abs(slope + 0.5) > 0.1:
        failures.append(f"log-log slope {slope:.3f} outside -0.5 +/- 0.1")
    return SuiteResult("se-scaling", not failures, rows, failures)


# ---------------------------------------------------------------------------
# Marginal privacy (privacy)


def _diagonal_phase_unitary(n_qubits: int, gen, max_phase: float) -> np.ndarray:
    d = 2**n_qubits
    phases = gen.uniform(-max_phase, max_phase, size=d)
    return np.diag(np.exp(1j * phases))


def suite_privacy(
    seed: int,
    n_unitaries: int = 50,
    shots: int = 40_000,
    n_leak: int = 10,
    workers: int = 1,
) -> SuiteResult:
    """Correlated-input runs leak nothing into single-server marginals; the
    single-sided protocol with a large normalized trace is flagged."""
    rows = []
    failures = []
    bound = 4.0 / math.sqrt(shots / 4.0)
    for i in range(n_unitaries):
        gen = substream(seed, _LANE_PRIVACY, 0, i)
        n_q = int(gen.integers(1, 3))
        u_a = haar_unitary(2**n_q, gen)
        u_b = haar_unitary(2**n_q, gen)
        _, record = sample_run_with_record(2, u_a, u_b, shots, seed + i)
        audit = privacy_audit([record])
        worst = max(abs(c.mean) for c in audit.checks)
        rows.append(
            {"kind": "task2", "index": i, "worst_marginal": worst, "verdict": audit.verdict}
        )
        if worst > bound:
            failures.append(f"task2[{i}]: marginal {worst:.4f} > {bound:.4f}")
        if not audit.passed:
            failures.append(f"task2[{i}]: audit verdict {audit.verdict}")
    for i in range(n_leak):
        gen = substream(seed, _LANE_PRIVACY, 1, i)
        u_a = _diagonal_phase_unitary(int(gen.integers(1, 4)), gen, math.pi / 4)
        u_b = haar_unitary(2, gen)
        assert abs(iota_factor(u_a)) >= 0.5
        _, record = sample_run_with_record(1, u_a, u_b, shots, seed + 100 + i)
        audit = privacy_audit([record])
        rows.append(
            {
                "kind": "task1-leak",
                "index": i,
                "worst_marginal": max(abs(c.mean) for c in audit.checks),
                "verdict": audit.verdict,
            }
        )
        if audit.verdict != "leak detected":
            failures.append(f"task1-leak[{i}]: audit verdict {audit.verdict}")
    return SuiteResult("privacy", not failures, rows, failures)


# ---------------------------------------------------------------------------
# Dispatch


def run_suite(name: str, seed: int, ensemble_scale: float = 1.0, workers: int = 1) -> list[SuiteResult]:
    """Run one named suite (or all); ensemble sizes scale linearly."""

    def scaled(n: int) -> int:
        return max(1, int(round(n * ensemble_scale)))

    dispatch = {
        "thm4": lambda: suite_thm4(
            seed, scaled(1000), scaled(100), scaled(200), scaled(200), workers=workers
        ),
        "thm5": lambda: suite_thm5(seed, scaled(500), scaled(100), 20, workers=workers),
        "thm6": lambda: suite_thm6(seed, scaled(200), scaled(200), 50, workers=workers),
        "lemma1": lambda: suite_lemma1(seed, scaled(1000), workers=workers),
        "isomorphism": lambda: suite_isomorphism(seed, scaled(100), workers=workers),
        "se-scaling": lambda: suite_se_scaling(seed, workers=workers),
        "privacy": lambda: suite_privacy(seed, scaled(50), workers=workers),
    }
    if name == "all":
        return [dispatch[suite]() for suite in SUITE_NAMES]
    if name not in dispatch:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return [dispatch[name]()]
