"""Three-party distributed trace-estimation protocol simulator.

A client (Charlie) holding classical descriptions of two unitaries delegates
the estimation of the product of their normalized traces to two
non-communicating servers (Alice, Bob) that can only apply unitaries and
perform destructive measurements.  Charlie may prepare at most two pure
qubits per preparation branch; everything else he sends is maximally mixed.

The simulator is exact on the state side (density matrices evolve in closed
form) and Monte Carlo on the measurement side, with Born-rule sampling from
Philox substreams so runs are bit-reproducible for a given seed.  The dense
full-system path cross-checks the closed form in ``control_output_state``'s
default mode (joint dimension up to 256) and in the tests; protocol runs
sample from the closed form without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .coherence import BIPARTITE_CUT, ProductBasis, net_global_coherence
from .linalg import (
    DensityMatrix,
    GateNetwork,
    compile_gate_network,
    gate_network_to_json,
    is_unitary,
    matrix_to_json,
    partial_trace,
    permute_subsystems,
    tensor,
    unitary_eig,
)
from .reporting import complex_json, digest, sig
from .rng import substream

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI = {"x": SIGMA_X, "y": SIGMA_Y}

KET_PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)

DENSE_CHECK_AUTO_LIMIT = 256  # joint dim above which the dense path is skipped
DENSE_HARD_LIMIT = 4096

TASK1_SETTINGS = (("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"))
TASK2_SETTINGS = (("x", "x"), ("y", "y"), ("x", "y"), ("y", "x"))

BATCHES = 16


class CoherenceResourceError(ValueError):
    """The control state carries no coherence: estimation is impossible."""


def _require_task(task: int) -> int:
    if task not in (1, 2):
        raise ValueError(f"task must be 1 or 2, got {task}")
    return task


def resolve_unitary(u: np.ndarray | GateNetwork) -> np.ndarray:
    if isinstance(u, GateNetwork):
        return compile_gate_network(u)
    m = np.asarray(u, dtype=complex)
    if not is_unitary(m):
        raise ValueError("matrix is not unitary within 1e-9")
    return m


def controlled_unitary(u: np.ndarray) -> np.ndarray:
    """Block unitary |0><0| (x) I + |1><1| (x) U."""
    m = resolve_unitary(u)
    d = m.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = np.eye(d)
    out[d:, d:] = m
    return out


def iota_factor(u: np.ndarray | GateNetwork) -> complex:
    """Normalized trace Tr(U) / dim(U)."""
    m = resolve_unitary(u)
    return complex(np.trace(m)) / m.shape[0]


def exact_iota(u_a: np.ndarray | GateNetwork, u_b: np.ndarray | GateNetwork) -> complex:
    """Product of the two normalized traces; magnitude at most 1."""
    return iota_factor(u_a) * iota_factor(u_b)


# ---------------------------------------------------------------------------
# Control states


def task_control_input(task: int, signs: tuple[int, int] = (1, 1)) -> DensityMatrix:
    """Two-qubit joint control state Charlie prepares.

    Task 1: the pure product of one superposition qubit per side (sign picks
    plus or minus).  Task 2: the even mixture of the two aligned products,
    whose marginals are maximally mixed.
    """
    _require_task(task)
    if len(signs) != 2 or any(s not in (1, -1) for s in signs):
        raise ValueError(f"signs must be two entries, each +1 or -1, got {tuple(signs)}")
    kets = {1: KET_PLUS, -1: KET_MINUS}
    if task == 1:
        vec = np.kron(kets[signs[0]], kets[signs[1]])
        return DensityMatrix.from_vector(vec, (2, 2))
    plus2 = np.kron(KET_PLUS, KET_PLUS)
    minus2 = np.kron(KET_MINUS, KET_MINUS)
    mat = 0.5 * (np.outer(plus2, plus2.conj()) + np.outer(minus2, minus2.conj()))
    return DensityMatrix(mat, (2, 2))


def _factor_map(iota_x: complex) -> np.ndarray:
    # Action of one server on its control qubit: the |1><0| coherence is
    # scaled by the normalized trace, |0><1| by its conjugate.
    return np.array([[1.0, np.conj(iota_x)], [iota_x, 1.0]])


def control_output_closed_form(
    task: int, u_a: np.ndarray, u_b: np.ndarray, signs: tuple[int, int] = (1, 1)
) -> DensityMatrix:
    """Joint control state after both servers acted, by the entrywise law."""
    rho_in = task_control_input(task, signs)
    factors = tensor(_factor_map(iota_factor(u_a)), _factor_map(iota_factor(u_b)))
    return DensityMatrix(rho_in.matrix * factors, (2, 2))


def dense_protocol_states(
    task: int, u_a: np.ndarray, u_b: np.ndarray, signs: tuple[int, int] = (1, 1)
) -> tuple[DensityMatrix, DensityMatrix]:
    """Full-system input and output states, ordered (ctrl A, anc A, ctrl B, anc B)."""
    u_a = resolve_unitary(u_a)
    u_b = resolve_unitary(u_b)
    d_a, d_b = u_a.shape[0], u_b.shape[0]
    joint_dim = 4 * d_a * d_b
    if joint_dim > DENSE_HARD_LIMIT:
        raise ValueError(f"dense path capped at joint dimension {DENSE_HARD_LIMIT}, got {joint_dim}")
    ctrl = task_control_input(task, signs)
    # Build in ordering (cA, cB, aA, aB), then interleave ancillas with controls.
    tau = tensor(np.eye(d_a) / d_a, np.eye(d_b) / d_b)
    full = tensor(ctrl.matrix, tau)
    full = permute_subsystems(full, (2, 2, d_a, d_b), (0, 2, 1, 3))
    dims = (2, d_a, 2, d_b)
    rho_in = DensityMatrix(full, dims)
    evolution = tensor(controlled_unitary(u_a), controlled_unitary(u_b))
    rho_out = DensityMatrix(evolution @ rho_in.matrix @ evolution.conj().T, dims)
    return rho_in, rho_out


def control_output_state(
    task: int,
    u_a: np.ndarray | GateNetwork,
    u_b: np.ndarray | GateNetwork,
    signs: tuple[int, int] = (1, 1),
    dense_check: bool | str = "auto",
) -> DensityMatrix:
    """Joint two-qubit control state after the servers applied their unitaries.

    Computed in closed form; when the full system is small enough (or on
    request) the dense construction-evolution-trace path is also run and the
    two must agree within 1e-9.
    """
    _require_task(task)
    u_a = resolve_unitary(u_a)
    u_b = resolve_unitary(u_b)
    out = control_output_closed_form(task, u_a, u_b, signs)
    joint_dim = 4 * u_a.shape[0] * u_b.shape[0]
    run_dense = dense_check is True or (dense_check == "auto" and joint_dim <= DENSE_CHECK_AUTO_LIMIT)
    if run_dense:
        _, rho_out_full = dense_protocol_states(task, u_a, u_b, signs)
        traced = partial_trace(rho_out_full, (0, 2))
        deviation = float(np.max(np.abs(traced.matrix - out.matrix)))
        if deviation > 1e-9:
            raise ArithmeticError(f"closed form disagrees with dense path by {deviation:.3e}")
    return out


def joint_ladder_expectation(rho: DensityMatrix) -> complex:
    """<(sigma_x + i sigma_y) (x) (sigma_x + i sigma_y)> on a two-qubit state."""
    ladder = SIGMA_X + 1j * SIGMA_Y
    op = tensor(ladder, ladder)
    return complex(np.trace(rho.matrix @ op))


# ---------------------------------------------------------------------------
# Eigenbasis construction for coherence accounting


def eigenbasis_of_unitary(u: np.ndarray | GateNetwork) -> np.ndarray:
    """Orthonormal eigenvector columns of a unitary, deterministically ordered."""
    _, vectors = unitary_eig(resolve_unitary(u))
    return vectors


def protocol_basis(u_a: np.ndarray | GateNetwork, u_b: np.ndarray | GateNetwork) -> ProductBasis:
    """Product basis (ctrl A, anc A, ctrl B, anc B) built from the unitaries'
    eigenvectors; the controlled evolution is diagonal in it."""
    u_a = resolve_unitary(u_a)
    u_b = resolve_unitary(u_b)
    eye2 = np.eye(2, dtype=complex)
    return ProductBasis(
        (eye2, eigenbasis_of_unitary(u_a), eye2, eigenbasis_of_unitary(u_b)),
        (2, u_a.shape[0], 2, u_b.shape[0]),
    )


CONTROL_BASIS = ProductBasis.computational((2, 2))


def control_coherence_figures(task: int, signs: tuple[int, int] = (1, 1)) -> tuple[float, float]:
    """(global REC, net REC) of the input control state in the control basis.

    The ancilla factors are maximally mixed and diagonal in any basis, so by
    additivity these equal the full-input figures in the eigenbasis
    construction; the full-state equality is exercised by the invariance
    suite.  The figures depend only on (task, signs) and are computed once
    per pair.
    """
    return _control_coherence_figures(int(task), tuple(int(s) for s in signs))


@lru_cache(maxsize=8)
def _control_coherence_figures(task: int, signs: tuple[int, ...]) -> tuple[float, float]:
    ctrl = task_control_input(task, signs)
    report = net_global_coherence(ctrl, CONTROL_BASIS, BIPARTITE_CUT)
    return report.rec_global, report.rec_net


# ---------------------------------------------------------------------------
# Precision laws


def predicted_se(iota_a: complex, iota_b: complex, shots: int, rec_control: float) -> float:
    """Predicted standard error of the estimate from the coherence budget.

    Order-of-magnitude law: sqrt((4 - |i_A|^2 - |i_B|^2) / (M * C)), with C
    the control-state coherence in bits; scales as M^(-1/2).
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if rec_control <= 0.0:
        raise CoherenceResourceError("no coherence resource: estimation impossible")
    numerator = 4.0 - abs(iota_a) ** 2 - abs(iota_b) ** 2
    return math.sqrt(numerator / (shots * rec_control))


def predicted_bp(rec_control: float) -> float:
    """Predicted binary precision: half the log of the coherence budget."""
    if rec_control <= 0.0:
        raise CoherenceResourceError("no coherence resource: estimation impossible")
    return 0.5 * math.log2(rec_control)


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class SettingRecord:
    """Outcomes of one measurement setting; arrays hold +1/-1 entries."""

    label: str
    pauli_a: str | None
    pauli_b: str | None
    alice: np.ndarray | None
    bob: np.ndarray | None

    @property
    def shots(self) -> int:
        arr = self.alice if self.alice is not None else self.bob
        return 0 if arr is None else int(arr.shape[0])


@dataclass(frozen=True)
class MeasurementRecord:
    task: int
    shots: int
    settings: tuple[SettingRecord, ...]


def _split_shots(shots: int, n_settings: int) -> list[int]:
    base = shots // n_settings
    rem = shots % n_settings
    return [base + (1 if i < rem else 0) for i in range(n_settings)]


def _projectors(pauli: str) -> tuple[np.ndarray, np.ndarray]:
    p = _PAULI[pauli]
    eye = np.eye(2, dtype=complex)
    return (eye + p) / 2.0, (eye - p) / 2.0


def _sample_joint(
    rho: DensityMatrix, pauli_a: str, pauli_b: str, n: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    proj_a = _projectors(pauli_a)
    proj_b = _projectors(pauli_b)
    probs = np.empty(4)
    for ia in range(2):
        for ib in range(2):
            probs[2 * ia + ib] = float(
                np.real(np.trace(rho.matrix @ tensor(proj_a[ia], proj_b[ib])))
            )
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    draws = gen.choice(4, size=n, p=probs)
    alice = np.where(draws < 2, 1, -1).astype(np.int8)
    bob = np.where(draws % 2 == 0, 1, -1).astype(np.int8)
    return alice, bob


def _sample_single(
    rho_marginal: np.ndarray, pauli: str, n: int, gen: np.random.Generator
) -> np.ndarray:
    plus, _ = _projectors(pauli)
    p_plus = float(np.clip(np.real(np.trace(rho_marginal @ plus)), 0.0, 1.0))
    draws = gen.random(n)
    return np.where(draws < p_plus, 1, -1).astype(np.int8)


def simulate_measurements(
    task: int,
    u_a: np.ndarray | GateNetwork,
    u_b: np.ndarray | GateNetwork,
    shots: int,
    seed: int,
    signs: tuple[int, int] = (1, 1),
) -> MeasurementRecord:
    """Born-rule sampling of the measurement schedule on the control output.

    Shots are split evenly over the settings (remainder in fixed order);
    non-commuting observables are estimated on disjoint shot subsets.  Each
    setting draws from its own counter-derived substream, so the record for
    a (seed, task, setting) triple does not depend on evaluation order.
    """
    _require_task(task)
    if shots < 4:
        raise ValueError("need at least one shot per setting (shots >= 4)")
    rho = control_output_state(task, u_a, u_b, signs, dense_check=False)
    settings = TASK1_SETTINGS if task == 1 else TASK2_SETTINGS
    counts = _split_shots(shots, len(settings))
    records = []
    marginals = {
        "a": partial_trace(rho, (0,)).matrix,
        "b": partial_trace(rho, (1,)).matrix,
    }
    for index, (spec_a, spec_b) in enumerate(settings):
        gen = substream(seed, task, index)
        n = counts[index]
        if task == 1:
            server, pauli = spec_a, spec_b
            outcomes = _sample_single(marginals[server], pauli, n, gen)
            records.append(
                SettingRecord(
                    label=f"{server}:{pauli}",
                    pauli_a=pauli if server == "a" else None,
                    pauli_b=pauli if server == "b" else None,
                    alice=outcomes if server == "a" else None,
                    bob=outcomes if server == "b" else None,
                )
            )
        else:
            alice, bob = _sample_joint(rho, spec_a, spec_b, n, gen)
            records.append(
                SettingRecord(
                    label=f"{spec_a}{spec_b}", pauli_a=spec_a, pauli_b=spec_b, alice=alice, bob=bob
                )
            )
    return MeasurementRecord(task=task, shots=shots, settings=tuple(records))


def _setting_mean(record: SettingRecord, lo: int | None = None, hi: int | None = None) -> float:
    sl = slice(lo, hi)
    if record.alice is not None and record.bob is not None:
        data = record.alice[sl].astype(float) * record.bob[sl]
    else:
        arr = record.alice if record.alice is not None else record.bob
        data = arr[sl].astype(float)
    return float(np.mean(data)) if data.size else 0.0


def _combine(task: int, means: dict[str, float], signs: tuple[int, int]) -> complex:
    if task == 2:
        return complex(means["xx"] - means["yy"], means["xy"] + means["yx"])
    side_a = complex(means["a:x"], means["a:y"])
    side_b = complex(means["b:x"], means["b:y"])
    return signs[0] * signs[1] * side_a * side_b


def _moment_se_floor(record: MeasurementRecord, means: dict[str, float]) -> float:
    """Moment-propagation standard error with smoothed per-setting variances.

    Matches the true estimator error in healthy regimes and stays strictly
    positive for degenerate all-equal samples (where the batch scatter
    collapses to zero), which keeps the |estimate| <= 1 + 4 SE report
    invariant meaningful at tiny shot counts.
    """
    setting_var = {}
    for s in record.settings:
        n = s.shots
        smoothed = means[s.label] * n / (n + 2.0)
        setting_var[s.label] = max(1.0 - smoothed * smoothed, 0.0) / n
    if record.task == 2:
        return math.sqrt(sum(setting_var.values()))
    side_a = complex(means["a:x"], means["a:y"])
    side_b = complex(means["b:x"], means["b:y"])
    var_a = setting_var["a:x"] + setting_var["a:y"]
    var_b = setting_var["b:x"] + setting_var["b:y"]
    return math.sqrt(abs(side_b) ** 2 * var_a + abs(side_a) ** 2 * var_b + var_a * var_b)


def estimate_from_record(
    record: MeasurementRecord, signs: tuple[int, int] = (1, 1)
) -> tuple[complex, float]:
    """(estimate, empirical standard error) from recorded outcomes.

    The empirical error is the scatter of the estimator over 16 disjoint
    shot batches, scaled to the full sample, with a moment-propagation floor
    so it never degenerates to zero on constant samples.
    """
    full_means = {s.label: _setting_mean(s) for s in record.settings}
    estimate = _combine(record.task, full_means, signs)
    floor = _moment_se_floor(record, full_means)

    n_batches = min(BATCHES, min(s.shots for s in record.settings))
    if n_batches < 2:
        return estimate, floor
    batch_estimates = []
    for k in range(n_batches):
        means = {}
        for s in record.settings:
            edges = np.linspace(0, s.shots, n_batches + 1).astype(int)
            means[s.label] = _setting_mean(s, edges[k], edges[k + 1])
        batch_estimates.append(_combine(record.task, means, signs))
    batch_estimates = np.array(batch_estimates)
    centered = batch_estimates - batch_estimates.mean()
    variance = float(np.sum(np.abs(centered) ** 2) / (n_batches - 1))
    return estimate, max(math.sqrt(variance / n_batches), floor)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class EstimateReport:
    """One protocol run: exact target, estimate, error budget, coherence ledger."""

    task: int
    shots: int
    iota_exact: complex
    iota_est: complex
    se_predicted: float
    se_empirical: float
    rec_control: float
    rec_net: float
    bp_predicted: float
    seed: int

    def __post_init__(self):
        _require_task(self.task)
        if self.rec_control > 0.0 and not self.se_predicted > 0.0:
            raise ValueError("se_predicted must be positive when coherence is available")
        if abs(self.iota_est) > 1.0 + 4.0 * self.se_empirical:
            raise ValueError(
                f"|iota_est| = {abs(self.iota_est):.4f} exceeds 1 + 4*SE "
                f"({1.0 + 4.0 * self.se_empirical:.4f})"
            )

    def to_json(self) -> dict:
        return {
            "task": self.task,
            "shots": self.shots,
            "iota_exact": complex_json(self.iota_exact),
            "iota_est": complex_json(self.iota_est),
            "se_predicted": sig(self.se_predicted),
            "se_empirical": sig(self.se_empirical) if math.isfinite(self.se_empirical) else None,
            "rec_control": sig(self.rec_control),
            "rec_net": sig(self.rec_net),
            "bp_predicted": sig(self.bp_predicted),
            "seed": self.seed,
        }


def sample_run(
    task: int,
    u_a: np.ndarray | GateNetwork,
    u_b: np.ndarray | GateNetwork,
    shots: int,
    seed: int,
    signs: tuple[int, int] = (1, 1),
) -> EstimateReport:
    report, _ = sample_run_with_record(task, u_a, u_b, shots, seed, signs)
    return report


def sample_run_with_record(
    task: int,
    u_a: np.ndarray | GateNetwork,
    u_b: np.ndarray | GateNetwork,
    shots: int,
    seed: int,
    signs: tuple[int, int] = (1, 1),
) -> tuple[EstimateReport, MeasurementRecord]:
    u_a = resolve_unitary(u_a)
    u_b = resolve_unitary(u_b)
    record = simulate_measurements(task, u_a, u_b, shots, seed, signs)
    iota_est, se_empirical = estimate_from_record(record, signs)
    rec_control, rec_net = control_coherence_figures(task, signs)
    report = EstimateReport(
        task=task,
        shots=shots,
        iota_exact=exact_iota(u_a, u_b),
        iota_est=iota_est,
        se_predicted=predicted_se(iota_factor(u_a), iota_factor(u_b), shots, rec_control),
        se_empirical=se_empirical,
        rec_control=rec_control,
        rec_net=rec_net,
        bp_predicted=predicted_bp(rec_control),
        seed=int(seed),
    )
    return report, record


# ---------------------------------------------------------------------------
# Party harness and transcript


MESSAGE_KINDS = ("state", "gate-network", "statistics")


# Charlie is the client; Alice and Bob are the servers.
PARTIES = ("charlie", "alice", "bob")


class CapabilityViolationError(RuntimeError):
    """A party attempted an action outside its role; carries the transcript index."""

    def __init__(self, message: str, transcript_index: int):
        super().__init__(message)
        self.transcript_index = transcript_index


@dataclass(frozen=True)
class TranscriptMessage:
    index: int
    sender: str
    receiver: str
    kind: str
    payload_digest: str

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "sender": self.sender,
            "receiver": self.receiver,
            "kind": self.kind,
            "payload_digest": self.payload_digest,
        }


@dataclass(frozen=True)
class ProtocolTranscript:
    messages: tuple[TranscriptMessage, ...]

    def validate(self) -> None:
        """Re-check the transcript invariants after the fact."""
        for m in self.messages:
            if {m.sender, m.receiver} == {"alice", "bob"}:
                raise CapabilityViolationError("servers communicated", m.index)
            if m.kind == "state" and m.sender != "charlie":
                raise CapabilityViolationError("quantum state from a non-client party", m.index)

    def to_json(self) -> list[dict]:
        return [m.to_json() for m in self.messages]


class Harness:
    """Audited in-process message bus enforcing the party capability rules."""

    def __init__(self):
        self._messages: list[TranscriptMessage] = []

    def send(self, sender: str, receiver: str, kind: str, payload) -> int:
        index = len(self._messages)
        if sender not in PARTIES or receiver not in PARTIES:
            raise CapabilityViolationError(f"unknown party in {sender}->{receiver}", index)
        if sender == receiver:
            raise CapabilityViolationError(f"{sender} may not message itself", index)
        if kind not in MESSAGE_KINDS:
            raise CapabilityViolationError(f"unknown payload kind {kind!r}", index)
        if {sender, receiver} == {"alice", "bob"}:
            raise CapabilityViolationError("servers are forbidden to communicate", index)
        if kind in ("state", "gate-network") and sender != "charlie":
            raise CapabilityViolationError(
                f"only the client may send {kind} payloads, not {sender}", index
            )
        if kind == "statistics" and (sender == "charlie" or receiver != "charlie"):
            raise CapabilityViolationError("statistics flow from servers to the client", index)
        self._messages.append(TranscriptMessage(index, sender, receiver, kind, digest(payload)))
        return index

    def transcript(self) -> ProtocolTranscript:
        return ProtocolTranscript(tuple(self._messages))


def _preparation_branches(task: int, signs: tuple[int, int]) -> tuple[tuple[float, tuple[int, int]], ...]:
    if task == 1:
        return ((1.0, (signs[0], signs[1])),)
    return ((0.5, (1, 1)), (0.5, (-1, -1)))


def validate_preparation(branches: Sequence[tuple[float, tuple[int, int]]]) -> None:
    """Client-side preparation rule: at most two pure qubits per branch,
    weights normalized; everything else is maximally mixed by construction."""
    total = 0.0
    for weight, pure_signs in branches:
        if len(pure_signs) > 2:
            raise CapabilityViolationError(
                f"client may prepare at most two pure qubits, got {len(pure_signs)}", -1
            )
        if weight < 0:
            raise CapabilityViolationError("negative preparation weight", -1)
        total += weight
    if abs(total - 1.0) > 1e-12:
        raise CapabilityViolationError("preparation weights must sum to 1", -1)


def _network_payload(task: int, shots: int, u: np.ndarray | GateNetwork, side: str) -> dict:
    if isinstance(u, GateNetwork):
        body = gate_network_to_json(u)
    else:
        body = matrix_to_json(np.asarray(u, dtype=complex))
    return {"side": side, "task": task, "shots": shots, "unitary": body}


def _statistics_payload(record: MeasurementRecord, server: str) -> dict:
    rows = []
    for s in record.settings:
        arr = s.alice if server == "alice" else s.bob
        if arr is None:
            continue
        rows.append(
            {
                "setting": s.label,
                "n_plus": int(np.sum(arr > 0)),
                "n_minus": int(np.sum(arr < 0)),
            }
        )
    return {"server": server, "outcomes": rows}


INJECTION_MODES = ("alice_to_bob", "bob_to_alice", "server_state")


def run_protocol(
    task: int,
    networks: tuple[np.ndarray | GateNetwork, np.ndarray | GateNetwork],
    shots: int,
    seed: int,
    signs: tuple[int, int] = (1, 1),
    inject: str | None = None,
) -> tuple[EstimateReport, ProtocolTranscript]:
    report, transcript, _ = run_protocol_detailed(task, networks, shots, seed, signs, inject)
    return report, transcript


def run_protocol_detailed(
    task: int,
    networks: tuple[np.ndarray | GateNetwork, np.ndarray | GateNetwork],
    shots: int,
    seed: int,
    signs: tuple[int, int] = (1, 1),
    inject: str | None = None,
) -> tuple[EstimateReport, ProtocolTranscript, MeasurementRecord]:
    """Full choreography over the audited harness.

    Charlie distributes gate networks and state shares, the servers evolve
    and measure, statistics return to Charlie, and he combines them.  The
    resulting report is identical to ``sample_run`` at the same seed.  An
    ``inject`` mode forges one forbidden message to exercise the audit.
    """
    _require_task(task)
    if inject is not None and inject not in INJECTION_MODES:
        raise ValueError(f"unknown injection mode {inject!r}")
    u_a, u_b = networks
    harness = Harness()

    harness.send("charlie", "alice", "gate-network", _network_payload(task, shots, u_a, "a"))
    harness.send("charlie", "bob", "gate-network", _network_payload(task, shots, u_b, "b"))

    branches = _preparation_branches(task, signs)
    validate_preparation(branches)
    for server, side in (("alice", "a"), ("bob", "b")):
        harness.send(
            "charlie",
            server,
            "state",
            {
                "side": side,
                "control": "share of the joint control preparation",
                "branches": [[w, list(s)] for w, s in branches],
                "ancillas": "maximally mixed",
            },
        )

    if inject == "alice_to_bob":
        harness.send("alice", "bob", "statistics", {"forged": True})
    if inject == "bob_to_alice":
        harness.send("bob", "alice", "statistics", {"forged": True})
    if inject == "server_state":
        harness.send("alice", "charlie", "state", {"forged": True})

    report, record = sample_run_with_record(task, u_a, u_b, shots, seed, signs)

    harness.send("alice", "charlie", "statistics", _statistics_payload(record, "alice"))
    harness.send("bob", "charlie", "statistics", _statistics_payload(record, "bob"))

    transcript = harness.transcript()
    transcript.validate()
    return report, transcript, record


# ---------------------------------------------------------------------------
# Privacy audit


@dataclass(frozen=True)
class MarginalCheck:
    run_index: int
    server: str
    pauli: str
    shots: int
    mean: float
    z_score: float


@dataclass(frozen=True)
class PrivacyAudit:
    """Per-server marginal expectation audit over a collection of runs.

    verdict is "pass" when every per-server marginal mean is within five
    standard errors of zero, "leak detected" otherwise, and
    "insufficient data" when some marginal has no shots at all.
    """

    verdict: str
    checks: tuple[MarginalCheck, ...]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "checks": [
                {
                    "run": c.run_index,
                    "server": c.server,
                    "pauli": c.pauli,
                    "shots": c.shots,
                    "mean": sig(c.mean),
                    "z_score": sig(c.z_score),
                }
                for c in self.checks
            ],
        }


AUDIT_Z_LIMIT = 5.0


def privacy_audit(records: Sequence[MeasurementRecord]) -> PrivacyAudit:
    """Check that single-server statistics carry no information.

    Pools each server's outcomes per Pauli across the settings where that
    server measured it.  A nonzero marginal expectation (as in the
    single-sided protocol with a large normalized trace) shows up as a large
    z-score and fails the audit.
    """
    checks: list[MarginalCheck] = []
    insufficient = False
    for run_index, record in enumerate(records):
        for server in ("alice", "bob"):
            for pauli in ("x", "y"):
                chunks = []
                for s in record.settings:
                    server_pauli = s.pauli_a if server == "alice" else s.pauli_b
                    arr = s.alice if server == "alice" else s.bob
                    if server_pauli == pauli and arr is not None:
                        chunks.append(arr)
                n = int(sum(c.shape[0] for c in chunks))
                if n == 0:
                    insufficient = True
                    checks.append(MarginalCheck(run_index, server, pauli, 0, 0.0, 0.0))
                    continue
                mean = float(np.concatenate(chunks).astype(float).mean())
                z = abs(mean) * math.sqrt(n)
                checks.append(MarginalCheck(run_index, server, pauli, n, mean, z))
    if insufficient:
        verdict = "insufficient data"
    elif any(c.z_score > AUDIT_Z_LIMIT for c in checks):
        verdict = "leak detected"
    else:
        verdict = "pass"
    return PrivacyAudit(verdict, tuple(checks))
