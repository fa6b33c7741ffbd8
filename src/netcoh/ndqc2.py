"""Three-party distributed trace-estimation protocol simulator.

A client (Charlie) holding classical descriptions of two unitaries delegates
the estimation of the product of their normalized traces to two
non-communicating servers (Alice, Bob) that can only apply unitaries and
perform destructive measurements.  Charlie may prepare at most two pure
qubits per preparation branch; everything else he sends is maximally mixed.
The harness records a message only if its (sender, receiver, kind) is one
of the six in ``ALLOWED_MESSAGES``: Charlie sends each server its gate
network and state share, each server sends statistics back to him, and the
servers never talk to each other.

The simulator is exact on the state side (density matrices evolve in closed
form) and Monte Carlo on the measurement side, with Born-rule sampling from
Philox substreams so runs are bit-reproducible for a given seed.  Each shot
is one uniform draw: a joint setting compares it with the cdf of its four
outcome probabilities, which gives the draws and outcomes of
``Generator.choice``; a single-server setting compares it with the
probability of +1.  A run takes at most ``MAX_SHOTS`` shots.  The
estimate, its error bar, the servers' statistics messages and the privacy
audit all read exact integer sums of the int8 outcomes (``_tally``), so no
per-shot float copy is made.  The dense full-system path cross-checks the
closed form in ``control_output_state`` up to joint dimension 256 and in the
tests; protocol runs sample from the closed form without it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .coherence import BIPARTITE_CUT, ProductBasis, net_global_coherence
from .linalg import (
    ATOL_SPECTRAL,
    GATE_MATRICES,
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

SIGMA_X = GATE_MATRICES["X"]
SIGMA_Y = GATE_MATRICES["Y"]
_PAULI = {"x": SIGMA_X, "y": SIGMA_Y}

KET_PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0]) / math.sqrt(2.0)

DENSE_CHECK_LIMIT = 256  # joint dim above which the dense path is skipped
DENSE_HARD_LIMIT = 4096

TASK1_SETTINGS = (("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"))
TASK2_SETTINGS = (("x", "x"), ("y", "y"), ("x", "y"), ("y", "x"))
# Setting labels, in the order of the settings above.
LABELS = {1: ("a:x", "a:y", "b:x", "b:y"), 2: ("xx", "yy", "xy", "yx")}

BATCHES = 16
# Largest run.  Sampling and estimating peak at about 31 MB (task 1) and
# 48 MB (task 2) per 10**7 shots under tracemalloc, mostly the uniforms.
MAX_SHOTS = 10**8


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


def _normalized_trace(m: np.ndarray) -> complex:
    return complex(np.trace(m)) / m.shape[0]


def iota_factor(u: np.ndarray | GateNetwork) -> complex:
    """Normalized trace Tr(U) / dim(U)."""
    return _normalized_trace(resolve_unitary(u))


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


def _closed_form_output(
    task: int, iota_a: complex, iota_b: complex, signs: tuple[int, int]
) -> DensityMatrix:
    """Joint control state after the servers acted, by the entrywise law,
    from the two normalized traces."""
    rho_in = task_control_input(task, signs)
    factors = tensor(_factor_map(iota_a), _factor_map(iota_b))
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
) -> DensityMatrix:
    """Joint two-qubit control state after the servers applied their unitaries.

    Computed in closed form; up to joint dimension ``DENSE_CHECK_LIMIT`` the
    dense construction-evolution-trace path is also run and the two must
    agree within 1e-9.
    """
    _require_task(task)
    u_a = resolve_unitary(u_a)
    u_b = resolve_unitary(u_b)
    out = _closed_form_output(task, _normalized_trace(u_a), _normalized_trace(u_b), signs)
    if 4 * u_a.shape[0] * u_b.shape[0] <= DENSE_CHECK_LIMIT:
        _, rho_out_full = dense_protocol_states(task, u_a, u_b, signs)
        traced = partial_trace(rho_out_full, (0, 2))
        deviation = float(np.max(np.abs(traced.matrix - out.matrix)))
        if deviation > ATOL_SPECTRAL:
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

    def side(self, server: str) -> tuple[str | None, np.ndarray | None]:
        """(Pauli, outcomes) of "alice" or "bob"; Nones where it did not measure."""
        return (self.pauli_a, self.alice) if server == "alice" else (self.pauli_b, self.bob)

    def outcomes(self) -> np.ndarray:
        """The setting's +1/-1 int8 outcomes: the product of the two sides
        for a joint setting, the measuring side's own for a single one."""
        if self.alice is not None and self.bob is not None:
            return self.alice * self.bob
        return self.alice if self.alice is not None else self.bob


@dataclass(frozen=True)
class MeasurementRecord:
    task: int
    settings: tuple[SettingRecord, ...]


def _split_shots(shots: int, n_settings: int) -> list[int]:
    base = shots // n_settings
    rem = shots % n_settings
    return [base + (1 if i < rem else 0) for i in range(n_settings)]


def _projectors(pauli: str) -> tuple[np.ndarray, np.ndarray]:
    p = _PAULI[pauli]
    eye = np.eye(2, dtype=complex)
    return (eye + p) / 2.0, (eye - p) / 2.0


@lru_cache(maxsize=4)
def _joint_projectors(pauli_a: str, pauli_b: str) -> tuple[np.ndarray, ...]:
    """The four read-only products P_a (x) P_b, outcomes ordered ++, +-, -+, --."""
    products = []
    for proj_a in _projectors(pauli_a):
        for proj_b in _projectors(pauli_b):
            product = tensor(proj_a, proj_b)
            product.setflags(write=False)
            products.append(product)
    return tuple(products)


def _signs_of(minus: np.ndarray) -> np.ndarray:
    """+1/-1 int8 outcomes from a boolean "outcome was -1" array."""
    return 1 - 2 * minus.view(np.int8)


def _sample_joint(
    rho: DensityMatrix, pauli_a: str, pauli_b: str, n: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Joint outcomes of n shots, drawn as ``gen.choice(4, size=n, p=probs)``
    draws them: one uniform u per shot against the normalised cdf, the
    outcome index being the number of cdf entries at or below u.  Alice's
    outcome is the index's high bit, Bob's its parity."""
    probs = np.array(
        [float(np.real(np.trace(rho.matrix @ p))) for p in _joint_projectors(pauli_a, pauli_b)]
    )
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    u = gen.random(n)
    alice_minus = u >= cdf[1]
    bob_minus = (u >= cdf[0]) ^ alice_minus ^ (u >= cdf[2])
    return _signs_of(alice_minus), _signs_of(bob_minus)


def _sample_single(
    rho_marginal: np.ndarray, pauli: str, n: int, gen: np.random.Generator
) -> np.ndarray:
    plus, _ = _projectors(pauli)
    p_plus = float(np.clip(np.real(np.trace(rho_marginal @ plus)), 0.0, 1.0))
    return _signs_of(gen.random(n) >= p_plus)


def simulate_measurements(
    task: int, rho: DensityMatrix, shots: int, seed: int
) -> MeasurementRecord:
    """Born-rule sampling of the measurement schedule on a control output
    state ``rho`` (from ``control_output_state``).

    Shots, 4 to ``MAX_SHOTS``, are split evenly over the settings
    (remainder in fixed order); non-commuting observables are estimated on
    disjoint shot subsets.  Each setting draws one uniform per shot from its
    own counter-derived substream, so the record for a (seed, task, setting)
    triple does not depend on evaluation order.
    """
    _require_task(task)
    if shots < 4:
        raise ValueError("need at least one shot per setting (shots >= 4)")
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most {MAX_SHOTS}, got {shots}")
    settings = TASK1_SETTINGS if task == 1 else TASK2_SETTINGS
    counts = _split_shots(shots, len(settings))
    if task == 1:
        marginals = {"a": partial_trace(rho, (0,)).matrix, "b": partial_trace(rho, (1,)).matrix}
    records = []
    for index, ((spec_a, spec_b), n, label) in enumerate(zip(settings, counts, LABELS[task])):
        gen = substream(seed, task, index)
        if task == 1:  # spec_a names the measuring server, spec_b its Pauli
            outcomes = _sample_single(marginals[spec_a], spec_b, n, gen)
            pauli_a, alice = (spec_b, outcomes) if spec_a == "a" else (None, None)
            pauli_b, bob = (None, None) if spec_a == "a" else (spec_b, outcomes)
        else:
            pauli_a, pauli_b = spec_a, spec_b
            alice, bob = _sample_joint(rho, spec_a, spec_b, n, gen)
        records.append(SettingRecord(label, pauli_a, pauli_b, alice, bob))
    return MeasurementRecord(task=task, settings=tuple(records))


def _tally(outcomes: np.ndarray, n_slices: int = 1) -> tuple[list[int], list[int]]:
    """Sums and sizes of +1/-1 int8 outcomes over ``n_slices`` consecutive
    slices cut at ``np.linspace(0, n, n_slices + 1).astype(int)``.

    Sums of +1/-1 are exact integers, so a mean sum / size is one correctly
    rounded division: the mean of the outcomes as floats, in any order.
    """
    if not outcomes.size:
        return [0] * n_slices, [0] * n_slices
    edges = np.linspace(0, outcomes.size, n_slices + 1).astype(int)
    return np.add.reduceat(outcomes, edges[:-1], dtype=np.int64).tolist(), np.diff(edges).tolist()


def _combine(task: int, means: Sequence[float], signs: tuple[int, int]) -> complex:
    """The estimate from the four setting means, in ``LABELS[task]`` order."""
    if task == 2:
        xx, yy, xy, yx = means
        return complex(xx - yy, xy + yx)
    ax, ay, bx, by = means
    return signs[0] * signs[1] * complex(ax, ay) * complex(bx, by)


def _moment_se_floor(task: int, shots: Sequence[int], means: Sequence[float]) -> float:
    """Moment-propagation standard error with smoothed per-setting variances.

    Matches the true estimator error in healthy regimes and stays strictly
    positive for degenerate all-equal samples (where the batch scatter
    collapses to zero), which keeps the |estimate| <= 1 + 4 SE report
    invariant meaningful at tiny shot counts.  Settings are in
    ``LABELS[task]`` order.
    """
    setting_var = []
    for n, mean in zip(shots, means):
        smoothed = mean * n / (n + 2.0)
        setting_var.append(max(1.0 - smoothed * smoothed, 0.0) / n)
    if task == 2:
        return math.sqrt(sum(setting_var))
    side_a = complex(means[0], means[1])
    side_b = complex(means[2], means[3])
    var_a = setting_var[0] + setting_var[1]
    var_b = setting_var[2] + setting_var[3]
    return math.sqrt(abs(side_b) ** 2 * var_a + abs(side_a) ** 2 * var_b + var_a * var_b)


def estimate_from_record(
    record: MeasurementRecord, signs: tuple[int, int] = (1, 1)
) -> tuple[complex, float]:
    """(estimate, empirical standard error) from recorded outcomes.

    The empirical error is the scatter of the estimator over 16 disjoint
    shot batches, scaled to the full sample, with a moment-propagation floor
    so it never degenerates to zero on constant samples.  One tally per
    setting gives both the full and the batch means.  The record must hold
    the settings ``LABELS[task]`` in that order, each with at least one shot.
    """
    settings = record.settings
    labels = tuple(s.label for s in settings)
    if labels != LABELS.get(record.task):
        raise ValueError(f"task {record.task!r} record has settings {labels}")
    shots = [s.shots for s in settings]
    if min(shots) < 1:
        raise ValueError(f"every setting needs at least one shot, got {shots}")
    n_batches = min(BATCHES, min(shots))
    tallies = [_tally(s.outcomes(), n_batches) for s in settings]
    means = [sum(sums) / n for (sums, _), n in zip(tallies, shots)]
    estimate = _combine(record.task, means, signs)
    floor = _moment_se_floor(record.task, shots, means)
    if n_batches < 2:
        return estimate, floor
    batch_means = [[total / size for total, size in zip(*tally)] for tally in tallies]
    batch_estimates = np.array(
        [_combine(record.task, column, signs) for column in zip(*batch_means)]
    )
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


def sample_run_with_record(
    task: int,
    u_a: np.ndarray | GateNetwork,
    u_b: np.ndarray | GateNetwork,
    shots: int,
    seed: int,
    signs: tuple[int, int] = (1, 1),
) -> tuple[EstimateReport, MeasurementRecord]:
    """One protocol run without the party harness: the report and the
    measurement record it estimated from.

    Each server's unitary is resolved (and checked unitary) once; the run
    then works from the two normalized traces.
    """
    iota_a, iota_b = iota_factor(u_a), iota_factor(u_b)
    rho = _closed_form_output(task, iota_a, iota_b, signs)
    record = simulate_measurements(task, rho, shots, seed)
    iota_est, se_empirical = estimate_from_record(record, signs)
    rec_control, rec_net = control_coherence_figures(task, signs)
    report = EstimateReport(
        task=task,
        shots=shots,
        iota_exact=iota_a * iota_b,
        iota_est=iota_est,
        se_predicted=predicted_se(iota_a, iota_b, shots, rec_control),
        se_empirical=se_empirical,
        rec_control=rec_control,
        rec_net=rec_net,
        bp_predicted=predicted_bp(rec_control),
        seed=int(seed),
    )
    return report, record


# ---------------------------------------------------------------------------
# Party harness and transcript


# Every (sender, receiver, kind) the protocol allows; Charlie is the client,
# Alice and Bob the servers.
ALLOWED_MESSAGES = frozenset(
    {
        ("charlie", "alice", "gate-network"),
        ("charlie", "bob", "gate-network"),
        ("charlie", "alice", "state"),
        ("charlie", "bob", "state"),
        ("alice", "charlie", "statistics"),
        ("bob", "charlie", "statistics"),
    }
)


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
        return asdict(self)


@dataclass(frozen=True)
class ProtocolTranscript:
    messages: tuple[TranscriptMessage, ...]

    def to_json(self) -> list[dict]:
        return [m.to_json() for m in self.messages]


class Harness:
    """Audited in-process message bus: ``send`` records a message only if its
    (sender, receiver, kind) triple is in ``ALLOWED_MESSAGES``."""

    def __init__(self):
        self._messages: list[TranscriptMessage] = []

    def send(self, sender: str, receiver: str, kind: str, payload) -> int:
        index = len(self._messages)
        if (sender, receiver, kind) not in ALLOWED_MESSAGES:
            raise CapabilityViolationError(f"{sender} may not send {kind!r} to {receiver}", index)
        self._messages.append(TranscriptMessage(index, sender, receiver, kind, digest(payload)))
        return index

    def transcript(self) -> ProtocolTranscript:
        return ProtocolTranscript(tuple(self._messages))


def _preparation_branches(task: int, signs: tuple[int, int]) -> tuple[tuple[float, tuple[int, int]], ...]:
    """Charlie's (weight, signs) preparation branches: at most two pure
    qubits per branch, weights summing to 1; the ancillas are maximally
    mixed."""
    if task == 1:
        return ((1.0, (signs[0], signs[1])),)
    return ((0.5, (1, 1)), (0.5, (-1, -1)))


def _network_payload(task: int, shots: int, u: np.ndarray | GateNetwork, side: str) -> dict:
    if isinstance(u, GateNetwork):
        body = gate_network_to_json(u)
    else:
        body = matrix_to_json(np.asarray(u, dtype=complex))
    return {"side": side, "task": task, "shots": shots, "unitary": body}


def _statistics_payload(record: MeasurementRecord, server: str) -> dict:
    rows = []
    for s in record.settings:
        _, arr = s.side(server)
        if arr is None:
            continue
        (total,), (n,) = _tally(arr)
        n_minus = (n - total) // 2
        rows.append({"setting": s.label, "n_plus": n - n_minus, "n_minus": n_minus})
    return {"server": server, "outcomes": rows}


# The forbidden (sender, receiver, kind) message each injection mode forges.
INJECTIONS = {
    "alice_to_bob": ("alice", "bob", "statistics"),
    "bob_to_alice": ("bob", "alice", "statistics"),
    "server_state": ("alice", "charlie", "state"),
}


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
    resulting report and record are those of ``sample_run_with_record`` at
    the same seed.  An ``inject`` mode, a key of ``INJECTIONS``, forges one
    forbidden message to exercise the audit.
    """
    _require_task(task)
    if inject is not None and not (isinstance(inject, str) and inject in INJECTIONS):
        raise ValueError(f"unknown injection mode {inject!r}")
    u_a, u_b = networks
    harness = Harness()

    harness.send("charlie", "alice", "gate-network", _network_payload(task, shots, u_a, "a"))
    harness.send("charlie", "bob", "gate-network", _network_payload(task, shots, u_b, "b"))

    branches = _preparation_branches(task, signs)
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

    if inject is not None:
        harness.send(*INJECTIONS[inject], {"forged": True})

    report, record = sample_run_with_record(task, u_a, u_b, shots, seed, signs)

    harness.send("alice", "charlie", "statistics", _statistics_payload(record, "alice"))
    harness.send("bob", "charlie", "statistics", _statistics_payload(record, "bob"))

    return report, harness.transcript(), record


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
                total = n = 0
                for s in record.settings:
                    server_pauli, arr = s.side(server)
                    if server_pauli == pauli and arr is not None:
                        (sum_,), (size,) = _tally(arr)
                        total, n = total + sum_, n + size
                if n == 0:
                    insufficient = True
                    checks.append(MarginalCheck(run_index, server, pauli, 0, 0.0, 0.0))
                    continue
                mean = total / n
                z = abs(mean) * math.sqrt(n)
                checks.append(MarginalCheck(run_index, server, pauli, n, mean, z))
    if insufficient:
        verdict = "insufficient data"
    elif any(c.z_score > AUDIT_Z_LIMIT for c in checks):
        verdict = "leak detected"
    else:
        verdict = "pass"
    return PrivacyAudit(verdict, tuple(checks))
