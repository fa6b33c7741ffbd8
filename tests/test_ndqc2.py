import ast
import hashlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import SX, SY, SZ, KET_PLUS
from netcoh import ndqc2
from netcoh.coherence import net_global_coherence
from netcoh.linalg import DensityMatrix, GateNetwork, partial_trace, random_density_matrix, tensor
from netcoh.ndqc2 import (
    CapabilityViolationError,
    CoherenceResourceError,
    EstimateReport,
    Harness,
    MeasurementRecord,
    SettingRecord,
    control_output_state,
    controlled_unitary,
    dense_protocol_states,
    estimate_from_record,
    exact_iota,
    iota_factor,
    joint_ladder_expectation,
    predicted_bp,
    predicted_se,
    privacy_audit,
    protocol_basis,
    run_protocol_detailed,
    sample_run_with_record,
    simulate_measurements,
)
from netcoh.rng import haar_unitary, substream

I2 = np.eye(2, dtype=complex)
T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])

# Frozen oracle value: ((1 + exp(i pi/4)) / 2)^2, the product of the two
# normalized traces computed directly.
IOTA_TT = (0.6035533905932737 + 0.6035533905932737j)


class TestControlledUnitary:
    def test_identity(self):
        assert np.max(np.abs(controlled_unitary(I2) - np.eye(4))) <= 1e-12

    def test_x_gives_cnot(self):
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        assert np.max(np.abs(controlled_unitary(SX) - cnot)) <= 1e-12

    def test_unitarity_for_random_three_qubit_input(self):
        u = haar_unitary(8, substream(40, 0))
        cu = controlled_unitary(u)
        assert np.max(np.abs(cu.conj().T @ cu - np.eye(16))) <= 1e-9

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            controlled_unitary(np.ones((2, 2)))


class TestExactIota:
    def test_identities(self):
        assert exact_iota(I2, I2) == 1.0

    def test_traceless_factor(self):
        assert abs(exact_iota(SZ, haar_unitary(4, substream(40, 1)))) <= 1e-12

    def test_t_gate_value(self):
        assert abs(exact_iota(T_GATE, T_GATE) - IOTA_TT) <= 1e-12

    def test_magnitude_bounded(self):
        for i in range(20):
            gen = substream(40, 2, i)
            assert abs(exact_iota(haar_unitary(4, gen), haar_unitary(8, gen))) <= 1.0 + 1e-12

    def test_accepts_gate_networks(self):
        net = GateNetwork(1, (("T", (0,)),))
        assert abs(exact_iota(net, net) - IOTA_TT) <= 1e-12


class TestControlOutputState:
    def test_task1_identity_marginals(self):
        out = control_output_state(1, I2, I2)
        plus = np.outer(KET_PLUS, KET_PLUS)
        for side in (0, 1):
            assert np.max(np.abs(partial_trace(out, (side,)).matrix - plus)) <= 1e-9

    def test_task2_identity_full_expectation(self):
        out = control_output_state(2, I2, I2)
        assert abs(joint_ladder_expectation(out) - 1.0) <= 1e-9

    def test_joint_expectation_equals_exact_iota(self):
        # Correlation-measurement identity, dense path cross-checked inside.
        for i in range(10):
            gen = substream(41, i)
            u_a, u_b = haar_unitary(4, gen), haar_unitary(4, gen)
            out = control_output_state(2, u_a, u_b)
            assert abs(joint_ladder_expectation(out) - exact_iota(u_a, u_b)) <= 1e-9

    def test_task1_product_of_sides_identity(self):
        # Product of per-side expectations equals the joint expectation for
        # product control inputs.
        ladder = SX + 1j * SY
        for i in range(10):
            gen = substream(41, 100, i)
            u_a, u_b = haar_unitary(2, gen), haar_unitary(4, gen)
            out = control_output_state(1, u_a, u_b)
            side_a = np.trace(partial_trace(out, (0,)).matrix @ ladder)
            side_b = np.trace(partial_trace(out, (1,)).matrix @ ladder)
            assert abs(side_a * side_b - joint_ladder_expectation(out)) <= 1e-9

    def test_signs_flip_side_expectations(self):
        ladder = SX + 1j * SY
        out = control_output_state(1, T_GATE, I2, signs=(-1, 1))
        side_a = np.trace(partial_trace(out, (0,)).matrix @ ladder)
        assert abs(side_a - (-iota_factor(T_GATE))) <= 1e-9

    @pytest.mark.parametrize("d_a, d_b, expected", [(2, 2, 1), (8, 8, 1), (16, 8, 0)])
    def test_dense_check_runs_up_to_joint_dimension_256(self, monkeypatch, d_a, d_b, expected):
        calls = []
        real = ndqc2.dense_protocol_states
        monkeypatch.setattr(
            ndqc2, "dense_protocol_states", lambda *args: calls.append(args) or real(*args)
        )
        u_a = np.diag(np.exp(1j * np.arange(d_a)))
        u_b = np.diag(np.exp(-1j * np.arange(d_b)))
        control_output_state(2, u_a, u_b)
        assert len(calls) == expected

    def test_dense_path_cap(self):
        big = np.diag(np.exp(1j * np.arange(64)))
        with pytest.raises(ValueError):
            dense_protocol_states(2, big, big)

    def test_bad_task(self):
        with pytest.raises(ValueError):
            control_output_state(3, I2, I2)

    def test_task2_output_stays_nondiscordant_and_separable(self):
        # The local controlled evolutions preserve the classical-classical
        # structure of the correlated control state.
        from netcoh.classify import ppt_separability
        from netcoh.coherence import A_TO_B, B_TO_A, minimize_discord

        for i in range(5):
            gen = substream(41, 200, i)
            u_a, u_b = haar_unitary(4, gen), haar_unitary(2, gen)
            out = control_output_state(2, u_a, u_b)
            fwd, _ = minimize_discord(out, A_TO_B, seed=300 + i)
            bwd, _ = minimize_discord(out, B_TO_A, seed=300 + i)
            assert fwd <= 1e-6 and bwd <= 1e-6
            assert ppt_separability(out)[0]


class TestProtocolBasis:
    def test_controlled_evolution_is_diagonal_in_it(self):
        gen = substream(42, 0)
        u_a, u_b = haar_unitary(2, gen), haar_unitary(4, gen)
        basis = protocol_basis(u_a, u_b)
        evolution = tensor(controlled_unitary(u_a), controlled_unitary(u_b))
        frame = basis.matrix.conj().T @ evolution @ basis.matrix
        off = frame - np.diag(np.diagonal(frame))
        assert np.max(np.abs(off)) <= 1e-9

    def test_rec_invariance_under_protocol(self):
        for i in range(10):
            gen = substream(42, 1, i)
            u_a, u_b = haar_unitary(2, gen), haar_unitary(2, gen)
            basis = protocol_basis(u_a, u_b)
            task = 1 + (i % 2)
            rho_in, rho_out = dense_protocol_states(task, u_a, u_b)
            cut = ((0, 1), (2, 3))
            rep_in = net_global_coherence(rho_in, basis, cut)
            rep_out = net_global_coherence(rho_out, basis, cut)
            assert abs(rep_in.rec_global - rep_out.rec_global) <= 1e-9
            for a, b in zip(rep_in.rec_local, rep_out.rec_local):
                assert abs(a - b) <= 1e-9

    def test_degenerate_spectrum_invariance(self):
        # Z (x) Z has two doubly degenerate eigenphases; the coherence figures
        # must not depend on the basis chosen inside the degenerate blocks.
        u = tensor(SZ, SZ)
        basis = protocol_basis(u, u)
        rho_in, rho_out = dense_protocol_states(2, u, u)
        cut = ((0, 1), (2, 3))
        values = []
        for b in (basis, _rotated_degenerate_basis(u)):
            rep_in = net_global_coherence(rho_in, b, cut)
            rep_out = net_global_coherence(rho_out, b, cut)
            values.append((rep_in.rec_global, rep_out.rec_global))
        assert abs(values[0][0] - values[1][0]) <= 1e-9
        assert abs(values[0][1] - values[1][1]) <= 1e-9


def _rotated_degenerate_basis(u):
    """Alternative eigenbasis of Z (x) Z rotated inside a degenerate block."""
    from netcoh.coherence import ProductBasis
    from netcoh.ndqc2 import eigenbasis_of_unitary

    vec = eigenbasis_of_unitary(u)
    theta = 0.7
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
    )
    rotated = vec.copy()
    rotated[:, :2] = rotated[:, :2] @ rot  # mix the first degenerate pair
    eye2 = np.eye(2, dtype=complex)
    return ProductBasis((eye2, rotated, eye2, rotated), (2, 4, 2, 4))


class TestPrecisionLaws:
    def test_plain_values(self):
        assert abs(predicted_se(0, 0, 100, 1.0) - 0.2) <= 1e-12
        assert abs(predicted_se(1, 1, 100, 1.0) - math.sqrt(2) / 10) <= 1e-12

    def test_quadrupling_shots_halves_error(self):
        se1 = predicted_se(0.3 + 0.1j, 0.2j, 1000, 2.0)
        se2 = predicted_se(0.3 + 0.1j, 0.2j, 4000, 2.0)
        assert abs(se1 / se2 - 2.0) <= 1e-12

    def test_no_coherence_resource(self):
        with pytest.raises(CoherenceResourceError):
            predicted_se(0, 0, 100, 0.0)
        with pytest.raises(CoherenceResourceError):
            predicted_bp(0.0)

    @pytest.mark.parametrize("shots", [0, -4])
    def test_needs_at_least_one_shot(self, shots):
        with pytest.raises(ValueError, match="shots must be at least 1"):
            predicted_se(0, 0, shots, 1.0)

    def test_binary_precision_values(self):
        assert predicted_bp(1.0) == 0.0
        assert abs(predicted_bp(2.0) - 0.5) <= 1e-12
        assert abs(predicted_bp(4.0) - 1.0) <= 1e-12


class TestControlCoherenceFigures:
    def test_computed_once_per_task_and_signs(self, monkeypatch):
        import netcoh.ndqc2 as ndqc2

        calls = []
        original = ndqc2.net_global_coherence
        monkeypatch.setattr(
            ndqc2, "net_global_coherence", lambda *args: calls.append(args) or original(*args)
        )
        ndqc2._control_coherence_figures.cache_clear()
        try:
            first = ndqc2.control_coherence_figures(1, [1, -1])
            again = ndqc2.control_coherence_figures(1, (np.int64(1), -1))
        finally:
            ndqc2._control_coherence_figures.cache_clear()
        assert first == again and len(calls) == 1
        monkeypatch.undo()
        direct = net_global_coherence(
            ndqc2.task_control_input(1, (1, -1)), ndqc2.CONTROL_BASIS, ((0,), (1,))
        )
        assert first == (direct.rec_global, direct.rec_net)


    @pytest.mark.parametrize(
        "case, task, signs",
        [(0, 1, (1, 1)), (1, 1, (1, -1)), (2, 1, (-1, 1)), (3, 1, (-1, -1)), (4, 2, (1, 1))],
    )
    def test_equal_the_full_input_figures(self, case, task, signs):
        # The ancillas are maximally mixed, so the full input state in the
        # protocol basis has the control state's figures (worst gap seen:
        # 1.2e-14), for Haar unitaries on one or two qubits.
        rec_global, rec_net = ndqc2.control_coherence_figures(task, signs)
        for i in range(3):
            gen = substream(29, case, i)
            u_a = haar_unitary(2 ** int(gen.integers(1, 3)), gen)
            u_b = haar_unitary(2 ** int(gen.integers(1, 3)), gen)
            rho_in, _ = dense_protocol_states(task, u_a, u_b, signs)
            full = net_global_coherence(rho_in, protocol_basis(u_a, u_b), ((0, 1), (2, 3)))
            assert abs(full.rec_global - rec_global) <= 1e-9
            assert abs(full.rec_net - rec_net) <= 1e-9


class TestSampleRun:
    def test_traceless_unitaries_estimate_zero(self):
        report, _ = sample_run_with_record(2, SZ, SZ, 20000, seed=1)
        assert abs(report.iota_exact) == 0.0
        assert abs(report.iota_est) <= 4.0 * report.se_empirical

    def test_identity_task2_converges(self):
        report, _ = sample_run_with_record(2, I2, I2, 100000, seed=2)
        assert abs(report.iota_est - 1.0) <= 4.0 * report.se_empirical
        assert abs(report.rec_control - 1.0) <= 1e-9
        assert abs(report.rec_net - 1.0) <= 1e-9

    def test_task1_converges_and_reports_coherence(self):
        report, _ = sample_run_with_record(1, T_GATE, T_GATE, 100000, seed=3)
        assert abs(report.iota_est - IOTA_TT) <= 4.0 * report.se_empirical
        assert abs(report.rec_control - 2.0) <= 1e-9
        assert abs(report.rec_net) <= 1e-9
        assert abs(report.bp_predicted - 0.5) <= 1e-9

    def test_minus_controls(self):
        report, _ = sample_run_with_record(1, T_GATE, I2, 60000, seed=4, signs=(-1, 1))
        assert abs(report.iota_est - report.iota_exact) <= 4.0 * report.se_empirical
        assert abs(report.rec_control - 2.0) <= 1e-9

    def test_deterministic_per_seed(self):
        a, _ = sample_run_with_record(2, T_GATE, T_GATE, 5000, seed=7)
        b, _ = sample_run_with_record(2, T_GATE, T_GATE, 5000, seed=7)
        assert a == b
        c, _ = sample_run_with_record(2, T_GATE, T_GATE, 5000, seed=8)
        assert c.iota_est != a.iota_est

    def test_shot_floor(self):
        with pytest.raises(ValueError):
            sample_run_with_record(2, I2, I2, 3, seed=1)

    def test_shot_cap(self):
        with pytest.raises(ValueError, match="at most"):
            sample_run_with_record(2, I2, I2, ndqc2.MAX_SHOTS + 1, seed=1)

    @pytest.mark.parametrize("task", [1, 2])
    def test_each_server_unitary_checked_once_per_run(self, monkeypatch, task):
        checked = []
        real = ndqc2.is_unitary
        monkeypatch.setattr(ndqc2, "is_unitary", lambda m: checked.append(m.shape[0]) or real(m))
        u_b = haar_unitary(4, substream(44, task))
        sample_run_with_record(task, T_GATE, u_b, 4000, seed=9)
        assert checked == [2, 4]
        checked.clear()
        run_protocol_detailed(task, (T_GATE, u_b), 4000, seed=9)
        assert checked == [2, 4]

    def test_estimator_unbiased_across_seeds(self):
        gen = substream(43, 0)
        u_a, u_b = haar_unitary(4, gen), haar_unitary(4, gen)
        exact = exact_iota(u_a, u_b)
        estimates, ses = [], []
        for s in range(200):
            report, _ = sample_run_with_record(2, u_a, u_b, 4000, seed=10_000 + s)
            estimates.append(report.iota_est)
            ses.append(report.se_empirical)
        mean_est = np.mean(estimates)
        tolerance = 3.0 * np.mean(ses) / math.sqrt(len(estimates))
        assert abs(mean_est - exact) <= tolerance

    def test_report_validation(self):
        with pytest.raises(ValueError):
            EstimateReport(
                task=2,
                shots=100,
                iota_exact=1.0,
                iota_est=2.5,
                se_predicted=0.1,
                se_empirical=0.01,
                rec_control=1.0,
                rec_net=1.0,
                bp_predicted=0.0,
                seed=0,
            )

    @pytest.mark.parametrize("se_predicted", [0.0, -0.1, math.nan])
    def test_report_needs_positive_predicted_se(self, se_predicted):
        with pytest.raises(ValueError, match="se_predicted must be positive"):
            EstimateReport(
                task=2,
                shots=100,
                iota_exact=1.0,
                iota_est=1.0,
                se_predicted=se_predicted,
                se_empirical=0.01,
                rec_control=1.0,
                rec_net=1.0,
                bp_predicted=0.0,
                seed=0,
            )

    def test_report_json_format(self):
        report, _ = sample_run_with_record(2, I2, I2, 1000, seed=5)
        payload = report.to_json()
        assert payload["iota_exact"] == {"re": 1.0, "im": 0.0}
        assert set(payload) == {
            "task",
            "shots",
            "iota_exact",
            "iota_est",
            "se_predicted",
            "se_empirical",
            "rec_control",
            "rec_net",
            "bp_predicted",
            "seed",
        }


class TestHarnessRules:
    def test_transcript_shape(self):
        _, transcript, _ = run_protocol_detailed(2, (I2, I2), 100, seed=11)
        kinds = [(m.sender, m.receiver, m.kind) for m in transcript.messages]
        assert kinds == [
            ("charlie", "alice", "gate-network"),
            ("charlie", "bob", "gate-network"),
            ("charlie", "alice", "state"),
            ("charlie", "bob", "state"),
            ("alice", "charlie", "statistics"),
            ("bob", "charlie", "statistics"),
        ]

    def test_no_server_to_server_messages(self):
        harness = Harness()
        with pytest.raises(CapabilityViolationError):
            harness.send("alice", "bob", "statistics", {})
        with pytest.raises(CapabilityViolationError):
            harness.send("bob", "alice", "gate-network", {})

    def test_servers_cannot_send_states(self):
        harness = Harness()
        with pytest.raises(CapabilityViolationError) as err:
            harness.send("alice", "charlie", "state", {})
        assert err.value.transcript_index == 0

    def test_unknown_party_and_kind(self):
        harness = Harness()
        with pytest.raises(CapabilityViolationError):
            harness.send("eve", "charlie", "statistics", {})
        with pytest.raises(CapabilityViolationError):
            harness.send("charlie", "alice", "teleport", {})

    @pytest.mark.parametrize("mode", ["alice_to_bob", "bob_to_alice", "server_state"])
    def test_injected_violations_rejected(self, mode):
        with pytest.raises(CapabilityViolationError) as err:
            run_protocol_detailed(2, (I2, I2), 100, seed=11, inject=mode)
        assert err.value.transcript_index >= 0

    def test_harness_records_exactly_the_allowed_messages(self):
        allowed = {
            ("charlie", "alice", "gate-network"),
            ("charlie", "bob", "gate-network"),
            ("charlie", "alice", "state"),
            ("charlie", "bob", "state"),
            ("alice", "charlie", "statistics"),
            ("bob", "charlie", "statistics"),
        }
        parties = ("charlie", "alice", "bob", "eve")
        kinds = ("state", "gate-network", "statistics", "teleport")
        harness = Harness()
        for triple in itertools.product(parties, parties, kinds):
            recorded = len(harness.transcript().messages)
            if triple in allowed:
                assert harness.send(*triple, {}) == recorded
            else:
                with pytest.raises(CapabilityViolationError) as err:
                    harness.send(*triple, {})
                assert err.value.transcript_index == recorded
            assert len(harness.transcript().messages) == recorded + (triple in allowed)
        sent = {(m.sender, m.receiver, m.kind) for m in harness.transcript().messages}
        assert sent == allowed

    @pytest.mark.parametrize("mode", ["teleport", "", ["alice_to_bob"], {"mode": 1}])
    def test_unknown_injection_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="unknown injection mode"):
            run_protocol_detailed(2, (I2, I2), 100, seed=11, inject=mode)

    @pytest.mark.parametrize("task", [1, 2])
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_preparation_keeps_the_client_rule(self, task, signs):
        # At most two pure qubits per branch, and weights that sum to 1.
        branches = ndqc2._preparation_branches(task, signs)
        assert all(weight > 0 and len(pure) <= 2 for weight, pure in branches)
        assert sum(weight for weight, _ in branches) == 1.0

    def test_protocol_report_matches_sample_run(self):
        direct, _ = sample_run_with_record(2, T_GATE, T_GATE, 2000, seed=13)
        via_protocol, _, _ = run_protocol_detailed(2, (T_GATE, T_GATE), 2000, seed=13)
        assert direct == via_protocol

    def test_gate_network_inputs(self):
        net = GateNetwork(2, (("H", (0,)), ("CNOT", (0, 1))))
        report, transcript, _ = run_protocol_detailed(2, (net, net), 2000, seed=14)
        assert abs(report.iota_exact - exact_iota(net, net)) <= 1e-12
        assert len(transcript.messages) == 6


def _constructions(tree: ast.AST, name: str, scope: tuple[str, ...] = ()):
    """(enclosing class and function names, line) of each call of ``name``,
    bare or as an attribute, under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = scope + (node.name,)
        elif isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            yield scope, node.lineno
        yield from _constructions(node, name, inner)


def test_capability_violations_are_raised_only_by_the_harness():
    # The capability rules live in one place: the allow-list Harness.send
    # consults.  Any other construction site would be a second copy of them.
    import netcoh

    sites = []
    for path in sorted(Path(netcoh.__file__).parent.glob("*.py")):
        for scope, line in _constructions(ast.parse(path.read_text()), "CapabilityViolationError"):
            sites.append((path.stem, ".".join(scope), line))
    assert [site[:2] for site in sites] == [("ndqc2", "Harness.send")], sites


class TestPrivacyAudit:
    def test_task2_marginals_are_silent(self):
        records = []
        for k in range(5):
            gen = substream(44, k)
            u_a, u_b = haar_unitary(2, gen), haar_unitary(2, gen)
            _, record = sample_run_with_record(2, u_a, u_b, 40000, seed=600 + k)
            records.append(record)
        audit = privacy_audit(records)
        assert audit.passed
        bound = 4.0 / math.sqrt(40000 / 4)
        assert all(abs(c.mean) <= bound for c in audit.checks)

    def test_task1_leak_detected(self):
        # Identity has normalized trace 1, so the marginal carries Re(iota).
        _, record = sample_run_with_record(1, I2, I2, 40000, seed=700)
        audit = privacy_audit([record])
        assert audit.verdict == "leak detected"
        x_checks = [c for c in audit.checks if c.pauli == "x"]
        assert max(c.z_score for c in x_checks) > 50

    def test_insufficient_data(self):
        empty = np.zeros(0, dtype=np.int8)
        record = MeasurementRecord(
            task=2,
            settings=(
                SettingRecord("xx", "x", "x", empty, empty),
                SettingRecord("yy", "y", "y", empty, empty),
            ),
        )
        assert privacy_audit([record]).verdict == "insufficient data"


class TestEstimatorInternals:
    def test_constant_outcomes_fall_back_to_moment_floor(self):
        # Oracle: constant outcomes zero the batch scatter, so the error must
        # equal the smoothed moment floor sqrt(sum_s (1 - (n/(n+2))^2) / n).
        n = 160
        ones = np.ones(n, dtype=np.int8)
        record = MeasurementRecord(
            task=2,
            settings=(
                SettingRecord("xx", "x", "x", ones, ones),
                SettingRecord("yy", "y", "y", ones, -ones),
                SettingRecord("xy", "x", "y", ones, ones),
                SettingRecord("yx", "y", "x", ones, -ones),
            ),
        )
        est, se = estimate_from_record(record)
        assert est == complex(1 - (-1), 1 + (-1))
        per_setting = (1.0 - (n / (n + 2.0)) ** 2) / n
        assert abs(se - math.sqrt(4 * per_setting)) <= 1e-12

    @pytest.mark.parametrize(
        "labels",
        [
            ("xx", "yy", "xy"),
            ("xx", "yy", "xy", "xx"),
            ("yy", "xx", "xy", "yx"),
            ("a:x", "a:y", "b:x", "b:y"),
        ],
    )
    def test_rejects_records_without_the_task_settings(self, labels):
        ones = np.ones(8, dtype=np.int8)
        settings_ = tuple(SettingRecord(label, "x", "x", ones, ones) for label in labels)
        record = MeasurementRecord(task=2, settings=settings_)
        with pytest.raises(ValueError, match="settings"):
            estimate_from_record(record)

    def test_rejects_a_setting_without_shots(self):
        ones = np.ones(8, dtype=np.int8)
        empty = np.zeros(0, dtype=np.int8)
        record = MeasurementRecord(
            task=2,
            settings=tuple(
                SettingRecord(label, "x", "x", arr, arr)
                for label, arr in zip(ndqc2.LABELS[2], (ones, ones, empty, ones))
            ),
        )
        with pytest.raises(ValueError, match="at least one shot"):
            estimate_from_record(record)

    def test_scatter_dominates_on_noisy_data(self):
        # With genuinely random outcomes the 16-batch scatter is the quoted
        # error and tracks the binomial scale 4/sqrt(M).
        report, _ = sample_run_with_record(2, SZ, SZ, 40000, seed=20)
        assert 0.5 * 4 / math.sqrt(40000) <= report.se_empirical <= 2.0 * 4 / math.sqrt(40000)

    def test_uneven_shot_split(self):
        record = simulate_measurements(2, control_output_state(2, I2, I2), 10, seed=1)
        assert [s.shots for s in record.settings] == [3, 3, 2, 2]


def _reference_setting_mean(record, lo=None, hi=None):
    sl = slice(lo, hi)
    if record.alice is not None and record.bob is not None:
        data = record.alice[sl].astype(float) * record.bob[sl]
    else:
        arr = record.alice if record.alice is not None else record.bob
        data = arr[sl].astype(float)
    return float(np.mean(data)) if data.size else 0.0


def _reference_combine(task, means, signs):
    if task == 2:
        return complex(means["xx"] - means["yy"], means["xy"] + means["yx"])
    side_a = complex(means["a:x"], means["a:y"])
    side_b = complex(means["b:x"], means["b:y"])
    return signs[0] * signs[1] * side_a * side_b


def _reference_moment_se_floor(record, means):
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


def _reference_estimate(record, signs=(1, 1)):
    """The estimator as a per-batch loop over slices of float outcome
    vectors, with label-keyed means: one product vector and one set of batch
    edges per setting and batch."""
    full_means = {s.label: _reference_setting_mean(s) for s in record.settings}
    estimate = _reference_combine(record.task, full_means, signs)
    floor = _reference_moment_se_floor(record, full_means)
    n_batches = min(ndqc2.BATCHES, min(s.shots for s in record.settings))
    if n_batches < 2:
        return estimate, floor
    batch_estimates = []
    for k in range(n_batches):
        means = {}
        for s in record.settings:
            edges = np.linspace(0, s.shots, n_batches + 1).astype(int)
            means[s.label] = _reference_setting_mean(s, edges[k], edges[k + 1])
        batch_estimates.append(_reference_combine(record.task, means, signs))
    batch_estimates = np.array(batch_estimates)
    centered = batch_estimates - batch_estimates.mean()
    variance = float(np.sum(np.abs(centered) ** 2) / (n_batches - 1))
    return estimate, max(math.sqrt(variance / n_batches), floor)


SIGN_PAIRS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
# Probability of a +1 outcome per side; 0 and 1 give constant outcomes.
P_PLUS = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(
    task=st.sampled_from([1, 2]),
    signs=st.sampled_from(SIGN_PAIRS),
    shots=st.integers(4, 40) | st.integers(4, 5000),
    p_plus=st.lists(P_PLUS, min_size=8, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
@example(task=2, signs=(1, 1), shots=4, p_plus=[0.5] * 8, seed=0)  # one batch
@example(task=1, signs=(-1, 1), shots=7, p_plus=[0.5] * 8, seed=1)  # uneven, one batch
@example(task=2, signs=(1, -1), shots=4003, p_plus=[1.0] * 8, seed=2)  # constant outcomes
@example(task=1, signs=(1, 1), shots=5000, p_plus=[0.0, 1.0] * 4, seed=3)
def test_estimator_matches_per_batch_loop_oracle(task, signs, shots, p_plus, seed):
    counts = ndqc2._split_shots(shots, 4)
    record = _random_record(task, counts, p_plus, np.random.default_rng(seed))
    assert estimate_from_record(record, signs) == _reference_estimate(record, signs)


def _random_record(task, counts, p_plus, gen):
    """A record with ``counts[k]`` shots in setting k, each side's outcome
    +1 with probability ``p_plus[2k]`` (Alice) or ``p_plus[2k + 1]`` (Bob)."""
    settings_ = ndqc2.TASK1_SETTINGS if task == 1 else ndqc2.TASK2_SETTINGS
    records = []
    for index, ((spec_a, spec_b), n) in enumerate(zip(settings_, counts)):
        alice, bob = (
            np.where(gen.random(n) < p, 1, -1).astype(np.int8)
            for p in p_plus[2 * index : 2 * index + 2]
        )
        if task == 1:
            on_a = spec_a == "a"
            records.append(
                SettingRecord(
                    f"{spec_a}:{spec_b}",
                    spec_b if on_a else None,
                    None if on_a else spec_b,
                    alice if on_a else None,
                    None if on_a else bob,
                )
            )
        else:
            records.append(SettingRecord(f"{spec_a}{spec_b}", spec_a, spec_b, alice, bob))
    return MeasurementRecord(task=task, settings=tuple(records))


# ---------------------------------------------------------------------------
# Statistics and audit oracle: the servers' messages and the privacy audit
# against copies of the boolean-count and concatenate-then-mean code they
# replaced, which must agree exactly.


def _reference_statistics_payload(record, server):
    rows = []
    for s in record.settings:
        arr = s.alice if server == "alice" else s.bob
        if arr is None:
            continue
        rows.append(
            {"setting": s.label, "n_plus": int(np.sum(arr > 0)), "n_minus": int(np.sum(arr < 0))}
        )
    return {"server": server, "outcomes": rows}


def _reference_audit(records):
    checks = []
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
                    checks.append(ndqc2.MarginalCheck(run_index, server, pauli, 0, 0.0, 0.0))
                    continue
                mean = float(np.concatenate(chunks).astype(float).mean())
                z = abs(mean) * math.sqrt(n)
                checks.append(ndqc2.MarginalCheck(run_index, server, pauli, n, mean, z))
    if any(c.shots == 0 for c in checks):
        verdict = "insufficient data"
    elif any(c.z_score > ndqc2.AUDIT_Z_LIMIT for c in checks):
        verdict = "leak detected"
    else:
        verdict = "pass"
    return ndqc2.PrivacyAudit(verdict, tuple(checks))


# Shots per setting, with empty settings.
SETTING_COUNTS = st.lists(
    st.sampled_from([0, 1]) | st.integers(0, 40) | st.integers(0, 5000), min_size=4, max_size=4
)


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(
    runs=st.lists(
        st.tuples(
            st.sampled_from([1, 2]), SETTING_COUNTS, st.lists(P_PLUS, min_size=8, max_size=8)
        ),
        min_size=1,
        max_size=3,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(runs=[(2, [0, 0, 0, 0], [0.5] * 8)], seed=0)  # every setting empty
@example(runs=[(1, [3, 0, 5, 0], [1.0] * 8)], seed=1)  # constant, some empty
@example(runs=[(2, [4000, 4000, 1, 1], [0.0] * 8), (1, [7, 7, 7, 7], [1.0] * 8)], seed=2)
def test_statistics_and_audit_match_reference(runs, seed):
    gen = np.random.default_rng(seed)
    records = [_random_record(task, counts, p_plus, gen) for task, counts, p_plus in runs]
    for record in records:
        for server in ("alice", "bob"):
            payload = ndqc2._statistics_payload(record, server)
            assert payload == _reference_statistics_payload(record, server)
            assert all(type(r["n_plus"]) is type(r["n_minus"]) is int for r in payload["outcomes"])
    assert privacy_audit(records) == _reference_audit(records)


# ---------------------------------------------------------------------------
# Sampler oracle: the samplers against copies of the gen.choice / np.where
# code they replaced, which must agree draw for draw.

_REF_PAULI = {"x": SX, "y": SY}


def _reference_projectors(pauli):
    eye = np.eye(2, dtype=complex)
    return (eye + _REF_PAULI[pauli]) / 2.0, (eye - _REF_PAULI[pauli]) / 2.0


def _reference_probs(rho, pauli_a, pauli_b):
    proj_a = _reference_projectors(pauli_a)
    proj_b = _reference_projectors(pauli_b)
    probs = np.empty(4)
    for ia in range(2):
        for ib in range(2):
            probs[2 * ia + ib] = float(
                np.real(np.trace(rho.matrix @ tensor(proj_a[ia], proj_b[ib])))
            )
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    return probs


def _reference_sample_joint(rho, pauli_a, pauli_b, n, gen):
    probs = _reference_probs(rho, pauli_a, pauli_b)
    draws = gen.choice(4, size=n, p=probs)
    alice = np.where(draws < 2, 1, -1).astype(np.int8)
    bob = np.where(draws % 2 == 0, 1, -1).astype(np.int8)
    return alice, bob


def _reference_sample_single(rho_marginal, pauli, n, gen):
    plus, _ = _reference_projectors(pauli)
    p_plus = float(np.clip(np.real(np.trace(rho_marginal @ plus)), 0.0, 1.0))
    draws = gen.random(n)
    return np.where(draws < p_plus, 1, -1).astype(np.int8)


def _plain(value):
    """A bit-generator state with its arrays as tuples, comparable with ==."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return tuple(value.tolist())
    return value


def _state_in_setting_basis(pauli_a, pauli_b, weights):
    """The two-qubit state diagonal in the setting's product eigenbasis with
    the given outcome probabilities; dyadic weights stay exact, so zero
    entries and equal entries survive into the sampler's cdf."""
    projectors = ndqc2._joint_projectors(pauli_a, pauli_b)
    return DensityMatrix(sum(w * p for w, p in zip(weights, projectors)), (2, 2))


# Exact outcome distributions: zeros (repeated cdf values), ties, point masses.
DYADIC_WEIGHTS = st.permutations([1.0, 0.0, 0.0, 0.0]) | st.sampled_from(
    [
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.5],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.25, 0.25, 0.25, 0.25],
        [0.75, 0.0, 0.25, 0.0],
        [0.0, 0.125, 0.375, 0.5],
        [0.375, 0.125, 0.0, 0.5],
    ]
)
FLOAT_WEIGHTS = st.lists(
    st.sampled_from([0.0]) | st.floats(1e-12, 1.0), min_size=4, max_size=4
).filter(lambda w: sum(w) > 0.0).map(lambda w: [x / sum(w) for x in w])
PAULIS = st.sampled_from(["x", "y"])
SHOT_COUNTS = st.integers(1, 40) | st.integers(1, 3000)


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(
    pauli_a=PAULIS,
    pauli_b=PAULIS,
    weights=DYADIC_WEIGHTS | FLOAT_WEIGHTS | st.none(),
    state_seed=st.integers(0, 2**32 - 1),
    n=SHOT_COUNTS,
    seed=st.integers(0, 2**32 - 1),
)
@example(pauli_a="x", pauli_b="x", weights=None, state_seed=0, n=1, seed=0)
@example(pauli_a="y", pauli_b="x", weights=[0.0, 0.0, 0.0, 1.0], state_seed=0, n=3000, seed=1)
@example(pauli_a="x", pauli_b="y", weights=[0.0, 1.0, 0.0, 0.0], state_seed=0, n=2999, seed=2)
def test_joint_sampler_matches_choice_oracle(pauli_a, pauli_b, weights, state_seed, n, seed):
    if weights is None:  # a random state, outside the setting's eigenbasis
        rho = random_density_matrix((2, 2), substream(state_seed, 77))
    else:
        rho = _state_in_setting_basis(pauli_a, pauli_b, weights)
    gen, ref_gen = substream(seed, 2, 0), substream(seed, 2, 0)
    alice, bob = ndqc2._sample_joint(rho, pauli_a, pauli_b, n, gen)
    ref_alice, ref_bob = _reference_sample_joint(rho, pauli_a, pauli_b, n, ref_gen)
    assert alice.dtype == bob.dtype == np.int8
    assert np.array_equal(alice, ref_alice) and np.array_equal(bob, ref_bob)
    assert _plain(gen.bit_generator.state) == _plain(ref_gen.bit_generator.state)


@settings(deadline=None, derandomize=True, database=None, max_examples=150)
@given(
    pauli=PAULIS,
    bloch=st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (0.0, 0.0)])
    | st.tuples(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)),
    n=SHOT_COUNTS,
    seed=st.integers(0, 2**32 - 1),
)
@example(pauli="x", bloch=(1.0, 0.0), n=1, seed=0)  # p_plus = 1
@example(pauli="y", bloch=(0.0, -1.0), n=3000, seed=1)  # p_plus = 0
def test_single_sampler_matches_where_oracle(pauli, bloch, n, seed):
    marginal = (np.eye(2) + bloch[0] * SX + bloch[1] * SY) / 2.0
    gen, ref_gen = substream(seed, 1, 0), substream(seed, 1, 0)
    outcomes = ndqc2._sample_single(marginal, pauli, n, gen)
    reference = _reference_sample_single(marginal, pauli, n, ref_gen)
    assert outcomes.dtype == np.int8
    assert np.array_equal(outcomes, reference)
    assert _plain(gen.bit_generator.state) == _plain(ref_gen.bit_generator.state)


class _FixedUniforms(np.random.Generator):
    """A generator whose next uniforms are given.  ``Generator.choice``
    draws through ``random`` as well, so both samplers see the same values."""

    def __init__(self, values):
        super().__init__(np.random.Philox(0))
        self.values = np.asarray(values, dtype=float)

    def random(self, size=None, dtype=np.float64, out=None):
        assert size == self.values.size
        return self.values.copy()


def _around(edges):
    """Each edge and its two neighbouring floats, kept inside [0, 1)."""
    edges = np.asarray(edges, dtype=float)
    values = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    return np.unique(values[(values >= 0.0) & (values < 1.0)])


# Normalised outcome probabilities whose running sum ends at 1 - 2**-53, so
# the cdf differs from the running sum until it is divided by its last entry.
RENORMALISED_WEIGHTS = [
    0.4058124082999818,
    0.2545609908918319,
    0.14090566966580265,
    0.19872093114238382,
]


@pytest.mark.parametrize(
    "weights",
    [
        [0.25, 0.25, 0.25, 0.25],
        [0.5, 0.0, 0.0, 0.5],
        [0.0, 0.5, 0.5, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        RENORMALISED_WEIGHTS,
    ],
)
def test_joint_sampler_on_cdf_edges(weights):
    # Uniforms on and next to every cdf entry, before and after the
    # renormalisation: an entry equal to the uniform counts, as in
    # searchsorted(side="right").
    rho = _state_in_setting_basis("x", "y", weights)
    probs = _reference_probs(rho, "x", "y")
    if weights is RENORMALISED_WEIGHTS:
        assert np.cumsum(probs)[-1] != 1.0
    uniforms = _around(np.concatenate([np.cumsum(probs), np.cumsum(probs) / np.cumsum(probs)[-1]]))
    n = uniforms.size
    alice, bob = ndqc2._sample_joint(rho, "x", "y", n, _FixedUniforms(uniforms))
    ref_alice, ref_bob = _reference_sample_joint(rho, "x", "y", n, _FixedUniforms(uniforms))
    assert np.array_equal(alice, ref_alice) and np.array_equal(bob, ref_bob)


@pytest.mark.parametrize("bloch", [(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.3, 0.0)])
def test_single_sampler_on_p_plus(bloch):
    marginal = (np.eye(2) + bloch[0] * SX + bloch[1] * SY) / 2.0
    p_plus = float(np.real(np.trace(marginal @ _reference_projectors("x")[0])))
    uniforms = _around([p_plus])
    outcomes = ndqc2._sample_single(marginal, "x", uniforms.size, _FixedUniforms(uniforms))
    reference = _reference_sample_single(marginal, "x", uniforms.size, _FixedUniforms(uniforms))
    assert np.array_equal(outcomes, reference)


# sha256 of the raw int8 outcome bytes (settings in order, Alice before Bob)
# of two 1e5-shot runs, taken from the gen.choice sampler.
U_PHASE_A = np.diag([1.0, np.exp(0.9j)])
U_PHASE_B = np.diag([np.exp(0.3j), np.exp(-1.1j)])
GOLDEN_RECORD_SHA256 = {
    (1, (1, -1), 5): "010f857eb85997cc21860ce966688f60d4884f9403fc89727a9b052cbbe5b6f0",
    (2, (1, 1), 6): "a1f7148ebb7be17ca75514c6f87fba00cf942b4f454588091843f34e6edb376d",
}


@pytest.mark.parametrize("task, signs, seed", sorted(GOLDEN_RECORD_SHA256))
def test_record_bytes_pinned(task, signs, seed):
    rho = control_output_state(task, U_PHASE_A, U_PHASE_B, signs)
    record = simulate_measurements(task, rho, 100_000, seed)
    digest = hashlib.sha256()
    for s in record.settings:
        for arr in (s.alice, s.bob):
            if arr is not None:
                assert arr.dtype == np.int8
                digest.update(arr.tobytes())
    assert digest.hexdigest() == GOLDEN_RECORD_SHA256[task, signs, seed]


def test_estimator_peak_memory_per_shot():
    # The estimator tallies the int8 outcomes as integers: no float64 copy
    # of a setting (8 bytes per shot) is made.
    shots = 10**6
    record = simulate_measurements(2, control_output_state(2, U_PHASE_A, U_PHASE_B), shots, 3)
    tracemalloc.start()
    try:
        estimate_from_record(record)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * shots
