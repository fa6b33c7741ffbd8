"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS line on success (visible with -s or -rA);
a failure surfaces as a normal pytest failure.  Runtime budgets are
enforced with wall-clock assertions where the criterion pins one.
"""

import math
import time

import numpy as np
import pytest

from helpers import HADAMARD, KET_MINUS, KET_PLUS, pure
from netcoh.coherence import ProductBasis, dephase, net_global_coherence, random_product_basis
from netcoh.incoherent_ops import (
    KrausChannel,
    apply_channel,
    is_strict_incoherent,
    sandwich_dephase,
)
from netcoh.linalg import (
    DensityMatrix,
    hermitian_eig,
    random_density_matrix,
    random_gate_network,
    tensor,
)
from netcoh.ndqc2 import (
    control_output_state,
    dense_protocol_states,
    exact_iota,
    joint_ladder_expectation,
    protocol_basis,
    run_protocol,
    sample_run,
)
from netcoh.rng import DEFAULT_SEED, haar_unitary, substream
from netcoh.verify import (
    suite_lemma1,
    suite_isomorphism,
    suite_privacy,
    suite_se_scaling,
    suite_thm4,
    suite_thm5,
    suite_thm6,
)

SEED = DEFAULT_SEED


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


@pytest.fixture(scope="module")
def thm4_result():
    started = time.perf_counter()
    result = suite_thm4(SEED)
    return result, time.perf_counter() - started


def test_criterion_01_golden_coherence_values():
    started = time.perf_counter()
    gen = substream(SEED, 1)
    u_a, u_b = haar_unitary(2, gen), haar_unitary(2, gen)
    basis = protocol_basis(u_a, u_b)
    cut = ((0, 1), (2, 3))

    task1_in, _ = dense_protocol_states(1, u_a, u_b)
    rep1 = net_global_coherence(task1_in, basis, cut)
    assert abs(rep1.rec_global - 2.0) <= 1e-9
    assert all(abs(local - 1.0) <= 1e-9 for local in rep1.rec_local)
    assert abs(rep1.rec_net - 0.0) <= 1e-9

    task2_in, _ = dense_protocol_states(2, u_a, u_b)
    rep2 = net_global_coherence(task2_in, basis, cut)
    assert abs(rep2.rec_global - 1.0) <= 1e-9
    assert all(abs(local - 0.0) <= 1e-9 for local in rep2.rec_local)
    assert abs(rep2.rec_net - 1.0) <= 1e-9

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(
        f"01 PASS: golden coherence values (2.0/1.0 global, 1.0/0.0 local, "
        f"0.0/1.0 net) in {elapsed:.2f}s"
    )


def test_criterion_02_route_agreement(thm4_result):
    result, elapsed = thm4_result
    random_rows = [r for r in result.rows if r["kind"] in ("2x2", "2x4")]
    assert len([r for r in random_rows if r["kind"] == "2x2"]) == 1000
    assert len([r for r in random_rows if r["kind"] == "2x4"]) == 100
    worst = max(r["route_gap"] for r in random_rows)
    assert worst <= 1e-9
    assert elapsed < 30.0
    report(f"02 PASS: both net-coherence routes agree, worst gap {worst:.2e} in {elapsed:.1f}s")


def test_criterion_03_positivity_and_equality_cases(thm4_result):
    result, _ = thm4_result
    assert result.passed, result.failures[:5]
    floor = min(r["rec_net"] for r in result.rows)
    assert floor >= -1e-9
    equality_rows = [r for r in result.rows if r["kind"] in ("product", "cc")]
    assert len(equality_rows) == 400
    worst_eq = max(r["rec_net"] for r in equality_rows)
    assert worst_eq <= 1e-9
    report(
        f"03 PASS: net coherence >= {floor:.2e} on 1100 random states, "
        f"equality cases <= {worst_eq:.2e}"
    )


def test_criterion_04_pure_state_law():
    result = suite_thm5(SEED)
    assert result.passed, result.failures[:5]
    haar_rows = [r for r in result.rows if r["kind"] == "haar"]
    product_rows = [r for r in result.rows if r["kind"] == "product"]
    assert len(haar_rows) == 500 and len(product_rows) == 100
    report(
        "04 PASS: 500 pure states match entangled <=> positive net coherence "
        "in 20 bases each; pure products stay at zero"
    )


def test_criterion_05_cc_recovery_and_discordant_states():
    started = time.perf_counter()
    result = suite_thm6(SEED)
    elapsed = time.perf_counter() - started
    assert result.passed, result.failures[:5]
    assert elapsed < 300.0
    cc_rows = [r for r in result.rows if r["kind"] == "cc"]
    disc_rows = [r for r in result.rows if r["kind"] == "discordant"]
    assert len(cc_rows) == 200 and len(disc_rows) == 200
    report(
        f"05 PASS: 200 rotated CC states recovered, 200 discordant states "
        f"positive in all 50 bases, {elapsed:.0f}s"
    )


def test_criterion_06_strictness_tests():
    result = suite_lemma1(SEED, n_channels=1000)
    assert result.passed, result.failures[:5]
    random_rows = [r for r in result.rows if r["family"] != "canonical"]
    assert len(random_rows) == 1000
    report("06 PASS: strictness tests agree on 1000 channels; canonical cases behave")


def test_criterion_07_classical_embedding():
    result = suite_isomorphism(SEED, n=100)
    assert result.passed, result.failures[:5]
    worst_rt = max(r["round_trip_err"] for r in result.rows)
    worst_action = max(r["action_err"] for r in result.rows)
    assert worst_rt <= 1e-10 and worst_action <= 1e-10
    report(
        f"07 PASS: stochastic embedding round trips (worst {worst_rt:.2e}) "
        f"and reproduces the classical action (worst {worst_action:.2e})"
    )


def _dft(d: int) -> np.ndarray:
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / np.sqrt(d)


def _random_channel(d: int, n_kraus: int, gen) -> KrausChannel:
    mats = [
        (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2)
        for _ in range(n_kraus)
    ]
    total = sum(m.conj().T @ m for m in mats)
    w, v = hermitian_eig(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return KrausChannel(tuple(m @ inv_sqrt for m in mats))


def test_criterion_08_dephase_sandwich():
    cases = []
    for i in range(100):
        gen = substream(SEED, 8, i)
        d = int(gen.choice([2, 4, 8]))
        cases.append((_random_channel(d, int(gen.integers(1, 4)), gen), d, i))
    cases.append((KrausChannel.unitary(tensor(HADAMARD, HADAMARD)), 4, "hadamard"))
    cases.append((KrausChannel.unitary(_dft(4)), 4, "dft4"))
    cases.append((KrausChannel.unitary(_dft(8)), 8, "dft8"))

    worst_map = 0.0
    for case_index, (inner, d, tag) in enumerate(cases):
        gen = substream(SEED, 9, case_index)
        dims = (2,) * int(math.log2(d))
        basis = random_product_basis(dims, gen)
        sandwiched = sandwich_dephase(inner, basis)
        strict, witness = is_strict_incoherent(sandwiched, basis)
        assert strict, f"case {tag}: sandwich not strict ({witness})"
        for _ in range(2):
            rho = random_density_matrix(dims, gen)
            direct = dephase(apply_channel(inner, dephase(rho, basis)), basis)
            via = apply_channel(sandwiched, rho)
            worst_map = max(worst_map, float(np.max(np.abs(via.matrix - direct.matrix))))
    assert worst_map <= 1e-10
    report(f"08 PASS: 103 dephase-sandwich channels strict, map agreement {worst_map:.2e}")


def test_criterion_09_protocol_correctness():
    started = time.perf_counter()
    hits = 0
    worst_identity = 0.0
    for trial in range(100):
        gen = substream(SEED, 10, trial)
        net_a = random_gate_network(3, 25, gen)
        net_b = random_gate_network(3, 25, gen)
        out = control_output_state(2, net_a, net_b, dense_check=True)
        gap = abs(joint_ladder_expectation(out) - exact_iota(net_a, net_b))
        worst_identity = max(worst_identity, gap)
        rep = sample_run(2, net_a, net_b, 100_000, seed=SEED + trial)
        if abs(rep.iota_est - rep.iota_exact) <= 4.0 * rep.se_empirical:
            hits += 1
    elapsed = time.perf_counter() - started
    assert worst_identity <= 1e-9
    assert hits >= 95
    assert elapsed < 120.0
    report(
        f"09 PASS: {hits}/100 trials within 4 SE, exact correlation identity "
        f"{worst_identity:.2e}, {elapsed:.0f}s"
    )


def test_criterion_10_precision_law():
    result = suite_se_scaling(SEED)
    assert result.passed, result.failures
    slope = next(r["se_empirical"] for r in result.rows if r["shots"] == "slope")
    ratios = [r["ratio"] for r in result.rows if r["ratio"] is not None]
    assert all(1 / 3 <= r <= 3 for r in ratios)
    assert abs(slope + 0.5) <= 0.1
    report(
        f"10 PASS: SE within factor 3 of prediction at 1e3..1e5 shots, "
        f"slope {slope:.3f}"
    )


def test_criterion_11_marginal_privacy():
    result = suite_privacy(SEED, n_unitaries=50)
    assert result.passed, result.failures[:5]
    task2 = [r for r in result.rows if r["kind"] == "task2"]
    leaks = [r for r in result.rows if r["kind"] == "task1-leak"]
    assert len(task2) == 50
    assert all(r["verdict"] == "leak detected" for r in leaks)
    report(
        "11 PASS: 50 correlated runs leak nothing beyond 4/sqrt(M/4); "
        "single-sided runs with large traces are flagged"
    )


def test_criterion_12_protocol_constraints():
    for trial in range(1000):
        gen = substream(SEED, 12, trial)
        task = 1 + int(gen.integers(2))
        u_a, u_b = haar_unitary(2, gen), haar_unitary(2, gen)
        _, transcript = run_protocol(task, (u_a, u_b), 16, seed=SEED + trial)
        transcript.validate()
        for m in transcript.messages:
            assert {m.sender, m.receiver} != {"alice", "bob"}
            assert m.kind != "state" or m.sender == "charlie"

    # Injected violations are rejected with the documented CLI exit code.
    import json

    from netcoh.cli import main
    from netcoh.linalg import matrix_to_json

    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        for mode in ("alice_to_bob", "bob_to_alice", "server_state"):
            desc = {
                "task": 2,
                "shots": 16,
                "seed": 1,
                "unitary_a": matrix_to_json(np.eye(2)),
                "unitary_b": matrix_to_json(np.eye(2)),
                "inject_violation": mode,
            }
            path = os.path.join(tmp, f"{mode}.json")
            with open(path, "w") as fh:
                json.dump(desc, fh)
            assert main(["ndqc2", path]) == 4
    report("12 PASS: 1000 transcripts clean; injected violations exit with code 4")


def test_criterion_13_coherence_invariance():
    worst = 0.0
    for trial in range(100):
        gen = substream(SEED, 13, trial)
        u_a, u_b = haar_unitary(2, gen), haar_unitary(2, gen)
        basis = protocol_basis(u_a, u_b)
        cut = ((0, 1), (2, 3))
        task = 1 + (trial % 2)
        rho_in, rho_out = dense_protocol_states(task, u_a, u_b)
        rep_in = net_global_coherence(rho_in, basis, cut)
        rep_out = net_global_coherence(rho_out, basis, cut)
        worst = max(worst, abs(rep_in.rec_global - rep_out.rec_global))
        for a, b in zip(rep_in.rec_local, rep_out.rec_local):
            worst = max(worst, abs(a - b))
    assert worst <= 1e-9
    report(f"13 PASS: input/output coherence invariant to {worst:.2e} over 100 pairs")


def test_criterion_14_non_convexity_exhibit():
    z2 = ProductBasis.computational((2, 2))
    plus2 = pure(np.kron(KET_PLUS, KET_PLUS), (2, 2))
    minus2 = pure(np.kron(KET_MINUS, KET_MINUS), (2, 2))
    net_plus = net_global_coherence(plus2, z2).rec_net
    net_minus = net_global_coherence(minus2, z2).rec_net
    assert abs(net_plus) <= 1e-9 and abs(net_minus) <= 1e-9
    mixture = DensityMatrix(0.5 * (plus2.matrix + minus2.matrix), (2, 2))
    net_mixture = net_global_coherence(mixture, z2).rec_net
    assert abs(net_mixture - 1.0) <= 1e-9
    report(
        f"14 PASS: component nets {net_plus:.1e}/{net_minus:.1e}, "
        f"mixture net {net_mixture:.12f}"
    )
