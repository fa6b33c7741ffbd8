import numpy as np
import pytest

from helpers import (
    KET0,
    KET_MINUS,
    KET_PLUS,
    bell_state,
    cc_state,
    pure,
    two_control_mixture,
    werner,
)
from netcoh.classify import (
    classify,
    is_cc,
    is_one_way_qc,
    is_product,
    ppt_separability,
)
from netcoh.coherence import (
    A_TO_B,
    B_TO_A,
    ProductBasis,
    minimize_discord,
    net_global_coherence,
    rec,
)
from netcoh.linalg import (
    DensityMatrix,
    DimensionMismatchError,
    maximally_mixed,
    partial_trace,
    random_density_matrix,
    random_pure_density,
    tensor,
)
from netcoh.rng import haar_unitary, substream

Z2 = ProductBasis.computational((2, 2))


class TestIsProduct:
    def test_random_product_state(self):
        gen = substream(30, 0)
        rho = DensityMatrix(
            tensor(random_density_matrix((2,), gen).matrix, random_density_matrix((2,), gen).matrix),
            (2, 2),
        )
        assert is_product(rho)

    def test_correlated_mixture_distance(self):
        # Oracle: the marginals are maximally mixed, so the product candidate
        # is I/4 and the largest deviation is the 1/4 coherence entry.
        rho = two_control_mixture()
        gap = np.max(np.abs(rho.matrix - np.eye(4) / 4))
        assert abs(gap - 0.25) <= 1e-12
        assert not is_product(rho)

    def test_bell_state(self):
        assert not is_product(bell_state())


class TestIsCC:
    def test_correlated_control_mixture(self):
        ok, witness = is_cc(two_control_mixture(), seed=31)
        assert ok
        assert witness is not None
        # The witness must be an X-like basis on both sides.
        frame = witness.matrix.conj().T @ two_control_mixture().matrix @ witness.matrix
        off = frame - np.diag(np.diagonal(frame))
        assert np.max(np.abs(off)) <= 1e-7

    def test_bell_state_is_not_cc(self):
        ok, witness = is_cc(bell_state(), seed=31)
        assert not ok and witness is None

    def test_rotated_cc_states_recovered(self):
        for i in range(10):
            gen = substream(31, i)
            prob = gen.random((2, 2))
            prob /= prob.sum()
            rho = cc_state(prob, haar_unitary(2, gen), haar_unitary(2, gen))
            ok, witness = is_cc(rho, seed=1000 + i)
            assert ok
            frame = witness.matrix.conj().T @ rho.matrix @ witness.matrix
            off = frame - np.diag(np.diagonal(frame))
            assert np.max(np.abs(off)) <= 1e-7

    def test_one_way_state_is_not_cc(self):
        mat = 0.5 * tensor(np.diag([1.0, 0.0]), np.outer(KET0, KET0)) + 0.5 * tensor(
            np.diag([0.0, 1.0]), np.outer(KET_PLUS, KET_PLUS)
        )
        ok, _ = is_cc(DensityMatrix(mat, (2, 2)), seed=32)
        assert not ok

    @pytest.mark.parametrize(
        "prob",
        [
            np.array([[0.4, 0.1], [0.2, 0.3]]),
            np.array([[0.35, 0.15], [0.15, 0.35]]),  # both marginals I/2
            np.array([[0.3, 0.1, 0.05], [0.25, 0.1, 0.2]]),
            np.array([[0.3, 0.1], [0.05, 0.25], [0.1, 0.2]]),
        ],
        ids=["generic", "both_marginals_degenerate", "2x3", "3x2"],
    )
    def test_witness_is_the_a_to_b_basis(self, prob):
        gen = substream(36, *prob.shape)
        rho = cc_state(prob, haar_unitary(prob.shape[0], gen), haar_unitary(prob.shape[1], gen))
        ok, witness = is_cc(rho, seed=36, restarts=8)
        _, basis_ab = minimize_discord(rho, A_TO_B, seed=36, restarts=8)
        assert ok
        assert [m.tolist() for m in witness.local_bases] == [
            m.tolist() for m in basis_ab.local_bases
        ]

    def test_witness_rebuilds_no_marginal_basis(self, monkeypatch):
        import netcoh.classify as classify_mod

        rotation = haar_unitary(2, substream(37, 0))
        rho = cc_state(np.array([[0.4, 0.1], [0.2, 0.3]]), rotation, np.eye(2))
        result_ab = minimize_discord(rho, A_TO_B)
        discord_ba, _ = minimize_discord(rho, B_TO_A)
        calls = []
        for name in ("partial_trace", "hermitian_eig"):
            original = getattr(classify_mod, name)
            monkeypatch.setattr(
                classify_mod, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
            )
        witness = classify_mod._ab_witness
        assert discord_ba <= 1e-6
        assert witness(rho, result_ab, 1e-6) is result_ab[1]
        # A basis that leaves the state off-diagonal is no witness: no other
        # candidate is tried.
        assert witness(bell_state(), result_ab, 1e-6) is None
        assert calls == []
        # Nor is one whose state is discordant on the B->A side.
        found = {A_TO_B: result_ab, B_TO_A: (1.0, result_ab[1])}
        monkeypatch.setattr(classify_mod, "minimize_discord", lambda _rho, d, **_kw: found[d])
        assert is_cc(rho) == (False, None)

    def test_one_way_classical_state_needs_one_search(self, monkeypatch):
        # Classical on A, with conditional qutrit states that do not commute:
        # the A->B discord vanishes, but its basis leaves the state
        # off-diagonal, so the B->A search cannot change the verdict.
        import netcoh.classify as classify_mod

        gen = substream(3, 9)
        sigma_0, sigma_1 = (random_density_matrix((3,), gen).matrix for _ in range(2))
        rho = DensityMatrix(
            0.5 * tensor(np.diag([1.0, 0.0]), sigma_0) + 0.5 * tensor(np.diag([0.0, 1.0]), sigma_1),
            (2, 3),
        )
        directions = []
        monkeypatch.setattr(
            classify_mod,
            "minimize_discord",
            lambda _rho, d, **kw: directions.append(d) or minimize_discord(_rho, d, **kw),
        )
        assert is_cc(rho) == (False, None)
        assert directions == [A_TO_B]


class TestIsOneWayQC:
    @pytest.fixture
    def one_way(self):
        mat = 0.5 * tensor(np.diag([1.0, 0.0]), np.outer(KET0, KET0)) + 0.5 * tensor(
            np.diag([0.0, 1.0]), np.outer(KET_PLUS, KET_PLUS)
        )
        return DensityMatrix(mat, (2, 2))

    def test_directional(self, one_way):
        assert is_one_way_qc(one_way, A_TO_B, seed=33)
        assert not is_one_way_qc(one_way, B_TO_A, seed=33)

    def test_cc_state_both_directions(self):
        rho = two_control_mixture()
        assert is_one_way_qc(rho, A_TO_B, seed=33)
        assert is_one_way_qc(rho, B_TO_A, seed=33)

    def test_bell_state_neither(self):
        assert not is_one_way_qc(bell_state(), A_TO_B, seed=33)
        assert not is_one_way_qc(bell_state(), B_TO_A, seed=33)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1e-9])
def test_non_finite_or_negative_threshold_fails_closed(threshold):
    rho = cc_state(np.array([[0.4, 0.1], [0.2, 0.3]]), haar_unitary(2, substream(35, 0)), np.eye(2))
    with pytest.raises(ValueError, match="threshold"):
        classify(rho, Z2, threshold=threshold)
    with pytest.raises(ValueError, match="threshold"):
        is_cc(rho, threshold=threshold)
    for direction in (A_TO_B, B_TO_A):
        with pytest.raises(ValueError, match="threshold"):
            is_one_way_qc(rho, direction, threshold=threshold)


class TestPPT:
    def test_correlated_mixture_is_separable(self):
        ok, _ = ppt_separability(two_control_mixture())
        assert ok

    def test_bell_state_minimum_eigenvalue(self):
        ok, min_eig = ppt_separability(bell_state())
        assert not ok
        assert abs(min_eig - (-0.5)) <= 1e-9

    def test_werner_family(self):
        assert not ppt_separability(werner(0.5))[0]
        assert ppt_separability(werner(0.25))[0]

    def test_unsupported_dims(self):
        with pytest.raises(DimensionMismatchError):
            ppt_separability(maximally_mixed((2, 4)))
        with pytest.raises(DimensionMismatchError):
            ppt_separability(maximally_mixed((2, 2, 2)))


class TestClassify:
    def test_correlated_control_verdict(self):
        verdict = classify(two_control_mixture(), Z2, seed=34)
        assert verdict.quantum_correlated
        assert abs(verdict.rec_net_in_basis - 1.0) <= 1e-9
        assert verdict.is_ppt and verdict.is_cc
        assert verdict.is_qc_a_to_b and verdict.is_qc_b_to_a
        assert not verdict.is_product

    def test_product_control_verdict(self):
        # Locally coherent but uncorrelated: not quantum correlated even
        # though each side carries one coherent bit.
        rho = pure(np.kron(KET_PLUS, KET_PLUS), (2, 2))
        verdict = classify(rho, Z2, seed=34)
        assert not verdict.quantum_correlated
        assert abs(verdict.rec_net_in_basis) <= 1e-9
        assert verdict.is_product and verdict.is_cc and verdict.is_ppt
        assert abs(rec(partial_trace(rho, (0,)), Z2.subset((0,))) - 1.0) <= 1e-9

    def test_maximally_mixed_verdict(self):
        verdict = classify(maximally_mixed((2, 2)), Z2, seed=34)
        assert verdict.is_product and verdict.is_cc and verdict.is_ppt
        assert not verdict.quantum_correlated

    def test_bell_verdict(self):
        verdict = classify(bell_state(), Z2, seed=34)
        assert verdict.quantum_correlated and not verdict.is_ppt and not verdict.is_cc
        assert verdict.discord_a_to_b > 0.9

    @pytest.mark.parametrize("name", ["cc", "product", "werner"])
    def test_minimizes_each_direction_once(self, name, monkeypatch):
        import netcoh.classify as classify_mod

        rotation = haar_unitary(2, substream(35, 0))
        rho = {
            "cc": cc_state(np.array([[0.5, 0.1], [0.15, 0.25]]), rotation, np.eye(2)),
            "product": DensityMatrix(
                tensor(np.diag([0.7, 0.3]), random_density_matrix((2,), substream(35, 1)).matrix),
                (2, 2),
            ),
            "werner": werner(0.6),
        }[name]
        calls = []
        original = classify_mod.minimize_discord_pair
        monkeypatch.setattr(
            classify_mod,
            "minimize_discord_pair",
            lambda r, **kw: calls.append(kw) or original(r, **kw),
        )
        verdict = classify(rho, Z2, seed=35, restarts=8)
        assert calls == [{"seed": 35, "restarts": 8}]
        monkeypatch.undo()
        # Reference: both directional minimizations plus the public is_cc.
        discord_ab, _ = minimize_discord(rho, A_TO_B, seed=35, restarts=8)
        discord_ba, _ = minimize_discord(rho, B_TO_A, seed=35, restarts=8)
        cc, witness = is_cc(rho, seed=35, restarts=8)
        assert (verdict.discord_a_to_b, verdict.discord_b_to_a) == (discord_ab, discord_ba)
        assert verdict.is_cc == cc == (name != "werner")
        def local_bases(basis):
            return None if basis is None else [m.tolist() for m in basis.local_bases]

        assert local_bases(verdict.witness_basis) == local_bases(witness)

    def test_json_shape(self):
        payload = classify(maximally_mixed((2, 2)), Z2, seed=34).to_json()
        assert payload["is_product"] is True
        assert "witness_basis" in payload


class TestHierarchyNesting:
    def test_cc_implies_one_way_implies_zero_net(self):
        for i in range(5):
            gen = substream(35, i)
            prob = gen.random((2, 2))
            prob /= prob.sum()
            rho = cc_state(prob, haar_unitary(2, gen), haar_unitary(2, gen))
            ok, witness = is_cc(rho, seed=400 + i)
            assert ok
            assert is_one_way_qc(rho, A_TO_B, seed=400 + i)
            assert is_one_way_qc(rho, B_TO_A, seed=400 + i)
            assert net_global_coherence(rho, witness).rec_net <= 1e-6

    def test_entangled_implies_discordant(self):
        cases = [bell_state(), werner(0.6)]
        for i in range(3):
            cases.append(random_pure_density((2, 2), substream(35, 100, i)))
        for rho in cases:
            ppt, _ = ppt_separability(rho)
            if ppt:
                continue
            fwd, _ = minimize_discord(rho, A_TO_B, seed=41, restarts=8)
            bwd, _ = minimize_discord(rho, B_TO_A, seed=41, restarts=8)
            assert fwd > 1e-6 and bwd > 1e-6


class TestStateFormLaw:
    def test_diagonal_states_have_no_net_coherence(self):
        for i in range(20):
            gen = substream(36, i)
            p = gen.random(4)
            p /= p.sum()
            rho = DensityMatrix(np.diag(p), (2, 2))
            report = net_global_coherence(rho, Z2)
            assert report.rec_net <= 1e-9
            assert all(x <= 1e-9 for x in report.rec_local)

    def test_incoherent_marginals_with_global_coherence_have_positive_net(self):
        # Mixtures of a globally coherent projector with diagonal noise keep
        # diagonal marginals while staying off-diagonal globally.
        for i in range(20):
            gen = substream(36, 100, i)
            p = gen.random(4)
            p /= p.sum()
            q = 0.2 + 0.6 * gen.random()
            rho = DensityMatrix(q * bell_state().matrix + (1 - q) * np.diag(p), (2, 2))
            for side in (0, 1):
                marg = partial_trace(rho, (side,)).matrix
                assert abs(marg[0, 1]) <= 1e-12  # incoherent marginal
            report = net_global_coherence(rho, Z2)
            assert report.rec_net > 1e-6


class TestNonConvexity:
    def test_mixture_of_uncorrelated_states_is_correlated(self):
        plus2 = pure(np.kron(KET_PLUS, KET_PLUS), (2, 2))
        minus2 = pure(np.kron(KET_MINUS, KET_MINUS), (2, 2))
        assert abs(net_global_coherence(plus2, Z2).rec_net) <= 1e-9
        assert abs(net_global_coherence(minus2, Z2).rec_net) <= 1e-9
        mixture = DensityMatrix(0.5 * (plus2.matrix + minus2.matrix), (2, 2))
        assert abs(net_global_coherence(mixture, Z2).rec_net - 1.0) <= 1e-9
