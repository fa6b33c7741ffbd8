import math

import numpy as np
import pytest

from helpers import (
    HADAMARD,
    KET0,
    KET_PLUS,
    bell_state,
    cc_state,
    pure,
    two_control_mixture,
)
from netcoh.coherence import (
    A_TO_B,
    B_TO_A,
    CoherenceReport,
    ProductBasis,
    basis_dependent_discord,
    dephase,
    dephased_mutual_information_stack,
    entropy_of_probabilities,
    minimize_discord,
    mutual_information,
    net_global_coherence,
    net_global_coherence_stack,
    normalize_cut,
    random_product_bases,
    random_product_basis,
    rec,
    require_unitary_stack,
    von_neumann_entropy,
)
from netcoh.linalg import (
    DensityMatrix,
    DimensionMismatchError,
    maximally_mixed,
    random_density_matrix,
    random_pure_density,
    tensor,
)
from netcoh.rng import haar_unitary, substream

Z1 = ProductBasis.computational((2,))
Z2 = ProductBasis.computational((2, 2))
X2 = ProductBasis((HADAMARD, HADAMARD), (2, 2))

# Binary entropy of 1/4, frozen from -sum(p log2 p).
H_QUARTER = 0.8112781244591328


class TestDephase:
    def test_diagonal_state_is_fixed_point(self):
        rho = DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))
        assert np.max(np.abs(dephase(rho, Z2).matrix - rho.matrix)) <= 1e-12

    def test_plus_state_dephases_to_maximally_mixed(self):
        out = dephase(pure(KET_PLUS, (2,)), Z1)
        assert np.max(np.abs(out.matrix - np.eye(2) / 2)) <= 1e-12

    def test_one_sided_orderings_commute(self):
        for i in range(100):
            gen = substream(10, i)
            rho = random_density_matrix((2, 2), gen)
            basis = random_product_basis((2, 2), gen)
            ab = dephase(dephase(rho, basis, (0,)), basis, (1,)).matrix
            ba = dephase(dephase(rho, basis, (1,)), basis, (0,)).matrix
            both = dephase(rho, basis).matrix
            assert np.max(np.abs(ab - ba)) <= 1e-10
            assert np.max(np.abs(ab - both)) <= 1e-10

    def test_idempotent(self):
        gen = substream(10, 1000)
        rho = random_density_matrix((2, 2), gen)
        basis = random_product_basis((2, 2), gen)
        once = dephase(rho, basis)
        twice = dephase(once, basis)
        assert np.max(np.abs(twice.matrix - once.matrix)) <= 1e-12

    def test_trace_preserved(self):
        rho = random_density_matrix((2, 2), substream(10, 2000))
        assert abs(np.trace(dephase(rho, Z2).matrix) - 1) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dephase(maximally_mixed((2, 2)), Z1)
        with pytest.raises(DimensionMismatchError):
            dephase(maximally_mixed((2, 2)), Z2, (3,))

    @pytest.mark.parametrize("bad", [0.9, 1.0, 1.2, True, "1", np.float64(1.0)])
    def test_rejects_non_integer_subsystems(self, bad):
        with pytest.raises(DimensionMismatchError):
            dephase(maximally_mixed((2, 2)), Z2, (0, bad))

    def test_accepts_numpy_integer_subsystems(self):
        rho = random_density_matrix((2, 2), substream(10, 3000))
        expected = dephase(rho, Z2, (1,)).matrix
        assert np.array_equal(dephase(rho, Z2, (np.int64(1),)).matrix, expected)
        assert np.array_equal(dephase(rho, Z2, np.array([1], dtype=np.int32)).matrix, expected)

    def test_rotated_basis(self):
        # |+><+| is diagonal in the Hadamard basis, so dephasing there is a no-op.
        rho = pure(KET_PLUS, (2,))
        out = dephase(rho, ProductBasis((HADAMARD,), (2,)))
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(pure(KET0, (2,))) <= 1e-12

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(maximally_mixed((2,))) - 1.0) <= 1e-12

    def test_quarter_spectrum(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]), (2,))
        assert abs(von_neumann_entropy(rho) - H_QUARTER) <= 1e-9

    def test_unitary_invariance(self):
        gen = substream(11, 0)
        rho = random_density_matrix((2, 2), gen)
        u = haar_unitary(4, gen)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2))
        assert abs(von_neumann_entropy(rho) - von_neumann_entropy(rotated)) <= 1e-9

    def test_range(self):
        for i in range(20):
            rho = random_density_matrix((2, 2), substream(11, 1, i))
            s = von_neumann_entropy(rho)
            assert -1e-9 <= s <= 2 + 1e-9

    @pytest.mark.parametrize(
        "probs",
        [[np.nan, 1.0], [0.5, 0.5, np.nan], [np.inf, 1.0], [-np.inf, 1.0]],
        ids=["nan", "trailing-nan", "inf", "minus-inf"],
    )
    def test_non_finite_probabilities_raise(self, probs):
        # NaN slips past a ``<`` floor check and +inf past any floor, so a
        # fail-open entropy returns a number for each.
        with pytest.raises(ValueError):
            entropy_of_probabilities(np.array(probs))


class TestEigvals2x2:
    def test_matches_eigvalsh_on_a_stack(self):
        from netcoh.coherence import _eigvals_2x2

        gen = substream(11, 2)
        vec = haar_unitary(2, gen)[:, 0]
        stack = [
            np.zeros((2, 2), dtype=complex),
            0.7 * np.outer(vec, vec.conj()),
            np.diag([0.2, 0.5]).astype(complex),
            np.eye(2, dtype=complex) / 2,
        ]
        for _ in range(8):
            g = gen.normal(size=(2, 2)) + 1j * gen.normal(size=(2, 2))
            stack.append(g @ g.conj().T)
        stack = np.array(stack).reshape(3, 4, 2, 2)
        closed = _eigvals_2x2(stack)
        assert closed.shape == (3, 4, 2)
        assert np.max(np.abs(closed - np.linalg.eigvalsh(stack))) <= 1e-14
        single = _eigvals_2x2(stack[0, 1])
        assert single.shape == (2,)
        assert np.max(np.abs(single - np.linalg.eigvalsh(stack[0, 1]))) <= 1e-14


class TestRec:
    def test_zero_on_diagonal_states(self):
        rho = DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]), (2, 2))
        assert abs(rec(rho, Z2)) <= 1e-9

    def test_maximally_coherent_qubit(self):
        assert abs(rec(pure(KET_PLUS, (2,)), Z1) - 1.0) <= 1e-9

    def test_two_superposition_controls(self):
        # Reported input coherence of the product-control protocol variant.
        rho = pure(np.kron(KET_PLUS, KET_PLUS), (2, 2))
        assert abs(rec(rho, Z2) - 2.0) <= 1e-9

    def test_correlated_control_mixture(self):
        # Reported input coherence of the correlated-control variant.
        assert abs(rec(two_control_mixture(), Z2) - 1.0) <= 1e-9

    def test_nonnegative_and_zero_iff_diagonal(self):
        for i in range(30):
            gen = substream(12, i)
            rho = random_density_matrix((2, 2), gen)
            basis = random_product_basis((2, 2), gen)
            value = rec(rho, basis)
            assert value >= -1e-9
            diagonal = dephase(rho, basis)
            assert abs(rec(diagonal, basis)) <= 1e-9
            if value > 1e-6:
                off = basis.matrix.conj().T @ rho.matrix @ basis.matrix
                off = off - np.diag(np.diagonal(off))
                assert np.max(np.abs(off)) > 1e-8

    def test_additive_over_products(self):
        for i in range(25):
            gen = substream(12, 100, i)
            rho_a = random_density_matrix((2,), gen)
            rho_b = random_density_matrix((2,), gen)
            basis = random_product_basis((2, 2), gen)
            joint = DensityMatrix(tensor(rho_a.matrix, rho_b.matrix), (2, 2))
            total = rec(joint, basis)
            parts = rec(rho_a, basis.subset((0,))) + rec(rho_b, basis.subset((1,)))
            assert abs(total - parts) <= 1e-9

    def test_monotone_under_permutations_and_dephasing(self):
        perm = np.zeros((4, 4), dtype=complex)
        perm[[1, 2, 3, 0], np.arange(4)] = 1.0
        for i in range(20):
            gen = substream(12, 200, i)
            rho = random_density_matrix((2, 2), gen)
            before = rec(rho, Z2)
            permuted = DensityMatrix(perm @ rho.matrix @ perm.conj().T, (2, 2))
            assert rec(permuted, Z2) <= before + 1e-9
            assert rec(dephase(rho, Z2, (0,)), Z2) <= before + 1e-9
            assert rec(dephase(rho, Z2), Z2) <= 1e-9


class TestMutualInformation:
    def test_product_state(self):
        gen = substream(13, 0)
        rho = DensityMatrix(
            tensor(random_density_matrix((2,), gen).matrix, random_density_matrix((2,), gen).matrix),
            (2, 2),
        )
        assert abs(mutual_information(rho)) <= 1e-9

    def test_bell_state(self):
        assert abs(mutual_information(bell_state()) - 2.0) <= 1e-9

    def test_correlated_control_mixture(self):
        # S_A = S_B = 1, S_AB = 1, so I = 1 bit.
        assert abs(mutual_information(two_control_mixture()) - 1.0) <= 1e-9

    def test_invalid_cut(self):
        with pytest.raises(DimensionMismatchError):
            mutual_information(bell_state(), ((0,), ()))
        with pytest.raises(DimensionMismatchError):
            mutual_information(bell_state(), ((0,), (0, 1)))

    @pytest.mark.parametrize("bad", [0.9, 1.0, 1.2, True, "1", np.float64(1.0)])
    def test_cut_rejects_non_integer_index(self, bad):
        with pytest.raises(DimensionMismatchError):
            normalize_cut((2, 2), ((0,), (bad,)))
        with pytest.raises(DimensionMismatchError):
            normalize_cut((2, 2), ((0,), (1, bad)))
        with pytest.raises(DimensionMismatchError):
            net_global_coherence(bell_state(), Z2, ((0,), (1, bad)))

    def test_cut_rejects_extra_groups(self):
        with pytest.raises(DimensionMismatchError):
            normalize_cut((2, 2), ((0,), (1,), (7,)))
        with pytest.raises(DimensionMismatchError):
            net_global_coherence(maximally_mixed((2, 2)), Z2, ((0,), (1,), ("x",)))

    def test_cut_accepts_numpy_integers(self):
        cut = ((np.int64(0),), np.array([1], dtype=np.int32))
        assert normalize_cut((2, 2), cut) == ((0,), (1,))

    def test_bounded_by_twice_smaller_side(self):
        for i in range(20):
            rho = random_density_matrix((2, 4), substream(13, 1, i))
            value = mutual_information(rho)
            assert -1e-9 <= value <= 2.0 * 1.0 + 1e-9  # 2 min(log2 2, log2 4)


def _frozen_dephased_mutual_info(rho: DensityMatrix, basis: ProductBasis, cut) -> float:
    """Frozen reference for ``dephased_mutual_information_stack``: the
    one-state outcome-distribution route, with its own clip, axis sums and
    entropy order."""
    b = basis.matrix
    probs = np.clip((b.conj() * (rho.matrix @ b)).sum(axis=-2).real, 0.0, None)
    grid = probs.reshape(rho.dims)
    group_a, group_b = normalize_cut(rho.dims, cut)
    p_a = grid.sum(axis=tuple(group_b)).reshape(-1)
    p_b = grid.sum(axis=tuple(group_a)).reshape(-1)
    h = entropy_of_probabilities
    return h(p_a) + h(p_b) - h(probs)


class TestDephasedMutualInformationStack:
    CASES = [
        ((2, 2), ((0,), (1,))),
        ((2, 3), ((0,), (1,))),
        ((3, 2, 2), ((0,), (1, 2))),
        ((3, 2, 2), ((0, 2), (1,))),
    ]

    @pytest.mark.parametrize("dims, cut", CASES)
    def test_matches_frozen_reference_bit_for_bit(self, dims, cut):
        gen = substream(15, 0)
        states = [random_density_matrix(dims, gen) for _ in range(3)]
        states.append(random_pure_density(dims, gen))
        bases = [random_product_basis(dims, gen) for _ in states]
        # A diagonal state with a zero outcome, in its own basis: each row
        # then sums its positive terms alone.
        p = gen.random(math.prod(dims))
        p[0] = 0.0
        states.append(DensityMatrix(np.diag(p / p.sum()).astype(complex), dims))
        bases.append(ProductBasis.computational(dims))
        local = [np.stack([b.local_bases[k] for b in bases]) for k in range(len(dims))]
        stack = dephased_mutual_information_stack(
            np.stack([rho.matrix for rho in states]), local, dims, cut
        )
        # One state scored in every basis, the sweeps' use.
        shared = dephased_mutual_information_stack(states[0].matrix[None], local, dims, cut)
        for i, (rho, basis) in enumerate(zip(states, bases)):
            assert stack[i] == _frozen_dephased_mutual_info(rho, basis, cut)
            assert shared[i] == _frozen_dephased_mutual_info(states[0], basis, cut)
            assert abs(stack[i] - mutual_information(dephase(rho, basis), cut)) <= 1e-9


class TestRandomProductBases:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2, 2)])
    def test_each_member_is_one_random_product_basis(self, dims):
        stacked_gens = [substream(16, k) for k in range(5)]
        single_gens = [substream(16, k) for k in range(5)]
        stacks = random_product_bases(stacked_gens, dims)
        assert [u.shape for u in stacks] == [(5, d, d) for d in dims]
        for i, gen in enumerate(single_gens):
            basis = random_product_basis(dims, gen)
            for k in range(len(dims)):
                assert np.array_equal(stacks[k][i], basis.local_bases[k])
        # Each generator is left where one call leaves it: its next draws match.
        for stacked, single in zip(stacked_gens, single_gens):
            assert np.array_equal(stacked.standard_normal(8), single.standard_normal(8))

    def test_no_generators_give_empty_stacks(self):
        assert [u.shape for u in random_product_bases([], (2, 3))] == [(0, 2, 2), (0, 3, 3)]

    def test_non_unitary_member_rejected(self, monkeypatch):
        import netcoh.coherence as coherence

        original = coherence.haar_unitaries

        def skewed(z):
            u = original(z)
            u[-1] *= 1.0 + 1e-8
            return u

        monkeypatch.setattr(coherence, "haar_unitaries", skewed)
        with pytest.raises(ValueError, match="not unitary within 1e-9"):
            random_product_bases([substream(16, k) for k in range(3)], (2, 2))


class TestNetGlobalCoherence:
    def test_product_controls_have_no_net_coherence(self):
        report = net_global_coherence(pure(np.kron(KET_PLUS, KET_PLUS), (2, 2)), Z2)
        assert abs(report.rec_net) <= 1e-9
        assert abs(report.rec_global - 2.0) <= 1e-9
        assert all(abs(x - 1.0) <= 1e-9 for x in report.rec_local)

    def test_correlated_controls_net_coherence(self):
        report = net_global_coherence(two_control_mixture(), Z2)
        assert abs(report.rec_net - 1.0) <= 1e-9
        assert all(abs(x) <= 1e-9 for x in report.rec_local)

    def test_bell_state_in_z_basis(self):
        # I = 2 and the dephased state is the classical perfect correlation
        # with I = 1, so one net bit remains.
        report = net_global_coherence(bell_state(), Z2)
        assert abs(report.rec_net - 1.0) <= 1e-9
        assert abs(report.mutual_info - 2.0) <= 1e-9
        assert abs(report.mutual_info_dephased - 1.0) <= 1e-9

    def test_route_agreement_on_random_states(self):
        worst = 0.0
        for i in range(200):
            gen = substream(14, i)
            rho = random_density_matrix((2, 2), gen)
            basis = random_product_basis((2, 2), gen)
            report = net_global_coherence(rho, basis)
            gap = abs(
                (report.rec_global - sum(report.rec_local))
                - (report.mutual_info - report.mutual_info_dephased)
            )
            worst = max(worst, gap)
            assert report.rec_net >= -1e-9
        assert worst <= 1e-9

    def test_multi_subsystem_cut(self):
        gen = substream(14, 1000)
        rho = random_density_matrix((2, 2, 2), gen)
        basis = ProductBasis.computational((2, 2, 2))
        report = net_global_coherence(rho, basis, ((0, 1), (2,)))
        assert report.rec_net >= -1e-9

    def test_each_spectrum_decomposed_once(self, monkeypatch):
        # Every eigendecomposition, one-state or stacked, goes through eigh,
        # called by hermitian_eig as coherence binds it.
        import netcoh.coherence as coherence

        dims_seen, dims_at_eig = [], []
        original, original_eig = np.linalg.eigh, coherence.hermitian_eig
        monkeypatch.setattr(
            np.linalg, "eigh", lambda m: dims_seen.append(m.shape[-1]) or original(m)
        )
        monkeypatch.setattr(
            coherence,
            "hermitian_eig",
            lambda m: dims_at_eig.append(m.shape[-1]) or original_eig(m),
        )
        gen = substream(14, 2000)
        rho = random_density_matrix((2,) * 5, gen)
        basis = random_product_basis((2,) * 5, gen)
        cut = ((0, 1), (2, 3, 4))
        report = net_global_coherence(rho, basis, cut)
        # S(rho) and S(dephased rho) at d = 32; each marginal and each
        # dephased marginal once at d = 4 and d = 8.
        assert sorted(dims_seen) == sorted(dims_at_eig) == [4, 4, 8, 8, 32, 32]
        monkeypatch.undo()
        assert report.mutual_info == mutual_information(rho, cut)
        assert report.mutual_info_dephased == mutual_information(dephase(rho, basis), cut)

    @pytest.mark.parametrize(
        "dims, cut",
        [((2, 2), ((0,), (1,))), ((2, 4), ((0,), (1,))), ((2, 2, 2), ((0,), (1, 2)))],
    )
    def test_stack_matches_one_state_reports_bit_for_bit(self, dims, cut):
        gen = substream(14, 4000)
        states, bases = [], []
        for kind in ("mixed", "pure", "mixed", "product", "cc", "mixed", "pure"):
            basis = random_product_basis(dims, gen)
            if kind == "mixed":
                rho = random_density_matrix(dims, gen)
            elif kind == "pure":
                rho = random_pure_density(dims, gen)
            elif kind == "product":
                factors = (random_density_matrix((d,), gen).matrix for d in dims)
                rho = DensityMatrix(tensor(*factors), dims)
            else:  # diagonal in its own basis
                p = gen.random(basis.dim)
                rho = DensityMatrix((basis.matrix * (p / p.sum())) @ basis.matrix.conj().T, dims)
            states.append(rho)
            bases.append(basis)
        figures = net_global_coherence_stack(
            np.stack([rho.matrix for rho in states]),
            [np.stack([b.local_bases[k] for b in bases]) for k in range(len(dims))],
            dims,
            cut,
        )
        for i, (rho, basis) in enumerate(zip(states, bases)):
            report = net_global_coherence(rho, basis, cut)
            assert figures.rec_global[i] == report.rec_global
            assert tuple(figures.rec_local[i]) == report.rec_local
            assert figures.rec_net[i] == report.rec_net
            assert figures.mutual_info[i] == report.mutual_info
            assert figures.mutual_info_dephased[i] == report.mutual_info_dephased

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4)])
    def test_each_entropy_taken_once(self, dims, monkeypatch):
        import netcoh.coherence as coherence

        gen = substream(14, 3000)
        rho = random_density_matrix(dims, gen)
        basis = random_product_basis(dims, gen)
        # The report is the one-state case of the stacked kernel: count the
        # rows of its entropies and the members of its validated stacks.
        entropies, validated = [], []
        entropy, validate = coherence.entropies_of_probabilities, coherence.density_stack
        monkeypatch.setattr(
            coherence,
            "entropies_of_probabilities",
            lambda p: entropies.extend(p) or entropy(p),
        )
        monkeypatch.setattr(
            coherence,
            "density_stack",
            lambda m: validated.extend([m.shape[-1]] * len(m)) or validate(m),
        )
        report = net_global_coherence(rho, basis)
        monkeypatch.undo()
        # S(rho), S(rho_A), S(rho_B), H(p), H(p_A), H(p_B), and S of the
        # dephased state and of its two marginals, each once.
        assert len(entropies) == 9
        # Both marginals, the dephased state and both of its marginals; the
        # state itself was validated when it was built.
        assert sorted(validated) == sorted([2, 2, dims[1], dims[1], rho.dim])
        assert report.rec_net >= -1e-9

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError):
            CoherenceReport(
                rec_global=1.0,
                rec_local=(0.0, 0.0),
                rec_net=0.5,
                mutual_info=1.0,
                mutual_info_dephased=0.5,
            )

    def test_report_rejects_nan(self):
        with pytest.raises(ValueError):
            CoherenceReport(
                rec_global=1.0,
                rec_local=(0.0, 0.0),
                rec_net=float("nan"),
                mutual_info=1.0,
                mutual_info_dephased=0.0,
            )


class TestBasisDependentDiscord:
    def test_product_state_zero_both_directions(self):
        gen = substream(15, 0)
        rho = DensityMatrix(
            tensor(random_density_matrix((2,), gen).matrix, random_density_matrix((2,), gen).matrix),
            (2, 2),
        )
        basis = random_product_basis((2, 2), gen)
        assert abs(basis_dependent_discord(rho, basis, A_TO_B)) <= 1e-9
        assert abs(basis_dependent_discord(rho, basis, B_TO_A)) <= 1e-9

    def test_classically_correlated_state_in_its_own_basis(self):
        # The correlated control mixture is diagonal in the X (x) X basis,
        # equivalently its Z-rotated form is diagonal in Z (x) Z.
        rho = two_control_mixture()
        assert abs(basis_dependent_discord(rho, X2, A_TO_B)) <= 1e-9
        assert abs(basis_dependent_discord(rho, X2, B_TO_A)) <= 1e-9
        rotated = DensityMatrix(np.diag([0.5, 0, 0, 0.5]), (2, 2))
        assert abs(basis_dependent_discord(rotated, Z2, A_TO_B)) <= 1e-9
        assert abs(basis_dependent_discord(rotated, Z2, B_TO_A)) <= 1e-9

    def test_bell_state_one_bit(self):
        # I = 2, one-sided dephasing leaves I = 1.
        assert abs(basis_dependent_discord(bell_state(), Z2, A_TO_B) - 1.0) <= 1e-9

    def test_nonnegative_on_random_states(self):
        for i in range(30):
            gen = substream(15, 1, i)
            rho = random_density_matrix((2, 2), gen)
            basis = random_product_basis((2, 2), gen)
            assert basis_dependent_discord(rho, basis, A_TO_B) >= -1e-9

    def test_agrees_with_direct_dephase_route(self):
        # Independent oracle: I(rho) - I(dephase_A(rho)) via the dephase map.
        for i in range(20):
            gen = substream(15, 2, i)
            rho = random_density_matrix((2, 2), gen)
            basis = random_product_basis((2, 2), gen)
            direct = mutual_information(rho) - mutual_information(dephase(rho, basis, (0,)))
            assert abs(basis_dependent_discord(rho, basis, A_TO_B) - direct) <= 1e-9


class TestMinimizeDiscord:
    @pytest.mark.parametrize("direction", ["A_TO_B", "b_to_a ", None])
    def test_rejects_unknown_direction(self, direction):
        with pytest.raises(ValueError, match="direction must be"):
            minimize_discord(bell_state(), direction)

    def test_rotated_cc_state_recovered(self):
        gen = substream(16, 0)
        prob = gen.random((2, 2))
        prob /= prob.sum()
        rho = cc_state(prob, haar_unitary(2, gen), haar_unitary(2, gen))
        value, basis = minimize_discord(rho, A_TO_B, seed=123)
        assert value <= 1e-6
        frame = basis.matrix.conj().T @ rho.matrix @ basis.matrix
        off = frame - np.diag(np.diagonal(frame))
        assert np.max(np.abs(off)) <= 1e-7

    def test_bell_state_discord_is_one_bit(self):
        # Oracle: brute-force grid over the measured-side basis angles; the
        # landscape is flat at exactly one bit for a maximally entangled state.
        from netcoh.coherence import _basis_from_angles

        grid_values = []
        for theta in np.linspace(0, np.pi, 9):
            for phi in np.linspace(0, 2 * np.pi, 17):
                u = _basis_from_angles(np.eye(2, dtype=complex), np.array([theta, phi]))
                basis = ProductBasis((u, np.eye(2, dtype=complex)), (2, 2))
                grid_values.append(basis_dependent_discord(bell_state(), basis, A_TO_B))
        assert abs(min(grid_values) - 1.0) <= 1e-9
        value, _ = minimize_discord(bell_state(), A_TO_B, seed=5)
        assert abs(value - 1.0) <= 1e-6
        assert value <= min(grid_values) + 1e-9

    def test_one_way_state(self):
        # A-classical mixture with non-commuting conditionals on B.
        mat = 0.5 * tensor(np.diag([1.0, 0.0]), np.outer(KET0, KET0)) + 0.5 * tensor(
            np.diag([0.0, 1.0]), np.outer(KET_PLUS, KET_PLUS)
        )
        rho = DensityMatrix(mat, (2, 2))
        forward, _ = minimize_discord(rho, A_TO_B, seed=7)
        backward, _ = minimize_discord(rho, B_TO_A, seed=7)
        assert forward <= 1e-6
        assert backward > 0.01

    def test_never_beats_optimizer_at_marginal_eigenbasis(self):
        from netcoh.linalg import hermitian_eig, partial_trace

        for i in range(5):
            gen = substream(16, 3, i)
            rho = random_density_matrix((2, 2), gen)
            value, _ = minimize_discord(rho, A_TO_B, seed=11, restarts=8)
            _, marginal_basis = hermitian_eig(partial_trace(rho, (0,)).matrix)
            seed_basis = ProductBasis((marginal_basis, np.eye(2, dtype=complex)), (2, 2))
            at_seed = basis_dependent_discord(rho, seed_basis, A_TO_B)
            assert value <= at_seed + 1e-9

    def test_deterministic_per_seed(self):
        rho = random_density_matrix((2, 2), substream(16, 4))
        v1, b1 = minimize_discord(rho, B_TO_A, seed=99, restarts=4)
        v2, b2 = minimize_discord(rho, B_TO_A, seed=99, restarts=4)
        assert v1 == v2
        assert all(np.array_equal(x, y) for x, y in zip(b1.local_bases, b2.local_bases))

    def test_larger_measured_side(self):
        # 4x2 classically correlated state: the slower multi-pair search on
        # the four-dimensional side still reaches the zero floor.
        gen = substream(16, 5)
        ua, ub = haar_unitary(4, gen), haar_unitary(2, gen)
        prob = gen.random((4, 2))
        prob /= prob.sum()
        mat = sum(
            prob[i, j]
            * tensor(np.outer(ua[:, i], ua[:, i].conj()), np.outer(ub[:, j], ub[:, j].conj()))
            for i in range(4)
            for j in range(2)
        )
        rho = DensityMatrix(mat, (4, 2))
        value, basis = minimize_discord(rho, A_TO_B, seed=55, restarts=2)
        assert value <= 1e-6
        frame = basis.matrix.conj().T @ rho.matrix @ basis.matrix
        off = frame - np.diag(np.diagonal(frame))
        assert np.max(np.abs(off)) <= 1e-6


class TestProductBasis:
    def test_rejects_non_unitary_locals(self):
        with pytest.raises(ValueError):
            ProductBasis((np.array([[1.0, 1.0], [0.0, 1.0]]),), (2,))

    def test_stack_with_one_non_unitary_basis_rejected(self):
        gen = substream(17, 1)
        stack = np.stack([haar_unitary(2, gen) for _ in range(5)])
        require_unitary_stack(stack)
        stack[3] *= 1.0 + 1e-8
        with pytest.raises(ValueError, match="not unitary within 1e-9"):
            require_unitary_stack(stack)
        with pytest.raises(ValueError, match="not unitary within 1e-9"):
            ProductBasis((stack[3],), (2,))

    def test_rejects_dims_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ProductBasis((np.eye(2),), (2, 2))

    def test_rejects_local_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="local basis dim 3 != subsystem dim 2"):
            ProductBasis((np.eye(2), np.eye(3)), (2, 2))

    def test_global_matrix_is_tensor_of_locals(self):
        gen = substream(17, 0)
        ua, ub = haar_unitary(2, gen), haar_unitary(3, gen)
        basis = ProductBasis((ua, ub), (2, 3))
        assert np.max(np.abs(basis.matrix - tensor(ua, ub))) == 0.0

    def test_json_of_reports(self):
        report = net_global_coherence(two_control_mixture(), Z2)
        payload = report.to_json()
        assert set(payload) == {
            "rec_global",
            "rec_local",
            "rec_net",
            "mutual_info",
            "mutual_info_dephased",
        }
        assert payload["rec_net"] == 1.0
