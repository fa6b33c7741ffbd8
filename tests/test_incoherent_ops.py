import itertools

import numpy as np
import pytest

from helpers import HADAMARD, SQRT_HALF
from netcoh.coherence import ProductBasis, dephase, random_product_basis
from netcoh.incoherent_ops import (
    KrausChannel,
    StochasticMatrix,
    apply_channel,
    channel_from_json,
    channel_to_json,
    compose_channels,
    embed_classical,
    extract_classical,
    is_incoherent,
    is_strict_incoherent,
    sandwich_dephase,
    usi_generators,
)
from netcoh.linalg import DensityMatrix, random_density_matrix
from netcoh.rng import haar_unitary, substream

Z1 = ProductBasis.computational((2,))
Z2 = ProductBasis.computational((2, 2))

PLUS_CHANNEL = KrausChannel(
    (
        np.array([[SQRT_HALF, SQRT_HALF], [0, 0]], dtype=complex),  # |0><+|
        np.array([[0, 0], [SQRT_HALF, -SQRT_HALF]], dtype=complex),  # |1><-|
    )
)


def dephasing_channel(basis: ProductBasis) -> KrausChannel:
    b = basis.matrix
    return KrausChannel(tuple(np.outer(b[:, k], b[:, k].conj()) for k in range(basis.dim)))


def permutation_channel(perm, basis: ProductBasis) -> KrausChannel:
    d = basis.dim
    p = np.zeros((d, d), dtype=complex)
    p[list(perm), np.arange(d)] = 1.0
    b = basis.matrix
    return KrausChannel.unitary(b @ p @ b.conj().T)


class TestKrausChannel:
    def test_rejects_incomplete_sets(self):
        with pytest.raises(ValueError):
            KrausChannel((np.eye(2) * 0.5,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            KrausChannel(())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        f = np.eye(2, dtype=complex)
        f[0, 0] = bad
        with pytest.raises(ValueError):
            KrausChannel((f,))

    def test_json_round_trip(self):
        again = channel_from_json(channel_to_json(PLUS_CHANNEL))
        for a, b in zip(again.kraus, PLUS_CHANNEL.kraus):
            assert np.max(np.abs(a - b)) == 0.0


class TestApplyChannel:
    def test_identity_channel(self):
        rho = random_density_matrix((2, 2), substream(20, 0))
        out = apply_channel(KrausChannel.unitary(np.eye(4)), rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12

    def test_dephasing_kraus_set_matches_dephase(self):
        for i in range(10):
            gen = substream(20, 1, i)
            rho = random_density_matrix((2, 2), gen)
            basis = random_product_basis((2, 2), gen)
            via_kraus = apply_channel(dephasing_channel(basis), rho)
            via_map = dephase(rho, basis)
            assert np.max(np.abs(via_kraus.matrix - via_map.matrix)) <= 1e-10

    def test_permutation_on_diagonal_state(self):
        p = [2, 0, 3, 1]
        rho = DensityMatrix(np.diag([0.1, 0.2, 0.3, 0.4]), (2, 2))
        out = apply_channel(permutation_channel(p, Z2), rho)
        expected = np.zeros(4)
        expected[p] = [0.1, 0.2, 0.3, 0.4]
        assert np.max(np.abs(out.matrix - np.diag(expected))) <= 1e-12


class TestIsIncoherent:
    def test_hadamard_creates_coherence(self):
        ok, witness = is_incoherent(KrausChannel.unitary(HADAMARD), Z1)
        assert not ok
        assert witness is not None and len(witness.rows) == 2

    def test_plus_channel_is_incoherent(self):
        ok, _ = is_incoherent(PLUS_CHANNEL, Z1)
        assert ok

    def test_permutation_channels(self):
        ok, _ = is_incoherent(permutation_channel([1, 0, 2, 3], Z2), Z2)
        assert ok

    def test_respects_basis_frame(self):
        # The Z gate swaps the two X-basis states, so it is incoherent there
        # while the Hadamard is not incoherent in either frame.
        x_basis = ProductBasis((HADAMARD,), (2,))
        z_gate = KrausChannel.unitary(np.diag([1.0, -1.0]).astype(complex))
        assert is_incoherent(z_gate, x_basis)[0]
        assert is_strict_incoherent(z_gate, x_basis)[0]
        assert not is_incoherent(KrausChannel.unitary(HADAMARD), x_basis)[0]


class TestIsStrictIncoherent:
    def test_permutations_pass(self):
        ok, _ = is_strict_incoherent(permutation_channel([3, 1, 0, 2], Z2), Z2)
        assert ok

    def test_dephasing_passes(self):
        ok, _ = is_strict_incoherent(dephasing_channel(Z2), Z2)
        assert ok

    def test_plus_channel_fails_with_explicit_counterexample(self):
        # Oracle: evaluate both sides of the commutation on |0><1| for
        # F = |0><+|.  The pushed-through operator dephases to |0><0|/2
        # while dephasing first gives zero.
        f = PLUS_CHANNEL.kraus[0]
        unit01 = np.zeros((2, 2), dtype=complex)
        unit01[0, 1] = 1.0
        pushed = f @ unit01 @ f.conj().T
        lhs = np.diag(np.diagonal(pushed))
        rhs = f @ np.diag(np.diagonal(unit01)) @ f.conj().T
        assert np.max(np.abs(lhs - np.array([[0.5, 0], [0, 0]]))) <= 1e-12
        assert np.max(np.abs(rhs)) == 0.0

        ok, witness = is_strict_incoherent(PLUS_CHANNEL, Z1)
        assert not ok
        assert witness is not None and witness.ket != witness.bra

    def test_strict_implies_incoherent(self):
        for i in range(50):
            gen = substream(21, i)
            basis = random_product_basis((2, 2), gen)
            g = gen.random((4, 4))
            g /= g.sum(axis=0, keepdims=True)
            channel = embed_classical(StochasticMatrix(g), basis)
            strict, _ = is_strict_incoherent(channel, basis)
            incoherent, _ = is_incoherent(channel, basis)
            assert strict and incoherent

    def test_hadamard_fails(self):
        ok, _ = is_strict_incoherent(KrausChannel.unitary(HADAMARD), Z1)
        assert not ok

    def test_composition_closure(self):
        for i in range(20):
            gen = substream(21, 100, i)
            basis = random_product_basis((2, 2), gen)
            ga = gen.random((4, 4))
            ga /= ga.sum(axis=0, keepdims=True)
            first = embed_classical(StochasticMatrix(ga), basis)
            second = permutation_channel(gen.permutation(4), basis)
            composed = compose_channels(second, first)
            ok, _ = is_strict_incoherent(composed, basis)
            assert ok


class TestUsiGenerators:
    def test_qubit_generator_is_not(self):
        gens = usi_generators(Z1)
        assert len(gens) == 1
        assert np.max(np.abs(gens[0].kraus[0] - np.array([[0, 1], [1, 0]]))) <= 1e-12

    def test_generators_are_strict_unitary(self):
        for basis in (Z2, random_product_basis((2, 2), substream(22, 0))):
            for channel in usi_generators(basis):
                u = channel.kraus[0]
                assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-9
                ok, _ = is_strict_incoherent(channel, basis)
                assert ok

    def test_rejects_trivial_dimension(self):
        with pytest.raises(ValueError):
            usi_generators(ProductBasis.computational((1,)))

    def test_closure_reaches_all_permutations(self):
        # Oracle: BFS over composition of the adjacent transpositions.
        d = 4
        generators = []
        for channel in usi_generators(Z2):
            u = np.real(channel.kraus[0]).astype(int)
            generators.append(tuple(int(np.argmax(u[:, j])) for j in range(d)))
        reached = {tuple(range(d))}
        frontier = list(reached)
        while frontier:
            nxt = []
            for perm in frontier:
                for g in generators:
                    composed = tuple(g[perm[j]] for j in range(d))
                    if composed not in reached:
                        reached.add(composed)
                        nxt.append(composed)
            frontier = nxt
        assert len(reached) == 24
        assert reached == set(itertools.permutations(range(d)))


class TestClassicalEmbedding:
    def test_identity_stochastic(self):
        channel = embed_classical(StochasticMatrix(np.eye(3)), ProductBasis.computational((3,)))
        rho = DensityMatrix(np.diag([0.2, 0.3, 0.5]), (3,))
        out = apply_channel(channel, rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12

    def test_bit_flip(self):
        flip = StochasticMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        channel = embed_classical(flip, Z1)
        out = apply_channel(channel, DensityMatrix(np.diag([0.9, 0.1]), (2,)))
        assert np.max(np.abs(out.matrix - np.diag([0.1, 0.9]))) <= 1e-12

    def test_random_action_matches_matrix_vector_product(self):
        for i in range(20):
            gen = substream(23, i)
            g = gen.random((4, 4))
            g /= g.sum(axis=0, keepdims=True)
            p = gen.random(4)
            p /= p.sum()
            basis = random_product_basis((2, 2), gen)
            channel = embed_classical(StochasticMatrix(g), basis)
            b = basis.matrix
            rho = DensityMatrix((b * p) @ b.conj().T, (2, 2))
            out_frame = b.conj().T @ apply_channel(channel, rho).matrix @ b
            assert np.max(np.abs(np.real(np.diagonal(out_frame)) - g @ p)) <= 1e-10

    def test_round_trips(self):
        for i in range(100):
            gen = substream(23, 100, i)
            d = int(gen.integers(2, 9))
            g = gen.random((d, d))
            g /= g.sum(axis=0, keepdims=True)
            basis = ProductBasis((haar_unitary(d, gen),), (d,))
            extracted = extract_classical(embed_classical(StochasticMatrix(g), basis), basis)
            assert np.max(np.abs(extracted.matrix - g)) <= 1e-10

    def test_extract_refuses_non_strict(self):
        with pytest.raises(ValueError):
            extract_classical(PLUS_CHANNEL, Z1)

    def test_extract_of_named_channels(self):
        deph = extract_classical(dephasing_channel(Z2), Z2)
        assert np.max(np.abs(deph.matrix - np.eye(4))) <= 1e-12
        perm = extract_classical(permutation_channel([1, 2, 3, 0], Z2), Z2)
        expected = np.zeros((4, 4))
        expected[[1, 2, 3, 0], np.arange(4)] = 1.0
        assert np.max(np.abs(perm.matrix - expected)) <= 1e-12

    def test_stochastic_validation(self):
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[0.5, 0.2], [0.4, 0.8]]))
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[1.1, 0.0], [-0.1, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_validation_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))


class TestSandwichDephase:
    def test_identity_inner_behaves_as_full_dephasing(self):
        for i in range(5):
            gen = substream(24, i)
            basis = random_product_basis((2, 2), gen)
            rho = random_density_matrix((2, 2), gen)
            channel = sandwich_dephase(KrausChannel.unitary(np.eye(4)), basis)
            out = apply_channel(channel, rho)
            assert np.max(np.abs(out.matrix - dephase(rho, basis).matrix)) <= 1e-10

    def test_hadamard_inner_becomes_strict(self):
        inner = KrausChannel.unitary(HADAMARD)
        assert not is_strict_incoherent(inner, Z1)[0]
        sandwiched = sandwich_dephase(inner, Z1)
        assert is_strict_incoherent(sandwiched, Z1)[0]

    def test_matches_composed_map(self):
        for i in range(20):
            gen = substream(24, 100, i)
            basis = random_product_basis((2, 2), gen)
            u = haar_unitary(4, gen)
            inner = KrausChannel.unitary(u)
            sandwiched = sandwich_dephase(inner, basis)
            rho = random_density_matrix((2, 2), gen)
            direct = dephase(apply_channel(inner, dephase(rho, basis)), basis)
            assert np.max(np.abs(apply_channel(sandwiched, rho).matrix - direct.matrix)) <= 1e-10

    def test_diagonal_inputs_pass_through_the_outer_dephasings(self):
        gen = substream(24, 200)
        basis = random_product_basis((2, 2), gen)
        inner = KrausChannel.unitary(haar_unitary(4, gen))
        sandwiched = sandwich_dephase(inner, basis)
        rho = dephase(random_density_matrix((2, 2), gen), basis)
        lhs = apply_channel(sandwiched, rho).matrix
        rhs = dephase(apply_channel(inner, rho), basis).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_prunes_zero_members(self):
        # A permutation inner yields exactly d surviving members.
        channel = sandwich_dephase(permutation_channel([1, 0, 3, 2], Z2), Z2)
        assert len(channel.kraus) == 4
