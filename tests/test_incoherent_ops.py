import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import HADAMARD, SQRT_HALF
from netcoh import incoherent_ops
from netcoh.coherence import ProductBasis, dephase, random_product_basis
from netcoh.incoherent_ops import (
    STRUCTURAL_ZERO,
    ColumnWitness,
    KrausChannel,
    StochasticMatrix,
    apply_channel,
    build_incoherent_kraus,
    compose_channels,
    draw_incoherent_kraus,
    embed_classical,
    extract_classical,
    in_frame_stack,
    incoherent_stack,
    is_incoherent,
    is_strict_incoherent,
    pad_kraus,
    StrictnessWitness,
    random_incoherent_channel,
    random_incoherent_kraus,
    require_kraus_stack,
    sandwich_dephase,
    strict_incoherent_stack,
    usi_generators,
)
from netcoh.linalg import (
    ATOL_SPECTRAL,
    DensityMatrix,
    DimensionMismatchError,
    hermitian_eig,
    random_density_matrix,
)
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

    @pytest.mark.parametrize(
        "kraus",
        [
            [np.eye(2), np.eye(3)],  # ragged
            np.eye(2),  # a bare matrix, not a stack
            np.zeros((2, 2, 3)),  # non-square operators
        ],
    )
    def test_rejects_malformed_stacks(self, kraus):
        with pytest.raises(DimensionMismatchError):
            KrausChannel(kraus)

    def test_names_the_non_finite_entry(self):
        kraus = np.stack([np.eye(2), np.eye(2)]) * SQRT_HALF
        kraus[1, 1, 0] = np.nan
        with pytest.raises(ValueError, match=r"F\[1, 1, 0\] = \(nan"):
            KrausChannel(kraus)

    def test_holds_a_read_only_copy(self):
        kraus = np.stack([np.eye(2), np.eye(2)]) * SQRT_HALF
        channel = KrausChannel(kraus)
        assert channel.kraus.shape == (2, 2, 2) and channel.kraus.dtype == complex
        with pytest.raises(ValueError, match="read-only"):
            channel.kraus[0, 0, 0] = 1.0
        kraus[0, 0, 0] = 5.0
        assert np.array_equal(channel.kraus, np.stack([np.eye(2), np.eye(2)]) * SQRT_HALF)


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

    def test_dimension_mismatch(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]), (2,))
        with pytest.raises(DimensionMismatchError, match="channel dim 4 != state dim 2"):
            apply_channel(KrausChannel.unitary(np.eye(4)), rho)
        with pytest.raises(DimensionMismatchError, match="different dimension"):
            compose_channels(KrausChannel.unitary(np.eye(2)), KrausChannel.unitary(np.eye(4)))


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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="channel dim 2 != basis dim 4"):
            is_incoherent(KrausChannel.unitary(HADAMARD), Z2)


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
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="stochastic dim 3 != basis dim 2"):
            embed_classical(StochasticMatrix(np.eye(3)), Z1)

    def test_non_square_stochastic_matrix_rejected(self):
        with pytest.raises(DimensionMismatchError, match="expected square matrix"):
            StochasticMatrix(np.full((2, 3), 0.5))

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


# ---------------------------------------------------------------------------
# Oracle: the structural tests as one loop per operator and matrix unit, the
# way they were written before they became array code.  The array code must
# return the same verdict and the same witness on every channel.


def _loop_frames(channel, basis):
    b = basis.matrix
    return [b.conj().T @ f @ b for f in channel.kraus]


def _loop_is_incoherent(frames):
    for i, f in enumerate(frames):
        support = np.abs(f) > STRUCTURAL_ZERO
        bad = np.nonzero(support.sum(axis=0) > 1)[0]
        if bad.size:
            col = int(bad[0])
            rows = tuple(int(r) for r in np.nonzero(support[:, col])[0])
            return False, ColumnWitness(i, col, rows)
    return True, None


def _loop_sparsity_strict(frames):
    for i, f in enumerate(frames):
        support = np.abs(f) > STRUCTURAL_ZERO
        col_bad = np.nonzero(support.sum(axis=0) > 1)[0]
        if col_bad.size:
            col = int(col_bad[0])
            rows = np.nonzero(support[:, col])[0]
            return False, StrictnessWitness(i, int(rows[0]), col)
        row_bad = np.nonzero(support.sum(axis=1) > 1)[0]
        if row_bad.size:
            row = int(row_bad[0])
            cols = np.nonzero(support[row, :])[0]
            return False, StrictnessWitness(i, row, int(cols[0]))
    return True, None


def _loop_matrix_unit_strict(frames):
    for i, f in enumerate(frames):
        d = f.shape[0]
        for k in range(d):
            for l in range(d):
                pushed = np.outer(f[:, k], f[:, l].conj())
                lhs = np.diag(np.diagonal(pushed))
                rhs = pushed if k == l else np.zeros_like(pushed)
                if float(np.max(np.abs(lhs - rhs))) > STRUCTURAL_ZERO:
                    return False, StrictnessWitness(i, k, l)
    return True, None


def _strict_frames(d, gen):
    """Two weighted phased permutations: strict incoherent."""
    w = gen.random()
    frames = []
    for weight in (w, 1.0 - w):
        f = np.zeros((d, d), dtype=complex)
        f[gen.permutation(d), np.arange(d)] = np.sqrt(weight) * np.exp(2j * np.pi * gen.random(d))
        frames.append(f)
    return frames


def _stochastic(d, gen):
    g = gen.random((d, d)) * (gen.random((d, d)) < 0.6)
    g[gen.integers(d, size=d), np.arange(d)] += 0.1
    return StochasticMatrix(g / g.sum(axis=0, keepdims=True))


FAMILIES = ("incoherent", "strict", "unitary", "embedded")
# Up to three entries of the first operator's frame set a few ulps either
# side of the structural-zero threshold.
NUDGES = st.lists(
    st.tuples(st.integers(0, 63), st.integers(-3, 3), st.sampled_from([1.0, -1.0])), max_size=3
)


@settings(deadline=None, derandomize=True, database=None, max_examples=150)
@given(
    d=st.integers(1, 8),
    family=st.sampled_from(FAMILIES),
    rotated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    nudges=NUDGES,
)
def test_array_checks_match_loop_oracle(d, family, rotated, seed, nudges):
    gen = substream(seed, 25)
    basis = ProductBasis((haar_unitary(d, gen),), (d,)) if rotated else ProductBasis.computational((d,))
    b = basis.matrix
    if family == "embedded":
        kraus = list(embed_classical(_stochastic(d, gen), basis).kraus)
    else:
        if family == "incoherent":
            frames = list(random_incoherent_channel(d, gen).kraus)
        elif family == "strict":
            frames = _strict_frames(d, gen)
        else:
            frames = [haar_unitary(d, gen)]
        kraus = [b @ f @ b.conj().T for f in frames]
    nudge = np.zeros((d, d))
    for flat, ulps, sign in nudges:
        nudge.flat[flat % (d * d)] = sign * (STRUCTURAL_ZERO + ulps * np.spacing(STRUCTURAL_ZERO))
    kraus[0] = kraus[0] + b @ nudge @ b.conj().T
    channel = KrausChannel(tuple(kraus))

    loop_frames = _loop_frames(channel, basis)
    frames = incoherent_ops._in_frame(channel, basis)
    assert np.array_equal(frames, np.stack(loop_frames))
    assert is_incoherent(channel, basis) == _loop_is_incoherent(loop_frames)
    units = _loop_matrix_unit_strict(loop_frames)
    sparse = _loop_sparsity_strict(loop_frames)
    assert incoherent_ops._matrix_unit_strict(frames[None]) == [units]
    assert incoherent_ops._sparsity_strict(frames[None]) == [sparse]
    if units[0] == sparse[0]:
        assert is_strict_incoherent(channel, basis) == (units if not units[0] else sparse)
    else:
        with pytest.raises(ArithmeticError):
            is_strict_incoherent(channel, basis)


# ---------------------------------------------------------------------------
# Oracle: the stacked sums and products against one loop over the operators,
# summed in operator order.  They must agree bit for bit; at d = 1 a
# pairwise ``sum(axis=0)`` over the stack would not.


def _complete_stack(d, k, gen):
    """K random operators scaled by S^(-1/2), S = sum_k G_k^dag G_k."""
    g = gen.standard_normal((k, d, d)) + 1j * gen.standard_normal((k, d, d))
    w, v = np.linalg.eigh(sum(m.conj().T @ m for m in g))
    return list(g @ ((v / np.sqrt(w)) @ v.conj().T))


def _loop_complete(ops):
    total = sum(f.conj().T @ f for f in ops)
    return float(np.max(np.abs(total - np.eye(total.shape[0])))) <= ATOL_SPECTRAL


@settings(deadline=None, derandomize=True, database=None, max_examples=150)
@given(
    d=st.integers(1, 8),
    k_outer=st.integers(1, 64),
    k_inner=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
@example(d=1, k_outer=64, k_inner=64, seed=0)
def test_stacked_arithmetic_matches_loop_oracle(d, k_outer, k_inner, seed):
    gen = substream(seed, 26)
    outer_ops = _complete_stack(d, k_outer, gen)
    inner_ops = _complete_stack(d, k_inner, gen)
    outer, inner = KrausChannel(outer_ops), KrausChannel(inner_ops)

    rho = random_density_matrix((d,), gen)
    expected = DensityMatrix(sum(f @ rho.matrix @ f.conj().T for f in outer_ops), (d,))
    assert np.array_equal(apply_channel(outer, rho).matrix, expected.matrix)
    composed = compose_channels(outer, inner)
    assert np.array_equal(composed.kraus, np.stack([f @ g for f in outer_ops for g in inner_ops]))

    # Completeness verdict at the tolerance edge: bisect the scale of the
    # operators down to two adjacent floats the loop sum puts either side.
    lo, hi = 1.0, 1.0 + 2e-9
    assert _loop_complete([lo * f for f in outer_ops])
    assert not _loop_complete([hi * f for f in outer_ops])
    while np.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        if _loop_complete([mid * f for f in outer_ops]):
            lo = mid
        else:
            hi = mid
    KrausChannel([lo * f for f in outer_ops])
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel([hi * f for f in outer_ops])


# ---------------------------------------------------------------------------
# Stacked checks: a zero-padded (N, K, d, d) stack of channels against each
# channel checked alone.


def _spoil(ops, fault):
    ops = ops.copy()
    if fault == "nan":
        ops[-1, 0, 1] = np.nan
    elif fault == "inf":
        ops[0, 2, 2] = np.inf
    else:
        ops *= 1.0 + 1e-9  # completeness off by about 2e-9
    return ops


MESSAGES = {
    "nan": "non-finite entry F[",
    "inf": "non-finite entry F[",
    "completeness": "completeness violated",
    "shape": "expected a (K, d, d) Kraus stack",
}


@pytest.mark.parametrize("fault", sorted(MESSAGES))
def test_kraus_stack_fails_closed_per_member(fault):
    gen = substream(27, 0)
    sets = [random_incoherent_channel(3, gen).kraus for _ in range(6)]
    assert len({len(ops) for ops in sets}) > 1
    valid = pad_kraus(sets)
    require_kraus_stack(valid)
    if fault == "shape":
        stack = np.concatenate([valid, np.zeros(valid.shape[:3] + (1,))], axis=3)  # d x (d + 1)
        first_bad = stack[0]
    else:
        # Member 2 is the first bad one; member 4 fails another way.
        sets[2] = _spoil(sets[2], fault)
        sets[4] = _spoil(sets[4], "completeness" if fault != "completeness" else "nan")
        stack = pad_kraus(sets)
        first_bad = sets[2]
    with pytest.raises(ValueError) as alone:
        KrausChannel(first_bad)
    with pytest.raises(ValueError) as stacked:
        require_kraus_stack(stack)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)
    assert MESSAGES[fault] in str(alone.value)


def test_strictness_stack_matches_one_channel():
    gen = substream(28, 0)
    channels, bases = [], []
    for i in range(28):
        basis = random_product_basis((2, 2), gen) if i % 3 else Z2
        b = basis.matrix
        kind = i % 7
        if kind == 0:
            frames = list(random_incoherent_channel(4, gen).kraus)
        elif kind == 1:
            frames = _strict_frames(4, gen)
        elif kind == 2:
            frames = [haar_unitary(4, gen)]
        elif kind == 3:
            # Strict first operator, so the matrix-unit test fails at the second.
            frames = [SQRT_HALF * np.eye(4)[gen.permutation(4)], SQRT_HALF * haar_unitary(4, gen)]
        if kind < 4:
            channel = KrausChannel([b @ f @ b.conj().T for f in frames])
        elif kind == 4:
            channel = embed_classical(_stochastic(4, gen), basis)
        elif kind == 5:
            channel = dephasing_channel(basis)
        else:
            channel = random_incoherent_channel(4, gen)  # in the wrong frame unless basis is Z2
        channels.append(channel)
        bases.append(basis)
    stack = pad_kraus([c.kraus for c in channels])
    frames = in_frame_stack(stack, np.stack([b.matrix for b in bases]))
    for member, channel, basis in zip(frames, channels, bases):
        alone = incoherent_ops._in_frame(channel, basis)
        assert np.array_equal(member[: len(alone)], alone) and not member[len(alone) :].any()

    incoherent = incoherent_stack(frames)
    strict = strict_incoherent_stack(frames)
    assert incoherent == [is_incoherent(c, b) for c, b in zip(channels, bases)]
    assert strict == [is_strict_incoherent(c, b) for c, b in zip(channels, bases)]
    assert {ok for ok, _ in strict} == {True, False}
    assert any(w is not None and w.kraus_index > 0 for _, w in strict)


# ---------------------------------------------------------------------------
# Frozen copies of the code the blocked and batched forms replaced: the
# matrix-unit test one operator index at a time over the stack, and the
# one-channel generator with one eigendecomposition per group.


def _per_operator_matrix_unit_strict(frames):
    n, k, d, _ = frames.shape
    diag = np.arange(d)
    verdicts = [(True, None)] * n
    pending = np.arange(n)
    for i in range(k):
        f = frames[pending, i]
        fc = f.conj()
        gap = np.abs(f[:, :, :, None] * fc[:, :, None, :]).max(axis=1)
        same = np.abs(f[:, :, None, :] * fc[:, None, :, :])
        same[:, diag, diag] = 0.0
        gap[:, diag, diag] = same.max(axis=(1, 2))
        hits = incoherent_ops._first_hits(gap > STRUCTURAL_ZERO)
        for member, hit in zip(pending.tolist(), hits):
            if hit is not None:
                verdicts[member] = (False, StrictnessWitness(i, *divmod(hit, d)))
        pending = pending[[hit is None for hit in hits]]
        if not pending.size:
            break
    return verdicts


def _frozen_random_incoherent_kraus(d, gen):
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
    return np.stack(members)


def _late_failing_frames(gen):
    """An embedded channel's frames with a second entry in one row of its
    last operator: strict up to that operator."""
    frames = incoherent_ops._in_frame(embed_classical(_stochastic(4, gen), Z2), Z2).copy()
    row, col = divmod(int(np.flatnonzero(frames[-1])[0]), 4)
    frames[-1, row, (col + 1) % 4] = 0.25
    return frames


def _strictness_test_channels():
    gen = substream(29, 0)
    sets = []
    for i in range(24):
        basis = random_product_basis((2, 2), gen) if i % 3 else Z2
        kind = i % 3
        if kind == 0:
            channel = embed_classical(_stochastic(4, gen), basis)
            sets.append(incoherent_ops._in_frame(channel, basis))
        elif kind == 1:
            sets.append(random_incoherent_channel(4, gen).kraus)
        else:
            sets.append(_late_failing_frames(gen))
    return pad_kraus(sets)


@pytest.mark.parametrize("budget", [1, 64 * 3, 64 * 24 * 3, 64 * 24 * 7, None])
def test_blocked_matrix_unit_test_matches_per_operator_loop(monkeypatch, budget):
    # Budgets of one operator per block, of blocks that split one Kraus set
    # (and a stack of 24), and the default.
    if budget is not None:
        monkeypatch.setattr(incoherent_ops, "MAX_BLOCK_ENTRIES", budget)
    frames = _strictness_test_channels()
    expected = _per_operator_matrix_unit_strict(frames)
    assert incoherent_ops._matrix_unit_strict(frames) == expected
    for member, verdict in zip(frames, expected):
        assert incoherent_ops._matrix_unit_strict(member[None]) == [verdict]
    assert {ok for ok, _ in expected} == {True, False}
    assert max(w.kraus_index for _, w in expected if w is not None) >= 8


def test_random_incoherent_kraus_matches_frozen_generator():
    # Same operators, and each generator left where the old one left it.
    for d in (1, 2, 3, 4, 5, 8):
        for i in range(60):
            gen, frozen = substream(30, d, i), substream(30, d, i)
            expected = _frozen_random_incoherent_kraus(d, frozen)
            assert np.array_equal(random_incoherent_kraus(d, gen), expected)
            assert np.array_equal(gen.random(3), frozen.random(3))


@pytest.mark.parametrize("d", [1, 2, 4, 7])
def test_channels_built_together_match_one_at_a_time(d):
    draws = [draw_incoherent_kraus(d, substream(31, d, i)) for i in range(40)]
    together = build_incoherent_kraus(d, draws)
    for i, ops in enumerate(together):
        assert np.array_equal(ops, random_incoherent_kraus(d, substream(31, d, i)))
    assert build_incoherent_kraus(d, []) == []


def test_completion_floor_is_checked(monkeypatch):
    # Every completion weight is at least 0.0975, so the rows drawn for them
    # never depend on it; a weight under the floor raises, never shifts.
    draws = [draw_incoherent_kraus(4, substream(32, i)) for i in range(20)]
    monkeypatch.setattr(incoherent_ops, "COMPLETION_FLOOR", 0.5)
    with pytest.raises(ArithmeticError, match="completion weight"):
        build_incoherent_kraus(4, draws)
