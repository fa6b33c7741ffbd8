"""Property tests for the batched discord objective and its minimiser."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cc_state, werner
from netcoh import coherence
from netcoh.classify import classify
from netcoh.coherence import (
    A_TO_B,
    B_TO_A,
    ProductBasis,
    _discord_fixed_entropies,
    basis_dependent_discord,
    dephase,
    minimize_discord,
    minimize_discord_pair,
    mutual_information,
    random_product_basis,
    von_neumann_entropy,
)
from netcoh.linalg import DensityMatrix, hermitian_eig, partial_trace, random_density_matrix
from netcoh.rng import haar_unitary, substream

# Derandomized and without an example database, so every run draws the same
# examples and writes nothing.
PROPERTY = settings(deadline=None, derandomize=True, database=None)

DIMS = st.sampled_from([(2, 2), (2, 3), (3, 2)])
SEEDS = st.integers(0, 2**32 - 1)
DIRECTIONS = st.sampled_from([A_TO_B, B_TO_A])


def _binary_entropy(x: float) -> float:
    return -sum(t * np.log2(t) for t in (x, 1.0 - x) if t > 0.0)


@settings(PROPERTY, max_examples=40)
@given(dims=DIMS, seed=SEEDS, side=st.sampled_from([0, 1]))
def test_batched_objective_matches_dephase_route(dims, seed, side):
    # Oracle: I(rho) - I(dephase(rho, basis, (side,))) through the dephase map,
    # one basis at a time, against one batched evaluation of all of them.
    gen = substream(seed, 1)
    rho = random_density_matrix(dims, gen)
    bases = [random_product_basis(dims, gen) for _ in range(6)]
    stack = np.stack([b.local_bases[side] for b in bases]).reshape(2, 3, dims[side], dims[side])
    batched = _discord_fixed_entropies(
        rho.matrix,
        dims,
        side,
        stack,
        mutual_information(rho),
        von_neumann_entropy(partial_trace(rho, (1 - side,))),
    )
    assert batched.shape == (2, 3)
    for value, basis in zip(batched.reshape(-1), bases):
        direct = mutual_information(rho) - mutual_information(dephase(rho, basis, (side,)))
        assert abs(value - direct) <= 1e-9


@settings(PROPERTY, max_examples=12)
@given(dims=DIMS, seed=SEEDS, direction=DIRECTIONS)
def test_minimum_is_below_seed_and_drawn_bases(dims, seed, direction):
    gen = substream(seed, 2)
    rho = random_density_matrix(dims, gen)
    value, _ = minimize_discord(rho, direction, seed=seed, restarts=2)
    side = 0 if direction == A_TO_B else 1
    _, marginal_basis = hermitian_eig(partial_trace(rho, (side,)).matrix)
    locals_ = [np.eye(d, dtype=complex) for d in dims]
    locals_[side] = marginal_basis
    candidates = [ProductBasis(tuple(locals_), dims)]
    candidates += [random_product_basis(dims, gen) for _ in range(4)]
    for basis in candidates:
        assert value <= basis_dependent_discord(rho, basis, direction) + 1e-9


@settings(PROPERTY, max_examples=10)
@given(p=st.floats(0.0, 1.0), seed=SEEDS)
def test_werner_discord_is_mutual_information_minus_classical_correlation(p, seed):
    # Any projective measurement on one side of p * Bell + (1 - p) I/4 leaves
    # conditional states with spectrum (1 +- p)/2, so J = 1 - h((1 + p)/2);
    # I = 2 - S(rho) with spectrum (1 + 3p)/4 and three times (1 - p)/4.
    gen = substream(seed, 3)
    local = np.kron(haar_unitary(2, gen), haar_unitary(2, gen))
    rho = DensityMatrix(local @ werner(p).matrix @ local.conj().T, (2, 2))
    spectrum = [(1 + 3 * p) / 4] + [(1 - p) / 4] * 3
    mutual = 2.0 + sum(x * np.log2(x) for x in spectrum if x > 0.0)
    classical = 1.0 - _binary_entropy((1 + p) / 2)
    for direction in (A_TO_B, B_TO_A):
        value, _ = minimize_discord(rho, direction, seed=seed, restarts=4)
        assert abs(value - (mutual - classical)) <= 1e-9


# Minima on Hilbert-Schmidt states substream(91, d_a, d_b, i) at seed=11,
# restarts=4, as found by the coordinate search with scipy's bounded Brent
# line search that the grid search replaced.  Three of the six measure the
# qutrit side.
REFERENCE_MINIMA = [
    ((3, 2), A_TO_B, 0, 0.13892355498722397),
    ((3, 2), A_TO_B, 1, 0.17612345795414097),
    ((2, 3), B_TO_A, 0, 0.07931759369129465),
    ((2, 3), B_TO_A, 1, 0.13971995402978854),
    ((2, 3), A_TO_B, 0, 0.09629219434229852),
    ((2, 3), A_TO_B, 1, 0.29083501059115213),
]


@pytest.mark.parametrize("dims, direction, index, expected", REFERENCE_MINIMA)
def test_minimum_matches_reference(dims, direction, index, expected):
    rho = random_density_matrix(dims, substream(91, dims[0], dims[1], index))
    value, _ = minimize_discord(rho, direction, seed=11, restarts=4)
    assert abs(value - expected) <= 1e-9


# ---------------------------------------------------------------------------
# Qubit measured side: the deterministic Bloch-sphere search

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.diag([1.0, -1.0]).astype(complex),
]


def _bell_diagonal(c, gen):
    """(I + sum_i c_i s_i (x) s_i)/4 under Haar local unitaries from ``gen``,
    and its one-way discord by the closed form (Luo, PRA 77, 042303 (2008)):
    every projective measurement on one side leaves conditional states of
    Bloch length at most c = max_i |c_i|, reached along that axis, so
    J = [(1 - c) log2(1 - c) + (1 + c) log2(1 + c)] / 2 and D = I - J, with
    I = 2 + sum_k lam_k log2 lam_k over the Bell-basis weights lam_k."""
    mat = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULI))) / 4
    local = np.kron(haar_unitary(2, gen), haar_unitary(2, gen))
    rho = DensityMatrix(local @ mat @ local.conj().T, (2, 2))
    c1, c2, c3 = c
    lam = [
        (1 - c1 - c2 - c3) / 4,
        (1 - c1 + c2 + c3) / 4,
        (1 + c1 - c2 + c3) / 4,
        (1 + c1 + c2 - c3) / 4,
    ]
    mutual = 2.0 + sum(x * np.log2(x) for x in lam if x > 0.0)
    c_max = max(abs(ci) for ci in c)
    classical = sum((1 + s * c_max) * np.log2(1 + s * c_max) for s in (-1, 1) if 1 + s * c_max > 0)
    return rho, mutual - classical / 2


@settings(PROPERTY, max_examples=30)
@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0.1),
    seed=SEEDS,
)
def test_bell_diagonal_discord_matches_closed_form(weights, seed):
    # Bell-basis weights lam_k drawn directly, so every c is a valid state.
    lam = np.array(weights) / sum(weights)
    c = (
        lam[2] + lam[3] - lam[0] - lam[1],
        lam[1] + lam[3] - lam[0] - lam[2],
        lam[1] + lam[2] - lam[0] - lam[3],
    )
    rho, expected = _bell_diagonal(c, substream(seed, 4))
    for direction in (A_TO_B, B_TO_A):
        value, _ = minimize_discord(rho, direction)
        assert abs(value - expected) <= 1e-9


@pytest.mark.parametrize("index", range(8))
def test_bell_diagonal_near_tie_matches_closed_form(index):
    # |c_2| and |c_3| differ by 2e-4: a flat valley along a great circle with
    # the minimum at one end of it, in a direction set by the local unitaries.
    rho, expected = _bell_diagonal((0.03, 0.4278, -0.428), substream(96, index))
    for direction in (A_TO_B, B_TO_A):
        value, _ = minimize_discord(rho, direction)
        assert abs(value - expected) <= 1e-9


# Minima on Hilbert-Schmidt two-qubit states substream(92, 2, 2, i) at seed=11
# and the default 32 restarts, as found by the Givens-angle search over Haar
# seeds that the Bloch search replaced for a qubit measured side.  These are
# upper bounds: the deterministic search may only match or undercut them.
REFERENCE_QUBIT_MINIMA = [
    (A_TO_B, 0, 0.05895004460004971),
    (B_TO_A, 0, 0.03719870439109374),
    (A_TO_B, 1, 0.18174471631415634),
    (B_TO_A, 1, 0.14908072185539573),
    (A_TO_B, 2, 0.17369575497813639),
    (B_TO_A, 2, 0.17718457904300045),
]


@pytest.mark.parametrize("direction, index, expected", REFERENCE_QUBIT_MINIMA)
def test_qubit_minimum_no_higher_than_reference(direction, index, expected):
    rho = random_density_matrix((2, 2), substream(92, 2, 2, index))
    value, _ = minimize_discord(rho, direction)
    assert value <= expected + 1e-9


@pytest.mark.parametrize(
    "direction, expected", [(A_TO_B, 0.24733298309287333), (B_TO_A, 0.25014280388788734)]
)
def test_qubit_minimum_in_flat_tilted_valley(direction, expected):
    # Two correlations equal to within 1e-4, plus local Bloch vectors: the B -> A
    # landscape has a long, nearly flat valley that does not follow the
    # search's coordinate lines.  The minima come from a dense 181 x 361
    # (theta, phi) grid over the sphere with zooms from its 40 best points.
    c, a, b = (-0.05, -0.5056, 0.5057), (-0.25, 0.0, 0.04), (0.33, 0.05, 0.13)
    eye = np.eye(2)
    mat = np.eye(4) + sum(
        ci * np.kron(s, s) + ai * np.kron(s, eye) + bi * np.kron(eye, s)
        for ci, ai, bi, s in zip(c, a, b, PAULI)
    )
    rho = DensityMatrix(0.9 * mat / 4 + 0.1 * np.eye(4) / 4, (2, 2))
    value, _ = minimize_discord(rho, direction)
    assert abs(value - expected) <= 1e-9


@pytest.mark.parametrize("dims, direction", [((2, 2), A_TO_B), ((2, 2), B_TO_A), ((2, 3), A_TO_B)])
def test_qubit_search_ignores_seed_and_restarts(dims, direction):
    rho = random_density_matrix(dims, substream(93, dims[0], dims[1]))
    runs = [
        minimize_discord(rho, direction, seed=seed, restarts=restarts)
        for seed, restarts in ((0, 32), (12345, 0), (7, 3))
    ]
    for value, basis in runs[1:]:
        assert value == runs[0][0]
        for mat, ref in zip(basis.local_bases, runs[0][1].local_bases):
            assert np.array_equal(mat, ref)


def _count_haar_calls(monkeypatch) -> list:
    calls = []

    def counting(dim, gen):
        calls.append(dim)
        return haar_unitary(dim, gen)

    monkeypatch.setattr(coherence, "haar_unitary", counting)
    return calls


def test_two_qubit_classify_builds_no_haar_seed(monkeypatch):
    calls = _count_haar_calls(monkeypatch)
    basis = ProductBasis.computational((2, 2))
    for index in range(3):
        classify(random_density_matrix((2, 2), substream(94, index)), basis)
    classify(werner(0.6), basis)
    assert calls == []


def test_qutrit_haar_seeds_built_only_when_first_batch_fails(monkeypatch):
    calls = _count_haar_calls(monkeypatch)
    # A classical-quantum state on a qutrit: the marginal eigenbasis returns.
    cq = sum(
        np.kron(np.diag(np.eye(3)[i]) * p, np.eye(2) / 2) for i, p in enumerate((0.5, 0.3, 0.2))
    )
    value, _ = minimize_discord(DensityMatrix(cq, (3, 2)), A_TO_B, restarts=5)
    assert value < 1e-10 and calls == []
    rho = random_density_matrix((3, 2), substream(91, 3, 2, 0))
    minimize_discord(rho, A_TO_B, seed=11, restarts=5)
    assert calls == [3] * 5


# ---------------------------------------------------------------------------
# Both measured sides in one Bloch batch: oracle against the one-side search


def _frozen_minimize_bloch(rho, side, mi, ent_other):
    """The Bloch search of one measured side, as it stood before the sides
    were batched: one side, its own zoom loop, ``np.stack`` blocks."""
    t = coherence._PAULI_ROWS @ coherence._block_kernel(rho.matrix, rho.dims, side)
    d_o = rho.dims[1 - side]
    _, axes = hermitian_eig((t[1:] @ t[1:].conj().T).real)
    frame = axes[:, ::-1].real
    t_frame = frame.T @ t[1:]

    def vectors(angles):
        theta, phi = angles[..., 0], angles[..., 1]
        return np.stack(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
        )

    def objective(angles):
        shift = vectors(angles) @ t_frame
        blocks = (np.stack([t[0] - shift, t[0] + shift], axis=-2) / 2).reshape(
            shift.shape[:-1] + (2, d_o, d_o)
        )
        weights = np.einsum("...bb->...", blocks).real
        return coherence._discord_from_blocks(weights, blocks, mi, ent_other)

    grid_vals = objective(coherence._GRID_ANGLES)
    order = np.argsort(grid_vals, kind="stable")[: coherence._BLOCH_STARTS]
    centres, vals = coherence._GRID_ANGLES[order], grid_vals[order]
    steps = np.tile(coherence._GRID_STEPS, (len(centres), 1))
    rows = np.arange(len(centres))
    for _ in range(coherence._ZOOM_ROUNDS):
        if steps.max() < coherence._ZOOM_TOL:
            break
        trial = centres[:, None, :] + coherence._ZOOM * steps[:, None, :]
        trial_vals = objective(trial)
        j = np.argmin(trial_vals, axis=1)
        centres, vals = trial[rows, j], trial_vals[rows, j]
        steps[np.abs(coherence._ZOOM[j]).max(axis=1) < 1.0] /= 4
    best = int(np.argmin(vals))
    _, basis = hermitian_eig(np.tensordot(frame @ vectors(centres[best]), coherence._PAULI, 1))
    return float(vals[best]), basis


def _frozen_minimize_discord(rho, direction, seed, restarts):
    """``minimize_discord`` one direction at a time, as it stood before the
    sides were batched.  A measured side larger than a qubit goes to the
    Givens descent, which batching did not change."""
    side = 0 if direction == A_TO_B else 1
    d_m = rho.dims[side]
    mi = mutual_information(rho)
    ent_other = von_neumann_entropy(partial_trace(rho, (1 - side,)))
    _, marginal_basis = hermitian_eig(partial_trace(rho, (side,)).matrix)
    first = np.stack([marginal_basis, np.eye(d_m, dtype=complex)])
    values = _discord_fixed_entropies(rho.matrix, rho.dims, side, first, mi, ent_other)
    if np.any(values < 1e-10):
        best = int(np.argmax(values < 1e-10))
        return coherence._discord_result(rho, side, float(values[best]), first[best])
    if d_m == 2:
        best_val, best_u = _frozen_minimize_bloch(rho, side, mi, ent_other)
        best = int(np.argmin(values))
        if values[best] <= best_val:
            best_val, best_u = float(values[best]), first[best]
        return coherence._discord_result(rho, side, best_val, best_u)
    best_val, best_u = coherence._minimize_givens(
        rho, side, first, values, mi, ent_other, seed, restarts
    )
    return coherence._discord_result(rho, side, best_val, best_u)


def _oracle_state(kind, seed, p):
    gen = substream(seed, 5)
    if kind == "hs":
        return random_density_matrix((2, 2), gen)
    if kind == "werner":
        local = np.kron(haar_unitary(2, gen), haar_unitary(2, gen))
        return DensityMatrix(local @ werner(p).matrix @ local.conj().T, (2, 2))
    if kind == "cc-degenerate":
        # Both marginals are I/2, so the marginal eigenbasis is arbitrary
        # and the first batch need not return: the Bloch search runs.
        probs = np.array([[0.35, 0.15], [0.15, 0.35]])
        return cc_state(probs, haar_unitary(2, gen), haar_unitary(2, gen))
    return random_density_matrix((2, 3) if kind == "2x3" else (3, 2), gen)


def _same_result(result, reference):
    (value, basis), (ref_value, ref_basis) = result, reference
    return value == ref_value and all(
        np.array_equal(mat, ref) for mat, ref in zip(basis.local_bases, ref_basis.local_bases)
    )


def _check_pair_against_oracle(rho, seed, restarts):
    pair = minimize_discord_pair(rho, seed=seed, restarts=restarts)
    for direction, result in zip((A_TO_B, B_TO_A), pair):
        reference = _frozen_minimize_discord(rho, direction, seed, restarts)
        assert _same_result(result, reference)
        single = minimize_discord(rho, direction, seed=seed, restarts=restarts)
        assert _same_result(single, reference)


@settings(PROPERTY, max_examples=120)
@given(kind=st.sampled_from(["hs", "werner", "cc-degenerate"]), seed=SEEDS, p=st.floats(0.0, 1.0))
def test_pair_search_matches_one_side_search_bit_for_bit(kind, seed, p):
    # Two qubit sides: both reach one Bloch batch unless a first basis returns.
    _check_pair_against_oracle(_oracle_state(kind, seed, p), seed, 2)


@settings(PROPERTY, max_examples=4)
@given(kind=st.sampled_from(["2x3", "3x2"]), seed=SEEDS)
def test_pair_search_with_a_qutrit_side_matches_one_side_search(kind, seed):
    # One qubit side in a batch of its own against a qutrit unmeasured side,
    # and the qutrit side through the Givens descent (no Haar restarts, to
    # keep the descent short).
    _check_pair_against_oracle(_oracle_state(kind, seed, 0.0), seed, 0)
