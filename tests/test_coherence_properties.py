"""Property tests for REC, dephasing and net global coherence."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netcoh.coherence import (
    ProductBasis,
    _eigvals_2x2,
    dephase,
    mutual_information,
    net_global_coherence,
    random_product_basis,
    rec,
)
from netcoh.incoherent_ops import (
    KrausChannel,
    StochasticMatrix,
    apply_channel,
    embed_classical,
    sandwich_dephase,
)
from netcoh.linalg import (
    DensityMatrix,
    hermitian_eig,
    partial_trace,
    partial_trace_matrix,
    random_density_matrix,
    random_pure_density,
    tensor,
)
from netcoh.rng import haar_unitary, substream

# Derandomized and without an example database, so every run draws the same
# examples and writes nothing.
PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=40)

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2)])
CUT_CASES = st.sampled_from(
    [
        ((2, 2), ((0,), (1,))),
        ((2, 3), ((0,), (1,))),
        ((3, 2), ((0,), (1,))),
        ((2, 2, 2), ((0,), (1, 2))),
        ((2, 2, 2), ((0, 2), (1,))),
    ]
)


def _state(dims, gen, pure: bool) -> DensityMatrix:
    return random_pure_density(dims, gen) if pure else random_density_matrix(dims, gen)


@PROPERTY
@given(case=CUT_CASES, seed=SEEDS, pure=st.booleans())
def test_net_coherence_routes_agree_and_are_nonnegative(case, seed, pure):
    dims, cut = case
    gen = substream(seed, 1)
    rho = _state(dims, gen, pure)
    basis = random_product_basis(dims, gen)
    report = net_global_coherence(rho, basis, cut)
    # Both routes recomputed here from the public building blocks.
    locals_ = [rec(partial_trace(rho, group), basis.subset(group)) for group in cut]
    route_rec = rec(rho, basis) - sum(locals_)
    route_mi = mutual_information(rho, cut) - mutual_information(dephase(rho, basis), cut)
    assert abs(route_rec - route_mi) <= 1e-9
    assert abs(report.rec_net - route_rec) <= 1e-9
    assert report.rec_net >= -1e-9


@PROPERTY
@given(dims_a=DIMS, dims_b=DIMS, seed=SEEDS, pure=st.booleans())
def test_rec_is_additive_over_tensor_products(dims_a, dims_b, seed, pure):
    gen = substream(seed, 2)
    rho_a, rho_b = _state(dims_a, gen, pure), _state(dims_b, gen, not pure)
    basis_a, basis_b = random_product_basis(dims_a, gen), random_product_basis(dims_b, gen)
    joint = DensityMatrix(tensor(rho_a.matrix, rho_b.matrix), dims_a + dims_b)
    joint_basis = ProductBasis(basis_a.local_bases + basis_b.local_bases, dims_a + dims_b)
    expected = rec(rho_a, basis_a) + rec(rho_b, basis_b)
    assert abs(rec(joint, joint_basis) - expected) <= 1e-9


@PROPERTY
@given(dims=DIMS, seed=SEEDS, data=st.data())
def test_dephasing_is_idempotent(dims, seed, data):
    gen = substream(seed, 3)
    rho = random_density_matrix(dims, gen)
    basis = random_product_basis(dims, gen)
    subsystems = data.draw(st.none() | st.sets(st.integers(0, len(dims) - 1), min_size=1))
    once = dephase(rho, basis, subsystems)
    twice = dephase(once, basis, subsystems)
    assert np.max(np.abs(twice.matrix - once.matrix)) <= 1e-10
    assert abs(rec(once, basis) - rec(twice, basis)) <= 1e-9


@PROPERTY
@given(dims=DIMS, seed=SEEDS, pure=st.booleans())
def test_rec_does_not_increase_under_strict_incoherent_channels(dims, seed, pure):
    gen = substream(seed, 4)
    rho = _state(dims, gen, pure)
    basis = random_product_basis(dims, gen)
    d = basis.dim
    g = gen.random((d, d))
    g /= g.sum(axis=0, keepdims=True)
    # A random channel with two Kraus operators, the blocks of an isometry.
    isometry = haar_unitary(2 * d, gen)[:, :d]
    inner = KrausChannel((isometry[:d], isometry[d:]))
    before = rec(rho, basis)
    for channel in (embed_classical(StochasticMatrix(g), basis), sandwich_dephase(inner, basis)):
        assert rec(apply_channel(channel, rho), basis) <= before + 1e-9


# --- Frozen oracle: net_global_coherence as it was computed before each
# entropy was taken once.  It takes 12 entropies, rebuilds every marginal,
# restricts the basis with ``ProductBasis.subset`` and dephases through a
# boolean mask; the one-pass report must equal it bit for bit.


def _oracle_entropy(p):
    p = np.real(np.asarray(p, dtype=complex))
    assert np.min(p) >= -1e-9
    nz = np.clip(p, 0.0, None)
    nz = nz[nz > 0.0]
    return float(-np.sum(nz * np.log2(nz)))


def _oracle_von_neumann(rho):
    if rho.dim == 2:
        return _oracle_entropy(_eigvals_2x2(rho.matrix))
    return _oracle_entropy(hermitian_eig(rho.matrix)[0])


def _oracle_marginal(rho, keep):
    reduced = partial_trace_matrix(rho.matrix, rho.dims, keep)
    return DensityMatrix(reduced, tuple(rho.dims[k] for k in keep))


def _oracle_rec(rho, basis):
    b = basis.matrix
    probs = np.real(np.sum(b.conj() * (rho.matrix @ b), axis=0))
    return _oracle_entropy(probs) - _oracle_von_neumann(rho)


def _oracle_mutual_information(rho, groups):
    s_a, s_b = (_oracle_von_neumann(_oracle_marginal(rho, g)) for g in groups)
    return s_a + s_b - _oracle_von_neumann(rho)


def _oracle_dephase(rho, basis):
    b = basis.matrix
    frame = b.conj().T @ rho.matrix @ b
    digits = np.array(np.unravel_index(np.arange(rho.dim), rho.dims))
    mask = np.ones((rho.dim, rho.dim), dtype=bool)
    for k in range(len(rho.dims)):
        mask &= digits[k][:, None] == digits[k][None, :]
    frame[~mask] = 0.0
    return DensityMatrix(b @ frame @ b.conj().T, rho.dims)


def _oracle_report(rho, basis, groups):
    marginals = [_oracle_marginal(rho, g) for g in groups]
    rec_global = _oracle_rec(rho, basis)
    rec_locals = [_oracle_rec(m, basis.subset(g)) for m, g in zip(marginals, groups)]
    s_a, s_b = (_oracle_von_neumann(m) for m in marginals)
    return (
        rec_global,
        tuple(rec_locals),
        rec_global - sum(rec_locals),
        s_a + s_b - _oracle_von_neumann(rho),
        _oracle_mutual_information(_oracle_dephase(rho, basis), groups),
    )


def _report_fields(report):
    return (
        report.rec_global,
        report.rec_local,
        report.rec_net,
        report.mutual_info,
        report.mutual_info_dephased,
    )


ORACLE_CASES = st.sampled_from(
    [
        ((2, 2), ((0,), (1,))),
        ((2, 3), ((0,), (1,))),
        ((3, 2), ((0,), (1,))),
        ((2, 4), ((0,), (1,))),
        ((2, 2, 2), ((0, 1), (2,))),
    ]
)


def _oracle_state(kind, dims, gen):
    if kind == "mixed":
        return random_density_matrix(dims, gen)
    if kind == "pure":
        return random_pure_density(dims, gen)
    if kind == "product":
        return DensityMatrix(tensor(*(random_density_matrix((d,), gen).matrix for d in dims)), dims)
    # Classical-classical: diagonal in a random product basis.
    frame = random_product_basis(dims, gen).matrix
    p = gen.random(frame.shape[0])
    return DensityMatrix((frame * (p / p.sum())) @ frame.conj().T, dims)


@settings(PROPERTY, max_examples=120)
@given(
    case=ORACLE_CASES,
    seed=SEEDS,
    kind=st.sampled_from(["mixed", "pure", "product", "cc"]),
    computational=st.booleans(),
)
def test_net_coherence_matches_frozen_oracle_bit_for_bit(case, seed, kind, computational):
    dims, cut = case
    gen = substream(seed, 5)
    rho = _oracle_state(kind, dims, gen)
    basis = ProductBasis.computational(dims) if computational else random_product_basis(dims, gen)
    assert _report_fields(net_global_coherence(rho, basis, cut)) == _oracle_report(rho, basis, cut)


def test_five_qubit_net_coherence_matches_frozen_oracle():
    gen = substream(5, 32)
    dims, cut = (2,) * 5, ((0, 3), (1, 2, 4))
    rho = random_density_matrix(dims, gen)
    basis = random_product_basis(dims, gen)
    assert _report_fields(net_global_coherence(rho, basis, cut)) == _oracle_report(rho, basis, cut)
