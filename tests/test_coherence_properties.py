"""Property tests for REC, dephasing and net global coherence."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from netcoh.coherence import (
    ProductBasis,
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
    partial_trace,
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
