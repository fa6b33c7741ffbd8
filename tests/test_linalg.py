import ast
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import SX, SY, SZ, bell_state, matrices_equal, werner
from netcoh.linalg import (
    MAX_GATE_QUBITS,
    DensityMatrix,
    DimensionMismatchError,
    GateNetwork,
    InvalidStateError,
    NotHermitianError,
    as_square_matrix,
    compile_gate_network,
    density_stack,
    gate_network_from_json,
    gate_network_to_json,
    hermitian_eig,
    matrix_from_json,
    matrix_to_json,
    maximally_mixed,
    partial_trace,
    partial_trace_matrix,
    partial_transpose,
    permute_subsystems,
    random_density_matrix,
    random_gate_network,
    random_pure_density,
    tensor,
    unitary_eig,
)
from netcoh.rng import substream


class TestTensor:
    def test_identity_case(self):
        assert matrices_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_bit_flip_action(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(tensor(SX, SX) @ ket00, [0, 0, 0, 1])

    def test_ladder_operator_expansion(self):
        # Expand (sx + i sy) (x) (sx + i sy) term by term as the oracle.
        lhs = tensor(SX + 1j * SY, SX + 1j * SY)
        rhs = (
            tensor(SX, SX)
            - tensor(SY, SY)
            + 1j * (tensor(SX, SY) + tensor(SY, SX))
        )
        assert matrices_equal(lhs, rhs)

    def test_associativity(self):
        gen = substream(1, 0)
        mats = [gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d)) for d in (2, 3, 2)]
        a, b, c = mats
        assert matrices_equal(tensor(tensor(a, b), c), tensor(a, tensor(b, c)))

    def test_index_convention_first_factor_most_significant(self):
        # |0><0| (x) |1><1| occupies flat index (0*2+1) = 1.
        m = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert m[1, 1] == 1.0 and np.sum(np.abs(m)) == 1.0

    def test_needs_an_operand(self):
        with pytest.raises(ValueError, match="at least one operand"):
            tensor()


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(InvalidStateError):
            DensityMatrix(m, (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(InvalidStateError):
            DensityMatrix(m, (2,))

    @pytest.mark.parametrize("dims", [(2.5,), (True, 2), (2.0, 1), ("2",)])
    def test_rejects_non_integer_dims(self, dims):
        # A float dim was once truncated (2.5 -> 2) and True read as 1.
        with pytest.raises(DimensionMismatchError, match="subsystem dim must be an integer"):
            DensityMatrix(np.eye(2) / 2, dims)
        assert DensityMatrix(np.eye(2) / 2, (np.int64(2), np.int32(1))).dims == (2, 1)

    def test_tolerates_roundoff_negativity(self):
        m = np.diag([1.0 + 5e-10, -5e-10])
        DensityMatrix(m, (2,))  # within the -1e-9 floor

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # NaN compares false against every tolerance, so it must be caught
        # before the invariant checks.
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([bad, 0.25, 0.25, 0.25]), (2, 2))
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(InvalidStateError):
            DensityMatrix(m, (2, 2))

    @pytest.mark.parametrize("flaw", ["nan", "non-hermitian", "trace", "negative", "inf"])
    def test_stack_fails_closed_per_member(self, flaw):
        gen = substream(3, 5)
        stack = np.stack([random_density_matrix((2, 2), gen).matrix for _ in range(6)])
        assert np.array_equal(density_stack(stack), stack)
        bad = stack[4].copy()
        if flaw in ("nan", "inf"):
            bad[1, 2] = np.nan if flaw == "nan" else np.inf
        elif flaw == "non-hermitian":
            bad[0, 3] += 1e-9
        elif flaw == "trace":
            bad += 1e-9 / 4 * np.eye(4)
        else:
            w, v = np.linalg.eigh(bad)
            w[0], w[-1] = -1e-8, w[-1] + w[0] + 1e-8
            bad = (v * w) @ v.conj().T
        with pytest.raises(InvalidStateError) as alone:
            DensityMatrix(bad, (2, 2))
        stack[4] = bad
        with pytest.raises(InvalidStateError) as stacked:
            density_stack(stack)
        assert str(stacked.value) == str(alone.value)
        # A later bad member does not mask the first one's message.
        stack[5] = np.eye(4)
        with pytest.raises(InvalidStateError, match=re.escape(str(alone.value))):
            density_stack(stack)

    def test_rejects_dims_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(4) / 4, (2, 3))

    def test_from_vector_rejects_zero_vector(self):
        with pytest.raises(InvalidStateError, match="zero vector"):
            DensityMatrix.from_vector(np.zeros(4), (2, 2))


class TestPartialTrace:
    def test_product_state_marginal(self):
        gen = substream(2, 0)
        rho_a = random_density_matrix((2,), gen)
        rho_b = random_density_matrix((3,), gen)
        joint = DensityMatrix(tensor(rho_a.matrix, rho_b.matrix), (2, 3))
        assert matrices_equal(partial_trace(joint, (0,)).matrix, rho_a.matrix)
        assert matrices_equal(partial_trace(joint, (1,)).matrix, rho_b.matrix)

    def test_bell_marginal_is_maximally_mixed(self):
        marg = partial_trace(bell_state(), (1,))
        assert matrices_equal(marg.matrix, np.eye(2) / 2)

    def test_trace_preserved_and_dims(self):
        gen = substream(2, 1)
        rho = random_density_matrix((2, 2, 2), gen)
        red = partial_trace(rho, (0, 2))
        assert red.dims == (2, 2)
        assert abs(np.trace(red.matrix) - 1) <= 1e-10

    def test_commutes_with_dephasing(self):
        # Both routes computed independently on 100 random two-qubit states.
        from netcoh.coherence import ProductBasis, dephase, random_product_basis

        for i in range(100):
            gen = substream(2, 2, i)
            rho = random_density_matrix((2, 2), gen)
            basis = random_product_basis((2, 2), gen)
            lhs = partial_trace(dephase(rho, basis), (0,)).matrix
            rhs = dephase(partial_trace(rho, (0,)), basis.subset((0,))).matrix
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_invalid_keep_set(self):
        rho = maximally_mixed((2, 2))
        with pytest.raises(DimensionMismatchError):
            partial_trace(rho, (0, 5))
        with pytest.raises(DimensionMismatchError):
            partial_trace(rho, ())

    @pytest.mark.parametrize("bad", [0.9, 1.0, 1.2, True, "0", np.float64(0.0)])
    def test_rejects_non_integer_keep(self, bad):
        rho = random_density_matrix((2, 2), substream(2, 3))
        with pytest.raises(DimensionMismatchError):
            partial_trace(rho, (bad,))
        with pytest.raises(DimensionMismatchError):
            partial_trace_matrix(rho.matrix, rho.dims, (bad,))

    def test_accepts_numpy_integer_keep(self):
        rho = random_density_matrix((2, 3), substream(2, 4))
        marg = partial_trace(rho, (1,))
        for keep in ([np.int64(1)], np.array([1, 1], dtype=np.int32)):
            assert np.array_equal(partial_trace(rho, keep).matrix, marg.matrix)
            reduced = partial_trace_matrix(rho.matrix, rho.dims, keep)
            assert np.array_equal(reduced, partial_trace_matrix(rho.matrix, rho.dims, (1,)))


class TestHermitianEig:
    def test_diagonal_input(self):
        w, _ = hermitian_eig(np.diag([0.75, 0.25]))
        assert np.allclose(w, [0.25, 0.75])

    def test_pauli_spectrum(self):
        w, _ = hermitian_eig(SX)
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_oracle_8x8(self):
        gen = substream(3, 0)
        g = gen.standard_normal((8, 8)) + 1j * gen.standard_normal((8, 8))
        h = (g + g.conj().T) / 2
        w, v = hermitian_eig(h)
        assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-9
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-9
        assert np.all(np.diff(w) >= -1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_stack_matches_one_matrix_calls_bit_for_bit(self, d):
        gen = substream(3, 6, d)
        g = gen.standard_normal((3, d, d)) + 1j * gen.standard_normal((3, d, d))
        # Hermitian up to roundoff-sized noise, which the symmetrization removes.
        stack = (g + g.conj().swapaxes(-2, -1)) / 2 + 1e-13 * g
        w, v = hermitian_eig(stack)
        for k in range(3):
            w_k, v_k = hermitian_eig(stack[k])
            assert np.array_equal(w[k], w_k) and np.array_equal(v[k], v_k)

    @pytest.mark.parametrize("flaw", ["non-hermitian", "nan"])
    def test_stack_names_first_failing_member(self, flaw):
        stack = np.stack([np.diag([0.25, 0.75]).astype(complex)] * 4)
        stack[1, 0, 1] = np.nan if flaw == "nan" else 1e-9
        stack[3, 0, 1] = 1.0
        with pytest.raises(NotHermitianError) as err:
            hermitian_eig(stack)
        text = "nan" if flaw == "nan" else "1.000e-09"
        assert str(err.value).endswith(f"member [1]: max |m - m^dag| = {text}")

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 3, 4)])
    def test_rejects_non_square_shapes(self, shape):
        with pytest.raises(DimensionMismatchError):
            hermitian_eig(np.zeros(shape))

    @pytest.mark.parametrize("name", ["maximally_mixed", "rank_one", "ghz5"])
    def test_degenerate_spectra_d32(self, name):
        d = 32
        if name == "maximally_mixed":
            h = np.eye(d, dtype=complex) / d
        elif name == "rank_one":
            v = np.exp(1j * np.arange(d)) / np.sqrt(d)
            h = np.outer(v, v.conj())
        else:
            ghz = np.zeros(d, dtype=complex)
            ghz[[0, d - 1]] = np.sqrt(0.5)
            h = np.outer(ghz, ghz.conj())
        w, v = hermitian_eig(h)
        assert np.max(np.abs((v * w) @ v.conj().T - h)) <= 1e-9
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-9
        assert np.all(np.diff(w) >= 0.0)
        expected = np.full(d, 1.0 / d) if name == "maximally_mixed" else np.eye(d)[-1]
        assert np.max(np.abs(w - expected)) <= 1e-9

    def test_density_matrix_spectra(self):
        for i in range(20):
            rho = random_density_matrix((2, 2), substream(3, 1, i))
            w, _ = hermitian_eig(rho.matrix)
            assert w.min() >= -1e-9 and w.max() <= 1 + 1e-9
            assert abs(w.sum() - 1) <= 1e-9


# Where an eigensolver may be called in the package: the one spectral path,
# and the conditional blocks of the discord objective, which are not states.
EIGENSOLVERS = {"eigh", "eigvalsh", "eig", "eigvals"}
EIGENSOLVER_HOMES = {("linalg", "hermitian_eig"), ("coherence", "_discord_from_blocks")}


def _eigensolver_uses(tree: ast.AST, function: str = ""):
    """(enclosing function, line) of each eigensolver attribute or call by
    name under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _eigensolver_uses(node, node.name)
            continue
        if (isinstance(node, ast.Attribute) and node.attr in EIGENSOLVERS) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in EIGENSOLVERS
        ):
            yield function, node.lineno
        yield from _eigensolver_uses(node, function)


def test_eigensolvers_are_called_only_in_the_spectral_layer():
    import netcoh

    strays = []
    for path in sorted(Path(netcoh.__file__).parent.glob("*.py")):
        for function, line in _eigensolver_uses(ast.parse(path.read_text())):
            if (path.stem, function) not in EIGENSOLVER_HOMES:
                strays.append(f"{path.name}:{line} in {function or '<module>'}")
    assert strays == []


class TestUnitaryEig:
    def test_reconstruction(self):
        from netcoh.rng import haar_unitary

        u = haar_unitary(8, substream(3, 2))
        lam, v = unitary_eig(u)
        assert np.max(np.abs((v * lam) @ v.conj().T - u)) <= 1e-9
        assert np.max(np.abs(np.abs(lam) - 1.0)) <= 1e-9

    def test_degenerate_spectrum(self):
        lam, v = unitary_eig(tensor(SZ, SZ))
        assert np.max(np.abs((v * lam) @ v.conj().T - tensor(SZ, SZ))) <= 1e-9

    def test_deterministic_ordering(self):
        from netcoh.rng import haar_unitary

        u = haar_unitary(4, substream(3, 3))
        lam1, v1 = unitary_eig(u)
        lam2, v2 = unitary_eig(u)
        assert np.array_equal(lam1, lam2) and np.array_equal(v1, v2)

    @pytest.mark.parametrize("name", ["CZ", "ZI"])
    def test_degenerate_ordering_repeats(self, name):
        if name == "CZ":
            u = compile_gate_network(GateNetwork(2, (("CZ", (0, 1)),)))
        else:
            u = tensor(SZ, np.eye(2))
        lam1, v1 = unitary_eig(u)
        lam2, v2 = unitary_eig(u.copy())
        assert np.array_equal(lam1, lam2) and np.array_equal(v1, v2)
        assert np.max(np.abs((v1 * lam1) @ v1.conj().T - u)) <= 1e-9
        phases = np.mod(np.angle(lam1), 2 * np.pi)
        assert np.all(np.diff(phases) >= -1e-9)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            unitary_eig(np.ones((2, 2)))


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        gen = substream(4, 0)
        rho_a = random_density_matrix((2,), gen)
        rho_b = random_density_matrix((2,), gen)
        joint = DensityMatrix(tensor(rho_a.matrix, rho_b.matrix), (2, 2))
        w, _ = hermitian_eig(partial_transpose(joint, 1))
        assert w.min() >= -1e-9

    def test_bell_minimum_eigenvalue(self):
        # Oracle: direct eigensolve of the partially transposed projector.
        w, _ = hermitian_eig(partial_transpose(bell_state(), 1))
        assert abs(w.min() - (-0.5)) <= 1e-10

    def test_werner_sweep_matches_closed_form(self):
        # Brute-force sweep; the minimum eigenvalue is (1 - 3p)/4 and crosses
        # zero at p = 1/3.
        crossings = []
        previous_sign = None
        for p in np.linspace(0.0, 1.0, 61):
            w, _ = hermitian_eig(partial_transpose(werner(p), 1))
            assert abs(w.min() - (1 - 3 * p) / 4) <= 1e-9
            sign = w.min() >= -1e-12
            if previous_sign is not None and sign != previous_sign:
                crossings.append(p)
            previous_sign = sign
        assert len(crossings) == 1 and abs(crossings[0] - 1 / 3) < 0.02

    def test_hermitian_and_trace_preserved(self):
        rho = random_density_matrix((2, 2), substream(4, 1))
        pt = partial_transpose(rho, 0)
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-10
        assert abs(np.trace(pt) - 1) <= 1e-10

    def test_invalid_subsystem(self):
        with pytest.raises(DimensionMismatchError):
            partial_transpose(bell_state(), 2)


class TestGateNetwork:
    @pytest.mark.parametrize(
        "qubits, gates, name",
        [(1.5, (), "qubit_count"), (True, (), "qubit_count"), (2, (("H", (0.9,)),), "gate target")],
    )
    def test_rejects_non_integer_counts_and_targets(self, qubits, gates, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GateNetwork(qubits, gates)
        net = GateNetwork(np.int64(2), (("CNOT", (np.int64(1), 0)),))
        assert net.qubit_count == 2 and type(net.qubit_count) is int
        assert net.gates == (("CNOT", (1, 0)),)

    def test_empty_network_is_identity(self):
        assert matrices_equal(compile_gate_network(GateNetwork(2)), np.eye(4))

    def test_hadamard_involution(self):
        net = GateNetwork(1, (("H", (0,)), ("H", (0,))))
        assert matrices_equal(compile_gate_network(net), np.eye(2))

    def test_bell_preparation_column(self):
        # Oracle: extract the |00> column of the compiled unitary.
        net = GateNetwork(2, (("H", (0,)), ("CNOT", (0, 1))))
        u = compile_gate_network(net)
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.max(np.abs(u[:, 0] - expected)) <= 1e-12

    def test_gate_order_first_listed_applied_first(self):
        net = GateNetwork(1, (("X", (0,)), ("S", (0,))))
        u = compile_gate_network(net)
        s, x = np.diag([1, 1j]), SX
        assert matrices_equal(u, s @ x)

    def test_two_qubit_gate_embeddings(self):
        cz = compile_gate_network(GateNetwork(2, (("CZ", (0, 1)),)))
        assert matrices_equal(cz, np.diag([1, 1, 1, -1]))
        # CNOT with control on the less significant qubit.
        cnot_rev = compile_gate_network(GateNetwork(2, (("CNOT", (1, 0)),)))
        expected = np.zeros((4, 4))
        expected[[0, 3, 2, 1], [0, 1, 2, 3]] = 1.0
        assert matrices_equal(cnot_rev, expected)

    def test_unitarity_over_random_networks(self):
        for i in range(1000):
            gen = substream(5, i)
            qubits = int(gen.integers(1, 6))
            depth = int(gen.integers(0, 51))
            u = compile_gate_network(random_gate_network(qubits, depth, gen))
            d = u.shape[0]
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-9

    def test_malformed_networks_rejected(self):
        with pytest.raises(ValueError):
            GateNetwork(2, (("H", (0, 1)),))
        with pytest.raises(ValueError):
            GateNetwork(2, (("CNOT", (1, 1)),))
        with pytest.raises(ValueError):
            GateNetwork(2, (("CNOT", (0, 2)),))
        with pytest.raises(ValueError):
            GateNetwork(2, (("Q", (0,)),))
        with pytest.raises(ValueError):
            GateNetwork(0)
        with pytest.raises(ValueError, match="at most 10"):
            GateNetwork(MAX_GATE_QUBITS + 1)
        assert GateNetwork(MAX_GATE_QUBITS, (("H", (9,)),)).qubit_count == 10


class TestPermuteSubsystems:
    def test_swap_matches_rebuilt_tensor(self):
        gen = substream(6, 0)
        a = random_density_matrix((2,), gen).matrix
        b = random_density_matrix((3,), gen).matrix
        swapped = permute_subsystems(tensor(a, b), (2, 3), (1, 0))
        assert matrices_equal(swapped, tensor(b, a))

    def test_rejects_non_permutation(self):
        with pytest.raises(DimensionMismatchError):
            permute_subsystems(np.eye(4), (2, 2), (0, 0))


class TestJsonFormats:
    def test_matrix_round_trip(self):
        gen = substream(7, 0)
        m = random_pure_density((2, 2), gen).matrix
        again = matrix_from_json(matrix_to_json(m))
        assert matrices_equal(m, again, atol=0)

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_non_square_matrix_rejected(self, shape):
        with pytest.raises(DimensionMismatchError, match="expected a square matrix"):
            as_square_matrix(np.zeros(shape))
        with pytest.raises(DimensionMismatchError):
            matrix_to_json(np.zeros(shape))

    def test_matrix_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            matrix_from_json({"dim": 2, "entries": [[1, 0]]})
        with pytest.raises(ValueError):
            matrix_from_json({"entries": []})

    def test_gate_network_round_trip(self):
        net = GateNetwork(3, (("H", (0,)), ("CNOT", (0, 2)), ("T", (1,))))
        again = gate_network_from_json(gate_network_to_json(net))
        assert again == net

    def test_gate_network_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            gate_network_from_json({"qubits": 2})


def test_tolerance_tiers_are_pinned():
    # Each tier is defined once in linalg and bound by name elsewhere, so a
    # loosened tier fails here rather than passing every downstream check.
    from netcoh import classify, coherence, incoherent_ops, linalg

    assert linalg.ATOL_IDENTITY == incoherent_ops.STRUCTURAL_ZERO == 1e-10
    assert linalg.ATOL_SPECTRAL == coherence.IDENTITY_AGREEMENT_TOL == 1e-9
    assert classify.PRODUCT_TOL == 1e-9
    assert linalg.PSD_FLOOR == coherence.EIGENVALUE_CLAMP == -1e-9
    assert classify.DISCORD_ZERO_THRESHOLD == classify.NET_COHERENCE_WITNESS_THRESHOLD == 1e-6

