import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
from scipy.linalg import expm

from nlo_quanta import evolve, fock, models
from nlo_quanta.errors import (
    ContractError,
    InvalidSpaceError,
    ModeIndexError,
    OutOfRangeError,
    ParameterError,
    TruncationError,
)


class TestSpace:
    def test_single_mode(self):
        sp = fock.make_space([5])
        assert sp.total_dim == 5
        assert sp.n_modes == 1

    def test_two_mode_product(self):
        assert fock.make_space([3, 4]).total_dim == 12

    def test_index_convention_enumeration(self):
        # row-major, mode 0 slowest: exhaustive check on [2,2,2]
        sp = fock.make_space([2, 2, 2])
        assert sp.total_dim == 8
        expected = 0
        for n0 in range(2):
            for n1 in range(2):
                for n2 in range(2):
                    assert sp.flat_index((n0, n1, n2)) == expected
                    assert sp.occupation_of(expected) == (n0, n1, n2)
                    expected += 1
        assert sp.flat_index((1, 0, 1)) == 5

    @pytest.mark.parametrize("dims", [[1], [0], [2, 1], [-3]])
    def test_invalid_dims(self, dims):
        with pytest.raises(InvalidSpaceError):
            fock.make_space(dims)

    def test_mode_out_of_range(self):
        sp = fock.make_space([3, 3])
        with pytest.raises(ModeIndexError):
            fock.annihilation(sp, 2)


class TestLadderOperators:
    def test_lowering_on_one(self):
        sp = fock.make_space([3])
        a = fock.annihilation(sp, 0)
        out = a.dense() @ fock.fock_state(sp, [1]).data
        np.testing.assert_allclose(out, fock.fock_state(sp, [0]).data)

    def test_lowering_on_two(self):
        sp = fock.make_space([3])
        a = fock.annihilation(sp, 0)
        out = a.dense() @ fock.fock_state(sp, [2]).data
        np.testing.assert_allclose(out, np.sqrt(2) * fock.fock_state(sp, [1]).data)

    def test_coherent_is_eigenstate(self):
        sp = fock.make_space([20])
        st = fock.coherent_state(sp, [1.5])
        a = fock.annihilation(sp, 0)
        assert abs(fock.expectation(st, a) - 1.5) < 1e-9
        # a|alpha> = alpha|alpha> up to the truncation tail
        resid = a.dense() @ st.data - 1.5 * st.data
        assert np.linalg.norm(resid) < 1e-5

    @pytest.mark.parametrize("alpha", [0.5, 1.0 + 0.7j, -1.2j])
    def test_coherent_eigenrelation_sweep(self, alpha):
        sp = fock.make_space([40])
        st = fock.coherent_state(sp, [alpha])
        a = fock.annihilation(sp, 0)
        resid = np.linalg.norm(a.dense() @ st.data - alpha * st.data)
        assert resid < 1e-8

    def test_commutator_truncation_structure(self):
        # [a, a-dag] = 1 except the last diagonal entry (equals -(d-1))
        sp = fock.make_space([7])
        a = fock.annihilation(sp, 0)
        comm = a.commutator(a.dag()).dense()
        expected = np.eye(7, dtype=complex)
        expected[6, 6] = -(7 - 1)
        np.testing.assert_allclose(comm, expected, atol=1e-12)

    def test_number_operator_diagonal(self):
        sp = fock.make_space([4])
        n = fock.number_operator(sp, 0)
        np.testing.assert_allclose(np.diag(n.dense()).real, [0, 1, 2, 3])
        assert n.is_hermitian()

    def test_number_on_fock(self):
        sp = fock.make_space([6])
        st = fock.fock_state(sp, [2])
        assert abs(fock.expectation(st, fock.number_operator(sp, 0)) - 2) < 1e-14
        assert fock.variance(st, fock.number_operator(sp, 0)) < 1e-14

    def test_number_on_truncated_coherent(self):
        sp = fock.make_space([25])
        st = fock.coherent_state(sp, [1.0])
        assert abs(fock.expectation(st, fock.number_operator(sp, 0)).real - 1.0) < 1e-10


class TestQuadrature:
    @pytest.mark.parametrize("phi", [0.0, 0.3, np.pi / 2, 2.2])
    def test_vacuum_variance(self, phi):
        sp = fock.make_space([12])
        vac = fock.vacuum_state(sp)
        assert abs(fock.variance(vac, fock.quadrature(sp, 0, phi)) - 0.25) < 1e-12

    def test_reconstructs_annihilation(self):
        sp = fock.make_space([9])
        x0 = fock.quadrature(sp, 0, 0.0).dense()
        xp = fock.quadrature(sp, 0, np.pi / 2).dense()
        np.testing.assert_allclose(x0 + 1j * xp, fock.annihilation(sp, 0).dense(),
                                   atol=1e-14)

    def test_pi_sign_flip(self):
        sp = fock.make_space([9])
        np.testing.assert_allclose(fock.quadrature(sp, 0, np.pi).dense(),
                                   -fock.quadrature(sp, 0, 0.0).dense(), atol=1e-14)

    def test_expectation_on_coherent(self):
        sp = fock.make_space([30])
        st = fock.coherent_state(sp, [1.0 + 1.0j])
        val = fock.expectation(st, fock.quadrature(sp, 0, 0.0)).real
        assert abs(val - 1.0) < 1e-9


class TestStates:
    def test_coherent_vacuum(self):
        sp = fock.make_space([5])
        st = fock.coherent_state(sp, [0.0])
        np.testing.assert_allclose(st.data, fock.vacuum_state(sp).data)

    def test_coherent_poissonian_variance(self):
        # Poissonian statistics oracle: explicit sum over the distribution
        sp = fock.make_space([40])
        st = fock.coherent_state(sp, [2.0])
        n = np.arange(40)
        pn = np.exp(-4.0) * 4.0 ** n / np.array([math.factorial(int(k)) for k in n])
        mean_ref = float(np.sum(pn * n))
        var_ref = float(np.sum(pn * n ** 2) - mean_ref ** 2)
        nop = fock.number_operator(sp, 0)
        assert abs(fock.variance(st, nop) - var_ref) < 1e-8
        assert abs(var_ref - 4.0) < 1e-8

    def test_coherent_amplitudes_formula(self):
        sp = fock.make_space([18])
        st = fock.coherent_state(sp, [1.0])
        amps = np.array([np.exp(-0.5) / np.sqrt(math.factorial(n)) for n in range(18)])
        np.testing.assert_allclose(st.data.real, amps / np.linalg.norm(amps), atol=1e-12)

    def test_coherent_truncation_error_names_mode(self):
        sp = fock.make_space([4, 4])
        with pytest.raises(TruncationError, match="mode 1"):
            fock.coherent_state(sp, [0.0, 2.0])

    def test_fock_two_mode_vacuum(self):
        sp = fock.make_space([3, 3])
        st = fock.fock_state(sp, (0, 0))
        assert st.data[0] == 1.0
        assert np.linalg.norm(st.data) == 1.0

    def test_fock_flat_index_placement(self):
        sp = fock.make_space([4, 3])
        st = fock.fock_state(sp, (2, 1))
        assert st.data[7] == 1.0
        assert np.count_nonzero(st.data) == 1

    def test_fock_out_of_range(self):
        sp = fock.make_space([4, 3])
        with pytest.raises(OutOfRangeError):
            fock.fock_state(sp, (1, 3))

    def test_thermal_moments(self):
        sp = fock.make_space([60])
        st = fock.thermal_state(sp, [1.5])
        nop = fock.number_operator(sp, 0)
        assert abs(fock.expectation(st, nop).real - 1.5) < 1e-8
        assert abs(fock.variance(st, nop) - (1.5 ** 2 + 1.5)) < 1e-6


class TestExpectationVariance:
    def test_vacuum_number(self):
        sp = fock.make_space([5])
        assert fock.expectation(fock.vacuum_state(sp), fock.number_operator(sp, 0)) == 0

    def test_variance_nonnegative_random_states(self):
        rng = np.random.default_rng(11)
        sp = fock.make_space([9])
        op = fock.quadrature(sp, 0, 0.4)
        for _ in range(25):
            vec = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            st = fock.QuantumState(sp, "pure", vec / np.linalg.norm(vec))
            assert fock.variance(st, op) >= -1e-12

    def test_variance_rejects_non_hermitian(self):
        sp = fock.make_space([5])
        with pytest.raises(ContractError):
            fock.variance(fock.vacuum_state(sp), fock.annihilation(sp, 0))

    def test_density_expectation_matches_pure(self):
        sp = fock.make_space([14])
        st = fock.coherent_state(sp, [0.9])
        rho = st.as_density_state()
        op = fock.number_operator(sp, 0)
        assert abs(fock.expectation(st, op) - fock.expectation(rho, op)) < 1e-12


class TestPartialTrace:
    def test_product_state_recovers_factor(self):
        sp = fock.make_space([12, 8])
        st = fock.coherent_state(sp, [0.7, 0.3])
        reduced = fock.partial_trace(st, [0])
        factor = fock.coherent_state(fock.make_space([12]), [0.7])
        np.testing.assert_allclose(reduced.density(), factor.density(), atol=1e-12)

    def test_bell_pair_reduction(self):
        sp = fock.make_space([2, 2])
        vec = np.zeros(4, dtype=complex)
        vec[sp.flat_index((0, 0))] = 1 / np.sqrt(2)
        vec[sp.flat_index((1, 1))] = 1 / np.sqrt(2)
        st = fock.QuantumState(sp, "pure", vec)
        reduced = fock.partial_trace(st, [1])
        np.testing.assert_allclose(reduced.data, np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        sp = fock.make_space([3, 4, 2])
        vec = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        st = fock.QuantumState(sp, "pure", vec / np.linalg.norm(vec))
        reduced = fock.partial_trace(st, [0, 2])
        assert abs(np.trace(reduced.data) - 1.0) < 1e-12

    def test_empty_keep_rejected(self):
        sp = fock.make_space([3, 3])
        with pytest.raises(ContractError):
            fock.partial_trace(fock.vacuum_state(sp), [])


class TestBeamSplitter:
    def test_unitarity(self):
        sp = fock.make_space([9, 9])
        u = fock.beam_splitter(sp, 0.37)
        prod = (u.dag() @ u).dense()
        assert np.abs(prod - np.eye(sp.total_dim)).max() < 1e-10

    def test_full_transmission_identity_action(self):
        sp = fock.make_space([7, 7])
        u = fock.beam_splitter(sp, 1.0)
        a = fock.annihilation(sp, 0)
        assert (u.dag() @ a @ u - a).max_abs() < 1e-12

    def test_full_reflection_swap_signs(self):
        sp = fock.make_space([7, 7])
        u = fock.beam_splitter(sp, 0.0)
        a = fock.annihilation(sp, 0)
        b = fock.annihilation(sp, 1)
        safe = _safe_columns(sp)
        lhs = (u.dag() @ a @ u).dense()
        np.testing.assert_allclose(lhs[:, safe], b.dense()[:, safe], atol=1e-10)
        lhs_b = (u.dag() @ b @ u).dense()
        np.testing.assert_allclose(lhs_b[:, safe], -a.dense()[:, safe], atol=1e-10)

    @pytest.mark.parametrize("transmissivity", [0.25, 0.5, 0.8])
    def test_conjugation_relation(self, transmissivity):
        sp = fock.make_space([8, 8])
        u = fock.beam_splitter(sp, transmissivity)
        a = fock.annihilation(sp, 0)
        b = fock.annihilation(sp, 1)
        root_t, root_r = np.sqrt(transmissivity), np.sqrt(1 - transmissivity)
        safe = _safe_columns(sp)
        got_a = (u.dag() @ a @ u).dense()[:, safe]
        want_a = (root_t * a + root_r * b).dense()[:, safe]
        np.testing.assert_allclose(got_a, want_a, atol=1e-10)
        got_b = (u.dag() @ b @ u).dense()[:, safe]
        want_b = (-root_r * a + root_t * b).dense()[:, safe]
        np.testing.assert_allclose(got_b, want_b, atol=1e-10)

    def test_coherent_in_coherent_out(self):
        alpha, beta = 0.8 + 0.1j, -0.5 + 0.6j
        sp = fock.make_space([20, 20])
        st = fock.coherent_state(sp, [alpha, beta])
        out = fock.apply_operator(fock.beam_splitter(sp, 0.5), st)
        expect = fock.coherent_state(sp, [(alpha + beta) / np.sqrt(2),
                                          (beta - alpha) / np.sqrt(2)])
        overlap = abs(np.vdot(expect.data, out.data))
        assert overlap > 1 - 1e-8

    @pytest.mark.parametrize("dims", [(12, 12), (20, 20)], ids=["dense", "sparse"])
    def test_density_conjugation_matches_pure_action(self, dims):
        # U rho U^dag of a pure state's density is the density of U psi
        space = fock.make_space(list(dims))
        u = fock.beam_splitter(space, 0.3)
        assert scipy.sparse.issparse(u.matrix) == (space.total_dim > fock.SPARSE_THRESHOLD)
        psi = fock.coherent_state(space, [0.6 - 0.2j, 0.4 + 0.5j])
        out = fock.apply_operator(u, psi.as_density_state())
        assert type(out.data) is np.ndarray
        np.testing.assert_allclose(out.data, fock.apply_operator(u, psi).density(), atol=1e-12)

    def test_full_transmission_is_exact_identity(self):
        space = fock.make_space([60, 60])
        u = fock.beam_splitter(space, 1.0)
        assert u.matrix.nnz == space.total_dim
        assert (u.matrix != scipy.sparse.identity(space.total_dim)).nnz == 0

    def test_transmissivity_bounds(self):
        sp = fock.make_space([4, 4])
        for bad in (-0.1, 1.1):
            with pytest.raises(ParameterError):
                fock.beam_splitter(sp, bad)

    def test_needs_two_modes(self):
        with pytest.raises(ContractError):
            fock.beam_splitter(fock.make_space([4]), 0.5)



class TestSectors:
    @staticmethod
    def _labels(blocks, n):
        labels = np.full(n, -1)
        for k, block in enumerate(blocks):
            labels[block] = k
        return labels

    @pytest.fixture
    def dpo_liouvillian(self):
        return evolve.liouvillian(models.dpo_model(fock.make_space([6, 4]), 0.3, 0.8, 0.7, 0.9))

    def test_cover_every_index_once(self, dpo_liouvillian):
        blocks = fock.sectors(dpo_liouvillian)
        joined = np.concatenate(blocks)
        np.testing.assert_array_equal(np.sort(joined), np.arange(dpo_liouvillian.shape[0]))
        assert all(np.all(np.diff(b) > 0) for b in blocks)
        assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)

    def test_no_coupling_between_sectors(self, dpo_liouvillian):
        L = dpo_liouvillian.tocoo()
        labels = self._labels(fock.sectors(L), L.shape[0])
        coupled = L.data != 0
        np.testing.assert_array_equal(labels[L.row[coupled]], labels[L.col[coupled]])

    def test_dpo_splits_into_signal_parity_classes(self, dpo_liouvillian):
        d = 24
        blocks = fock.sectors(dpo_liouvillian)
        assert len(blocks) == 2
        n_a = fock.make_space([6, 4]).number_values(0)
        parity = (n_a[:, None] - n_a[None, :]).reshape(-1) % 2
        for block in blocks:
            assert len(set(parity[block])) == 1
        assert {int(parity[b[0]]) for b in blocks} == {0, 1}
        assert sum(len(b) for b in blocks) == d * d

    def test_imaginary_couplings_connect(self):
        # -i[H, .] of a real H is purely imaginary; csgraph casts complex
        # values to real, so the graph must come from the pattern
        space = fock.make_space([5])
        a = fock.annihilation(space, 0)
        L = evolve.liouvillian(models.ModelSpec(space, a + a.dag()))
        assert L.nnz > 0 and not np.any(L.data.real)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(fock.sectors(L)) == 1


class TestSparseOperators:
    """Sparse operators are checked and exponentiated without a dense copy of
    the whole space; a dense 1600^2 or 1728^2 complex array is 41-48 MB."""

    BUDGET_BYTES = 10 * 2**20

    @staticmethod
    def _peak_bytes(build):
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_model_checks_stay_sparse(self):
        space = fock.make_space([12, 12, 12])
        peak = self._peak_bytes(lambda: models.h_three_mode_chi2(space, 1.0, 1.3, 0.2))
        assert peak < self.BUDGET_BYTES

    def test_beam_splitter_stays_sparse(self):
        space = fock.make_space([40, 40])
        assert self._peak_bytes(lambda: fock.beam_splitter(space, 0.37)) < self.BUDGET_BYTES

    def test_checks_match_dense(self):
        op = fock.annihilation(fock.make_space([20, 20]), 1) * (1 + 0.5j)
        assert op.is_sparse
        dense = op.dense()
        assert op.max_abs() == np.abs(dense).max()
        assert op.hermiticity_defect() == np.abs(dense - dense.conj().T).max()


class TestFastPathReferences:
    """Each fast operator builder against the slow construction it replaced."""

    @staticmethod
    def _kron_lowering(space, mode):
        mat = scipy.sparse.identity(1, format="csr", dtype=complex)
        for k, d in enumerate(space.dims):
            if k == mode:
                factor = scipy.sparse.diags(np.sqrt(np.arange(1, d)), 1, format="csr",
                                            dtype=complex)
            else:
                factor = scipy.sparse.identity(d, format="csr", dtype=complex)
            mat = scipy.sparse.kron(mat, factor, format="csr")
        return fock._pack(space, mat).matrix

    @pytest.mark.parametrize("dims", [[5, 5], [13, 15], [3, 4, 5], [30, 30, 30]])
    def test_annihilation_matches_kron_embedding(self, dims):
        space = fock.make_space(dims)
        for mode in range(space.n_modes):
            got = fock.annihilation(space, mode).matrix
            want = self._kron_lowering(space, mode)
            assert scipy.sparse.issparse(got) == scipy.sparse.issparse(want)
            if scipy.sparse.issparse(want):
                for attr in ("data", "indices", "indptr"):
                    np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
                    assert getattr(got, attr).dtype == getattr(want, attr).dtype
            else:
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("transmissivity", [0.5, 0.96])
    def test_beam_splitter_matches_shell_expm(self, transmissivity):
        space = fock.make_space([12, 12])
        a = self._kron_lowering(space, 0)
        b = self._kron_lowering(space, 1)
        theta = np.arccos(np.sqrt(transmissivity))
        K = theta * (a.conj().T @ b - a @ b.conj().T)
        want = np.zeros_like(K)
        totals = space.number_values(0) + space.number_values(1)
        for n in np.unique(totals):
            shell = np.flatnonzero(totals == n)
            want[np.ix_(shell, shell)] = expm(K[np.ix_(shell, shell)])
        got = fock.beam_splitter(space, transmissivity).dense()
        assert np.abs(got - want).max() <= 1e-13
        assert np.abs(got.conj().T @ got - np.eye(space.total_dim)).max() <= 1e-13


def _safe_columns(space):
    """Basis columns whose total-photon sector is complete under truncation."""
    totals = space.number_values(0) + space.number_values(1)
    return totals <= min(space.dims) - 1
