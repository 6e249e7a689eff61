import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from nlo_quanta import fock, media, models, oscillator, soliton
from nlo_quanta.errors import ContractError, ParameterError, TruncationError


def _element(model, bra, ket):
    space = model.space
    return model.hamiltonian.dense()[space.flat_index(bra), space.flat_index(ket)]


class TestTwoModeChi2:
    def setup_method(self):
        self.space = fock.make_space([8, 6])
        self.model = models.h_two_mode_chi2(self.space, omega=1.1, kappa=0.4)

    def test_charge_commutes(self):
        comm = self.model.hamiltonian.commutator(self.model.charge("M")).max_abs()
        assert comm < 1e-10

    def test_kappa_zero_diagonal(self):
        m = models.h_two_mode_chi2(self.space, 1.1, 0.0)
        h = m.hamiltonian.dense()
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_pump_splitting_element(self):
        # <2,0|H_int|0,1> = kappa * sqrt(2)
        off = _element(self.model, (2, 0), (0, 1))
        assert abs(off - 0.4 * np.sqrt(2)) < 1e-12

    def test_free_spectrum(self):
        m = models.h_two_mode_chi2(self.space, 1.1, 0.0)
        e = _element(m, (3, 2), (3, 2)).real
        assert abs(e - (3 * 1.1 + 2 * 2 * 1.1)) < 1e-12

    def test_wrong_mode_count(self):
        with pytest.raises(ContractError):
            models.h_two_mode_chi2(fock.make_space([4]), 1.0, 0.1)


class TestThreeModeChi2:
    def setup_method(self):
        self.space = fock.make_space([6, 5, 5])
        self.model = models.h_three_mode_chi2(self.space, 0.7, 0.5, 0.3)

    def test_charges_commute(self):
        for name in ("M1", "M2"):
            assert self.model.hamiltonian.commutator(self.model.charge(name)).max_abs() < 1e-10

    def test_pump_photon_splitting(self):
        # modes ordered (pump c, signal a, idler b)
        off = _element(self.model, (0, 1, 1), (1, 0, 0))
        assert abs(off - 0.3) < 1e-12

    def test_kappa_zero_free(self):
        m = models.h_three_mode_chi2(self.space, 0.7, 0.5, 0.0)
        e = _element(m, (1, 2, 1), (1, 2, 1)).real
        assert abs(e - (1.2 + 2 * 0.7 + 0.5)) < 1e-12


class TestKerr:
    def test_single_mode_eigenvalues(self):
        space = fock.make_space([9])
        m = models.h_kerr_single(space, omega=0.8, kappa=0.3)
        diag = np.diag(m.hamiltonian.dense()).real
        n = np.arange(9)
        np.testing.assert_allclose(diag, 0.8 * n + 0.5 * 0.3 * n * (n - 1), atol=1e-13)

    def test_kappa_zero_harmonic(self):
        space = fock.make_space([9])
        m = models.h_kerr_single(space, 0.8, 0.0)
        np.testing.assert_allclose(np.diag(m.hamiltonian.dense()).real,
                                   0.8 * np.arange(9), atol=1e-13)

    def test_cross_kerr_eigenvalues(self):
        space = fock.make_space([5, 6])
        m = models.h_kerr_cross(space, 0.8, 0.6, 0.25)
        for n in range(5):
            for k in range(6):
                e = _element(m, (n, k), (n, k)).real
                assert abs(e - (0.8 * n + 0.6 * k + 0.25 * n * k / 2)) < 1e-13

    def test_cross_kerr_is_diagonal(self):
        space = fock.make_space([5, 6])
        h = models.h_kerr_cross(space, 0.8, 0.6, 0.25).hamiltonian.dense()
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    @pytest.mark.parametrize("dims", [(8,), (50,), (12, 12), (20, 20)])
    def test_diagonal_matches_dense_construction(self, dims):
        # the np.diag construction the sparse diagonal replaced, bit for bit
        # and, above the sparsity threshold, with the same CSR pattern
        space = fock.make_space(dims)
        if len(dims) == 1:
            n = space.number_values(0).astype(float)
            diag = 0.8 * n + 0.5 * 0.3 * n * (n - 1.0)
            h = models.h_kerr_single(space, 0.8, 0.3).hamiltonian
        else:
            na, nb = (space.number_values(k).astype(float) for k in range(2))
            diag = 0.8 * na + 0.6 * nb + 0.5 * 0.25 * na * nb
            h = models.h_kerr_cross(space, 0.8, 0.6, 0.25).hamiltonian
        reference = fock._pack(space, np.diag(diag.astype(complex)))
        assert type(h.matrix) is type(reference.matrix)
        assert np.array_equal(h.dense(), reference.dense())
        if scipy.sparse.issparse(reference.matrix):
            assert np.array_equal(h.matrix.indptr, reference.matrix.indptr)
            assert np.array_equal(h.matrix.indices, reference.matrix.indices)

    @pytest.mark.parametrize("build,dims", [
        (lambda space: models.h_kerr_single(space, 0.8, 0.3), (4096,)),
        (lambda space: models.h_kerr_cross(space, 0.8, 0.6, 0.25), (64, 64)),
    ], ids=["single-4096", "cross-64-64"])
    def test_no_dense_square_temporary(self, build, dims):
        # a dense 4096 x 4096 complex diagonal would be 268 MB
        build(fock.make_space([2] * len(dims)))  # imports outside the trace
        space = fock.make_space(dims)
        tracemalloc.start()
        try:
            build(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestNPhoton:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_charge_commutes(self, n):
        space = fock.make_space([10, 5])
        m = models.h_nphoton(space, 1.0, 0.2, n)
        assert m.hamiltonian.commutator(m.charge("M")).max_abs() < 1e-10

    def test_three_photon_element(self):
        # <3,0|H_int|0,1> = kappa_3 sqrt(3!)
        space = fock.make_space([6, 4])
        m = models.h_nphoton(space, 1.0, 0.2, 3)
        off = _element(m, (3, 0), (0, 1))
        assert abs(off - 0.2 * np.sqrt(6)) < 1e-12

    def test_signal_dim_guard(self):
        with pytest.raises(TruncationError):
            models.h_nphoton(fock.make_space([3, 4]), 1.0, 0.2, 3)

    def test_n_validation(self):
        with pytest.raises(ParameterError):
            models.h_nphoton(fock.make_space([6, 4]), 1.0, 0.2, 1)


class TestParametricPump:
    def test_hermiticity_defect_zero(self):
        space = fock.make_space([12])
        m = models.h_parametric_classical_pump(space, 0.3, 5.0 * np.exp(0.7j))
        assert m.hamiltonian.hermiticity_defect() == 0.0

    def test_two_photon_element(self):
        # <2|H|0> = i (kappa/2) sqrt(N_p) e^{i phi} sqrt(2)
        space = fock.make_space([12])
        kappa, beta, phi = 0.3, 4.0, 0.45
        m = models.h_parametric_classical_pump(space, kappa, beta * np.exp(1j * phi))
        got = m.hamiltonian.dense()[2, 0]
        want = 1j * (kappa / 2) * beta * np.exp(1j * phi) * np.sqrt(2)
        assert abs(got - want) < 1e-13

    def test_zero_pump_rejected(self):
        with pytest.raises(ParameterError):
            models.h_parametric_classical_pump(fock.make_space([8]), 0.2, 0.0)


class TestDisplacedPump:
    def test_reduces_to_parametric_plus_fluctuation(self):
        space = fock.make_space([8, 6])
        kappa, beta = 0.3, 5.0
        m = models.h_chi2_displaced_pump(space, kappa, beta)
        # signal-only block at zero fluctuation photons: <2,0|H|0,0>
        got = _element(m, (2, 0), (0, 0))
        want = 1j * (kappa / 2) * beta * np.sqrt(2)
        assert abs(got - want) < 1e-13

    def test_hermitian(self):
        m = models.h_chi2_displaced_pump(fock.make_space([8, 6]), 0.3, 5.0)
        assert m.hamiltonian.hermiticity_defect() < 1e-14


class TestDpoModel:
    def test_pure_damping_limit(self):
        space = fock.make_space([5, 5])
        m = models.dpo_model(space, 0.0, 0.0, 0.5, 0.8)
        assert m.hamiltonian.max_abs() == 0.0
        assert len(m.dissipators) == 2

    def test_hermitian(self):
        m = models.dpo_model(fock.make_space([6, 5]), 0.4, 1.5, 0.5, 0.8)
        assert m.hamiltonian.hermiticity_defect() < 1e-14

    def test_drive_element(self):
        space = fock.make_space([5, 5])
        m = models.dpo_model(space, 0.0, 1.5, 0.5, 0.8)
        got = _element(m, (0, 1), (0, 0))
        assert abs(got - 1.5j) < 1e-13

    def test_negative_rate_rejected(self):
        with pytest.raises(ParameterError):
            models.dpo_model(fock.make_space([5, 5]), 0.4, 1.5, -0.1, 0.8)


class TestModelSpecValidation:
    def test_non_hermitian_rejected(self):
        space = fock.make_space([5])
        with pytest.raises(ContractError):
            models.ModelSpec(space, fock.annihilation(space, 0))

    def test_bad_charge_rejected(self):
        space = fock.make_space([5])
        h = fock.number_operator(space, 0)
        bad_charge = fock.quadrature(space, 0, 0.0)
        with pytest.raises(ContractError):
            models.ModelSpec(space, h, charges={"bad": bad_charge})

    @pytest.mark.parametrize("build, error", [
        (lambda s: fock.QuantumState(s, "pure", np.array([np.nan, 0.0, 0.0])), ContractError),
        (lambda s: fock.QuantumState(s, "density", np.full((3, 3), np.nan)), ContractError),
        (lambda s: models.ModelSpec(s, fock.FieldOperator(s, np.full((3, 3), np.nan))),
         ContractError),
        (lambda s: models.ModelSpec(s, fock.number_operator(s, 0),
                                    dissipators=((fock.annihilation(s, 0), np.nan),)),
         ParameterError),
        (lambda s: oscillator.DpoParams(np.nan, 1.0, 1.0, 1.0), ParameterError),
        (lambda s: oscillator.DpoParams(0.2, 1.0, np.nan, 1.0), ParameterError),
        (lambda s: media.TwoLevelParams(np.nan, 1.0), ParameterError),
        (lambda s: media.TwoLevelParams(1.0, np.nan), ParameterError),
        (lambda s: media.DispersionCoeffs(np.nan), ParameterError),
        (lambda s: media.DispersionCoeffs(1.0, np.nan), ParameterError),
        (lambda s: media.DispersionCoeffs(1.0, 0.0, np.nan), ParameterError),
        (lambda s: soliton.FiberParams(np.nan, -1.0), ParameterError),
        (lambda s: soliton.FiberParams(1.0, np.nan), ParameterError),
        (lambda s: soliton.SpatialGrid(np.nan, 64), ParameterError),
        (lambda s: fock.thermal_state(s, [np.nan]), ParameterError),
    ], ids=["pure-nan", "density-nan", "hamiltonian-nan", "rate-nan", "dpo-kappa-nan",
            "dpo-gamma_a-nan", "two_level-delta-nan", "two_level-gE-nan",
            "dispersion-beta_nu-nan", "dispersion-prime-nan", "dispersion-dblprime-nan",
            "fiber-dispersion-nan", "fiber-g3-nan", "grid-extent-nan", "thermal-nbar-nan"])
    def test_non_finite_input_rejected(self, build, error):
        # each check is written so that a NaN fails it
        with pytest.raises(error):
            build(fock.make_space([3]))
