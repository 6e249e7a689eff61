import numpy as np
import pytest

from nlo_quanta import closed_form as cf
from nlo_quanta import diagnostics as dg
from nlo_quanta import evolve, fock, models
from nlo_quanta.errors import ParameterError


class TestParaSolution:
    def test_identity_at_zero(self):
        sol = cf.para_solution(0.0, 0.3)
        assert sol.cosh_coeff == 1.0
        assert sol.sinh_coeff == 0.0

    @pytest.mark.parametrize("u,phi", [(0.3, 0.0), (1.1, 0.8), (2.0, -1.4)])
    def test_symplectic(self, u, phi):
        sol = cf.para_solution(u, phi)
        assert abs(abs(sol.cosh_coeff) ** 2 - abs(sol.sinh_coeff) ** 2 - 1.0) < 1e-12

    def test_mean_photon_vs_displaced_pump_evolution(self):
        # vacuum input: <n> = sinh^2 u, checked against the full two-mode
        # chi2 evolution with a 400-photon coherent pump
        n_pump, kappa, u = 400.0, 0.02, 0.3
        space = fock.make_space([30, 40])
        model = models.h_chi2_displaced_pump(space, kappa, np.sqrt(n_pump))
        res = evolve.evolve_pure(model, fock.vacuum_state(space),
                                 [u / (kappa * np.sqrt(n_pump))])
        n_sim = fock.expectation(res.states[0], fock.number_operator(space, 0)).real
        assert abs(n_sim - np.sinh(u) ** 2) / np.sinh(u) ** 2 < 0.02


class TestParaVariances:
    def test_vacuum_at_zero(self):
        assert cf.para_variances(0.0, 0.9) == (0.25, 0.25)

    def test_phase_zero_squeezing(self):
        v1, v2 = cf.para_variances(0.7, 0.0)
        assert abs(v1 - np.exp(1.4) / 4) < 1e-14
        assert abs(v2 - np.exp(-1.4) / 4) < 1e-14

    def test_phase_pi_swaps(self):
        v1, v2 = cf.para_variances(0.7, np.pi)
        w1, w2 = cf.para_variances(0.7, 0.0)
        assert abs(v1 - w2) < 1e-14 and abs(v2 - w1) < 1e-14

    @pytest.mark.parametrize("u", [0.2, 0.8, 1.5])
    @pytest.mark.parametrize("phi", [0.0, 0.4, np.pi / 2, np.pi])
    def test_uncertainty_product(self, u, phi):
        v1, v2 = cf.para_variances(u, phi)
        assert v1 * v2 >= 1 / 16 - 1e-14
        at_boundary = min(abs(phi), abs(phi - np.pi)) < 1e-12
        assert (abs(v1 * v2 - 1 / 16) < 1e-14) == at_boundary


class TestPumpNoise:
    def test_u_zero_value(self):
        for n_pump in (10.0, 1e4):
            assert abs(cf.phase_averaged_var_x2(0.0, n_pump)
                       - (0.25 + 1 / (64 * n_pump))) < 1e-15

    def test_infinite_pump_limit(self):
        assert abs(cf.phase_averaged_var_x2(0.9, 1e14) - np.exp(-1.8) / 4) < 1e-10

    def test_noise_only_degrades(self):
        for u in np.linspace(0.0, 3.0, 13):
            for n_pump in (10.0, 1e3, 1e6):
                assert cf.phase_averaged_var_x2(u, n_pump) \
                    >= cf.para_variances(u, 0.0)[1]

    def test_max_squeezing_values(self):
        u_star, var_min = cf.max_squeezing(1e4)
        assert abs(var_min - 1.25e-3) < 1e-13
        assert abs(u_star - 0.25 * np.log(1.6e5)) < 1e-12
        assert abs(cf.max_squeezing(1.0)[1] - 0.125) < 1e-14

    @pytest.mark.parametrize("n_pump", [3.0, 1e2, 1e5, 1e8])
    def test_scaling_identity(self, n_pump):
        _, var_min = cf.max_squeezing(n_pump)
        assert abs(var_min * 8 * np.sqrt(n_pump) - 1.0) < 1e-12

    def test_corrected_limits(self):
        assert abs(cf.corrected_var_x2(0.8, 1e14) - np.exp(-1.6) / 4) < 1e-10
        for u in np.linspace(0.0, 3.0, 13):
            assert cf.corrected_var_x2(u, 50.0) <= cf.phase_averaged_var_x2(u, 50.0)

    def test_correction_small_at_optimum(self):
        for n_pump in (1e2, 1e4):
            u_star, _ = cf.max_squeezing(n_pump)
            third = 3 * np.exp(4 * u_star) / (1024 * n_pump ** 2)
            first_two = cf.phase_averaged_var_x2(u_star, n_pump)
            assert third / first_two < 0.2

    def test_corrected_vs_brute_force(self):
        # converged two-mode evolution with a 25-photon coherent pump
        n_pump, kappa = 25.0, 0.05
        space = fock.make_space([60, 130])
        a = fock.annihilation(space, 0)
        b = fock.annihilation(space, 1)
        half = (0.5 * kappa) * (b @ (a.dag() @ a.dag()))
        h = 1j * half - 1j * half.dag()
        model = models.ModelSpec(space, h)
        psi0 = fock.coherent_state(space, [0.0, np.sqrt(n_pump)], tail_tol=1e-8)
        x2 = fock.quadrature(space, 0, np.pi / 2)
        for u in (0.6, 1.2):
            res = evolve.evolve_pure(model, psi0, [u / (kappa * np.sqrt(n_pump))])
            v_sim = fock.variance(res.states[0], x2)
            assert abs(v_sim - cf.corrected_var_x2(u, n_pump)) / v_sim < 0.15

    def test_rejects_bad_pump(self):
        with pytest.raises(ParameterError):
            cf.phase_averaged_var_x2(0.3, 0.0)


class TestKerrClosedForms:
    def test_kappa_zero_free_rotation(self):
        val = cf.kerr_mean_amplitude(1.5, 0.7, 0.0, 2.0)
        assert abs(val - 1.5 * np.exp(-0.7j * 2.0)) < 1e-14

    def test_revival(self):
        alpha, omega, kappa = 2.0, 1.1, 0.5
        t = 2 * np.pi / kappa
        val = cf.kerr_mean_amplitude(alpha, omega, kappa, t)
        assert abs(val - alpha * np.exp(-1j * omega * t)) < 1e-12

    def test_periodicity(self):
        alpha, kappa = 1.2, 0.37
        for t in (0.4, 1.9):
            v1 = cf.kerr_mean_amplitude(alpha, 0.0, kappa, t)
            v2 = cf.kerr_mean_amplitude(alpha, 0.0, kappa, t + 2 * np.pi / kappa)
            assert abs(v1 - v2) < 1e-12

    def test_matches_fock_oracle(self):
        space = fock.make_space([50])
        alpha, omega, kappa = 2.0, 0.0, 1.0
        model = models.h_kerr_single(space, omega, kappa)
        res = evolve.evolve_pure(model, fock.coherent_state(space, [alpha]), [0.1])
        sim = fock.expectation(res.states[0], fock.annihilation(space, 0))
        assert abs(sim - cf.kerr_mean_amplitude(alpha, omega, kappa, 0.1)) < 1e-10

    def test_gaussian_approximation_short_time(self):
        alpha, kappa = 2.0, 0.02
        for t in (0.0, 0.5, 1.0):
            exact = cf.kerr_mean_amplitude(alpha, 0.0, kappa, t)
            approx = cf.kerr_mean_amplitude_gaussian(alpha, 0.0, kappa, t)
            assert abs(exact - approx) < 2e-3


class TestQndPhaseShift:
    def test_no_pump_photons(self):
        val = cf.qnd_phase_shift(1.0 + 0.5j, 0.8, 0.3, 0, 2.0)
        assert abs(val - (1.0 + 0.5j) * np.exp(-1j * 0.8 * 2.0)) < 1e-14

    def test_photon_number_readout_step(self):
        t, kappa = 1.7, 0.3
        shift0 = np.angle(cf.qnd_phase_shift(1.0, 0.0, kappa, 4, t))
        shift1 = np.angle(cf.qnd_phase_shift(1.0, 0.0, kappa, 5, t))
        assert abs((shift0 - shift1) - kappa * t / 2) < 1e-12

    def test_matches_cross_kerr_evolution(self):
        space = fock.make_space([25, 7])
        omega1, omega2, kappa = 0.8, 0.0, 0.3
        model = models.h_kerr_cross(space, omega1, omega2, kappa)
        n_b, t = 3, 1.3
        psi0 = fock.coherent_state(fock.make_space([25]), [1.1])
        vec = np.kron(psi0.data, fock.fock_state(fock.make_space([7]), [n_b]).data)
        joint = fock.QuantumState(space, "pure", vec)
        res = evolve.evolve_pure(model, joint, [t])
        sim = fock.expectation(res.states[0], fock.annihilation(space, 0))
        assert abs(sim - cf.qnd_phase_shift(1.1, omega1, kappa, n_b, t)) < 1e-10


class TestKerrBeamSplitter:
    def test_zero_reflection_zero_excess(self):
        res = cf.kerr_bs_excess(4.0, 0.0, 0.25, 0.0, 1.0)
        assert res.excess == 0.0

    def test_optimum_formula(self):
        alpha_mag, phi = 4.0, 0.25
        opt = cf.kerr_bs_optimum(alpha_mag, phi)
        s = (alpha_mag * phi) ** 2
        want = -2 * alpha_mag ** 3 * phi * np.exp(-s) / (1 - np.exp(-2 * s))
        assert abs(opt.excess - want) < 1e-12
        want_n = alpha_mag ** 2 + alpha_mag * phi * np.exp(-s / 2) / (1 - np.exp(-2 * s))
        assert abs(opt.mean_n - want_n) < 1e-12

    def test_vacuum_input_optimum_is_trivial(self):
        # with no amplitude the excess vanishes for every reflected amplitude
        for r in (0.0, 0.5, 2.0):
            assert cf.kerr_bs_excess(0.0, 0.0, 0.25, r, 1.0).excess == 0.0
        opt = cf.kerr_bs_optimum(0.0, 0.25)
        assert (opt.excess, opt.mean_n, opt.r_opt) == (0.0, 0.0, 0.0)

    def test_optimum_extremizes_excess(self):
        # at |alpha| phi = 1 the printed optimum matches direct minimization
        alpha_mag, phi = 4.0, 0.25
        opt = cf.kerr_bs_optimum(alpha_mag, phi)
        eta = np.pi / 2  # theta = 0, |alpha|^2 phi absorbed into angle choice
        best = cf.kerr_bs_excess(alpha_mag, 0.0, phi, opt.r_opt,
                                 eta - alpha_mag ** 2 * phi).excess
        assert abs(best - opt.excess) < 1e-10
        for r in (0.5 * opt.r_opt, 1.5 * opt.r_opt):
            other = cf.kerr_bs_excess(alpha_mag, 0.0, phi, r,
                                      eta - alpha_mag ** 2 * phi).excess
            assert other > best

    def test_validity_warning(self):
        assert cf.kerr_bs_excess(10.0, 0.0, 0.5, 0.3, 0.0).validity_warning is not None
        assert cf.kerr_bs_excess(4.0, 0.0, 0.25, 0.3, 0.0).validity_warning is None

    def test_against_full_quantum_pipeline(self):
        # |alpha| phi = 1 regime; full simulation within 10% of Eq-level optimum
        alpha_mag, phi = 4.0, 0.25
        opt = cf.kerr_bs_optimum(alpha_mag, phi)
        dim = 60
        kerr_space = fock.make_space([dim])
        st = evolve.evolve_pure(models.h_kerr_single(kerr_space, 0.0, 1.0),
                                fock.coherent_state(kerr_space, [alpha_mag]),
                                [phi]).states[0]
        transmissivity = 0.96
        eta = np.pi / 2 - alpha_mag ** 2 * phi
        beta = opt.r_opt / np.sqrt(1 - transmissivity) * np.exp(1j * eta)
        joint_space = fock.make_space([dim, dim])
        vec = np.kron(st.data, fock.coherent_state(fock.make_space([dim]), [beta]).data)
        joint = fock.QuantumState(joint_space, "pure", vec / np.linalg.norm(vec))
        out = fock.apply_operator(fock.beam_splitter(joint_space, transmissivity), joint)
        sim = dg.mandel_excess(out, 0).value
        assert sim < 0
        assert abs(sim - opt.excess) / abs(opt.excess) < 0.10


class TestPhaseMatching:
    def test_zero_mismatch(self):
        val = cf.phase_match_h([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
        assert abs(val - 6.0) < 1e-12

    def test_sine_zero(self):
        lengths = [2.0, 1.0, 1.0]
        val = cf.phase_match_h([2 * np.pi / 2.0, 0.0, 0.0], lengths)
        assert abs(val) < 1e-12

    def test_even_under_negation(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            dk = rng.standard_normal(3)
            lengths = np.abs(rng.standard_normal(3)) + 0.5
            assert abs(cf.phase_match_h(dk, lengths)
                       - cf.phase_match_h(-dk, lengths)) < 1e-12

    def test_continuity_at_small_k(self):
        lengths = [1.3, 1.0, 1.0]
        a = cf.phase_match_h([1e-9, 0.0, 0.0], lengths)
        b = cf.phase_match_h([1e-7, 0.0, 0.0], lengths)
        assert abs(a - b) < 1e-10


class TestDownConversionKernel:
    def test_zero_limit_value(self):
        k0 = 3.0
        pt = cf.downconv_kernel(0.0, k0)
        assert abs(pt.value - k0 ** 3 / 6.0) < 1e-12

    def test_continuity_toward_zero(self):
        k0 = 3.0
        devs = [abs(cf.downconv_kernel(10.0 ** (-k) / k0, k0).value - k0 ** 3 / 6)
                for k in range(2, 7)]
        assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))

    def test_series_closed_form_crossover(self):
        # both evaluation branches agree near the crossover point
        k0 = 2.0
        for dz in (0.49999 / k0, 0.50001 / k0, 0.9 / k0, 1.5 / k0):
            closed = 2j * (1 - np.exp(1j * k0 * dz)) / dz ** 3 \
                - k0 * (1 + np.exp(1j * k0 * dz)) / dz ** 2
            assert abs(cf.downconv_kernel(dz, k0).value - closed) < 1e-9 * k0 ** 3

    def test_quadrature_oracle(self):
        k0 = 3.0
        for dz in (0.0, 0.7, 2.9, 11.0):
            closed = cf.downconv_kernel(dz, k0).value
            quad = cf.downconv_kernel_quadrature(dz, k0, 20001)
            assert abs(closed - quad) / abs(closed) < 1e-6

    def test_decay_exponent(self):
        k0 = 3.0
        ms = np.arange(3, 60)
        dzs = 2 * np.pi * ms / k0
        vals = [abs(cf.downconv_kernel(dz, k0).value) for dz in dzs]
        slope = np.polyfit(np.log(dzs), np.log(vals), 1)[0]
        assert abs(-slope - 2.0) < 0.1

    def test_decay_exponent_fit(self):
        # both envelope ranges in use (the CLI's m < 40, criterion 11's m < 60)
        for k0 in (2.5, 3.0, 3.5):
            for m_stop in (40, 60):
                assert abs(cf.downconv_decay_exponent(k0, m_stop) - 2.0) < 0.1

    def test_symmetrized_branches(self):
        k0 = 3.0
        dz = 1.3
        v_plus = cf.downconv_kernel(dz, k0).value
        v_minus = cf.downconv_kernel(-dz, k0).value
        assert abs(cf.downconv_kernel_symmetrized(dz, k0) - (v_plus + v_minus)) < 1e-12
        # real integrand weight makes the exchange branch the conjugate
        assert abs(v_minus - np.conj(v_plus)) < 1e-12

    def test_k0_validation(self):
        with pytest.raises(ParameterError):
            cf.downconv_kernel(0.5, 0.0)
