import math

import numpy as np
import pytest

from nlo_quanta import media
from nlo_quanta.errors import DomainError, ParameterError
from nlo_quanta.media import EPS0, HBAR, MU0


def test_si_constants_are_codata_2022():
    # written out, so outputs do not follow the installed scipy's CODATA
    # edition; the 2018 edition has eps0 = 8.8541878128e-12 and
    # mu0 = 1.25663706212e-06
    assert EPS0 == 8.8541878188e-12
    assert MU0 == 1.25663706127e-06
    assert HBAR == 6.62607015e-34 / (2 * math.pi)
    # both editions keep eps0 mu0 c^2 = 1 to their quoted digits (c exact)
    assert abs(EPS0 * MU0 * 299792458.0 ** 2 - 1.0) < 1e-11


class TestTwoLevelRoots:
    def test_symmetric_at_resonance_limit(self):
        # delta -> 0 is excluded, but mu_pm -> +-gE as delta -> 0
        p = media.TwoLevelParams(delta=1e-9, gE=0.5)
        mu_p, mu_m = media.two_level_mu(p)
        assert abs(mu_p - 0.5) < 1e-8
        assert abs(mu_m + 0.5) < 1e-8

    def test_ground_branch_vanishes(self):
        p = media.TwoLevelParams(delta=2.0, gE=1e-6)
        mu_p, _ = media.two_level_mu(p)
        assert abs(mu_p) < 1e-11

    def test_reference_value(self):
        p = media.TwoLevelParams(delta=1.0, gE=0.1)
        mu_p, _ = media.two_level_mu(p)
        assert abs(mu_p - 0.00990195) < 1e-7

    @pytest.mark.parametrize("delta,ge", [(1.0, 0.1), (-0.7, 0.4), (2.3, 1.9)])
    def test_quadratic_residual_and_vieta(self, delta, ge):
        p = media.TwoLevelParams(delta=delta, gE=ge)
        for mu in media.two_level_mu(p):
            assert abs(mu ** 2 + delta * mu - ge ** 2) < 1e-12
        mu_p, mu_m = media.two_level_mu(p)
        assert abs(mu_p * mu_m + ge ** 2) < 1e-14
        assert abs(mu_p + mu_m + delta) < 1e-14

    def test_resonance_excluded(self):
        with pytest.raises(ParameterError):
            media.TwoLevelParams(delta=0.0, gE=0.1)


class TestPolarization:
    def test_zero_field_limit(self):
        p = media.TwoLevelParams(delta=1.3, gE=0.0, n_density=2.0, g=1.1)
        want = -2.0 * HBAR * 1.1 ** 2 / 1.3
        assert abs(media.two_level_polarization(p) - want) < 1e-48

    def test_exact_equals_mu_form(self):
        p = media.TwoLevelParams(delta=0.9, gE=0.3, n_density=1.0, g=1.0)
        mu_p, _ = media.two_level_mu(p)
        direct = -1.0 * HBAR * 1.0 * mu_p / (p.gE ** 2 + mu_p ** 2)
        assert abs(media.two_level_polarization(p) - direct) < 1e-46

    def test_attractive_sign(self):
        p = media.TwoLevelParams(delta=1.0, gE=0.2)
        assert media.two_level_polarization(p) < 0

    def test_cubic_series_error_order(self):
        # full-polarization residual (coefficient times field) is O(E0^5)
        e0s = np.logspace(-3.3, -2.3, 12)
        diffs = [abs(media.two_level_polarization(media.TwoLevelParams(1.0, e0))
                     - media.two_level_polarization_cubic(media.TwoLevelParams(1.0, e0)))
                 * e0 for e0 in e0s]
        slope = np.polyfit(np.log(e0s), np.log(diffs), 1)[0]
        assert abs(slope - 5.0) < 0.3


class TestSusceptibilities:
    def test_chi1_sign_flips_with_detuning(self):
        up = media.chi1_two_level(media.TwoLevelParams(delta=1.0, gE=0.0))
        down = media.chi1_two_level(media.TwoLevelParams(delta=-1.0, gE=0.0))
        assert up < 0 < down

    def test_chi3_cubic_detuning(self):
        c1 = media.chi3_two_level(media.TwoLevelParams(delta=1.0, gE=0.0))
        c2 = media.chi3_two_level(media.TwoLevelParams(delta=2.0, gE=0.0))
        assert abs(c2 / c1 - 1 / 8) < 1e-12

    def test_ratio_independent_of_g(self):
        def ratio(g):
            p = media.TwoLevelParams(delta=1.0, gE=0.0, g=g)
            return media.chi3_two_level(p) / media.chi1_two_level(p) ** 2

        assert abs(ratio(2.0) - ratio(5.0)) / abs(ratio(2.0)) < 1e-12
        # the constant is eps0/(3 pi hbar delta)
        assert abs(ratio(2.0) - EPS0 / (3 * np.pi * HBAR * 1.0)) \
            / (EPS0 / (3 * np.pi * HBAR)) < 1e-12

    def test_series_matches_chi_formulas(self):
        # cubic coefficient / chi3 relation fixed by the Fourier convention
        p0 = media.TwoLevelParams(delta=1.2, gE=0.0, g=1.0)
        chi1 = media.chi1_two_level(p0)
        linear_coef = -HBAR / 1.2  # coefficient of E0 in P(t) at unit density
        assert abs(EPS0 * chi1 - linear_coef) < 1e-46


class TestMixingSpectrum:
    def test_single_tone(self):
        chi2 = 4e-12
        spec = dict(media.chi2_mixing_spectrum([(2.0, 1.5)], chi2))
        assert set(spec) == {0.0, 4.0}
        assert abs(spec[0.0] - EPS0 * chi2 * 1.5 ** 2 / 2) < 1e-30
        assert abs(spec[4.0] - EPS0 * chi2 * 1.5 ** 2 / 2) < 1e-30

    def test_two_tone_layout(self):
        spec = dict(media.chi2_mixing_spectrum([(2.0, 1.3), (3.1, 0.7)], 4e-12))
        assert set(spec) == {0.0, 4.0, 6.2, 5.1, 1.1}
        assert abs(spec[5.1] - EPS0 * 4e-12 * 1.3 * 0.7) < 1e-30
        assert abs(spec[1.1] - EPS0 * 4e-12 * 1.3 * 0.7) < 1e-30

    def test_zero_chi2_empty(self):
        assert media.chi2_mixing_spectrum([(2.0, 1.0)], 0.0) == []

    def test_reconstruction_identity(self):
        chi2 = 4e-12
        tones = [(2.0, 1.3), (3.1, 0.7), (0.9, 0.2)]
        spec = media.chi2_mixing_spectrum(tones, chi2)
        ts = np.linspace(0.0, 12.0, 400)
        field = sum(e * np.cos(w * ts) for w, e in tones)
        direct = EPS0 * chi2 * field ** 2
        np.testing.assert_allclose(media.mixing_time_series(spec, ts), direct,
                                   atol=1e-12 * EPS0 * chi2 + 1e-30)

    def test_effective_kerr(self):
        assert media.effective_chi_kerr(1.0, 0.0, 5.0) == 1.0
        chi3 = 4e-24
        corr = media.effective_chi_kerr(1.0, chi3, 1e8) - 1.0
        assert abs(corr - 3e-8) < 1e-12
        # linear in E0^2
        a = media.effective_chi_kerr(0.0, chi3, 2.0)
        b = media.effective_chi_kerr(0.0, chi3, 4.0)
        assert abs(b / a - 4.0) < 1e-12


DISPERSION = media.DispersionCoeffs(
    beta_nu=1.0 / (2.25 * EPS0),
    beta_nu_prime=2e-27 / EPS0,
    beta_nu_dblprime=1e-43 / EPS0,
)


class TestDispersion:
    def test_nondispersive_reduction(self):
        c = media.DispersionCoeffs(beta_nu=1.0 / (2.25 * EPS0))
        k = 1e7
        w_plus, w_minus = media.dispersion_omega(k, c)
        want = k * np.sqrt(c.beta_nu / MU0)
        assert abs(w_plus - want) / want < 1e-14
        assert abs(w_minus - want) / want < 1e-14

    def test_branch_residuals(self):
        for k in np.linspace(1e6, 2e7, 50):
            w_plus, w_minus = media.dispersion_omega(k, DISPERSION)
            assert media.dispersion_residual(k, w_plus, DISPERSION, +1) < 1e-12
            assert media.dispersion_residual(k, w_minus, DISPERSION, -1) < 1e-12

    def test_group_velocity_finite_difference(self):
        for k in (2e6, 8e6, 1.9e7):
            h = 1e-6 * k
            fd = (media.dispersion_omega(k + h, DISPERSION)[0]
                  - media.dispersion_omega(k - h, DISPERSION)[0]) / (2 * h)
            an = media.group_velocity(k, DISPERSION)
            assert abs(fd - an) / an < 1e-6

    def test_denominator_guard(self):
        c = media.DispersionCoeffs(beta_nu=1.0 / EPS0,
                                   beta_nu_dblprime=1e-6)
        with pytest.raises(DomainError):
            media.dispersion_omega(1e7, c)


class TestModeNorm:
    def test_nondispersive_form(self):
        c = media.DispersionCoeffs(beta_nu=1.0 / (2.25 * EPS0))
        k = 5e6
        want = (MU0 * k ** 2 * c.beta_nu) ** 0.25
        assert abs(media.mode_norm_Ak(k, c) - want) / want < 1e-14

    def test_group_velocity_form_agreement_sweep(self):
        # mode_norm_Ak raises if the two forms disagree beyond 1e-10
        for k in np.linspace(1e6, 2e7, 100):
            media.mode_norm_Ak(k, DISPERSION)

    def test_identity_with_derivative_form(self):
        k = 1e7
        a_k = media.mode_norm_Ak(k, DISPERSION)
        w_plus = media.dispersion_omega(k, DISPERSION)[0]
        rhs = MU0 * w_plus - 0.5 * k ** 2 * DISPERSION.beta1_deriv(w_plus)
        assert abs(a_k ** 2 - rhs) / rhs < 1e-12

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            media.mode_norm_Ak(0.0, DISPERSION)
