import numpy as np
import pytest

from nlo_quanta import soliton
from nlo_quanta.errors import NumericsError, ParameterError, TruncationError


def _fiber(n0=25, g3=-0.05, widths=24.0, points=1024):
    return soliton.soliton_fiber(2.0, g3, n0, widths, points)


class TestG3FromFiber:
    def test_zero_beta3(self):
        assert soliton.g3_from_fiber(0.0, 1.0, 1.0, 1.0, 1.0) == 0.0

    def test_sign_follows_beta3(self):
        assert soliton.g3_from_fiber(-2.0, 1.0, 1.0, 1.0, 1.0) < 0
        assert soliton.g3_from_fiber(2.0, 1.0, 1.0, 1.0, 1.0) > 0

    def test_quadratic_in_k1(self):
        g1 = soliton.g3_from_fiber(-1.0, 1.0, 1.0, 2.0, 3.0)
        g2 = soliton.g3_from_fiber(-1.0, 1.0, 2.0, 2.0, 3.0)
        assert abs(g2 / g1 - 4.0) < 1e-12

    def test_area_validation(self):
        with pytest.raises(ParameterError):
            soliton.g3_from_fiber(1.0, 0.0, 1.0, 1.0, 1.0)


class TestHartreeProfile:
    def test_real_symmetric_at_origin(self):
        p = _fiber()
        prof = soliton.hartree_profile(25, 0.0, 0.0, p, 0.0)
        assert np.abs(prof.values.imag).max() < 1e-14
        vals = prof.values.real
        # even under x -> -x on the symmetric grid interior
        assert np.abs(vals[1:] - vals[1:][::-1]).max() < 1e-12

    def test_unit_norm(self):
        p = _fiber()
        for n in (25, 40, 60):
            assert abs(soliton.hartree_profile(n, 0.0, 0.0, p, 0.0).norm_sq() - 1.0) < 1e-8

    def test_width_scaling(self):
        p = _fiber()
        n = 13
        assert abs(p.sech_scale(2 * n - 1) - p.sech_scale(n) / 2) < 1e-12
        # FWHM of |h|^2 measured on the grid follows the same halving
        wide = soliton.hartree_profile(n, 0.0, 0.0, p, 0.0)
        narrow = soliton.hartree_profile(2 * n - 1, 0.0, 0.0, p, 0.0)
        assert abs(_fwhm(wide) / _fwhm(narrow) - 2.0) < 0.02

    def test_narrow_grid_rejected(self):
        p = _fiber(widths=6.0)
        with pytest.raises(TruncationError):
            soliton.hartree_profile(25, 0.0, 0.0, p, 0.0)

    def test_effective_equation_residual(self):
        p = _fiber(n0=10, points=2048)
        for n in (10, 25):
            assert soliton.hartree_residual(n, p) < 1e-4

    def test_phase_rate(self):
        p = _fiber()
        n = 25
        mu = p.phase_rate(n)
        assert abs(mu - p.g3 ** 2 * (n - 1) ** 2 / (2 * p.omega1_dblprime)) < 1e-14
        h0 = soliton.hartree_profile(n, 0.0, 0.0, p, 0.0)
        ht = soliton.hartree_profile(n, 0.0, 0.0, p, 0.3)
        np.testing.assert_allclose(ht.values, h0.values * np.exp(1j * mu * 0.3),
                                   atol=1e-12)


def _fwhm(profile):
    mag = np.abs(profile.values) ** 2
    half = mag.max() / 2
    above = np.nonzero(mag >= half)[0]
    return (above[-1] - above[0]) * profile.grid.dx


class TestSplitStep:
    def test_free_gaussian_dispersion(self):
        p = _fiber(g3=-1e-30)  # effectively free
        pfree = soliton.FiberParams(p.omega1_dblprime, 0.0, p.grid)
        x = p.grid.x
        sigma = 2.0
        psi0 = (2 * np.pi * sigma ** 2) ** (-0.25) * np.exp(-(x ** 2) / (4 * sigma ** 2))
        start = soliton.FieldProfile(p.grid, psi0.astype(complex))
        t = 1.7
        out = soliton.split_step_nlse(start, pfree, t, 400)
        k = p.grid.wavenumbers
        analytic = np.fft.ifft(np.fft.fft(psi0)
                               * np.exp(-1j * (p.omega1_dblprime / 2) * k ** 2 * t))
        assert np.abs(out.values - analytic).max() < 1e-6

    def test_soliton_shape_invariance(self):
        n0 = 25
        p = _fiber(n0)
        prof = soliton.classical_soliton_profile(n0, 0.0, 0.0, p, 0.0)
        period = p.soliton_period(n0)
        steps = int(np.ceil(period / (p.grid.dx ** 2 / (np.pi * p.omega1_dblprime))))
        out = soliton.split_step_nlse(prof, p, period, steps)
        dev = np.sqrt(np.sum((np.abs(out.values) - np.abs(prof.values)) ** 2)
                      * p.grid.dx)
        assert dev < 1e-3

    def test_norm_conservation(self):
        n0 = 25
        p = _fiber(n0)
        prof = soliton.classical_soliton_profile(n0, 0.0, 0.0, p, 0.0)
        out = soliton.split_step_nlse(prof, p, 1.0, 2000)
        assert abs(out.norm_sq() - prof.norm_sq()) / prof.norm_sq() < 1e-10

    def test_time_reversal(self):
        n0 = 25
        p = _fiber(n0)
        prof = soliton.classical_soliton_profile(n0, 0.0, 0.0, p, 0.0)
        forward = soliton.split_step_nlse(prof, p, 0.9, 1200)
        back = soliton.split_step_nlse(forward, p, -0.9, 1200)
        assert np.abs(back.values - prof.values).max() < 1e-8

    def test_energy_conservation(self):
        n0 = 25
        p = _fiber(n0)
        prof = soliton.classical_soliton_profile(n0, 0.0, 0.0, p, 0.0)
        period = p.soliton_period(n0)
        steps = int(np.ceil(period / (p.grid.dx ** 2 / (np.pi * p.omega1_dblprime))))
        out = soliton.split_step_nlse(prof, p, period, steps)
        e0 = soliton.nlse_energy(prof, p)
        e1 = soliton.nlse_energy(out, p)
        assert abs(e1 - e0) / abs(e0) < 1e-6

    def test_galilean_boost_consistency(self):
        n0 = 25
        p = _fiber(n0)
        xi = 0.05
        prof = soliton.classical_soliton_profile(n0, xi, 0.0, p, 0.0)
        t = 0.8
        steps = int(np.ceil(t / (p.grid.dx ** 2 / (np.pi * p.omega1_dblprime))))
        out = soliton.split_step_nlse(prof, p, t, steps)
        analytic = soliton.classical_soliton_profile(n0, xi, 0.0, p, t)
        dev = np.sqrt(np.sum(np.abs(out.values - analytic.values) ** 2) * p.grid.dx)
        assert dev < 1e-3

    def test_matched_amplitude_is_stationary_solution(self):
        # scaling away from sqrt(n-1) breaks shape invariance
        n0 = 25
        p = _fiber(n0)
        base = soliton.hartree_profile(n0, 0.0, 0.0, p, 0.0)
        wrong = soliton.FieldProfile(p.grid, 0.5 * np.sqrt(n0 - 1) * base.values)
        period = p.soliton_period(n0)
        steps = int(np.ceil(period / (p.grid.dx ** 2 / (np.pi * p.omega1_dblprime))))
        out = soliton.split_step_nlse(wrong, p, period, steps)
        dev = np.sqrt(np.sum((np.abs(out.values) - np.abs(wrong.values)) ** 2)
                      * p.grid.dx)
        assert dev > 1e-2


def _reference_split_step(psi0, p, t_final, n_steps):
    """The one-row split-step loop on numpy.fft, finiteness checked every step."""
    dt = t_final / n_steps
    k = psi0.grid.wavenumbers
    half_kinetic = np.exp(-0.5j * dt * (p.omega1_dblprime / 2.0) * k ** 2)
    psi = psi0.values.astype(complex)
    for _ in range(n_steps):
        psi = np.fft.ifft(half_kinetic * np.fft.fft(psi))
        psi = psi * np.exp(-2j * p.g3 * dt * np.abs(psi) ** 2)
        psi = np.fft.ifft(half_kinetic * np.fft.fft(psi))
        if not np.isfinite(psi).all():
            raise NumericsError(
                f"split-step produced non-finite values (dt={dt:.3e}, dx={psi0.grid.dx:.3e})")
    return psi


def _cli_snapshots(p, n0, periods=1.0, snapshots=5):
    """Snapshot times and step counts of the soliton command at its defaults."""
    t_final = periods * p.soliton_period(n0)
    steps = int(np.ceil(t_final / (p.grid.dx ** 2 / (np.pi * p.omega1_dblprime))))
    times = np.linspace(0.0, t_final, snapshots)[1:]
    return times, [max(1, int(round(steps * (t / t_final)))) for t in times]


class TestBatchedSplitStep:
    """split_step_snapshots and split_step_nlse against the reference loop, bit for bit."""

    def _assert_bit_identical(self, psi0, p, times, n_steps, single=None):
        """Every batched output, and split_step_nlse at the indices ``single``
        (default: all), equals the reference loop's float64 view."""
        batched = soliton.split_step_snapshots(psi0, p, times, n_steps)
        assert len(batched) == len(times)
        for i, (t, n, out) in enumerate(zip(times, n_steps, batched)):
            ref = _reference_split_step(psi0, p, t, n).view(float)
            assert np.array_equal(out.values.view(float), ref)
            assert out.meta_dict() == {"t": t, "steps": n}
            if single is None or i in single:
                one = soliton.split_step_nlse(psi0, p, t, n)
                assert np.array_equal(one.values.view(float), ref)

    def test_default_cli_snapshots(self):
        n0 = 25
        p = _fiber(n0)
        prof = soliton.classical_soliton_profile(n0, 0.0, 0.0, p, 0.0)
        times, n_steps = _cli_snapshots(p, n0)
        dts = [t / n for t, n in zip(times, n_steps)]
        assert dts[0] == dts[1] and len(set(dts)) == 3  # snapshots 1 and 2 share a row
        self._assert_bit_identical(prof, p, times, n_steps, single=(1,))

    def test_many_distinct_steps(self):
        # more rows than pocketfft's SIMD width, so its multi-row path runs
        n0 = 25
        p = _fiber(n0)
        prof = soliton.classical_soliton_profile(n0, 0.2, 1.0, p, 0.0)
        times = [0.013 * (i + 1) for i in range(11)] + [0.026, 0.013]
        n_steps = [3 + (5 * i) % 11 for i in range(11)] + [20, 6]
        assert len({t / n for t, n in zip(times, n_steps)}) >= 9
        self._assert_bit_identical(prof, p, times, n_steps)

    def test_negative_time(self):
        n0 = 25
        p = _fiber(n0, points=256)
        prof = soliton.classical_soliton_profile(n0, 0.0, 0.0, p, 0.0)
        forward = soliton.split_step_nlse(prof, p, 0.3, 400)
        self._assert_bit_identical(forward, p, [-0.3, -0.15, 0.3], [400, 200, 50])

    def test_overflow_raises_numerics_error(self):
        n0 = 25
        p = _fiber(n0, points=128)
        base = soliton.classical_soliton_profile(n0, 0.0, 0.0, p, 0.0)
        huge = soliton.FieldProfile(p.grid, 1e160 * base.values)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError) as ref:
                _reference_split_step(huge, p, 0.1, 5)
            with pytest.raises(NumericsError) as one:
                soliton.split_step_nlse(huge, p, 0.1, 5)
            with pytest.raises(NumericsError) as batched:
                soliton.split_step_snapshots(huge, p, [0.1, 0.2], [5, 4])
        assert str(one.value) == str(batched.value) == str(ref.value)

    @pytest.mark.parametrize("n_steps", [[0], [5, 0], [3, -2, 4]])
    def test_step_count_below_one_rejected(self, n_steps):
        p = _fiber(25, points=128)
        prof = soliton.classical_soliton_profile(25, 0.0, 0.0, p, 0.0)
        with pytest.raises(ParameterError):
            soliton.split_step_snapshots(prof, p, [0.1] * len(n_steps), n_steps)
        with pytest.raises(ParameterError):
            soliton.split_step_nlse(prof, p, 0.1, min(n_steps))


class TestMeanField:
    def test_t0_matches_soliton(self):
        n0 = 25
        p = _fiber(n0)
        alpha = np.sqrt(float(n0))
        mf = soliton.mean_field(alpha, p, 0.0)
        ref = alpha * soliton.hartree_profile(n0, 0.0, 0.0, p, 0.0).values
        assert abs(mf.peak() - np.abs(ref).max()) / np.abs(ref).max() < 0.01

    def test_short_time_regime(self):
        n0 = 25
        p = _fiber(n0)
        alpha = np.sqrt(float(n0))
        t = 0.1 / (p.g3 ** 2 * n0 ** 1.5)  # dephasing parameter 0.1
        mf = soliton.mean_field(alpha, p, t)
        assert mf.meta_dict()["dephasing_parameter"] <= 0.1 + 1e-12
        ref = np.abs(alpha * soliton.hartree_profile(n0, 0.0, 0.0, p, t).values)
        rel = abs(mf.peak() - ref.max()) / ref.max()
        assert rel < 0.01

    def test_peak_decays_monotonically(self):
        n0 = 25
        p = _fiber(n0)
        alpha = np.sqrt(float(n0))
        peaks = [soliton.mean_field(alpha, p, t).peak()
                 for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b < a for a, b in zip(peaks, peaks[1:]))

    def test_series_window_independence(self):
        # widening the documented window does not move the t = 0 result
        n0 = 36
        p = _fiber(n0)
        alpha = np.sqrt(float(n0))
        base = soliton.mean_field(alpha, p, 0.0)
        wider = soliton.SERIES_WINDOW_SIGMAS
        try:
            soliton.SERIES_WINDOW_SIGMAS = wider + 4.0
            widened = soliton.mean_field(alpha, p, 0.0)
        finally:
            soliton.SERIES_WINDOW_SIGMAS = wider
        assert np.abs(base.values - widened.values).max() < 1e-8

    def test_overlap_phase_model(self):
        # adjacent-profile overlap phase ~ g3^2 n (2n-1) t / (2 w'')
        p = _fiber(20)
        t = 0.05
        for n in (20, 40):
            a = soliton.hartree_profile(n, 0.0, 0.0, p, t).values
            b = soliton.hartree_profile(n + 1, 0.0, 0.0, p, t).values
            overlap = complex(np.vdot(a, b) * p.grid.dx)
            assert abs(overlap) <= 1.0 + 1e-12
            got = np.angle(overlap ** n)
            want = np.angle(soliton.overlap_phase_model(n, p, t))
            assert abs(got - want) < 0.01 * abs(want)

    def test_overlap_approaches_unity(self):
        p = _fiber(20)
        mags = []
        for n in (20, 40, 79):
            a = soliton.hartree_profile(n, 0.0, 0.0, p, 0.0).values
            b = soliton.hartree_profile(n + 1, 0.0, 0.0, p, 0.0).values
            mags.append(abs(complex(np.vdot(a, b) * p.grid.dx)))
        assert all(m <= 1.0 + 1e-12 for m in mags)
        assert mags[2] > mags[1] > mags[0]

    def test_small_alpha_rejected(self):
        p = _fiber(25)
        with pytest.raises(ParameterError):
            soliton.mean_field(1.0, p, 0.0)

    def test_tail_bound_reported(self):
        p = _fiber(25)
        mf = soliton.mean_field(5.0, p, 0.0)
        assert 0.0 <= mf.meta_dict()["tail_bound"] < 0.01
