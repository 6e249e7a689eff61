"""End-to-end acceptance checks tying closed forms to brute-force numerics.

``_CHECKS`` maps each criterion number to its name, its check and its
bounds. A check only measures: it returns a dict of measurements and
context, with no verdict. The bounds map a measured key to the number it
must stay strictly below; they are the package's contract, written once
here and not configurable. :func:`run_criterion`, the one way to run a
check, times it and alone decides its verdict: a criterion passes when
every bounded measurement is below its bound, and a check that raises, or
omits a bounded key, is recorded as FAIL. The ``validate`` CLI command and
the acceptance suite run every check through it.
"""

from __future__ import annotations

import contextvars
import math
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import closed_form as cf
from . import diagnostics as dg
from . import evolve, fock, media, models, oscillator, soliton
from ._blas import serial_blas


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.criterion:2d} {self.name} ({self.seconds:.1f}s)"


def check_squeezed_vacuum_law() -> dict:
    """Parametric variances e^{+-2u}/4 vs displaced-pump Fock evolution.

    A coherent pump with N_p = 400 photons is simulated exactly in the
    displaced frame (signal dim 40, pump-fluctuation dim 60), which is
    unitarily equivalent to the full coherent-pump problem.
    """
    n_pump, kappa = 400.0, 0.02
    space = fock.make_space([40, 60])
    model = models.h_chi2_displaced_pump(space, kappa, np.sqrt(n_pump))
    us = np.linspace(0.1, 0.5, 5)
    times = us / (kappa * np.sqrt(n_pump))
    result = evolve.evolve_pure(model, fock.vacuum_state(space), times)
    x1 = fock.quadrature(space, 0, 0.0)
    x2 = fock.quadrature(space, 0, np.pi / 2)
    devs = []
    for i, u in enumerate(us):
        e1, e2 = cf.para_variances(u, 0.0)
        devs += [abs(fock.variance(result.states[i], x1) - e1) / e1,
                 abs(fock.variance(result.states[i], x2) - e2) / e2]
    return {"worst_rel_dev": float(np.max(devs)), "u_max": 0.5, "n_pump": n_pump, "dims": [40, 60]}


def check_max_squeezing_scaling() -> dict:
    """Numerical minimization of the phase-averaged variance reproduces
    u* = (1/4) ln(16 N_p) and var_min * 8 sqrt(N_p) = 1."""
    from scipy.optimize import brentq

    u_devs, v_devs = [], []
    for n_pump in (1e2, 1e4, 1e6):
        def dvar(u, n_pump=n_pump):
            return -np.exp(-2 * u) / 2.0 + np.exp(2 * u) / (32.0 * n_pump)

        u_ref = 0.25 * np.log(16.0 * n_pump)
        u_num = brentq(dvar, u_ref - 2.0, u_ref + 2.0, xtol=1e-14, rtol=8.9e-16)
        v_num = cf.phase_averaged_var_x2(u_num, n_pump)
        u_star, var_min = cf.max_squeezing(n_pump)
        u_devs += [abs(u_num - u_ref), abs(u_star - u_ref)]
        v_devs += [abs(v_num * 8.0 * np.sqrt(n_pump) - 1.0),
                   abs(var_min * 8.0 * np.sqrt(n_pump) - 1.0)]
    return {"worst_u_dev": float(np.max(u_devs)), "worst_scaling_dev": float(np.max(v_devs))}


def check_conservation_and_parity() -> dict:
    """<M(t)> conservation and even-only signal populations under the
    degenerate chi2 model from a vacuum signal."""
    space = fock.make_space([24, 16])
    model = models.h_two_mode_chi2(space, 1.0, 0.4)
    psi0 = fock.coherent_state(space, [0.0, 1.2])
    times = np.linspace(0.0, 5.0, 50)
    result = evolve.evolve_pure(model, psi0, times)
    m_series = result.expectation_series(model.charge("M")).real
    drift = float(np.abs(m_series - m_series[0]).max())
    odd = np.max([dg.parity_test(state, 0).extras_dict()["q_odd"] for state in result.states])
    return {"M_drift": drift, "max_odd_population": float(odd), "samples": 50}


def _pair_state(theta: float) -> fock.QuantumState:
    """The pair state cos(theta)|00> - sin(theta)|11> on a (5, 5) space."""
    space = fock.make_space([5, 5])
    vec = np.zeros(space.total_dim, dtype=complex)
    vec[space.flat_index((0, 0))] = np.cos(theta)
    vec[space.flat_index((1, 1))] = -np.sin(theta)
    return fock.QuantumState(space, "pure", vec)


def check_entanglement_minimum() -> dict:
    """The pair-state inseparability sum attains 4 - 2 sqrt(2) at
    c0 = cos(pi/8) over the Bloch-angle scan."""
    from scipy.optimize import brentq

    def dsum(theta):
        return dg.duan_simon_sum(_pair_state(theta), 0, 1).value

    thetas = np.linspace(0.0, np.pi / 2, 181)
    values = np.array([dsum(t) for t in thetas])
    bracket_lo = thetas[max(np.argmin(values) - 2, 0)]
    bracket_hi = thetas[min(np.argmin(values) + 2, len(thetas) - 1)]
    h = 1e-6
    theta_star = brentq(lambda t: (dsum(t + h) - dsum(t - h)) / (2 * h),
                        bracket_lo, bracket_hi, xtol=1e-13)
    vmin = dsum(theta_star)
    target = 4.0 - 2.0 * np.sqrt(2.0)
    return {"min_value": float(vmin), "target": float(target),
            "min_dev": float(abs(vmin - target)),
            "c0_dev": float(abs(np.cos(theta_star) - np.cos(np.pi / 8)))}


def check_kerr_exact_mean() -> dict:
    """Kerr mean-field closed form vs Fock evolution at alpha = 2,
    dim 50, including the kappa t = 2 pi revival."""
    space = fock.make_space([50])
    alpha, omega, kappa = 2.0, 1.3, 0.7
    model = models.h_kerr_single(space, omega, kappa)
    psi0 = fock.coherent_state(space, [alpha])
    kts = np.linspace(0.0, 2.0 * np.pi, 100)
    times = kts / kappa
    result = evolve.evolve_pure(model, psi0, times)
    sim = result.expectation_series(fock.annihilation(space, 0))
    exact = np.array([cf.kerr_mean_amplitude(alpha, omega, kappa, t) for t in times])
    worst = float(np.abs(sim - exact).max())
    t_rev = 2.0 * np.pi / kappa
    revival_dev = abs(cf.kerr_mean_amplitude(alpha, omega, kappa, t_rev)
                      - alpha * np.exp(-1j * omega * t_rev))
    return {"worst_abs_dev": worst, "revival_dev": float(revival_dev), "samples": 100}


def check_kerr_bs_subpoissonian() -> dict:
    """Closed-form optimum of the Kerr + beam-splitter scheme vs the
    full quantum pipeline (Kerr evolve, beam splitter, Mandel excess)."""
    alpha_mag, phi = 4.0, 0.25
    opt = cf.kerr_bs_optimum(alpha_mag, phi)
    dim = 60
    kerr_space = fock.make_space([dim])
    kerr_model = models.h_kerr_single(kerr_space, 0.0, 1.0)
    kerr_state = evolve.evolve_pure(
        kerr_model, fock.coherent_state(kerr_space, [alpha_mag]), [phi]).states[0]
    transmissivity = 0.96
    reflectivity = 1.0 - transmissivity
    eta = np.pi / 2 - alpha_mag ** 2 * phi
    beta = opt.r_opt / np.sqrt(reflectivity) * np.exp(1j * eta)
    joint_space = fock.make_space([dim, dim])
    bvec = fock.coherent_state(fock.make_space([dim]), [beta]).data
    joint = np.kron(kerr_state.data, bvec)
    joint_state = fock.QuantumState(joint_space, "pure", joint / np.linalg.norm(joint))
    splitter = fock.beam_splitter(joint_space, transmissivity)
    out_state = fock.apply_operator(splitter, joint_state)
    sim_excess = dg.mandel_excess(out_state, 0).value
    rel = abs(sim_excess - opt.excess) / abs(opt.excess)
    return {"closed_form": float(opt.excess), "simulated": float(sim_excess),
            "rel_dev": float(rel), "transmissivity": transmissivity, "dims": [dim, dim]}


DPO_ACCEPTANCE = dict(kappa=0.25, E0=4.0, gamma_a=1.0, gamma_b=2.0)


def check_dpo_below_threshold() -> dict:
    """Oscillator stability eigenvalues vs closed forms, and the
    (25, 15) Lindblad steady state vs the linearized fluctuation moments
    at threshold_ratio = 0.5."""
    p = oscillator.DpoParams(**DPO_ACCEPTANCE)
    below = oscillator.steady_branches(p)[0]
    evals = oscillator.stability_eigenvalues(p, below)
    expected = np.array([-p.gamma_b, -p.gamma_b,
                         -p.gamma_a + p.kappa * p.E0 / p.gamma_b,
                         -p.gamma_a - p.kappa * p.E0 / p.gamma_b], dtype=complex)
    eig_dev = [_set_distance(evals, expected)]

    p_above = oscillator.DpoParams(0.5, 4.0, 1.0, 1.0)
    branch = oscillator.steady_branches(p_above)[1]
    ga, gb, ke = p_above.gamma_a, p_above.gamma_b, p_above.kappa * p_above.E0
    disc1 = np.sqrt(complex((2 * ga + gb) ** 2 - 8 * ke))
    disc2 = np.sqrt(complex(gb ** 2 - 8 * (ke - ga * gb)))
    expected_above = np.array([0.5 * (-(2 * ga + gb) + disc1), 0.5 * (-(2 * ga + gb) - disc1),
                               0.5 * (-gb + disc2), 0.5 * (-gb - disc2)])
    eig_dev.append(_set_distance(oscillator.stability_eigenvalues(p_above, branch),
                                 expected_above))

    space = fock.make_space([25, 15])
    model = models.dpo_model(space, p.kappa, p.E0, p.gamma_a, p.gamma_b)
    rho = evolve.steady_state(model)
    a_op = fock.annihilation(space, 0)
    n_sim = fock.expectation(rho, a_op.dag() @ a_op).real
    v2_sim = fock.variance(rho, fock.quadrature(space, 0, np.pi / 2))
    n_ref, _ = oscillator.below_threshold_moments(p)
    v2_ref = oscillator.below_threshold_squeezing(p)
    return {"eigenvalue_dev": float(np.max(eig_dev)),
            "n_fluct_rel_dev": float(abs(n_sim - n_ref) / n_ref),
            "squeezing_rel_dev": float(abs(v2_sim - v2_ref) / v2_ref),
            "threshold_limit_dev": abs(oscillator.squeezing_threshold_limit() - 0.125),
            "threshold_ratio": p.threshold_ratio, "dims": [25, 15]}


def _set_distance(got: np.ndarray, expected: np.ndarray) -> float:
    """Max over expected values of the distance to the nearest computed one."""
    return float(np.max(np.min(np.abs(np.subtract.outer(got, expected)), axis=0)))


def check_two_level_susceptibilities() -> dict:
    """Exact-minus-cubic polarization scales as O(E0^5); chi^(1) and
    chi^(3) reproduce their closed forms exactly."""
    e0s = np.logspace(-3.3, -2.3, 12)
    diffs = []
    for e0 in e0s:
        p = media.TwoLevelParams(delta=1.0, gE=e0)
        diffs.append(abs(media.two_level_polarization(p)
                         - media.two_level_polarization_cubic(p)) * e0)
    slope = float(np.polyfit(np.log(e0s), np.log(diffs), 1)[0])
    p = media.TwoLevelParams(delta=0.7, gE=0.0, g=1.3)
    chi1_dev = abs(media.chi1_two_level(p) - (-media.HBAR * 1.3 ** 2 / (media.EPS0 * 0.7)))
    chi3_dev = abs(media.chi3_two_level(p)
                   - media.HBAR * 1.3 ** 4 / (3 * np.pi * media.EPS0 * 0.7 ** 3))
    return {"slope": slope, "slope_dev": abs(slope - 5.0),
            "chi1_dev": float(chi1_dev), "chi3_dev": float(chi3_dev)}


def check_dispersion_consistency() -> dict:
    """Dispersion roots satisfy their branch equation; both
    mode-normalization forms agree over a 100-point k sweep;
    finite-difference group velocity matches the analytic form."""
    coeffs = media.DispersionCoeffs(
        beta_nu=1.0 / (2.25 * media.EPS0),
        beta_nu_prime=2e-27 / media.EPS0,
        beta_nu_dblprime=1e-43 / media.EPS0,
    )
    ks = np.linspace(1e6, 2e7, 100)
    residuals, vk_devs = [], []
    for k in ks:
        w_plus, w_minus = media.dispersion_omega(k, coeffs)
        residuals += [media.dispersion_residual(k, w_plus, coeffs, +1),
                      media.dispersion_residual(k, w_minus, coeffs, -1)]
        media.mode_norm_Ak(k, coeffs)  # raises if the two forms drift past 1e-10
        h = 1e-6 * k
        vk_fd = (media.dispersion_omega(k + h, coeffs)[0]
                 - media.dispersion_omega(k - h, coeffs)[0]) / (2 * h)
        vk_devs.append(abs(vk_fd - media.group_velocity(k, coeffs))
                       / media.group_velocity(k, coeffs))
    return {"worst_branch_residual": float(np.max(residuals)),
            "worst_vk_rel_dev": float(np.max(vk_devs)), "k_points": 100}


def check_soliton_propagation() -> dict:
    """Split-step soliton shape invariance over one period, norm
    conservation, and the mean field's t = 0 limit plus monotone peak
    decay from phase diffusion, on a paper-normalized fiber (w'' = 2,
    g3 = -0.05, n0 = 25) with a grid of 24 soliton widths and 1024 points."""
    n0 = 25
    p = soliton.soliton_fiber(2.0, -0.05, n0, 24.0, 1024)
    profile = soliton.classical_soliton_profile(n0, 0.0, 0.0, p, 0.0)
    period = p.soliton_period(n0)
    out = soliton.split_step_nlse(profile, p, period, p.guided_steps(period))
    norm_drift = abs(out.norm_sq() - profile.norm_sq()) / profile.norm_sq()
    shape_dev = float(np.sqrt(np.sum(
        (np.abs(out.values) - np.abs(profile.values)) ** 2) * p.grid.dx))

    alpha = np.sqrt(float(n0))
    mf0 = soliton.mean_field(alpha, p, 0.0)
    ref = alpha * soliton.hartree_profile(n0, 0.0, 0.0, p, 0.0).values
    t0_dev = abs(mf0.peak() - float(np.abs(ref).max())) / float(np.abs(ref).max())
    peaks = [soliton.mean_field(alpha, p, t).peak()
             for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
    return {"shape_L2_dev": shape_dev, "norm_rel_drift": float(norm_drift),
            "mean_field_t0_rel_dev": float(t0_dev), "peaks": peaks,
            "peak_rise": float(np.max(np.diff(peaks)))}


def check_downconv_kernel() -> dict:
    """Kernel's dz -> 0 series limit, fitted far-field decay exponent 2,
    and the peak at dz = 0 in both the closed form and the momentum-grid
    quadrature, which agree there."""
    k0 = 3.0
    limit_dev = abs(cf.downconv_kernel(0.0, k0) - k0 ** 3 / 6.0) / (k0 ** 3 / 6.0)
    exponent = cf.downconv_decay_exponent(k0, 60)
    scan = np.linspace(-2.0, 2.0, 81)
    closed = [abs(cf.downconv_kernel(z, k0)) for z in scan]
    quad = [abs(cf.downconv_kernel_quadrature(z, k0, 4001)) for z in scan]
    return {"limit_rel_dev": float(limit_dev), "decay_exponent": exponent,
            "decay_exponent_dev": float(abs(exponent - 2.0)),
            "peak_offset": float(np.max(np.abs(scan[[np.argmax(closed), np.argmax(quad)]]))),
            "quadrature_peak_rel_dev": float(abs(quad[40] - closed[40]) / closed[40])}


FAST_CRITERIA = (2, 4, 5, 8, 9, 11)

#: The bound of an exact check: for a value >= 0, ``value < EXACT`` holds
#: exactly when the value is 0.
EXACT = math.ulp(0.0)

#: The acceptance matrix: criterion number -> (name, check, bounds), where
#: ``bounds`` maps a measured key to the number it must stay strictly below.
_CHECKS = {
    1: ("squeezed-vacuum law vs full evolution", check_squeezed_vacuum_law,
        {"worst_rel_dev": 0.02}),
    2: ("maximum-squeezing scaling", check_max_squeezing_scaling,
        {"worst_u_dev": 1e-10, "worst_scaling_dev": 1e-10}),
    3: ("charge conservation and signal parity", check_conservation_and_parity,
        {"M_drift": 1e-10, "max_odd_population": 1e-10}),
    4: ("entanglement minimum of the pair state", check_entanglement_minimum,
        {"min_dev": 1e-9, "c0_dev": 1e-9}),
    5: ("Kerr exact mean amplitude", check_kerr_exact_mean,
        {"worst_abs_dev": 1e-10, "revival_dev": 1e-10}),
    6: ("Kerr/beam-splitter sub-Poissonian optimum", check_kerr_bs_subpoissonian,
        {"rel_dev": 0.20, "closed_form": 0.0, "simulated": 0.0}),
    7: ("parametric oscillator below threshold", check_dpo_below_threshold,
        {"eigenvalue_dev": 1e-9, "n_fluct_rel_dev": 0.05, "squeezing_rel_dev": 0.05,
         "threshold_limit_dev": EXACT}),
    8: ("two-level susceptibilities", check_two_level_susceptibilities,
        {"slope_dev": 0.3, "chi1_dev": EXACT, "chi3_dev": EXACT}),
    9: ("dispersion relation consistency", check_dispersion_consistency,
        {"worst_branch_residual": 1e-12, "worst_vk_rel_dev": 1e-6}),
    10: ("soliton propagation and phase diffusion", check_soliton_propagation,
         {"shape_L2_dev": 1e-3, "norm_rel_drift": 1e-10, "mean_field_t0_rel_dev": 0.01,
          "peak_rise": 0.0}),
    11: ("down-conversion kernel", check_downconv_kernel,
         {"limit_rel_dev": 1e-8, "decay_exponent_dev": 0.1, "peak_offset": EXACT,
          "quadrature_peak_rel_dev": 1e-6}),
}


def run_criterion(number: int) -> CheckResult:
    """Run criterion ``number``, time it and decide its verdict: PASS when
    every bounded measurement is strictly below its bound (a NaN is not).
    ``details`` holds the measurements and the ``bounds``. A check that
    raises, or omits a bounded key, is recorded as FAIL, under its registry
    name, with its exception and traceback in ``details``, so the rest of
    the matrix still runs and is written."""
    name, check, bounds = _CHECKS[number]
    t0 = time.perf_counter()
    details = {}
    try:
        details = check()
        passed = all(details[key] < bound for key, bound in bounds.items())
    except Exception as exc:
        passed, details = False, {**details, "error": f"{type(exc).__name__}: {exc}",
                                  "traceback": traceback.format_exc()}
    return CheckResult(number, name, passed, {**details, "bounds": dict(bounds)},
                       time.perf_counter() - t0)


@serial_blas
def run_all(fast: bool = False, threads: int = 1, printer=None) -> list[CheckResult]:
    """Run the acceptance matrix (the fast tier when ``fast``) on ``threads``
    workers, each criterion through the module's current ``run_criterion``
    and in its own copy of the caller's context (numpy's ``errstate``
    included); results come back, and go to ``printer``, in criterion
    order."""
    from concurrent.futures import ThreadPoolExecutor

    numbers = list(FAST_CRITERIA) if fast else sorted(_CHECKS)
    results = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(contextvars.copy_context().run, run_criterion, number)
                   for number in numbers]
        for future in futures:
            result = future.result()
            if printer:
                printer(result.line())
            results.append(result)
    return results
