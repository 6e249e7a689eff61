"""Analytic results: parametric-approximation dynamics and its pump-noise
limits, Kerr dynamics, the Kerr/beam-splitter sub-Poissonian scheme, QND
phase shifts, phase matching, and the down-conversion pair-correlation
kernel.

These are the closed forms the simulation modules are cross-validated
against; each carries its own independent check where one exists (symplectic
identities, numerical minimization, series limits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError


# ---------------------------------------------------------------------------
# parametric approximation (classical undepleted pump)


@dataclass(frozen=True)
class BogoliubovSolution:
    """Mode transformation a(t) = cosh_coeff * a(0) + sinh_coeff * a-dag(0).

    ``u`` is the dimensionless squeeze parameter kappa*sqrt(N_p)*t and
    ``phi_p`` the pump phase. The coefficients satisfy the symplectic
    condition |cosh_coeff|^2 - |sinh_coeff|^2 = 1.
    """

    cosh_coeff: complex
    sinh_coeff: complex
    u: float
    phi_p: float

    def __post_init__(self):
        defect = abs(abs(self.cosh_coeff) ** 2 - abs(self.sinh_coeff) ** 2 - 1.0)
        if defect >= 1e-12:
            raise ParameterError(f"symplectic defect {defect:.2e} beyond 1e-12")


def para_solution(u: float, phi_p: float = 0.0) -> BogoliubovSolution:
    """Heisenberg solution of the undepleted-pump parametric amplifier:
    a(t) = a(0) cosh u + a-dag(0) e^{i phi_p} sinh u."""
    return BogoliubovSolution(
        cosh_coeff=complex(np.cosh(u)),
        sinh_coeff=np.exp(1j * phi_p) * np.sinh(u),
        u=float(u),
        phi_p=float(phi_p),
    )


def para_variances(u: float, phi_p: float = 0.0) -> tuple[float, float]:
    """Vacuum-input quadrature variances of the parametric amplifier.

        var X1 = (1/4) e^{2u} cos^2(phi_p/2) + (1/4) e^{-2u} sin^2(phi_p/2)
        var X2 = (1/4) e^{-2u} cos^2(phi_p/2) + (1/4) e^{2u} sin^2(phi_p/2)

    At phi_p = 0 the X2 quadrature is squeezed to e^{-2u}/4 while X1 grows
    as e^{2u}/4 (a minimum-uncertainty pair).
    """
    c2 = np.cos(phi_p / 2.0) ** 2
    s2 = np.sin(phi_p / 2.0) ** 2
    var_x1 = 0.25 * (np.exp(2 * u) * c2 + np.exp(-2 * u) * s2)
    var_x2 = 0.25 * (np.exp(-2 * u) * c2 + np.exp(2 * u) * s2)
    return float(var_x1), float(var_x2)


def phase_averaged_var_x2(u: float, n_pump: float) -> float:
    """Squeezed-quadrature variance after averaging over the coherent
    pump's phase noise ((Delta phi)^2 = 1/(4 N_p)):

        var X2 = e^{-2u}/4 + e^{2u}/(64 N_p).
    """
    if n_pump <= 0:
        raise ParameterError("pump photon number must be positive")
    return float(np.exp(-2 * u) / 4.0 + np.exp(2 * u) / (64.0 * n_pump))


def max_squeezing(n_pump: float) -> tuple[float, float]:
    """Best squeezing reachable under pump phase noise.

    Returns (u_star, var_min) = ((1/4) ln(16 N_p), 1/(8 sqrt(N_p))), the
    minimizer and minimum of :func:`phase_averaged_var_x2`. Both are checked
    before being returned: the u-derivative -e^{-2u}/2 + e^{2u}/(32 N_p)
    vanishes at u_star to rounding (its two terms agree to 1e-12), and the
    variance there equals var_min to 1e-10. The second derivative
    e^{-2u} + e^{2u}/(16 N_p) is positive everywhere, so the variance is
    strictly convex and that stationary point is its global minimum.
    Criterion 2 checks the same optimum by numerical minimization.
    """
    if n_pump <= 0:
        raise ParameterError("pump photon number must be positive")
    u_star = 0.25 * np.log(16.0 * n_pump)
    var_min = 1.0 / (8.0 * np.sqrt(n_pump))
    pull, push = np.exp(-2 * u_star) / 2.0, np.exp(2 * u_star) / (32.0 * n_pump)
    var = phase_averaged_var_x2(u_star, n_pump)
    if not (abs(push - pull) <= 1e-12 * pull and abs(var - var_min) < 1e-10):
        raise DomainError(
            f"analytic optimum (u*={u_star}, var={var_min}) is not the variance's minimum: "
            f"derivative {push - pull}, variance there {var}")
    return float(u_star), float(var_min)


def corrected_var_x2(u: float, n_pump: float) -> float:
    """Dominant-term corrected squeezed variance to order 1/N_p^2:

        var X2 = e^{-2u}/4 + e^{2u}/(64 N_p) - 3 e^{4u}/(1024 N_p^2).
    """
    if n_pump <= 0:
        raise ParameterError("pump photon number must be positive")
    return float(np.exp(-2 * u) / 4.0 + np.exp(2 * u) / (64.0 * n_pump)
                 - 3.0 * np.exp(4 * u) / (1024.0 * n_pump ** 2))


# ---------------------------------------------------------------------------
# Kerr dynamics


def kerr_mean_amplitude(alpha: complex, omega: float, kappa: float, t: float) -> complex:
    """Exact mean field of a Kerr-evolved coherent state:

        <a(t)> = alpha e^{-i omega t} exp[-|alpha|^2 (1 - e^{-i kappa t})].

    Periodic in t with period 2 pi / kappa up to the free rotation, with a
    full revival at kappa t = 2 pi.
    """
    return complex(alpha * np.exp(-1j * omega * t)
                   * np.exp(-abs(alpha) ** 2 * (1.0 - np.exp(-1j * kappa * t))))


def kerr_mean_amplitude_gaussian(alpha: complex, omega: float, kappa: float,
                                 t: float) -> complex:
    """Short-time Gaussian approximation of :func:`kerr_mean_amplitude`:

        <a(t)> ~ alpha e^{-i t (omega + kappa |alpha|^2)} e^{-|alpha|^2 (kappa t)^2 / 2}.

    Exposed only as an approximation check; the exact form above is primary.
    """
    phi = kappa * t
    return complex(alpha * np.exp(-1j * t * (omega + kappa * abs(alpha) ** 2))
                   * np.exp(-abs(alpha) ** 2 * phi ** 2 / 2.0))


def qnd_phase_shift(alpha: complex, omega1: float, kappa: float, n_b: int,
                    t: float) -> complex:
    """Coherent amplitude after cross-Kerr coupling to an n_b-photon mode:

        alpha(t) = exp{-i t [omega1 + n_b kappa / 2]} alpha.

    The phase shift difference between n_b and n_b + 1 is kappa t / 2, the
    basis of the nondemolition photon-number readout.
    """
    return complex(np.exp(-1j * t * (omega1 + n_b * kappa / 2.0)) * alpha)


@dataclass(frozen=True)
class KerrBsResult:
    """Mandel excess prediction for the Kerr + beam-splitter scheme."""

    excess: float
    mean_n: float | None = None
    r_opt: float | None = None
    validity_warning: str | None = None


VALIDITY_LIMIT = 3.0


def _validity_warning(alpha_mag: float, phi: float):
    if alpha_mag * phi > VALIDITY_LIMIT:
        return (f"|alpha|*phi = {alpha_mag * phi:.2f} > {VALIDITY_LIMIT}; the closed form "
                "was derived for phi << 1 with |alpha| phi of order one")
    return None


def kerr_bs_excess(alpha_mag: float, theta: float, phi: float, r: float,
                   eta: float) -> KerrBsResult:
    """Mandel excess (Delta n)^2 - <n> at the bright beam-splitter output.

    The Kerr-evolved coherent state |alpha| e^{i theta} (phi = kappa t) is
    mixed with a strong coherent state; r e^{i eta} is the reflected
    amplitude sqrt(R) beta in the T -> 1 limit. The two displayed
    contributions are summed:

        -4 r phi |alpha|^3 e^{-(|alpha| phi)^2 / 2} sin(eta - theta + |alpha|^2 phi)
        + 2 r^2 |alpha|^2 (1 - E) [1 - E cos(2(eta - theta + |alpha|^2 phi))]

    with E = e^{-(|alpha| phi)^2}.
    """
    s = (alpha_mag * phi) ** 2
    big_e = np.exp(-s)
    angle = eta - theta + alpha_mag ** 2 * phi
    term1 = -4.0 * r * phi * alpha_mag ** 3 * np.exp(-s / 2.0) * np.sin(angle)
    term2 = 2.0 * r ** 2 * alpha_mag ** 2 * (1.0 - big_e) \
        * (1.0 - big_e * np.cos(2.0 * angle))
    return KerrBsResult(excess=float(term1 + term2),
                        validity_warning=_validity_warning(alpha_mag, phi))


def kerr_bs_optimum(alpha_mag: float, phi: float) -> KerrBsResult:
    """Optimized sub-Poissonian excess of the Kerr + beam-splitter scheme.

    At the phase condition eta - theta + |alpha|^2 phi = pi/2 and the
    variance-minimizing reflected amplitude

        r_opt = phi |alpha| e^{-(|alpha| phi)^2/2} / (1 - e^{-2 (|alpha| phi)^2}),

    the published optimum and output mean are

        excess = -2 |alpha|^3 phi e^{-(|alpha| phi)^2} / (1 - e^{-2(|alpha| phi)^2})
        <n>    = |alpha|^2 + |alpha| phi e^{-(|alpha| phi)^2/2} / (1 - e^{-2(|alpha| phi)^2}).

    These forms coincide with direct minimization of the two-term excess
    exactly at |alpha| phi = 1 (their stated regime of validity). With no
    Kerr phase or a vacuum input the mixed state stays Poissonian for every
    r, so the optimum is the trivial r_opt = 0 with zero excess.
    """
    if alpha_mag == 0.0 or phi == 0.0:
        return KerrBsResult(excess=0.0, mean_n=alpha_mag ** 2, r_opt=0.0)
    s = (alpha_mag * phi) ** 2
    denom = 1.0 - np.exp(-2.0 * s)
    excess = -2.0 * alpha_mag ** 3 * phi * np.exp(-s) / denom
    mean_n = alpha_mag ** 2 + alpha_mag * phi * np.exp(-s / 2.0) / denom
    r_opt = phi * alpha_mag * np.exp(-s / 2.0) / denom
    return KerrBsResult(excess=float(excess), mean_n=float(mean_n), r_opt=float(r_opt),
                        validity_warning=_validity_warning(alpha_mag, phi))


# ---------------------------------------------------------------------------
# phase matching and the pair-correlation kernel


def phase_match_h(dk, lengths) -> float:
    """Phase-matching function of a box-shaped medium:

        h(k) = prod_j 2 sin(k_j l_j / 2) / k_j,

    with the k_j -> 0 limit l_j taken analytically. Even under k -> -k.
    """
    dk = np.asarray(dk, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    if dk.shape != lengths.shape:
        raise ParameterError("dk and lengths must have matching shapes")
    out = 1.0
    for kj, lj in zip(dk.ravel(), lengths.ravel()):
        if abs(kj * lj) < 1e-8:
            # sinc limit with second-order correction for tiny arguments
            out *= lj * (1.0 - (kj * lj) ** 2 / 24.0)
        else:
            out *= 2.0 * np.sin(kj * lj / 2.0) / kj
    return float(out)


_SERIES_CUTOVER = 1.0


def _kernel_series(x: float) -> complex:
    """sum_m (i x)^m / (m! (m+2)(m+3)); the bracket equals k0^3 times this."""
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j  # (i x)^m / m!
    for m in range(0, 40):
        total += term / ((m + 2) * (m + 3))
        term *= 1j * x / (m + 1)
        if abs(term) < 1e-18:
            break
    return total


def downconv_kernel(delta_z: float, k0: float) -> complex:
    """Spatial decay factor of the photon-pair detection amplitude, the
    kernel bracket at delta_z = (z2 - z1) - c (t2' - t1'):

        2i (1 - e^{i k0 dz}) / dz^3 - k0 (1 + e^{i k0 dz}) / dz^2,

    continued through dz = 0 by its power series (value k0^3/6 there). The
    bracket equals the line integral int_0^{k0} q (k0 - q) e^{i q dz} dq, so
    small |k0 dz| is evaluated by the series to avoid catastrophic
    cancellation. The overall proportionality constant is dropped; only
    shape, limits, and the 1/dz^2 decay envelope are meaningful. Returns
    the complex value; raises ParameterError unless k0 > 0, and DomainError
    when k0 dz or the value is not finite.
    """
    if k0 <= 0:
        raise ParameterError("k0 must be positive")
    x = k0 * delta_z
    if not np.isfinite(x):
        raise DomainError("k0 * delta_z must be finite")
    if abs(x) < _SERIES_CUTOVER:
        value = k0 ** 3 * _kernel_series(x)
    else:
        e = np.exp(1j * x)
        value = 2j * (1.0 - e) / delta_z ** 3 - k0 * (1.0 + e) / delta_z ** 2
    value = complex(value)
    if not np.isfinite(value):
        raise DomainError("kernel value must be finite")
    return value


def downconv_decay_exponent(k0: float, m_stop: int) -> float:
    """Far-field decay exponent of |kernel|: minus the slope of the
    least-squares line through log |kernel(dz)| against log dz at the
    envelope points dz = 2 pi m / k0, m = 3, ..., m_stop - 1 (2 for the
    1/dz^2 envelope)."""
    dzs = 2.0 * np.pi * np.arange(3, m_stop) / k0
    vals = np.array([abs(downconv_kernel(dz, k0)) for dz in dzs])
    return -float(np.polyfit(np.log(dzs), np.log(vals), 1)[0])


def downconv_kernel_symmetrized(delta_z: float, k0: float) -> complex:
    """Sum of the kernel bracket over both detector orderings.

    The full correlation adds the (r1, t1' <-> r2, t2') exchange term, which
    maps delta_z -> -delta_z; the relative propagation phases are dropped
    along with the overall constant.
    """
    return downconv_kernel(delta_z, k0) + downconv_kernel(-delta_z, k0)


def downconv_kernel_quadrature(delta_z: float, k0: float, n_points: int = 2001) -> complex:
    """Independent numeric oracle for the kernel bracket.

    Momentum conservation and frequency matching collapse the pair emission
    onto collinear wavenumbers (q, k0 - q); a trapezoid quadrature of
    int_0^{k0} q (k0 - q) e^{i q dz} dq over a truncated momentum grid
    reproduces the closed-form bracket.
    """
    q = np.linspace(0.0, k0, n_points)
    integrand = q * (k0 - q) * np.exp(1j * q * delta_z)
    return complex(np.trapezoid(integrand, q))
