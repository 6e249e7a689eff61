"""Two-level-medium susceptibilities, chi2 frequency mixing, and the
dispersion relation / mode normalization of a dispersive dielectric.

This is the one SI module: epsilon_0, mu_0, and hbar appear explicitly
because the formulas carry them. They are the CODATA 2022 values, written
here rather than read from ``scipy.constants``, so that results do not
depend on the CODATA edition of the installed scipy (scipy 1.17 gives the
same floats). The rotating-wave approximation is built into the two-level
results, and the adiabatic switch-on is assumed already completed
(steady-state response only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

#: vacuum permittivity (F/m), CODATA 2022
EPS0 = 8.8541878188e-12
#: vacuum permeability (N/A^2), CODATA 2022
MU0 = 1.25663706127e-06
#: reduced Planck constant (J s); h is exact in the SI
HBAR = 6.62607015e-34 / (2 * math.pi)


@dataclass(frozen=True)
class TwoLevelParams:
    """Steady-state drive of a two-level medium.

    delta      detuning omega_0 - nu (rad/s), nonzero away from resonance
    gE         drive strength g |E0| (rad/s)
    n_density  atoms per m^3
    g          dipole coupling per unit field (rad/s per V/m)
    """

    delta: float
    gE: float
    n_density: float = 1.0
    g: float = 1.0

    def __post_init__(self):
        if not abs(self.delta) > 0.0:
            raise ParameterError("delta must be a nonzero number: resonance (delta = 0) is excluded "
                                 "from the steady-state formulas")
        if not (self.gE >= 0 and self.n_density >= 0):
            raise ParameterError("gE and n_density must be >= 0")


def two_level_mu(p: TwoLevelParams) -> tuple[float, float]:
    """Both quasi-energy roots of mu^2 + delta mu - (gE)^2 = 0:

        mu_pm = [-delta +/- sqrt(delta^2 + 4 (gE)^2)] / 2.

    mu_plus is the branch that connects to the ground state as gE -> 0
    for positive detuning. Vieta: mu_+ mu_- = -(gE)^2, mu_+ + mu_- = -delta.
    """
    root = np.sqrt(p.delta ** 2 + 4.0 * p.gE ** 2)
    return float((-p.delta + root) / 2.0), float((-p.delta - root) / 2.0)


def two_level_polarization(p: TwoLevelParams) -> float:
    """Amplitude of the steady-state medium polarization.

    Returns the coefficient multiplying (E0* e^{i nu t} + E0 e^{-i nu t}):

        P = -n hbar g^2 mu_+ / ((gE)^2 + mu_+^2)
          = -n hbar g^2 / sqrt(delta^2 + 4 (gE)^2),

    where the second form uses mu_+ mu_- = -(gE)^2 and stays finite at
    E0 = 0 (limit -n hbar g^2 / delta for delta > 0).
    """
    root = np.sqrt(p.delta ** 2 + 4.0 * p.gE ** 2)
    return float(-p.n_density * HBAR * p.g ** 2 / root)


def two_level_polarization_cubic(p: TwoLevelParams) -> float:
    """Cubic (third-order) expansion of the polarization amplitude:

        P ~ (-n hbar g^2 / delta) + (2 n hbar g^4 |E0|^2 / delta^3),

    where |E0| = gE / g. The exact form minus this series is O(E0^5).
    """
    e0_sq = (p.gE / p.g) ** 2
    return float(p.n_density * (-HBAR * p.g ** 2 / p.delta
                                + 2.0 * HBAR * p.g ** 4 * e0_sq / p.delta ** 3))


def chi1_two_level(p: TwoLevelParams) -> float:
    """Linear susceptibility chi^(1) = -hbar g^2 / (eps0 delta) (unit atomic
    density; scale by n for a medium of n atoms / m^3)."""
    return float(-HBAR * p.g ** 2 / (EPS0 * p.delta))


def chi3_two_level(p: TwoLevelParams) -> float:
    """Third-order susceptibility chi^(3)(-nu, nu, nu) = hbar g^4 /
    (3 pi eps0 delta^3) in the symmetric Fourier convention (unit atomic
    density). Falls off as 1/delta^3."""
    return float(HBAR * p.g ** 4 / (3.0 * np.pi * EPS0 * p.delta ** 3))


def chi2_mixing_spectrum(tones, chi2: float) -> list[tuple[float, float]]:
    """Second-order polarization spectrum of a sum of real cosine tones.

    ``tones`` is a sequence of (frequency, amplitude) pairs describing
    E(t) = sum_i E_i cos(w_i t). Returns the sorted (frequency, amplitude)
    list of P_nl(t) = eps0 chi2 E(t)^2: DC terms eps0 chi2 E_i^2/2, second
    harmonics at 2 w_i with eps0 chi2 E_i^2/2, and sum/difference tones at
    w_i +/- w_j with eps0 chi2 E_i E_j. Coincident output frequencies merge.
    """
    if chi2 == 0.0:
        return []
    spectrum: dict[float, float] = {}

    def add(freq, amp):
        freq = abs(float(freq))
        spectrum[freq] = spectrum.get(freq, 0.0) + amp

    tones = [(float(w), float(e)) for w, e in tones]
    for w, e in tones:
        add(0.0, EPS0 * chi2 * e * e / 2.0)
        add(2.0 * w, EPS0 * chi2 * e * e / 2.0)
    for i in range(len(tones)):
        for j in range(i + 1, len(tones)):
            wi, ei = tones[i]
            wj, ej = tones[j]
            add(wi + wj, EPS0 * chi2 * ei * ej)
            add(wi - wj, EPS0 * chi2 * ei * ej)
    return sorted(spectrum.items())


def mixing_time_series(spectrum, t: np.ndarray) -> np.ndarray:
    """Reconstruct P_nl(t) from a (frequency, amplitude) cosine spectrum."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for w, amp in spectrum:
        out += amp * np.cos(w * t)
    return out


def effective_chi_kerr(chi1: float, chi3: float, e0: float) -> float:
    """Intensity-shifted susceptibility chi^(1) + (3/4) chi^(3) E0^2 behind
    the intensity-dependent refractive index."""
    return float(chi1 + 0.75 * chi3 * e0 * e0)


# ---------------------------------------------------------------------------
# dispersion relation of the narrow-band quantized theory


@dataclass(frozen=True)
class DispersionCoeffs:
    """Taylor data of the inverse permittivity beta^(1)(omega) about the
    carrier: beta^(1)(w) ~ beta_nu + w beta_nu' + w^2 beta_nu''/2.

    Units: beta_nu in 1/(F/m) = m/F, derivatives carry the matching powers
    of seconds. The medium is nonmagnetic: mu0 is the vacuum ``MU0``.
    """

    beta_nu: float
    beta_nu_prime: float = 0.0
    beta_nu_dblprime: float = 0.0

    def __post_init__(self):
        if not self.beta_nu > 0:
            raise ParameterError("beta_nu must be positive")
        if not (math.isfinite(self.beta_nu_prime) and math.isfinite(self.beta_nu_dblprime)):
            raise ParameterError("beta_nu_prime and beta_nu_dblprime must be finite")

    def beta1(self, omega: float) -> float:
        return self.beta_nu + omega * self.beta_nu_prime \
            + 0.5 * omega ** 2 * self.beta_nu_dblprime

    def beta1_deriv(self, omega: float) -> float:
        return self.beta_nu_prime + omega * self.beta_nu_dblprime

    def denominator(self, k: float) -> float:
        return MU0 - 0.5 * self.beta_nu_dblprime * k ** 2


def dispersion_omega(k: float, c: DispersionCoeffs) -> tuple[float, float]:
    """Both mode frequencies of the quadratic dispersion relation:

        w_pm(k) = [ +/- k^2 beta'/2 + sqrt(k^4 beta'^2/4
                    + (mu0 - beta'' k^2/2) k^2 beta) ] / (mu0 - beta'' k^2/2).

    Each root satisfies w^2 = k^2 (beta +/- w beta' + w^2 beta''/2) to
    better than 1e-12 relative. Raises DomainError where the expansion's
    denominator loses positivity.
    """
    den = c.denominator(k)
    if den <= 0:
        raise DomainError(f"mu0 - beta'' k^2/2 = {den:.3e} <= 0; expansion invalid at this k")
    rad = 0.25 * k ** 4 * c.beta_nu_prime ** 2 + den * k ** 2 * c.beta_nu
    root = np.sqrt(rad)
    w_plus = (0.5 * k ** 2 * c.beta_nu_prime + root) / den
    w_minus = (-0.5 * k ** 2 * c.beta_nu_prime + root) / den
    return float(w_plus), float(w_minus)


def dispersion_residual(k: float, omega: float, c: DispersionCoeffs, sign: int) -> float:
    """Relative defect of mu0 w^2 = k^2 (beta + sign*w beta' + w^2 beta''/2).

    This is the branch equation the roots satisfy (the mu0 belongs with the
    w^2, matching k^2 beta^(1)(w) = mu0 w^2 on the physical branch).
    """
    rhs = k ** 2 * (c.beta_nu + sign * omega * c.beta_nu_prime
                    + 0.5 * omega ** 2 * c.beta_nu_dblprime)
    lhs = MU0 * omega ** 2
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return float(abs(lhs - rhs) / scale)


def group_velocity(k: float, c: DispersionCoeffs) -> float:
    """Analytic group velocity of the physical branch:

        v_k = k beta^(1)(w_+) / (mu0 w_+ - k^2 beta^(1)'(w_+)/2),

    obtained by differentiating k^2 beta^(1)(w) = mu0 w^2 along the branch.
    """
    return _group_velocity_at(k, dispersion_omega(k, c)[0], c)


def _group_velocity_at(k: float, w_plus: float, c: DispersionCoeffs) -> float:
    denom = MU0 * w_plus - 0.5 * k ** 2 * c.beta1_deriv(w_plus)
    if denom <= 0:
        raise DomainError("group-velocity denominator lost positivity")
    return float(k * c.beta1(w_plus) / denom)


MODE_NORM_AGREEMENT_TOL = 1e-10


def mode_norm_Ak(k: float, c: DispersionCoeffs) -> float:
    """Bogoliubov normalization constant of the dispersive mode expansion:

        A_k = [ k^4 beta'^2/4 + (mu0 - beta'' k^2/2) k^2 beta ]^{1/4}.

    The equivalent group-velocity form sqrt(k beta^(1)(w_+)/v_k) is computed
    alongside and must agree to 1e-10 relative; disagreement means the
    dispersion data is outside the expansion's validity.
    """
    if k <= 0:
        raise ParameterError("k must be positive")
    den = c.denominator(k)
    rad = 0.25 * k ** 4 * c.beta_nu_prime ** 2 + den * k ** 2 * c.beta_nu
    if rad <= 0 or den <= 0:
        raise DomainError("mode normalization radicand lost positivity")
    a_k = rad ** 0.25
    w_plus = dispersion_omega(k, c)[0]
    a_k_group = np.sqrt(k * c.beta1(w_plus) / _group_velocity_at(k, w_plus, c))
    rel = abs(a_k - a_k_group) / a_k
    if rel >= MODE_NORM_AGREEMENT_TOL:
        raise DomainError(
            f"mode-normalization forms disagree by {rel:.2e} (>= {MODE_NORM_AGREEMENT_TOL})")
    return float(a_k)
