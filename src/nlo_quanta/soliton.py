"""Fiber solitons: Hartree profiles, classical split-step NLSE propagation,
and the coherent-superposition mean field with phase diffusion.

Everything propagates in the frame moving at the group velocity
(x_v = x - v1 t); the lab-frame carrier phase is a global factor and is not
tracked. Units use hbar = 1. The governing classical equation is

    i dpsi/dt = -(w''/2) d^2psi/dx^2 + 2 g3 |psi|^2 psi,

with anomalous dispersion w'' > 0 and attractive g3 < 0 for bound solitons.

Split-step snapshots march together: one row per distinct step dt, all rows
advanced by one batched ``scipy.fft`` call per substep, each snapshot copied
off its row at its own step count and checked for finiteness once.
``scipy.fft`` is imported by the functions that transform, on first use,
so that commands without a split step do not load it (nor the
``scipy.special`` it brings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError, NumericsError, ParameterError, TruncationError

# FWHM of |sech((x)/w)|^2 in units of the sech scale w
FWHM_FACTOR = 2.0 * np.arccosh(np.sqrt(2.0))

PROFILE_TAIL_TOL = 1e-8


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid of ``points`` samples spanning ``extent``,
    centered on zero (endpoint excluded)."""

    extent: float
    points: int

    def __post_init__(self):
        if not self.extent > 0 or self.points < 8:
            raise ParameterError("grid needs positive extent and >= 8 points")

    @property
    def dx(self) -> float:
        return self.extent / self.points

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.points) - self.points // 2) * self.dx

    @property
    def wavenumbers(self) -> np.ndarray:
        from scipy import fft

        return 2.0 * np.pi * fft.fftfreq(self.points, d=self.dx)


@dataclass(frozen=True)
class FiberParams:
    """Moving-frame fiber model: dispersion omega1_dblprime (> 0), cubic
    coefficient g3 (< 0 for bound solitons), and the spatial grid."""

    omega1_dblprime: float
    g3: float
    grid: SpatialGrid = field(default_factory=lambda: SpatialGrid(48.0, 1024))

    def __post_init__(self):
        if not self.omega1_dblprime > 0:
            raise ParameterError("omega1_dblprime must be > 0 (anomalous dispersion)")
        if not self.g3 <= 0:
            raise ParameterError("g3 must be <= 0 (attractive nonlinearity or free)")

    def sech_scale(self, n: int) -> float:
        """Sech width parameter w of the n-photon Hartree soliton."""
        if n < 2:
            raise ParameterError("photon number n must be >= 2")
        if self.g3 == 0:
            raise ParameterError("bound solitons need g3 < 0")
        return self.omega1_dblprime / (abs(self.g3) * (n - 1))

    def soliton_fwhm(self, n: int) -> float:
        """Intensity FWHM 2 arccosh(sqrt 2) w of the n-photon soliton."""
        self.sech_scale(n)  # checks n and g3
        return FWHM_FACTOR * self.omega1_dblprime / (abs(self.g3) * (n - 1))

    def phase_rate(self, n: int) -> float:
        """Nonlinear phase rate mu_n of the n-photon profile: the profile
        evolves as e^{i mu_n t} with mu_n = g3^2 (n-1)^2 / (2 w'')."""
        return self.g3 ** 2 * (n - 1) ** 2 / (2.0 * self.omega1_dblprime)

    def soliton_period(self, n: int) -> float:
        """Quarter phase cycle pi/(2 mu_n), the conventional soliton period."""
        return np.pi / (2.0 * self.phase_rate(n))

    def guided_steps(self, t: float) -> int:
        """Split-step count to time t at the accuracy guidance dt <= dx^2 / (pi w'')."""
        return int(np.ceil(t / (self.grid.dx ** 2 / (np.pi * self.omega1_dblprime))))


def soliton_fiber(omega1_dblprime: float, g3: float, n0: int, widths: float,
                  points: int) -> FiberParams:
    """Fiber whose grid spans ``widths`` FWHMs of the n0-photon soliton in
    ``points`` samples."""
    fiber = FiberParams(omega1_dblprime, g3)
    return replace(fiber, grid=SpatialGrid(extent=widths * fiber.soliton_fwhm(n0), points=points))


@dataclass(frozen=True)
class FieldProfile:
    """Complex field samples on a spatial grid."""

    grid: SpatialGrid
    values: np.ndarray
    meta: tuple = ()

    def __post_init__(self):
        if self.values.shape != (self.grid.points,):
            raise ContractError("profile length must match the grid")
        if not np.isfinite(self.values).all():
            raise NumericsError("profile contains non-finite samples")

    def norm_sq(self) -> float:
        """Discrete integral of |psi|^2 dx."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.dx)

    def peak(self) -> float:
        return float(np.abs(self.values).max())

    def meta_dict(self) -> dict:
        return dict(self.meta)


def g3_from_fiber(beta3: float, area: float, k1: float, v1: float, eps1: float) -> float:
    """Cubic coefficient of the moving-frame field equation,
    g3 = (3 beta3 / 8 A) (k1 v1 eps1)^2 in hbar = 1 units."""
    if area <= 0:
        raise ParameterError("mode area must be positive")
    return float(3.0 * beta3 / (8.0 * area) * (k1 * v1 * eps1) ** 2)


def hartree_profile(n: int, xi: float, x0: float, p: FiberParams, t: float) -> FieldProfile:
    """Normalized n-photon Hartree soliton on the grid at time t.

    The product ansatz reduces the n-photon problem to one particle in the
    self-generated potential 2 g3 (n-1) |h|^2, whose normalized bound
    solution is

        h_n(x, t) = sqrt(1/(2w)) sech((x - x0 - V t)/w)
                    * exp{i [mu_n t + (V/w'')(x - x0) - V^2 t/(2 w'')]}

    with sech scale w = w''/(|g3|(n-1)), phase rate
    mu_n = g3^2 (n-1)^2/(2 w''), and boost velocity V = -2 xi sqrt(2 w'')
    parameterized by the momentum parameter xi. The discrete norm is 1 up
    to the sech tail outside the grid; more than 1e-8 of tail raises
    TruncationError (a grid spanning >= 12 FWHM stays within budget).
    """
    w = p.sech_scale(n)
    velocity = -2.0 * xi * np.sqrt(2.0 * p.omega1_dblprime)
    center = _wrap(x0 + velocity * t, p.grid.extent)
    x = p.grid.x
    half = p.grid.extent / 2.0
    # analytic sech^2 mass beyond the grid edges
    tail = 1.0 - 0.5 * (np.tanh((half - center) / w) + np.tanh((half + center) / w))
    if tail > PROFILE_TAIL_TOL:
        raise TruncationError(
            f"sech tail mass {tail:.2e} outside the grid exceeds {PROFILE_TAIL_TOL:.0e}; "
            f"grid spans {p.grid.extent / p.soliton_fwhm(n):.1f} soliton widths")
    envelope = np.sqrt(1.0 / (2.0 * w)) / np.cosh((x - center) / w)
    phase = (p.phase_rate(n) * t
             + velocity / p.omega1_dblprime * (x - x0)
             - velocity ** 2 / (2.0 * p.omega1_dblprime) * t)
    values = envelope * np.exp(1j * phase)
    return FieldProfile(p.grid, values, meta=(("n", n), ("tail_mass", float(tail))))


def _wrap(x: float, extent: float) -> float:
    """Fold a position into the periodic box [-extent/2, extent/2)."""
    return (x + extent / 2.0) % extent - extent / 2.0


def classical_soliton_profile(n: int, xi: float, x0: float, p: FiberParams,
                              t: float) -> FieldProfile:
    """Classical NLSE soliton matched to the n-photon Hartree profile.

    The field equation carries 2 g3 |psi|^2 where the one-particle Hartree
    equation carries 2 g3 (n-1) |h|^2, so the classical soliton of the same
    width is sqrt(n-1) h_n; its squared norm is n-1 (mean-field photon
    number up to the Hartree -1). This is the shape-invariant input for
    :func:`split_step_nlse`.
    """
    base = hartree_profile(n, xi, x0, p, t)
    return FieldProfile(base.grid, np.sqrt(n - 1.0) * base.values, meta=base.meta)


def hartree_residual(n: int, p: FiberParams) -> float:
    """Relative residual of the effective one-particle equation on the grid.

    Checks i dh/dt = -(w''/2) h'' + 2 g3 (n-1)|h|^2 h for the t = 0 profile
    using the spectral Laplacian; i dh/dt is mu_n h analytically.
    """
    from scipy import fft

    prof = hartree_profile(n, 0.0, 0.0, p, 0.0)
    h = prof.values
    k = p.grid.wavenumbers
    lap = fft.ifft(-(k ** 2) * fft.fft(h))
    rhs = -(p.omega1_dblprime / 2.0) * lap + 2.0 * p.g3 * (n - 1) * np.abs(h) ** 2 * h
    lhs = -p.phase_rate(n) * h  # i dh/dt for h ~ e^{i mu t}
    num = np.linalg.norm(lhs - rhs)
    return float(num / np.linalg.norm(rhs))


def split_step_nlse(psi0: FieldProfile, p: FiberParams, t_final: float,
                    n_steps: int) -> FieldProfile:
    """Strang split-step propagation of the classical NLSE.

    Half kinetic step in k-space, full nonlinear phase in x-space, half
    kinetic step; each substep is exactly unitary so the discrete norm is
    conserved to rounding. Accuracy guidance (:meth:`FiberParams.guided_steps`):
    dt <= dx^2 / (pi w'') keeps the splitting error below the dispersive phase
    per step. This is one row of :func:`split_step_snapshots`; the result is
    checked for finiteness once, after the last step (a non-finite sample
    stays non-finite through every later substep).
    """
    return split_step_snapshots(psi0, p, [t_final], [n_steps])[0]


def split_step_snapshots(psi0: FieldProfile, p: FiberParams, times,
                         n_steps) -> list[FieldProfile]:
    """Profiles ``split_step_nlse(psi0, p, times[i], n_steps[i])`` for every
    i, bit for bit, from one batched march.

    Snapshots whose step dt = times[i] / n_steps[i] has the same float bits
    share one row of a (rows, points) array, so each distinct dt is marched
    once, up to the largest step count that uses it. Rows are ordered by
    that count, longest first, so the rows still running are a prefix and
    every substep makes one ``scipy.fft`` call on it. Each snapshot is
    copied off its row at its own step count; NumericsError is raised for
    the first snapshot (in input order) holding a non-finite sample.
    """
    from scipy import fft

    if len(times) != len(n_steps):
        raise ContractError("times and n_steps must have the same length")
    if any(n < 1 for n in n_steps):
        raise ParameterError("n_steps must be >= 1")
    dts = [t / n for t, n in zip(times, n_steps)]
    keys = [float(dt).hex() for dt in dts]  # exact float bits
    span = {}  # dt bits -> steps its row runs
    for key, n in zip(keys, n_steps):
        span[key] = max(span.get(key, 0), n)
    order = sorted(span, key=span.get, reverse=True)
    row_of = {key: row for row, key in enumerate(order)}
    dt_of = dict(zip(keys, dts))
    row_dt = [dt_of[key] for key in order]
    row_steps = [span[key] for key in order]

    k = psi0.grid.wavenumbers
    # each row's constants come from its scalar dt, as a lone row's would,
    # so a row's bits do not depend on which other rows share the march
    half_kinetic = np.array([np.exp(-0.5j * dt * (p.omega1_dblprime / 2.0) * k ** 2)
                             for dt in row_dt])
    phase = np.array([[-2j * p.g3 * dt] for dt in row_dt])
    taken = {}  # step count -> [(snapshot index, row)]
    for i, (key, n) in enumerate(zip(keys, n_steps)):
        taken.setdefault(n, []).append((i, row_of[key]))

    psi = np.tile(psi0.values.astype(complex), (len(row_dt), 1))
    snaps = [None] * len(dts)
    rows = len(row_dt)
    for step in range(1, max(row_steps, default=0) + 1):
        while row_steps[rows - 1] < step:
            rows -= 1
        psi = fft.ifft(half_kinetic[:rows] * fft.fft(psi[:rows]))
        psi = psi * np.exp(phase[:rows] * np.abs(psi) ** 2)
        psi = fft.ifft(half_kinetic[:rows] * fft.fft(psi))
        for i, row in taken.get(step, ()):
            snaps[i] = psi[row].copy()

    out = []
    for t, n, dt, values in zip(times, n_steps, dts, snaps):
        if not np.isfinite(values).all():
            raise NumericsError(
                f"split-step produced non-finite values (dt={dt:.3e}, dx={psi0.grid.dx:.3e})")
        out.append(FieldProfile(psi0.grid, values, meta=(("t", t), ("steps", n))))
    return out


def nlse_energy(profile: FieldProfile, p: FiberParams) -> float:
    """Discrete NLSE energy functional int [ (w''/2)|psi_x|^2 + g3 |psi|^4 ] dx,
    conserved by the exact flow."""
    from scipy import fft

    k = profile.grid.wavenumbers
    psi_x = fft.ifft(1j * k * fft.fft(profile.values))
    dens = 0.5 * p.omega1_dblprime * np.abs(psi_x) ** 2 + p.g3 * np.abs(profile.values) ** 4
    return float(np.sum(dens.real) * profile.grid.dx)


# ---------------------------------------------------------------------------
# coherent superposition of Hartree solitons


SERIES_WINDOW_SIGMAS = 10.0


def _profile_overlap(a: np.ndarray, b: np.ndarray, dx: float) -> complex:
    return complex(np.vdot(a, b) * dx)


def mean_field(alpha: complex, p: FiberParams, t: float = 0.0) -> FieldProfile:
    """Mean field of a coherent superposition of n-photon Hartree solitons:

        <Psi(x)> = alpha e^{-|alpha|^2} sum_n (|alpha|^{2n}/n!)
                   h_{n+1}(x, t) <h_n|h_{n+1}>^n.

    Overlaps are quadratures on ``p.grid``. Terms with n beyond
    n0 +/- 10 sqrt(n0) (n0 = |alpha|^2 >= 4) are dropped; the discarded
    Poisson weight is reported as ``tail_bound`` in the profile metadata,
    along with the dimensionless dephasing parameter g3^2 t n0^{3/2}
    (documented "short time" threshold: 0.1). At t = 0 the sum collapses to
    approximately alpha h_{n0}(x, 0); for longer times the number-dependent
    phases dephase and the peak decays (phase diffusion).
    """
    n0 = abs(alpha) ** 2
    if n0 < 4.0:
        raise ParameterError("mean_field needs |alpha|^2 >= 4 so n >= 2 terms dominate")

    half_width = SERIES_WINDOW_SIGMAS * np.sqrt(n0)
    n_lo = max(2, int(np.floor(n0 - half_width)))
    n_hi = int(np.ceil(n0 + half_width))

    # stable log Poisson weights e^{-n0} n0^n / n!
    ns = np.arange(n_lo, n_hi + 1)
    logw = -n0 + ns * np.log(n0) - np.array([math.lgamma(n + 1.0) for n in ns])
    weights = np.exp(logw)
    tail_bound = max(0.0, 1.0 - float(weights.sum()))

    profiles = {}

    def prof(n):
        if n not in profiles:
            profiles[n] = hartree_profile(n, 0.0, 0.0, p, t).values
        return profiles[n]

    acc = np.zeros(p.grid.points, dtype=complex)
    for n, wgt in zip(ns, weights):
        try:
            overlap = _profile_overlap(prof(int(n)), prof(int(n) + 1), p.grid.dx)
            acc += wgt * prof(int(n) + 1) * overlap ** int(n)
        except TruncationError:
            # far-from-n0 profiles can be too wide for the grid; their
            # Poisson weight is negligible, so skip and book the weight
            tail_bound += wgt
    values = alpha * acc
    dephasing = p.g3 ** 2 * t * n0 * np.sqrt(n0)
    return FieldProfile(p.grid, values, meta=(
        ("tail_bound", tail_bound),
        ("dephasing_parameter", float(dephasing)),
        ("dephasing_threshold", 0.1),
        ("n0", float(n0)),
    ))


def overlap_phase_model(n: int, p: FiberParams, t: float) -> complex:
    """Leading-order model of <h_n|h_{n+1}>^n: the adjacent-n phase
    difference is n (mu_{n+1} - mu_n) t = g3^2 n (2n-1) t / (2 w'')."""
    return complex(np.exp(1j * p.g3 ** 2 * n * (2 * n - 1) * t / (2.0 * p.omega1_dblprime)))
