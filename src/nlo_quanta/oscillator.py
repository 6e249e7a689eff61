"""Degenerate parametric oscillator: classical steady states, linear
stability, and below-threshold squeezing, bridged to the full master
equation in :mod:`nlo_quanta.evolve`.

Threshold sits at kappa E0 = gamma_a gamma_b. Below it only the zero-signal
branch exists (and is stable); above it the two finite-amplitude branches
take over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

BRANCH_RESIDUAL_TOL = 1e-12
CHARPOLY_RESIDUAL_TOL = 1e-9
THRESHOLD_GUARD = 1e-9


@dataclass(frozen=True)
class DpoParams:
    """Parametric-oscillator rates: coupling kappa, drive E0, and cavity
    amplitude-damping rates gamma_a (signal), gamma_b (pump), all angular."""

    kappa: float
    E0: float
    gamma_a: float
    gamma_b: float

    def __post_init__(self):
        if not (self.kappa >= 0 and self.E0 >= 0):
            raise ParameterError("kappa and E0 must be >= 0")
        if not (self.gamma_a > 0 and self.gamma_b > 0):
            raise ParameterError("gamma_a and gamma_b must be > 0")

    @property
    def threshold_ratio(self) -> float:
        return self.kappa * self.E0 / (self.gamma_a * self.gamma_b)


@dataclass(frozen=True)
class SteadyBranch:
    """One classical fixed point (alpha0, beta0) of the mean-field equations

        0 = kappa alpha0* beta0 - gamma_a alpha0
        0 = -(kappa/2) alpha0^2 + E0 - gamma_b beta0.

    ``branch`` is "below" for the zero-signal solution and "above+/-" for
    the finite-amplitude pair (which exists only at threshold_ratio >= 1).
    """

    alpha0: complex
    beta0: complex
    branch: str
    threshold_ratio: float
    params: DpoParams

    def residuals(self) -> tuple[float, float]:
        p = self.params
        r1 = p.kappa * np.conj(self.alpha0) * self.beta0 - p.gamma_a * self.alpha0
        r2 = -0.5 * p.kappa * self.alpha0 ** 2 + p.E0 - p.gamma_b * self.beta0
        return abs(r1), abs(r2)

    def __post_init__(self):
        r1, r2 = self.residuals()
        if max(r1, r2) >= BRANCH_RESIDUAL_TOL * max(1.0, abs(self.params.E0)):
            raise DomainError(f"steady-branch residuals ({r1:.2e}, {r2:.2e}) too large")


def steady_branches(p: DpoParams) -> list[SteadyBranch]:
    """All real classical steady states for the given rates.

    The below branch (alpha0, beta0) = (0, E0/gamma_b) is always returned;
    the pair alpha0 = +/- (sqrt(2)/kappa) sqrt(E0 kappa - gamma_a gamma_b),
    beta0 = gamma_a/kappa joins it once threshold_ratio >= 1.
    """
    ratio = p.threshold_ratio
    branches = [SteadyBranch(0.0 + 0.0j, p.E0 / p.gamma_b + 0.0j, "below", ratio, p)]
    if p.kappa > 0 and ratio >= 1.0:
        amp = np.sqrt(2.0) / p.kappa * np.sqrt(p.E0 * p.kappa - p.gamma_a * p.gamma_b)
        beta0 = p.gamma_a / p.kappa + 0.0j
        branches.append(SteadyBranch(+amp + 0.0j, beta0, "above+", ratio, p))
        branches.append(SteadyBranch(-amp + 0.0j, beta0, "above-", ratio, p))
    return branches


def linearization_matrix(p: DpoParams, branch: SteadyBranch) -> np.ndarray:
    """4x4 drift matrix of the fluctuations (d-alpha, d-alpha*, d-beta,
    d-beta*) about a classical branch."""
    a0, b0 = branch.alpha0, branch.beta0
    k = p.kappa
    return np.array([
        [-p.gamma_a, k * b0, k * np.conj(a0), 0.0],
        [k * np.conj(b0), -p.gamma_a, 0.0, k * a0],
        [-k * a0, 0.0, -p.gamma_b, 0.0],
        [0.0, -k * np.conj(a0), 0.0, -p.gamma_b],
    ], dtype=complex)


def stability_eigenvalues(p: DpoParams, branch: SteadyBranch) -> np.ndarray:
    """Eigenvalues of the linearization; the branch is stable iff all real
    parts are negative.

    Each eigenvalue is verified against the factorized characteristic
    polynomial

        [(l+ga)(l+gb) + k^2|a0|^2 + k|b0|(l+gb)] *
        [(l+ga)(l+gb) + k^2|a0|^2 - k|b0|(l+gb)] = 0

    with residual < 1e-9 relative.
    """
    M = linearization_matrix(p, branch)
    evals = np.linalg.eigvals(M)
    scale = max(1.0, p.gamma_a + p.gamma_b + p.kappa * (abs(branch.alpha0) + abs(branch.beta0))) ** 4
    for lam in evals:
        quad = (lam + p.gamma_a) * (lam + p.gamma_b) + p.kappa ** 2 * abs(branch.alpha0) ** 2
        cross = p.kappa * abs(branch.beta0) * (lam + p.gamma_b)
        res = abs((quad + cross) * (quad - cross))
        if res >= CHARPOLY_RESIDUAL_TOL * scale:
            raise DomainError(
                f"eigenvalue {lam} violates the characteristic polynomial (res {res:.2e})")
    return np.sort_complex(evals)


def is_stable(p: DpoParams, branch: SteadyBranch) -> bool:
    return bool(np.all(stability_eigenvalues(p, branch).real < 0.0))


def _require_below(p: DpoParams):
    if p.threshold_ratio >= 1.0 - THRESHOLD_GUARD:
        raise DomainError(
            f"threshold_ratio {p.threshold_ratio:.6f} is not strictly below 1; "
            "the linearized below-threshold moments are invalid there")


def below_threshold_moments(p: DpoParams) -> tuple[float, float]:
    """Steady signal fluctuation moments below threshold:

        <Da-dag Da> = (k E0)^2 / (2 [(ga gb)^2 - (k E0)^2])
        <(Da)^2>    = ga gb k E0 / (2 [(ga gb)^2 - (k E0)^2]).
    """
    _require_below(p)
    ke = p.kappa * p.E0
    gg = p.gamma_a * p.gamma_b
    denom = 2.0 * (gg ** 2 - ke ** 2)
    return float(ke ** 2 / denom), float(gg * ke / denom)


def below_threshold_squeezing(p: DpoParams) -> float:
    """Intracavity squeezed-quadrature variance below threshold:

        (Delta X2)^2 = (1/4) ga gb / (ga gb + k E0),

    decreasing from 1/4 at E0 = 0 to 1/8 at threshold.
    """
    _require_below(p)
    gg = p.gamma_a * p.gamma_b
    return float(0.25 * gg / (gg + p.kappa * p.E0))


def squeezing_threshold_limit() -> float:
    """Closed-form limit of the intracavity squeezing as threshold is
    approached: exactly 1/8."""
    return 0.125
