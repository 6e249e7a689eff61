"""Nonclassicality, squeezing, and entanglement criteria, plus the Husimi Q.

Every criterion returns a :class:`CriterionReport`; a verdict is issued only
when the value lies strictly below its threshold by more than
``VERDICT_SLACK`` (1e-12), so boundary states (vacuum, coherent) report
``inconclusive``.

Two quadrature normalizations coexist deliberately and are named apart:
``quadrature`` (vacuum variance 1/4) for single-mode squeezing and the
sum-criterion pair x = (a-dag + a)/sqrt(2), p = i(a-dag - a)/sqrt(2)
(vacuum variance 1/2) for the two-mode entanglement tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericsError
from .evolve import EvolutionResult
from .fock import (
    FieldOperator,
    QuantumState,
    SpaceDescriptor,
    annihilation,
    expectation,
    mode_rotation,
    number_operator,
    partial_trace,
    quadrature,
    variance,
    _coherent_amplitudes,
)

VERDICT_SLACK = 1e-12


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of a nonclassicality/entanglement test.

    ``verdict`` is the criterion's positive label ("nonclassical",
    "entangled") when ``value`` is strictly below ``threshold``, else
    "inconclusive". ``margin`` is threshold - value, how far the value sits
    on the conclusive side (negative when inconclusive).
    """

    name: str
    value: float
    threshold: float
    verdict: str
    margin: float
    extras: tuple = ()

    def extras_dict(self) -> dict:
        return dict(self.extras)

    def to_json_row(self) -> dict:
        """Flat JSON-ready row (criterion reports are emitted as JSON)."""
        row = {"name": self.name, "value": self.value, "threshold": self.threshold,
               "verdict": self.verdict, "margin": self.margin}
        row.update(self.extras_dict())
        return row


def _report(name: str, value: float, threshold: float, label: str,
            extras: dict | None = None) -> CriterionReport:
    margin = threshold - value
    verdict = label if margin > VERDICT_SLACK else "inconclusive"
    return CriterionReport(name, float(value), float(threshold), verdict, float(margin),
                           tuple(sorted((extras or {}).items())))


def _mode_quadratures(space: SpaceDescriptor, mode: int):
    a = annihilation(space, mode)
    x = FieldOperator(space, (a.dag().matrix + a.matrix) / np.sqrt(2.0))
    p = FieldOperator(space, 1j * (a.dag().matrix - a.matrix) / np.sqrt(2.0))
    return x, p


def mandel_excess(state: QuantumState, mode: int = 0) -> CriterionReport:
    """Number-fluctuation excess (Delta n)^2 - <n>; sub-Poissonian when < 0."""
    n = number_operator(state.space, mode)
    value = variance(state, n) - expectation(state, n).real
    return _report("mandel_excess", value, 0.0, "nonclassical")


def quadrature_squeezing(state: QuantumState, mode: int, phi: float) -> CriterionReport:
    """(Delta X(phi))^2 against the vacuum value 1/4."""
    value = variance(state, quadrature(state.space, mode, phi))
    return _report("quadrature_squeezing", value, 0.25, "nonclassical")


def _epr_variances(state: QuantumState, mode_a: int, mode_b: int, name: str):
    """The EPR pair ([D(x_a+x_b)]^2, [D(p_a-p_b)]^2) of two distinct modes."""
    if mode_a == mode_b:
        raise ContractError(f"{name} needs two distinct modes")
    xa, pa = _mode_quadratures(state.space, mode_a)
    xb, pb = _mode_quadratures(state.space, mode_b)
    return variance(state, xa + xb), variance(state, pa - pb)


def duan_simon_sum(state: QuantumState, mode_a: int, mode_b: int) -> CriterionReport:
    """Inseparability sum [D(x_a+x_b)]^2 + [D(p_a-p_b)]^2; entangled < 2."""
    var_x, var_p = _epr_variances(state, mode_a, mode_b, "duan_simon_sum")
    return _report("duan_simon_sum", var_x + var_p, 2.0, "entangled")


def epr_product(state: QuantumState, mode_a: int, mode_b: int) -> CriterionReport:
    """Product form [D(x_a+x_b)]^2 * [D(p_a-p_b)]^2; entangled < 1."""
    var_x, var_p = _epr_variances(state, mode_a, mode_b, "epr_product")
    return _report("epr_product", var_x * var_p, 1.0, "entangled")


def number_diff_criterion(state: QuantumState, mode_a: int, mode_b: int) -> CriterionReport:
    """Var(n_a - n_b) - <n_a> - <n_b>; negative values are nonclassical."""
    if mode_a == mode_b:
        raise ContractError("number_diff_criterion needs two distinct modes")
    na = number_operator(state.space, mode_a)
    nb = number_operator(state.space, mode_b)
    value = variance(state, na - nb) \
        - expectation(state, na).real - expectation(state, nb).real
    return _report("number_diff", value, 0.0, "nonclassical")


def parity_test(state: QuantumState, mode: int = 0) -> CriterionReport:
    """Odd-photon weight <Q_o> against even-excited weight <Q'_e>.

    Q_o projects onto odd photon numbers, Q'_e onto the even numbers
    without the vacuum. Classical states satisfy <Q_o> >= <Q'_e>; a state
    with <Q_o> < <Q'_e> is nonclassical. The report's ``value`` is
    <Q_o> - <Q'_e> with threshold 0.
    """
    pops = np.real(np.diag(partial_trace(state, [mode]).density()))
    q_odd = float(pops[1::2].sum())
    q_even_excited = float(pops[2::2].sum())
    return _report("parity_test", q_odd - q_even_excited, 0.0, "nonclassical",
                   extras={"q_odd": q_odd, "q_even_excited": q_even_excited})


def rotation_invariance(state: QuantumState, mode: int, n: int) -> float:
    """Max deviation of a reduced mode state under a pi/n phase rotation.

    Returns max|rho - U rho U-dag| for U = exp(i pi/n * number).
    """
    if n < 1:
        raise ContractError("symmetry order n must be >= 1")
    rho = partial_trace(state, [mode])
    u = mode_rotation(rho.space, 0, np.pi / n).dense()
    rotated = u @ rho.density() @ u.conj().T
    return float(np.abs(rho.density() - rotated).max())


def husimi_q(state: QuantumState, mode: int, grid: np.ndarray) -> np.ndarray:
    """Husimi function Q(alpha) = <alpha|rho|alpha>/pi on a complex grid.

    ``grid`` is any array of complex points; the result has the same shape.
    Values are nonnegative and integrate to 1 over the full plane.
    """
    grid = np.asarray(grid, dtype=complex)
    rho = partial_trace(state, [mode]).density()
    # columns of V are truncated coherent vectors for each alpha
    V, _ = _coherent_amplitudes(grid.ravel(), rho.shape[0])
    q = np.real(np.einsum("ns,nm,ms->s", V.conj(), rho, V))
    return (q / np.pi).reshape(grid.shape)


def husimi_grid(radius: float, points: int):
    """Square complex lattice covering [-radius, radius]^2 plus cell area.

    Returns (grid, cell_area) so that ``husimi_q(...).sum() * cell_area``
    approximates the plane integral.
    """
    xs = np.linspace(-radius, radius, points)
    step = xs[1] - xs[0]
    re, im = np.meshgrid(xs, xs, indexing="ij")
    return re + 1j * im, step * step


@dataclass(frozen=True)
class FluctuationBoundsReport:
    """Conservation-law number-fluctuation bounds along a trajectory.

    ``lower``, ``upper`` bound the fluctuation ``delta_na`` (|Dn_a - Dn_b|
    for charge "M1") at every sample; ``slack`` is min(upper - delta_na,
    delta_na - lower) >= 0 when the bounds hold. ``worst_violation`` is the
    most negative slack seen (0 when every sample satisfies the bounds).
    """

    charge: str
    times: np.ndarray
    delta_na: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    slack: np.ndarray
    worst_violation: float


BOUND_VIOLATION_TOL = 1e-9


def fluctuation_bounds(evolution: EvolutionResult, charge: str) -> FluctuationBoundsReport:
    """Check the conserved-charge bounds on photon-number fluctuations.

    For the n-photon model (kind "nphoton", charge "M" = n_a + n n_b) the
    bound is

        n Dn_b(t) + DM(0) >= Dn_a(t) >= |n Dn_b(t) - DM(0)|,

    while the three-mode model tests the pump/signal and pump/idler pairs
    through K1 = n_c + n_a, K2 = n_c + n_b (charges "K1"/"K2") and the
    signal/idler relation DM1(0) >= |Dn_a(t) - Dn_b(t)| >= 0 (charge "M1").
    Returns one FluctuationBoundsReport; a violation beyond 1e-9 raises
    NumericsError since it signals an evolution bug.
    """
    model = evolution.model

    def dev(mode):
        op = number_operator(model.space, mode)
        return np.array([np.sqrt(max(variance(s, op), 0.0)) for s in evolution.states])

    d0 = np.sqrt(max(variance(evolution.states[0], model.charge(charge)), 0.0))

    def band(partner):
        return np.abs(partner - d0), partner + d0

    if model.kind == "nphoton" and charge == "M":
        target = dev(0)
        lower, upper = band(float(model.params["n"]) * dev(1))
    elif model.kind == "three_mode_chi2" and charge in ("K1", "K2"):
        target = dev(1 if charge == "K1" else 2)
        lower, upper = band(dev(0))
    elif model.kind == "three_mode_chi2" and charge == "M1":
        target = np.abs(dev(1) - dev(2))
        lower, upper = np.zeros_like(target), np.full_like(target, d0)
    else:
        raise ContractError(
            f"no fluctuation bound is defined for model {model.kind!r} / charge {charge!r}")
    slack = np.minimum(upper - target, target - lower)
    worst = float(min(slack.min(), 0.0))
    if worst < -BOUND_VIOLATION_TOL:
        raise NumericsError(
            f"fluctuation bound for {charge} violated by {-worst:.2e}; "
            "this indicates an evolution bug")
    return FluctuationBoundsReport(
        charge, evolution.times, target, lower, upper, slack, worst)
