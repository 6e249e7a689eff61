"""Phenomenological mode-coupling Hamiltonians with dissipators and charges.

All constructors work in units with hbar = 1; frequencies, couplings, and
damping rates are angular. Each returned ModelSpec validates itself:
the Hamiltonian must be hermitian (defect < 1e-12) and every attached charge
must commute with it (max |[H, M]| < 1e-10).

Mode ordering conventions (documented per constructor):

* two-mode chi2 and Kerr cross models: (signal a, pump b) = modes (0, 1)
* three-mode chi2: (pump c, signal a, idler b) = modes (0, 1, 2)
* degenerate parametric oscillator: (signal a, pump b) = modes (0, 1)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._lazy import LazyModule
from .errors import ContractError, ParameterError, TruncationError
from .fock import (
    HERMITICITY_TOL,
    FieldOperator,
    SpaceDescriptor,
    annihilation,
    number_operator,
    _pack,
)

# imported on first use, so the closed-form CLI commands never load it
sp = LazyModule("scipy.sparse")

CHARGE_COMMUTATOR_TOL = 1e-10


@dataclass(frozen=True)
class ModelSpec:
    """A static Hamiltonian with optional dissipators and charges.

    ``kind`` names the model family and ``params`` its arguments (a special
    case such as ``h_two_mode_chi2`` returns its family's); whether the
    free-field part is removed (interaction picture) is in each docstring.
    """

    space: SpaceDescriptor
    hamiltonian: FieldOperator
    dissipators: tuple[tuple[FieldOperator, float], ...] = ()
    charges: dict = field(default_factory=dict)
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        defect = self.hamiltonian.hermiticity_defect()
        if not defect < HERMITICITY_TOL:  # NaN fails too
            raise ContractError(
                f"Hamiltonian hermiticity defect {defect:.2e} beyond {HERMITICITY_TOL}")
        for _, rate in self.dissipators:
            if not rate >= 0:
                raise ParameterError(f"dissipator rate {rate} must be >= 0")
        for name, charge in self.charges.items():
            comm = self.hamiltonian.commutator(charge).max_abs()
            if not comm < CHARGE_COMMUTATOR_TOL:
                raise ContractError(
                    f"charge {name!r} does not commute with H: max|[H,M]| = {comm:.2e}")

    def charge(self, name: str) -> FieldOperator:
        if name not in self.charges:
            raise ContractError(f"model carries no charge named {name!r}")
        return self.charges[name]


def _require_modes(space: SpaceDescriptor, n: int, what: str):
    if space.n_modes != n:
        raise ContractError(f"{what} needs a {n}-mode space, got {space.n_modes} modes")


def h_two_mode_chi2(space: SpaceDescriptor, omega: float, kappa: float) -> ModelSpec:
    """Degenerate chi2 coupling of a signal at omega to a pump at 2*omega.

        H = omega n_a + 2 omega n_b + kappa [(a-dag)^2 b + a^2 b-dag]

    The n = 2 case of :func:`h_nphoton`: kind "nphoton", params
    {"omega", "kappa_n": kappa, "n": 2} and charge "M" = n_a + 2 n_b.
    """
    return h_nphoton(space, omega, kappa, 2)


def h_three_mode_chi2(space: SpaceDescriptor, omega1: float, omega2: float,
                      kappa: float) -> ModelSpec:
    """Nondegenerate chi2 model: pump at omega1+omega2 feeding signal/idler.

        H = (omega1+omega2) n_c + omega1 n_a + omega2 n_b
            + kappa (c-dag a b + c a-dag b-dag)

    Modes are (pump c, signal a, idler b) = (0, 1, 2). Charges
    M1 = n_a - n_b and M2 = 2 n_c + n_a + n_b are attached, along with the
    combinations K1 = n_c + n_a and K2 = n_c + n_b used by the
    pump/signal fluctuation bounds.
    """
    _require_modes(space, 3, "h_three_mode_chi2")
    c = annihilation(space, 0)
    a = annihilation(space, 1)
    b = annihilation(space, 2)
    nc, na, nb = (number_operator(space, k) for k in range(3))
    hint = c.dag() @ a @ b
    H = (omega1 + omega2) * nc + omega1 * na + omega2 * nb + kappa * (hint + hint.dag())
    charges = {
        "M1": na - nb,
        "M2": 2.0 * nc + na + nb,
        "K1": nc + na,
        "K2": nc + nb,
    }
    return ModelSpec(
        space, H, charges=charges,
        kind="three_mode_chi2",
        params={"omega1": omega1, "omega2": omega2, "kappa": kappa},
    )


def h_kerr_single(space: SpaceDescriptor, omega: float, kappa: float) -> ModelSpec:
    """Single-mode Kerr Hamiltonian, diagonal in the Fock basis.

        H = omega n + (kappa/2) (a-dag)^2 a^2

    Fock eigenvalue: n*omega + n(n-1)*kappa/2.
    """
    _require_modes(space, 1, "h_kerr_single")
    n = space.number_values(0).astype(float)
    diag = omega * n + 0.5 * kappa * n * (n - 1.0)
    H = _pack(space, sp.diags(diag.astype(complex), 0, format="csr"))
    return ModelSpec(
        space, H, charges={"n": number_operator(space, 0)},
        kind="kerr_single", params={"omega": omega, "kappa": kappa},
    )


def h_kerr_cross(space: SpaceDescriptor, omega1: float, omega2: float,
                 kappa: float) -> ModelSpec:
    """Cross-Kerr model: H = omega1 n_a + omega2 n_b + (kappa/2) a-dag b-dag a b.

    Diagonal; Fock eigenvalue n*omega1 + m*omega2 + kappa*n*m/2. Both mode
    numbers are conserved (QND structure).
    """
    _require_modes(space, 2, "h_kerr_cross")
    na = space.number_values(0).astype(float)
    nb = space.number_values(1).astype(float)
    diag = omega1 * na + omega2 * nb + 0.5 * kappa * na * nb
    H = _pack(space, sp.diags(diag.astype(complex), 0, format="csr"))
    return ModelSpec(
        space, H,
        charges={"n_a": number_operator(space, 0), "n_b": number_operator(space, 1)},
        kind="kerr_cross",
        params={"omega1": omega1, "omega2": omega2, "kappa": kappa},
    )


def h_nphoton(space: SpaceDescriptor, omega: float, kappa_n: float, n: int) -> ModelSpec:
    """Two-mode n-photon down-conversion model.

        H = omega n_a + n*omega n_b + kappa_n [(a-dag)^n b + a^n b-dag]

    One pump photon at n*omega converts into n signal photons. The charge
    M = n_a + n n_b is attached as "M" for every n; it commutes with H even
    under truncation, as the couplings stay within fixed M shells. Modes
    are (signal a, pump b) = (0, 1). The signal truncation must exceed n.
    """
    _require_modes(space, 2, "h_nphoton")
    if int(n) != n or n < 2:
        raise ParameterError(f"photon multiplicity n must be an integer >= 2, got {n}")
    n = int(n)
    if space.dims[0] <= n:
        raise TruncationError(
            f"signal dim {space.dims[0]} cannot represent a {n}-photon conversion")
    a = annihilation(space, 0)
    b = annihilation(space, 1)
    na, nb = number_operator(space, 0), number_operator(space, 1)
    adn = a.dag()
    for _ in range(n - 1):
        adn = adn @ a.dag()
    hint = adn @ b
    H = omega * na + (n * omega) * nb + kappa_n * (hint + hint.dag())
    return ModelSpec(
        space, H,
        charges={"M": na + float(n) * nb},
        kind="nphoton",
        params={"omega": omega, "kappa_n": kappa_n, "n": n},
    )


def h_parametric_classical_pump(space: SpaceDescriptor, kappa: float,
                                beta: complex) -> ModelSpec:
    """Single-mode parametric model with the pump replaced by a c-number.

    In the frame rotating with the free field the generator is the static

        H_p = i (kappa/2) sqrt(N_p) [e^{i phi_p} (a-dag)^2 - e^{-i phi_p} a^2]

    with N_p = |beta|^2 and phi_p = arg(beta), so u = kappa*sqrt(N_p)*t is
    the squeeze parameter.
    """
    _require_modes(space, 1, "h_parametric_classical_pump")
    np_pump = abs(beta) ** 2
    if np_pump <= 0:
        raise ParameterError("pump amplitude must be nonzero")
    phase = float(np.angle(beta))
    a = annihilation(space, 0)
    ad2 = a.dag() @ a.dag()
    gain = 0.5 * kappa * np.sqrt(np_pump)
    hp = (1j * gain) * (np.exp(1j * phase) * ad2 - np.exp(-1j * phase) * (ad2.dag()))
    return ModelSpec(space, hp, kind="parametric_pump",
                     params={"kappa": kappa, "n_pump": np_pump, "phi_p": phase})


def h_chi2_displaced_pump(space: SpaceDescriptor, kappa: float, beta: complex) -> ModelSpec:
    """Two-mode chi2 interaction in the displaced pump frame.

    Writing the pump as beta + b (coherent amplitude plus fluctuations), the
    interaction-picture generator

        H = i (kappa/2) [(beta + b)(a-dag)^2 - (beta* + b-dag) a^2]

    is exactly unitarily equivalent to the chi2 interaction with the pump
    started in |beta>, but only the fluctuation mode needs Fock-space room.
    Starting both modes in the vacuum reproduces the physical coherent-pump
    problem including depletion and pump noise. Modes are (signal a,
    fluctuation b) = (0, 1).
    """
    _require_modes(space, 2, "h_chi2_displaced_pump")
    a = annihilation(space, 0)
    b = annihilation(space, 1)
    ad2 = a.dag() @ a.dag()
    half = (0.5j * kappa) * ((complex(beta) * ad2) + (b @ ad2))
    H = half + half.dag()
    return ModelSpec(
        space, H, kind="chi2_displaced_pump", params={"kappa": kappa, "beta": complex(beta)},
    )


def dpo_model(space: SpaceDescriptor, kappa: float, E0: float,
              gamma_a: float, gamma_b: float) -> ModelSpec:
    """Driven, damped degenerate parametric oscillator (interaction picture).

        H_int = i (kappa/2) (b (a-dag)^2 - b-dag a^2) + i E0 (b-dag - b)

    with cavity-loss dissipators Lambda(rho) = gamma (2 A rho A-dag
    - A-dag A rho - rho A-dag A) for A = a and A = b. In this convention the
    field amplitude decays at gamma and the photon number at 2*gamma.
    Modes are (signal a, pump b) = (0, 1).
    """
    _require_modes(space, 2, "dpo_model")
    if gamma_a < 0 or gamma_b < 0 or E0 < 0:
        raise ParameterError("rates and drive must be >= 0")
    a = annihilation(space, 0)
    b = annihilation(space, 1)
    ad2 = a.dag() @ a.dag()
    x = (0.5 * kappa) * (b @ ad2) + E0 * b.dag()
    H = 1j * x - 1j * x.dag()
    return ModelSpec(
        space, H,
        dissipators=((a, float(gamma_a)), (b, float(gamma_b))),
        kind="dpo",
        params={"kappa": kappa, "E0": E0, "gamma_a": gamma_a, "gamma_b": gamma_b},
    )
