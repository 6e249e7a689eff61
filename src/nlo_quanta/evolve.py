"""Unitary and Lindblad time evolution, and Liouvillian steady states.

Numerical routes
----------------
* Static Hamiltonians: exact eigendecomposition below ``DENSE_EVOLVE_DIM``,
  Krylov ``expm_multiply`` above it.
* Time-dependent (rotating-term) Hamiltonians: adaptive DOP853 with local
  error <= 1e-10.
* Master equation: L is block diagonal over the sectors of its pattern
  joined with rho -> rho^T (``_closed_sectors``), e.g. the n_a - m_a parity
  classes of the parametric oscillator, or a coherence order and its
  mirror. L preserves hermiticity, so on each such set it is real in the
  coordinates Re rho_nm, Im rho_nm (n < m) and rho_nn; the ODE and ILU
  routes work there in float64, and S maps back to a hermitian rho.
  Transients run adaptive DOP853 on the sets rho0 occupies. Trace
  renormalization is deliberately off; trace drift is an error signal.
* Steady states: exactly one set may hold populations rho_nn; it carries
  the steady state. The default route solves a trace-constrained system on
  it with ILU-preconditioned GMRES, and every other set must pass a
  preconditioned GMRES solve that shows it nonsingular, so a traceless
  second null vector is caught too. Every ILU factors in the set's own
  row-major order of rho, which is already banded (``permc_spec="NATURAL"``);
  minimum-degree reordering only adds fill there. Under that order the
  solve's trace row stays rho_00's, the block's first row, and the
  degeneracy probe's is rho_11's: a trace row put last leaves some ILU rungs
  exactly singular. A set that no ILU rung solves is taken to be singular
  and raises AmbiguityError. A dense eigendecomposition per set is the slow
  reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from .errors import AmbiguityError, ContractError, NumericsError
from .fock import HERMITICITY_TOL, NEGATIVE_EIGENVALUE_FLOOR, FieldOperator, QuantumState, sectors
from .models import ModelSpec

DENSE_EVOLVE_DIM = 512
PURE_NORM_TOL = 1e-9
TRACE_TOL = 1e-8
STEADY_RESIDUAL_TOL = 1e-10
LINDBLAD_RTOL = 1e-10
LINDBLAD_ATOL = 1e-12


@dataclass
class EvolutionResult:
    """Sampled trajectory: the states at the requested times."""

    model: ModelSpec
    times: np.ndarray
    states: list

    def expectation_series(self, op: FieldOperator) -> np.ndarray:
        from .fock import expectation

        return np.array([expectation(s, op) for s in self.states])


def _require_forward_times(times):
    """The ODE routes anchor the initial state at t = 0 and integrate
    forward, so sample times must be nondecreasing and nonnegative."""
    if times.min() < 0.0 or np.any(np.diff(times) < 0.0):
        raise ContractError("ODE-based evolution needs nondecreasing times >= 0")


def evolve_pure(model: ModelSpec, psi0: QuantumState, times) -> EvolutionResult:
    """Schroedinger evolution psi(t) = U(t) psi0 for a dissipation-free model.

    Raises ContractError if the model carries dissipators or psi0 is not
    pure; raises NumericsError if any sampled state's norm drifts beyond
    1e-9.
    """
    if model.dissipators:
        raise ContractError("evolve_pure requires a model without dissipators")
    if not psi0.is_pure:
        raise ContractError("evolve_pure requires a pure initial state")
    if psi0.space != model.space:
        raise ContractError("state and model live on different spaces")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    dim = model.space.total_dim

    if not model.is_time_dependent:
        if dim <= DENSE_EVOLVE_DIM:
            H = model.hamiltonian.dense()
            evals, evecs = np.linalg.eigh(H)
            coeff = evecs.conj().T @ psi0.data
            vecs = [evecs @ (np.exp(-1j * evals * t) * coeff) for t in times]
        else:
            H = model.hamiltonian.sparse()
            vecs = []
            psi = psi0.data.astype(complex)
            t_prev = 0.0
            for t in times:
                dt = t - t_prev
                if dt != 0.0:
                    psi = spla.expm_multiply((-1j * dt) * H, psi)
                    t_prev = t
                vecs.append(psi.copy())
    elif np.all(times == 0.0):
        vecs = [psi0.data.astype(complex) for _ in times]
    else:
        _require_forward_times(times)
        Hbase = model.hamiltonian.sparse()
        terms = [(rt.operator.sparse(), rt.frequency) for rt in model.rotating_terms]
        dags = [(O.conj().T.tocsr(), np.conj(nu)) for O, nu in terms]

        def rhs(t, y):
            hy = Hbase @ y
            for (O, nu), (Od, nud) in zip(terms, dags):
                hy = hy + np.exp(1j * nu * t) * (O @ y) + np.exp(-1j * nud * t) * (Od @ y)
            return -1j * hy

        sol = solve_ivp(rhs, (0.0, times.max()), psi0.data.astype(complex),
                        t_eval=times, method="DOP853", rtol=1e-11, atol=1e-12)
        if not sol.success:
            raise NumericsError(f"pure-state integration failed: {sol.message}")
        vecs = [sol.y[:, i] for i in range(sol.y.shape[1])]

    states = []
    for t, v in zip(times, vecs):
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) >= PURE_NORM_TOL or not np.isfinite(nrm):
            raise NumericsError(f"norm drift {abs(nrm - 1.0):.2e} at t={t} exceeds {PURE_NORM_TOL}")
        states.append(QuantumState(model.space, "pure", v / nrm, psi0.tail_mass))
    return EvolutionResult(model, times, states)


# ---------------------------------------------------------------------------
# Liouvillian machinery


def liouvillian(model: ModelSpec) -> sp.csr_matrix:
    """Sparse superoperator L with d vec(rho)/dt = L vec(rho) (row-major vec).

    Uses the convention Lambda(rho) = gamma (2 A rho A-dag - A-dag A rho
    - rho A-dag A): amplitudes decay at gamma, photon numbers at 2*gamma.
    """
    if model.is_time_dependent:
        raise ContractError("Liouvillian construction needs a static Hamiltonian")
    d = model.space.total_dim
    I = sp.identity(d, format="csr", dtype=complex)
    H = model.hamiltonian.sparse()
    L = -1j * (sp.kron(H, I) - sp.kron(I, H.T))
    for op, gamma in model.dissipators:
        A = op.sparse()
        AdA = (A.conj().T @ A).tocsr()
        L = L + gamma * (2.0 * sp.kron(A, A.conj()) - sp.kron(AdA, I) - sp.kron(I, AdA.T))
    return L.tocsr()


def _check_density_sample(space, m, t, tail):
    if not np.isfinite(m).all():
        raise NumericsError(f"non-finite density entries at t={t}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) >= TRACE_TOL:
        raise NumericsError(f"trace drift {abs(tr - 1.0):.2e} at t={t} exceeds {TRACE_TOL}")
    return QuantumState(space, "density", _clip_negative_eigenvalues(m / tr.real), tail)


def _clip_negative_eigenvalues(m):
    """``m`` with eigenvalues <= -NEGATIVE_EIGENVALUE_FLOOR (noise) clipped to 0, renormalized."""
    w, v = np.linalg.eigh(m)
    if w.min() <= -NEGATIVE_EIGENVALUE_FLOOR:
        w = np.clip(w, 0.0, None)
        m = (v * w) @ v.conj().T
        m = m / np.trace(m).real
    return m


def evolve_lindblad(model: ModelSpec, rho0: QuantumState, times) -> EvolutionResult:
    """Integrate the master equation d rho/dt = -i[H, rho] + sum Lambda.

    Pure initial states are auto-promoted to densities. rho never leaves
    the transpose-closed sectors rho0 occupies, so DOP853 integrates
    ``_real_block`` on their union at ``LINDBLAD_RTOL``/``LINDBLAD_ATOL``,
    and S maps each sample back to a hermitian rho. Trace drift of
    ``TRACE_TOL`` or more raises NumericsError.
    """
    if rho0.space != model.space:
        raise ContractError("state and model live on different spaces")
    rho0 = rho0.as_density_state()
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _require_forward_times(times)
    d = model.space.total_dim
    L = liouvillian(model)
    if np.all(times == 0.0):
        return EvolutionResult(model, times, [rho0 for _ in times])
    x0 = rho0.data.reshape(-1)
    occupied = np.sort(np.concatenate(
        [block for block in _closed_sectors(L, d) if np.any(x0[block] != 0)]))
    Lr, S, S_inv = _real_block(L, occupied, d)
    sol = solve_ivp(lambda t, y: Lr @ y, (0.0, times.max()), (S_inv @ x0[occupied]).real,
                    t_eval=times, method="DOP853", rtol=LINDBLAD_RTOL, atol=LINDBLAD_ATOL)
    if not sol.success:
        raise NumericsError(f"Lindblad integration failed: {sol.message}")
    states = [_check_density_sample(model.space, _scatter(S @ sol.y[:, i], occupied, d), t,
                                    rho0.tail_mass)
              for i, t in enumerate(times)]
    return EvolutionResult(model, times, states)


#: (drop_tol, fill_factor) rungs tried in order for the sector ILUs, which
#: factor in band (NATURAL) order. With the trace rows on rho_00 (solve) and
#: rho_11 (probe), every rung factors the DPO population systems from (6, 4)
#: to (13, 15); on rho_{d-1,d-1}'s row the second rung is exactly singular.
ILU_LADDER = ((1e-1, 2), (3e-2, 2), (1e-3, 6))


def _ilu_gmres(A: sp.csc_matrix, rhs: np.ndarray, rtol: float):
    """GMRES on A x = rhs, preconditioned by the first rung of
    ``ILU_LADDER`` whose incomplete LU lets it converge.

    A is factored in its given order (``permc_spec="NATURAL"``): a sector's
    row-major order of rho is banded, and minimum degree only adds fill.
    The order also keeps a trace row where ``_steady_ilu`` puts it.

    Returns the solution and the preconditioner; raises NumericsError when
    no rung converges.
    """
    n = A.shape[0]
    failure = "no rung tried"
    for drop_tol, fill in ILU_LADDER:
        try:
            ilu = spla.spilu(A, drop_tol=drop_tol, fill_factor=fill,
                             permc_spec="NATURAL")
        except RuntimeError as exc:  # exactly singular factor
            failure = str(exc)
            continue
        M = spla.LinearOperator((n, n), ilu.solve, dtype=A.dtype)
        x, info = spla.gmres(A, rhs, M=M, rtol=rtol, atol=0.0, restart=100, maxiter=400)
        if info == 0:
            return x, M
        failure = f"GMRES did not converge (info {info}) at drop_tol {drop_tol}"
    raise NumericsError(f"preconditioned solve failed: {failure}")


def _solve_sector(A: sp.csc_matrix, rhs: np.ndarray, rtol: float, block: np.ndarray, d: int):
    """``_ilu_gmres`` on the system A of the sector ``block`` of L. A sector
    that no rung solves is taken to be singular: it holds a second null
    vector of L, and AmbiguityError names it."""
    try:
        return _ilu_gmres(A, rhs, rtol)
    except NumericsError as exc:
        n, m = divmod(int(block[0]), d)
        raise AmbiguityError(
            f"Liouvillian sector of {len(block)} entries from rho[{n}, {m}] looks singular, "
            f"so the null space is degenerate ({exc})") from exc


def _closed_sectors(L: sp.csr_matrix, d: int) -> list[np.ndarray]:
    """``fock.sectors`` of |L| + T, T the map rho -> rho^T: L is block
    diagonal over these sets, and a mirror pair of sectors is one set."""
    k = np.arange(d * d)
    T = sp.csr_matrix((np.ones(d * d), (k, (k % d) * d + k // d)), shape=(d * d, d * d))
    return sectors(abs(L) + T)


def _hermitian_basis(block: np.ndarray, d: int):
    """Sparse maps S and S^-1 between the entries of rho on a sector closed
    under rho -> rho^T and real coordinates at the same positions: Re rho_nm
    at rho_nm's and Im rho_nm at rho_mn's for n < m, and rho_nn at its own.
    S maps every real vector to a hermitian one. Its entries are 1 and +-i,
    those of S^-1 are 1 and +-1/2 and +-i/2, so both products are exact.
    """
    n, m = np.divmod(block, d)
    upper = np.flatnonzero(n < m)
    mirror = m[upper] * d + n[upper]
    if not np.isin(mirror, block).all():
        raise NumericsError("Liouvillian sector is not closed under rho -> rho^T")
    lower = np.searchsorted(block, mirror)
    diag = np.flatnonzero(n == m)
    rows = np.concatenate([diag, upper, upper, lower, lower])
    cols = np.concatenate([diag, upper, lower, upper, lower])
    ones = np.ones(len(upper))
    k = len(block)
    S = sp.csc_matrix((np.concatenate([np.ones(len(diag)), ones, 1j * ones, ones, -1j * ones]),
                       (rows, cols)), shape=(k, k))
    S_inv = sp.csc_matrix((np.concatenate([np.ones(len(diag)), 0.5 * ones, 0.5 * ones,
                                           -0.5j * ones, 0.5j * ones]),
                           (rows, cols)), shape=(k, k))
    return S, S_inv


def _real_block(L: sp.csr_matrix, block: np.ndarray, d: int):
    """L on a sector closed under rho -> rho^T, written in the real
    coordinates of ``_hermitian_basis``, and the maps S back to rho and
    S^-1 from it.

    A Lindblad generator preserves hermiticity, so S^-1 L S is real; an
    imaginary part beyond the hermiticity tolerance of the Hamiltonian
    raises NumericsError.
    """
    S, S_inv = _hermitian_basis(block, d)
    Lc = (S_inv @ L[block][:, block] @ S).tocsc()
    Lr = Lc.real.copy()
    if abs(Lc.imag).max() > HERMITICITY_TOL * max(1.0, abs(Lr).max()):
        raise NumericsError("Liouvillian sector does not preserve hermiticity")
    Lr.eliminate_zeros()
    return Lr, S, S_inv


def _trace_row_system(L: sp.csc_matrix, pops: np.ndarray, row: int):
    """Copy of L with one row replaced by the trace functional, the sum of
    the entries at ``pops``, set equal to 1."""
    n = L.shape[0]
    C = L.tocoo()
    keep = C.row != row
    rows = np.concatenate([C.row[keep], np.full(len(pops), row, dtype=C.row.dtype)])
    cols = np.concatenate([C.col[keep], pops.astype(C.col.dtype)])
    vals = np.concatenate([C.data[keep], np.ones(len(pops))])
    A = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
    rhs = np.zeros(n)
    rhs[row] = 1.0
    return A, rhs


def _steady_ilu(L: sp.csr_matrix, population: np.ndarray, d: int):
    """Trace-constrained solve on the population block of L in real
    coordinates: replace the row of rho_00 by Tr(rho) = 1, precondition with
    an incomplete LU, and polish with GMRES.

    Returns the solution plus a second solve (constraint on the row of
    rho_11) used as a degeneracy probe: for a one-dimensional null space
    both systems share a unique solution. Both rows must be populations, the
    entries the trace functional weighs; without the row of a coherence the
    probe system is singular. Under the band order of the ILU a trace row
    near the top keeps every rung nonsingular, where rho_{d-1,d-1}'s row
    leaves some rungs exactly singular. When no rung solves the first
    system the block is taken to be singular (``_solve_sector``). A probe
    that does not converge under the solve's preconditioner walks the ladder
    on its own, and raises NumericsError when no rung serves.
    """
    Lr, S, _ = _real_block(L, population, d)
    pops = np.searchsorted(population, np.arange(d) * (d + 1))
    A, rhs = _trace_row_system(Lr, pops, pops[0])
    x, M = _solve_sector(A, rhs, 1e-13, population, d)
    A2, rhs2 = _trace_row_system(Lr, pops, pops[1])
    x2, info = spla.gmres(A2, rhs2, M=M, rtol=1e-11, atol=0.0, restart=100, maxiter=400)
    if info != 0:
        try:
            x2, _ = _ilu_gmres(A2, rhs2, 1e-11)
        except NumericsError as exc:
            raise NumericsError(f"degeneracy probe failed, so the null space is not shown "
                                f"one-dimensional ({exc})") from exc
    return _scatter(S @ x, population, d), _scatter(S @ x2, population, d)


def _require_nonsingular(L: sp.csr_matrix, block: np.ndarray, d: int):
    """Show a transpose-closed block of L without populations to be
    nonsingular: a preconditioned GMRES solve in real coordinates with a
    fixed random right-hand side must converge. A singular block holds a
    traceless null vector of L."""
    A = _real_block(L, block, d)[0]
    _solve_sector(A, np.random.default_rng(0).standard_normal(len(block)), 1e-8, block, d)


def _scatter(x: np.ndarray, block: np.ndarray, d: int) -> np.ndarray:
    """d x d matrix holding the entries x at the flat indices ``block``."""
    full = np.zeros(d * d, dtype=complex)
    full[block] = x
    return full.reshape(d, d)


def _steady_dense(L: sp.csr_matrix, blocks: list, population: np.ndarray,
                  d: int) -> np.ndarray:
    """Eigendecomposition of every block; the null vector comes from the
    population block, and null eigenvalues are counted over all blocks."""
    null_count = 0
    for block in blocks:
        evals, evecs = np.linalg.eig(L[block][:, block].toarray())
        null_count += int(np.sum(np.abs(evals) < 1e-9))
        if block is population:
            v = evecs[:, np.argmin(np.abs(evals))]
    if null_count > 1:
        raise AmbiguityError(
            f"Liouvillian null space is {null_count}-dimensional; steady state ambiguous")
    return _scatter(v, population, d)


def steady_state(model: ModelSpec, method: str = "auto") -> QuantumState:
    """Null vector of the Liouvillian, normalized to trace 1.

    Requires at least one positive-rate dissipator. The returned density
    satisfies ||L(rho)||_F < 1e-10 (Frobenius, trace-normalized); a
    degenerate null space raises AmbiguityError instead of averaging.
    ``method`` is "auto" (the default) or "dense"; any other value raises
    ContractError.

    L is split into its transpose-closed sectors (``_closed_sectors``),
    over which it is block diagonal. The trace functional is a left null
    vector of every block holding a population entry rho_nn, so more than
    one such block means a degenerate null space.

    "auto" writes each block in the real coordinates Re rho_nm, Im rho_nm
    (n < m) and rho_nn and works in float64: it solves the
    trace-constrained system on the population block alone with
    ILU-preconditioned GMRES and shows every other block nonsingular. The
    trace row and the degeneracy probe's row are those of rho_00 and
    rho_11, and the ILUs factor in band order. One failure rule covers
    every block: a block that no ``ILU_LADDER`` rung solves, the population
    block included, raises AmbiguityError naming it. A probe that converges
    on no ILU rung raises NumericsError rather than skip the degeneracy
    check. "dense" counts null eigenvalues over every block and takes the
    null vector of the population block; it is the slow reference.
    """
    if method not in ("auto", "dense"):
        raise ContractError(f"unknown steady-state method {method!r}")
    if not any(g > 0 for _, g in model.dissipators):
        raise ContractError("steady_state needs at least one dissipator with positive rate")
    d = model.space.total_dim
    L = liouvillian(model)
    blocks = _closed_sectors(L, d)
    holding = [block for block in blocks if np.any(block // d == block % d)]
    if len(holding) > 1:
        raise AmbiguityError(
            f"Liouvillian has {len(holding)} decoupled sectors holding populations; "
            "steady state ambiguous")
    population = holding[0]

    probe = None
    if method == "dense":
        rho = _steady_dense(L, blocks, population, d)
    else:
        for block in blocks:
            if block is not population:
                _require_nonsingular(L, block, d)
        rho, probe = _steady_ilu(L, population, d)

    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-14:
        raise NumericsError("steady-state candidate has vanishing trace")
    rho = rho / tr
    residual = float(np.linalg.norm(L @ rho.reshape(-1)))
    if residual >= STEADY_RESIDUAL_TOL:
        raise NumericsError(f"steady-state residual {residual:.2e} exceeds {STEADY_RESIDUAL_TOL}")
    if probe is not None:
        probe = 0.5 * (probe + probe.conj().T)
        probe = probe / np.trace(probe).real
        if float(np.abs(probe - rho).max()) > 1e-6:
            raise AmbiguityError("Liouvillian null space appears degenerate (>= 2)")
    return QuantumState(model.space, "density", _clip_negative_eigenvalues(rho))
