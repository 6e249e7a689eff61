"""Unitary and Lindblad time evolution, and Liouvillian steady states.

Numerical routes
----------------
* Unitary evolution: exact eigendecomposition below ``DENSE_EVOLVE_DIM``,
  Krylov ``expm_multiply`` above it.
* Master equation: ``_real_sectors(model)`` is the one split of L. L is
  block diagonal over the sectors of its pattern joined with rho -> rho^T,
  e.g. the n_a - m_a parity classes of the parametric oscillator, or a
  coherence order and its mirror. L preserves hermiticity, so on each such
  set it is real in the coordinates Re rho_nm, Im rho_nm (n < m) and rho_nn
  (``_real_block``). Each set is split once more by the pattern of that
  real block: when H is i times a real matrix, as for the parametric
  oscillator, L also commutes with rho -> rho* and a set falls apart into
  its Re and Im halves. Every route works on these real sectors in
  float64, and maps back to an exactly hermitian rho. Transients run
  adaptive DOP853 on the real sectors rho0 occupies. Trace renormalization
  is deliberately off; trace drift is an error signal.
* Steady states: one ladder walk per sector, check first. The real sector
  of rho_00 carries the steady state; its system is that sector with the
  row of rho_00 replaced by the trace functional, set equal to 1, and
  every other real sector's system is the sector itself. Each system is
  shown nonsingular by one check: GMRES on a fixed random right-hand side
  (``_check_system``) must converge under an incomplete LU. GMRES is the
  package's own ``_gmres``, right-preconditioned GMRES(100) for at most a
  rung's budget of cycles and none after one that leaves the true residual
  no lower, and a system converges iff ||b - A x|| <= rtol ||b||. One walk
  down ``ILU_LADDER`` (``_solve_sector``) factors the system once per rung
  and runs the check, then, on the population sector, the trace-constrained
  solve; the first rung on which both converge serves. The ladder has three
  rungs: a cheap factor with a 2-cycle budget, which serves every sector
  below threshold, a tighter one at 400 cycles, and a fallback that drops
  by tolerance alone. A sector that no rung serves is taken to be singular
  and raises AmbiguityError naming it and each rung's failure, so a second
  null vector is caught whether or not it has trace, and so is a second
  sector holding populations rho_nn, of which the trace functional is a
  left null vector. The calling thread walks the population sector while
  max(1, usable CPUs - 1) workers walk the others (``_run_sectors``). Every
  ILU factors in the sector's own row-major order of rho, which is already
  banded (``NATURAL``); minimum degree only adds fill there. The trace row
  is rho_00's, the first; on DPO (6, 4) to (12, 8) rho_{d-1,d-1}'s, the
  last, serves as well on every rung, but at (13, 15) not within the first
  rung's budget. This is the one route; ``_steady_dense``, a dense eig per
  real sector, is its private slow reference.

No scipy module is loaded with this module. ``sp`` and ``spla`` are
``LazyModule`` stand-ins that import ``scipy.sparse`` and
``scipy.sparse.linalg`` on their first attribute read, and
``scipy.integrate`` is imported on the first transient: six CLI commands
compute closed forms and use none of them, and no CLI command and no
acceptance criterion integrates a transient, so each import would otherwise
be paid by every run. ``np``, ``spla`` and ``solve_ivp`` stay module-level
names, which a tracer swaps and restores by identity; GMRES is not reached
through ``spla``, so a tracer times it by wrapping ``_gmres``.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from ._lazy import LazyModule
from .errors import AmbiguityError, ContractError, NumericsError
from .fock import (HERMITICITY_TOL, NEGATIVE_EIGENVALUE_FLOOR, FieldOperator, QuantumState,
                   expectation, sectors)
from .models import ModelSpec

sp = LazyModule("scipy.sparse")
spla = LazyModule("scipy.sparse.linalg")

DENSE_EVOLVE_DIM = 512
PURE_NORM_TOL = 1e-9
TRACE_TOL = 1e-8
STEADY_RESIDUAL_TOL = 1e-10
LINDBLAD_RTOL = 1e-10
LINDBLAD_ATOL = 1e-12
# clip noise, not faults: DPO (10, 6) transients near threshold reach -2.2e-8
NEGATIVE_EIGENVALUE_LIMIT = 1e-6


@dataclass
class EvolutionResult:
    """Sampled trajectory: the states at the requested times."""

    model: ModelSpec
    times: np.ndarray
    states: list

    def expectation_series(self, op: FieldOperator) -> np.ndarray:
        return np.array([expectation(s, op) for s in self.states])


def evolve_pure(model: ModelSpec, psi0: QuantumState, times) -> EvolutionResult:
    """Schroedinger evolution psi(t) = U(t) psi0 for a dissipation-free model.

    Sample times may be any finite reals, unsorted and negative ones
    included; psi0 is the state at t = 0. Raises ContractError if the model
    carries dissipators, psi0 is not pure or a time is not finite; raises
    NumericsError if any sampled state's norm drifts beyond 1e-9.
    """
    if model.dissipators:
        raise ContractError("evolve_pure requires a model without dissipators")
    if not psi0.is_pure:
        raise ContractError("evolve_pure requires a pure initial state")
    if psi0.space != model.space:
        raise ContractError("state and model live on different spaces")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.isfinite(times).all():
        raise ContractError("evolve_pure needs finite real sample times")
    dim = model.space.total_dim

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
    return QuantumState._spectrum_checked(
        space, _clip_negative_eigenvalues(m / tr.real, f"t={t}"), tail)


def _clip_negative_eigenvalues(m, where: str):
    """``m`` with eigenvalues <= -NEGATIVE_EIGENVALUE_FLOOR (noise) clipped to 0, renormalized;
    one below -NEGATIVE_EIGENVALUE_LIMIT raises NumericsError naming ``where``. The density's
    one eigenvalue pass, so its ``QuantumState`` is made by ``_spectrum_checked``: ``eigvalsh``,
    and ``eigh`` only when a clip is needed."""
    evmin = np.linalg.eigvalsh(m).min()
    if evmin < -NEGATIVE_EIGENVALUE_LIMIT:
        raise NumericsError(f"density eigenvalue {evmin:.2e} at {where} is below "
                            f"-{NEGATIVE_EIGENVALUE_LIMIT}")
    if evmin <= -NEGATIVE_EIGENVALUE_FLOOR:
        w, v = np.linalg.eigh(m)
        w = np.clip(w, 0.0, None)
        m = (v * w) @ v.conj().T
        m = m / np.trace(m).real
    return m


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call.

    A module-level function, not an import, so that loading this module
    does not load ``scipy.integrate``, and a tracer can still wrap
    ``evolve.solve_ivp`` by name.
    """
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def evolve_lindblad(model: ModelSpec, rho0: QuantumState, times) -> EvolutionResult:
    """Integrate the master equation d rho/dt = -i[H, rho] + sum Lambda.

    Pure initial states are auto-promoted to densities. rho never leaves
    the real sectors (``_real_sectors``) that the real coordinates of rho0
    occupy, so DOP853 integrates L on those sectors alone, in float64, at
    ``LINDBLAD_RTOL``/``LINDBLAD_ATOL``: from the vacuum that is the
    population sector of the parametric oscillator, 930 of the 1800
    entries of its transpose-closed set at dims (10, 6). Each sample maps
    back to an exactly hermitian rho. Trace drift of ``TRACE_TOL`` or more
    raises NumericsError. DOP853 starts from rho0 at t = 0 and runs
    forward, so sample times must be a nonempty, finite, nondecreasing
    sequence starting at or after 0, or ContractError is raised.
    """
    if rho0.space != model.space:
        raise ContractError("state and model live on different spaces")
    rho0 = rho0.as_density_state()
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not (times.size and np.isfinite(times).all() and times[0] >= 0.0
            and np.all(np.diff(times) >= 0.0)):
        raise ContractError("Lindblad evolution needs nonempty, finite, nondecreasing times >= 0")
    if np.all(times == 0.0):
        return EvolutionResult(model, times, [rho0 for _ in times])
    d = model.space.total_dim
    x0 = _real_coordinates(rho0.data)
    occupied = [(idx, A) for idx, A in _real_sectors(model)[1] if np.any(x0[idx])]
    idx = np.concatenate([idx for idx, _ in occupied])
    A = sp.block_diag([A for _, A in occupied], format="csc")
    sol = solve_ivp(lambda t, y: A @ y, (0.0, times.max()), x0[idx],
                    t_eval=times, method="DOP853", rtol=LINDBLAD_RTOL, atol=LINDBLAD_ATOL)
    if not sol.success:
        raise NumericsError(f"Lindblad integration failed: {sol.message}")
    states = [_check_density_sample(model.space, m, t, rho0.tail_mass)
              for m, t in zip(_densities(sol.y.T, idx, d), times)]
    return EvolutionResult(model, times, states)


#: (drop_tol, fill_factor, GMRES cycles) rungs tried in order for the sector
#: ILUs, which factor in band (NATURAL) order. The first is the cheapest, and
#: serves every sector of criterion 7, the benchmark workloads and DPO (3, 3)
#: to (16, 12) below threshold. Its 2 cycles (200 iterations) bound what a
#: sector it does not serve costs: at 400 cycles a looser first rung ran one
#: (13, 15) sector at three times threshold for 40,000 iterations. Such a
#: sector then walks on exactly as a walk started at the second rung. That
#: tighter factor, at 400 cycles, serves every sector of the same DPO sweep
#: above threshold; at 2 cycles it would leave DPO (18, 12) at five times
#: threshold to the last rung. The last has no fill factor and drops by
#: tolerance alone (SuperLU's ``basic`` rule): the default ``area`` rule,
#: which also drops to keep fill near the fill factor, left zero pivots in
#: nonsingular sectors. At most 125 of 256 random models with 30%-fill H
#: reach it.
ILU_LADDER = ((0.15, 2, 2), (1e-1, 2, 400), (1e-3, None, 400))


def _gmres(A: sp.csc_matrix, solve, b: np.ndarray, rtol: float, cycles: int) -> tuple:
    """Restarted GMRES(100) for A x = b, right-preconditioned by ``solve``
    (an approximate A^-1, such as an incomplete LU's ``solve``), for at most
    ``cycles`` cycles. Returns (x, iterations, ||b - A x|| / ||b||); the
    system converged iff that true relative residual is <= rtol.

    Arnoldi runs on A M^-1, so its residual estimate is that of b - A x
    itself, not a preconditioned one. Each step orthogonalizes by classical
    Gram-Schmidt applied twice (CGS2) against a preallocated basis, four
    products with the basis in all, and the Givens rotations of the
    Hessenberg columns run on Python floats. A cycle ends once the estimate
    reaches rtol ||b|| or the basis breaks down (the Krylov space is
    invariant); the true residual then decides whether to restart. A
    breakdown whose true residual still fails ends the solve: A is singular
    on that space. So does a cycle that leaves the true residual no lower
    than it was at the cycle's start: a cycle minimizes it over x plus the
    Krylov space of r, so in exact arithmetic it cannot rise, and a cycle
    that does not lower it hands the same r, and so the same space, to the
    next, which can lower it no further.
    """
    n = len(b)
    m = min(100, n)
    eps = np.finfo(float).eps
    bnorm = float(np.linalg.norm(b))
    tol = rtol * bnorm
    # x comes before the basis and is updated in place, so that the x handed
    # back does not sit above the freed basis on the heap and keep its pages
    # resident: allocated after it, repeated (13, 15) steady states peaked ~4 MB higher
    x = np.zeros(n)
    V = np.empty((m + 1, n))
    r, rnorm = b, bnorm
    iters = 0
    for _ in range(cycles):
        start = rnorm
        V[0] = r / rnorm
        g, rotations, columns = [rnorm], [], []
        breakdown = False
        for j in range(m):
            w = A @ solve(V[j])
            w0 = float(np.linalg.norm(w))
            Vj = V[:j + 1]
            h = Vj @ w
            w -= Vj.T @ h
            h2 = Vj @ w
            w -= Vj.T @ h2
            beta = float(np.linalg.norm(w))
            column = (h + h2).tolist()
            for k, (c, s) in enumerate(rotations):
                column[k], column[k + 1] = (c * column[k] + s * column[k + 1],
                                            c * column[k + 1] - s * column[k])
            diag = math.hypot(column[j], beta)
            if diag == 0.0:  # A solve(V[j]) is exactly 0: nothing more to gain here
                breakdown = True
                break
            c, s = column[j] / diag, beta / diag
            column[j] = diag
            rotations.append((c, s))
            columns.append(column)
            g[j], g_next = c * g[j], -s * g[j]
            g.append(g_next)
            iters += 1
            breakdown = beta <= eps * w0
            if breakdown or abs(g_next) <= tol:
                break
            V[j + 1] = w / beta
        k = len(columns)
        R = np.zeros((k, k))
        for i, column in enumerate(columns):
            R[:i + 1, i] = column[:i + 1]
        x += solve(V[:k].T @ np.linalg.solve(R, g[:k]))
        r = b - A @ x
        rnorm = float(np.linalg.norm(r))
        if rnorm / bnorm <= rtol or breakdown or not rnorm < start:  # a NaN stops too
            break
    return x, iters, rnorm / bnorm


def _solve_sector(A: sp.csc_matrix, systems: list, idx: np.ndarray, d: int) -> list:
    """The solutions of A x = rhs for each (rhs, rtol) of ``systems``, on
    the real sector at the flat positions ``idx``: the one ladder walk of
    the sector. Each rung of ``ILU_LADDER`` factors A once, and ``_gmres``
    runs on the systems in order under that incomplete LU, for at most the
    rung's cycles each; the solutions of the first rung on which every one
    converges are returned. A rung that fails leaves nothing to the next,
    which starts afresh.

    A is factored in its given order (``permc_spec="NATURAL"``): a sector's
    row-major order of rho is banded, and minimum degree only adds fill.
    The order also keeps the trace row first, where ``_steady_ilu`` puts
    it. A sector that no rung solves is taken to be singular: it holds a
    second null vector of L, and AmbiguityError names it and says how each
    rung failed.
    """
    failures = []
    for drop_tol, fill, cycles in ILU_LADDER:
        rung = f"drop_tol {drop_tol}, fill {fill}"
        try:
            ilu = spla.spilu(A, drop_tol=drop_tol, fill_factor=fill,
                             drop_rule=None if fill else "basic", permc_spec="NATURAL")
        except RuntimeError:  # SuperLU found a zero pivot
            failures.append(f"{rung}: exactly singular incomplete LU factor, 0 iterations")
            continue
        xs = []
        for rhs, rtol in systems:
            x, iters, residual = _gmres(A, ilu.solve, rhs, rtol, cycles)
            if not residual <= rtol:  # a NaN residual fails too
                failures.append(f"{rung}: GMRES reached residual {residual:.0e} > {rtol:.0e} "
                                f"after {iters} iterations")
                break
            xs.append(x)
        else:
            return xs
    row, col = divmod(int(idx[0]), d)
    raise AmbiguityError(
        f"Liouvillian sector of {len(idx)} real unknowns from rho[{row}, {col}] looks singular, "
        f"so the null space is degenerate (preconditioned solve failed on every rung: "
        f"{'; '.join(failures)})")


def _check_system(n: int) -> tuple:
    """The nonsingularity check of a real sector system of order n: a fixed
    random right-hand side, solved to rtol 1e-8. GMRES converges on a
    singular system only for a consistent right-hand side, which a random
    one is not."""
    return np.random.default_rng(0).standard_normal(n), 1e-8


def _hermitian_basis(block: np.ndarray, d: int):
    """Sparse maps S and S^-1 between the entries of rho on a sector closed
    under rho -> rho^T and real coordinates at the same positions: Re rho_nm
    at rho_nm's and Im rho_nm at rho_mn's for n < m, and rho_nn at its own.
    S maps every real vector to a hermitian one. Its entries are 1 and +-i;
    S^-1 = diag(w) S^H, with w = 1 on rho_nn's and 1/2 elsewhere, has
    entries 1 and +-1/2 and +-i/2, so both products are exact.
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
    return S, (sp.diags(np.where(n == m, 1.0, 0.5)) @ S.conj().T).tocsc()


def _real_block(L: sp.csr_matrix, block: np.ndarray, d: int) -> sp.csc_matrix:
    """L on a sector closed under rho -> rho^T, written in the real
    coordinates of ``_hermitian_basis``: S^-1 L S.

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
    return Lr


def _real_sectors(model: ModelSpec) -> tuple:
    """L of ``model`` and its real sectors, the one split of L that every
    route uses. ``fock.sectors`` of |L| + T, T the map rho -> rho^T, gives
    the sets L is block diagonal over, a mirror pair of L's sectors being
    one set. Each set's ``_real_block`` is split again by ``fock.sectors``
    of its own pattern (the exact zeros are already dropped): when H is i
    times a real matrix, L also commutes with rho -> rho*, and a set falls
    apart into its Re and Im halves; otherwise it stays whole.

    Returns (L, sectors), the sectors as (flat positions, real block in CSC)
    pairs ordered by first position, so the sector holding rho_00 comes
    first.
    """
    d = model.space.total_dim
    L = liouvillian(model)
    k = np.arange(d * d)
    T = sp.csr_matrix((np.ones(d * d), (k, (k % d) * d + k // d)), shape=(d * d, d * d))
    pairs = []
    for block in sectors(abs(L) + T):
        Lr = _real_block(L, block, d)
        pairs += [(block[sub], Lr[sub][:, sub]) for sub in sectors(Lr)]
    return L, sorted(pairs, key=lambda pair: pair[0][0])


def _real_coordinates(rho: np.ndarray) -> np.ndarray:
    """Flat real coordinates of the hermitian part of rho: S^-1 of
    ``_hermitian_basis`` on the whole space. ``_densities`` inverts it."""
    d = rho.shape[0]
    return (_hermitian_basis(np.arange(d * d), d)[1] @ rho.reshape(-1)).real


def _densities(xs, idx: np.ndarray, d: int):
    """The hermitian d x d matrices S x of ``_hermitian_basis`` on the whole
    space, made one at a time, for each real vector x of ``xs`` given at the
    flat positions ``idx`` and zero elsewhere. S is built once per call.
    Every entry is one coordinate, or one of them times +-i, so the map is
    exact."""
    S = _hermitian_basis(np.arange(d * d), d)[0][:, idx]
    return ((S @ x).reshape(d, d) for x in xs)


def _steady_ilu(Lr: sp.csc_matrix, idx: np.ndarray, d: int) -> np.ndarray:
    """The density of the steady state on the real population sector Lr of
    L, at the flat positions ``idx``: the solution of Lr with the row of
    rho_00 replaced by Tr(rho) = 1, solved after its check in the sector's
    one ladder walk (``_solve_sector``; see the module docstring).

    The trace functional is a left null vector of Lr and is nonzero on
    rho_00's row, so that system is nonsingular exactly when the null space
    of Lr is one-dimensional and spanned by a state of nonzero trace.
    """
    trace_row = sp.csr_matrix((idx // d == idx % d).astype(float))
    A = sp.vstack([trace_row, Lr[1:]], format="csc")
    rhs = np.zeros(len(idx))
    rhs[0] = 1.0
    _, x = _solve_sector(A, [_check_system(len(idx)), (rhs, 1e-13)], idx, d)
    rho, = _densities([x], idx, d)
    return rho


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _called(job):
    """A finished Future holding ``job()``'s result or its exception."""
    from concurrent.futures import Future

    future = Future()
    try:
        future.set_result(job())
    except Exception as exc:
        future.set_exception(exc)
    return future


def _run_sectors(jobs: list):
    """Run ``jobs``, zero-argument callables in sector order whose first is
    the population solve, and return the first one's result.

    The calling thread runs the population job while a pool of
    max(1, usable CPUs - 1) workers takes the others from the front of its
    queue, so no more threads run than there are sectors. The caller then
    takes back, from the end, every job that has not started and runs it
    while the workers finish theirs. A failing population job is the lowest
    sector, so its error is raised; the other outcomes are read in sector
    order, so when several sectors fail the lowest one's error is raised,
    whatever the timing.

    The population job stays on the calling thread on measurement. A plain
    ``ThreadPoolExecutor(min(len(jobs), usable CPUs))`` with an idle caller
    (and no ``_called``) raised the peak RSS of the (13, 15) oscillator's
    benchmark pass from a median of 113.4 to 135.6 MB and left its wall
    time no better (0.588 -> 0.599 s; 2-core x86_64, 6 alternating pairs).
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max(1, _usable_cpus() - 1)) as pool:
        futures = [pool.submit(job) for job in jobs[1:]]
        result = jobs[0]()
        for k in reversed(range(len(futures))):
            if futures[k].cancel():
                futures[k] = _called(jobs[k + 1])
    for future in futures:
        future.result()
    return result


def _steady_dense(model: ModelSpec) -> np.ndarray:
    """Slow reference for ``steady_state``: dense ``eig`` of every real
    sector of ``_real_sectors``. Returns the null vector of the population
    sector, the first, as a density of unnormalized trace; null eigenvalues
    are counted over all sectors, and more than one raises AmbiguityError."""
    d = model.space.total_dim
    null_count = 0
    for k, (idx, A) in enumerate(_real_sectors(model)[1]):
        evals, evecs = np.linalg.eig(A.toarray())
        null_count += int(np.sum(np.abs(evals) < 1e-9))
        if k == 0:
            # a simple real eigenvalue has a real eigenvector
            rho, = _densities([evecs[:, np.argmin(np.abs(evals))].real], idx, d)
    if null_count > 1:
        raise AmbiguityError(
            f"Liouvillian null space is {null_count}-dimensional; steady state ambiguous")
    return rho


def steady_state(model: ModelSpec) -> QuantumState:
    """Null vector of the Liouvillian, normalized to trace 1.

    Requires at least one positive-rate dissipator. The returned density
    satisfies ||L(rho)||_F < 1e-10 (Frobenius, trace-normalized); a
    degenerate null space raises AmbiguityError instead of averaging.

    L is block diagonal over its real sectors (``_real_sectors``). They
    are solved and shown nonsingular in float64 by one ladder walk per
    sector, check first, as the module docstring sets out; when several
    sectors fail, the one with the lowest first position is named.
    """
    if not any(g > 0 for _, g in model.dissipators):
        raise ContractError("steady_state needs at least one dissipator with positive rate")
    d = model.space.total_dim
    # ordered by first position, so real[0] holds rho_00
    L, real = _real_sectors(model)
    rho = _run_sectors(
        [functools.partial(_steady_ilu, real[0][1], real[0][0], d)]
        + [functools.partial(_solve_sector, A, [_check_system(len(idx))], idx, d)
           for idx, A in real[1:]])

    tr = np.trace(rho).real
    if abs(tr) < 1e-14:
        raise NumericsError("steady-state candidate has vanishing trace")
    # the residual is that of the density returned, after any clip
    rho = _clip_negative_eigenvalues(rho / tr, "steady state")
    residual = float(np.linalg.norm(L @ rho.reshape(-1)))
    if not residual < STEADY_RESIDUAL_TOL:  # a NaN fails too
        raise NumericsError(f"steady-state residual {residual:.2e} exceeds {STEADY_RESIDUAL_TOL}")
    return QuantumState._spectrum_checked(model.space, rho)
