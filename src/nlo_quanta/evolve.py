"""Unitary and Lindblad time evolution, and Liouvillian steady states.

Numerical routes
----------------
* Unitary evolution: exact eigendecomposition below ``DENSE_EVOLVE_DIM``,
  Krylov ``expm_multiply`` above it.
* Master equation: ``_real_sectors(model)`` is the one split of L. L
  preserves hermiticity, so it is real in the coordinates Re rho_nm,
  Im rho_nm (n < m) and rho_nn (``_coordinate_pairs``), and its rows
  rho_nm with n <= m hold all of it: one scatter of their entries makes
  the real generator R of the whole space, and ``fock.sectors`` splits R
  once. Its sectors are the sets L is block diagonal over, a sector of L
  joined with its mirror under rho -> rho^T (e.g. the n_a - m_a parity
  classes of the parametric oscillator, or a coherence order and its
  mirror), each split into its Re and Im halves when H is i times a real
  matrix, as for the parametric oscillator, since L then also commutes
  with rho -> rho*. L is dropped once R is made. Every route works on the
  real sectors in float64, and maps back to an exactly hermitian rho.
  Transients run adaptive DOP853 on the real sectors rho0 occupies. Trace
  renormalization is deliberately off; trace drift is an error signal.
* Steady states: one ladder walk per sector, check first. The real sector of
  rho_00 carries the steady state; its system is that sector with the row of
  rho_00 replaced by the trace functional, set equal to 1, and every other
  real sector's system is the sector itself. Each system is shown
  nonsingular by one check: GMRES on a fixed random right-hand side
  (``_check_system``) must converge under an incomplete LU. GMRES is the
  package's own ``_gmres``, right-preconditioned GMRES(100) for at most a
  rung's budget of cycles and none after one that leaves the true residual
  no lower, and a system converges iff ||b - A x|| <= rtol ||b||. One walk
  down ``ILU_LADDER`` (``_solve_sector``) factors the system once per rung
  and runs the check, then, on the population sector, the trace-constrained
  solve; the first rung on which both converge serves. When H is i times a
  real matrix and the jump operators are real, each set's Im half is the
  mirror of an earlier sector, its partner (``_mirror_partners``): its image
  under rho -> rho^T is the set's Re half, or lies inside it. The partner's
  walk carries the mirror's: the mirror's own check runs first under the
  partner's serving factor, mapped through those positions, for at most the
  first rung's cycles and none after the first if it leaves the residual
  too high for the rest of them to reach rtol at its rate
  (``_promising_gmres``), and the mirror walks the ladder itself only if
  that misses. So every real sector keeps its own check, and the parametric
  oscillator factors twice where it would factor four times. The ladder has
  three rungs: a cheap factor with a 2-cycle budget, which serves every sector
  below threshold, a tighter one at 400 cycles, and a fallback that drops by
  tolerance alone. A sector that no rung serves is taken to be singular and
  raises AmbiguityError naming it and each rung's failure, so a second null
  vector is caught whether or not it has trace, and so is a second sector
  holding populations rho_nn, of which the trace functional is a left null
  vector. The calling thread walks the population sector while max(1, usable
  CPUs - 1) workers walk the other sectors that no partner carries
  (``_run_sectors``). Every ILU factors in the sector's own row-major order
  of rho, which is already banded (``NATURAL``); minimum degree only adds
  fill there. The trace row is rho_00's, the first; on DPO (6, 4) to (12, 8)
  rho_{d-1,d-1}'s, the last, serves as well on every rung, but at (13, 15)
  not within the first rung's budget. This is the one route;
  ``_steady_dense``, a dense eig per real sector, is its private slow
  reference.

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

import contextvars
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from ._lazy import LazyModule
from .errors import AmbiguityError, ContractError, NumericsError
from .fock import (NEGATIVE_EIGENVALUE_FLOOR, FieldOperator, QuantumState, expectation,
                   sectors)
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


def _lindblad_action(model: ModelSpec, rho: np.ndarray) -> np.ndarray:
    """d rho/dt of the master equation at the d x d matrix rho, in its
    operator form: -i[H, rho] + sum gamma (2 A rho A-dag - A-dag A rho
    - rho A-dag A). The matrix of ``liouvillian(model) @ rho.reshape(-1)``,
    at d x d cost."""
    H = model.hamiltonian.sparse()
    out = -1j * (H @ rho - rho @ H)
    for op, gamma in model.dissipators:
        A = op.sparse()
        Ad = A.conj().T
        AdA = Ad @ A
        out += gamma * (2.0 * (A @ rho @ Ad) - AdA @ rho - rho @ AdA)
    return out


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
    population sector of the parametric oscillator alone, 930 of the 3600
    real coordinates at dims (10, 6). Each sample maps back to an exactly
    hermitian rho. Trace drift of ``TRACE_TOL`` or more raises
    NumericsError. DOP853 starts from rho0 at t = 0 and runs forward, so
    sample times must be a nonempty, finite, nondecreasing sequence
    starting at or after 0, or ContractError is raised.
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
    occupied = [(idx, A) for idx, A in _real_sectors(model) if np.any(x0[idx])]
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


def _promising_gmres(A: sp.csc_matrix, solve, b: np.ndarray, rtol: float, cycles: int) -> tuple:
    """``_gmres`` for at most ``cycles`` cycles, run as one cycle and then,
    only if that cycle left a residual r with r ** cycles <= rtol, the rest
    of them in one call on the true residual, as ``_gmres`` restarts its own
    cycles: the rest run only if, lowering r as much on each of them, they
    could reach rtol. Returns (x, iterations, ||b - A x|| / ||b||), as
    ``_gmres`` does."""
    x, iters, residual = _gmres(A, solve, b, rtol, 1)
    if residual <= rtol or not residual ** cycles <= rtol:  # a NaN gives up too
        return x, iters, residual
    dx, more, _ = _gmres(A, solve, b - A @ x, rtol / residual, cycles - 1)
    x = x + dx
    return x, iters + more, float(np.linalg.norm(b - A @ x)) / float(np.linalg.norm(b))


def _solve_sector(A: sp.csc_matrix, systems: list, idx: np.ndarray, d: int, *,
                  borrowed=None, mirrors=()) -> list:
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

    ``mirrors`` are the walks this one carries: for each sector whose
    image under rho -> rho^T lies in this one (``_mirror_partners``), its
    walk, a callable taking ``borrowed``, the positions of its image here,
    and a Future. Once a rung serves, each such walk runs with ``borrowed``
    set to that rung's factor mapped through those positions (``_mirrored``)
    and named "mirror of rho[n, m]'s factor" after this sector, and its
    result or error goes to its Future. A walk given ``borrowed`` first
    runs its systems under it (``_promising_gmres``) for at most the first
    rung's cycles, whatever rung served the partner, and walks the ladder
    from the first rung only if that misses; its AmbiguityError then lists
    the borrowed try before the rungs.
    """
    row, col = divmod(int(idx[0]), d)
    failures = []

    def solved(solve, cycles, rung, gmres=_gmres):
        xs = []
        for rhs, rtol in systems:
            x, iters, residual = gmres(A, solve, rhs, rtol, cycles)
            if not residual <= rtol:  # a NaN residual fails too
                failures.append(f"{rung}: GMRES reached residual {residual:.0e} > {rtol:.0e} "
                                f"after {iters} iterations")
                return None
            xs.append(x)
        return xs

    if borrowed is not None:
        solve, name = borrowed
        xs = solved(solve, ILU_LADDER[0][2], name, _promising_gmres)
        if xs is not None:
            return xs
    for drop_tol, fill, cycles in ILU_LADDER:
        rung = f"drop_tol {drop_tol}, fill {fill}"
        try:
            ilu = spla.spilu(A, drop_tol=drop_tol, fill_factor=fill,
                             drop_rule=None if fill else "basic", permc_spec="NATURAL")
        except RuntimeError:  # SuperLU found a zero pivot
            failures.append(f"{rung}: exactly singular incomplete LU factor, 0 iterations")
            continue
        xs = solved(ilu.solve, cycles, rung)
        if xs is not None:
            for walk, positions, outcome in mirrors:
                lent = (_mirrored(ilu.solve, positions, len(idx)),
                        f"mirror of rho[{row}, {col}]'s factor")
                _called(functools.partial(walk, borrowed=lent), outcome)
            return xs
    raise AmbiguityError(
        f"Liouvillian sector of {len(idx)} real unknowns from rho[{row}, {col}] looks singular, "
        f"so the null space is degenerate (preconditioned solve failed on every rung: "
        f"{'; '.join(failures)})")


def _mirrored(solve, positions: np.ndarray, n: int):
    """``solve``, of a sector of order n, on the vectors of a mirror sector
    whose image lies at ``positions`` in it: scattered there, solved, and
    gathered back."""
    def mirrored(v):
        y = np.zeros(n)
        y[positions] = v
        return solve(y)[positions]

    return mirrored


def _mirror_partners(real: list, d: int) -> list:
    """For each real sector of ``real`` (ordered by first position), its
    partner and where its mirror image lies there: (k, positions) when the
    image of its flat positions under rho -> rho^T (q -> (q mod d) d +
    q div d) lies inside an earlier sector k, at ``positions`` of k's
    sorted positions, and None otherwise.

    When H is i times a real matrix and every jump operator is real, each
    set closed under rho -> rho^T splits into a Re half and an Im half, and
    the Im half is a mirror: its image is the other half, or lies inside it
    when the set holds populations. A set that does not split is its own
    image, so a model with complex H has no mirror. rho -> rho^T is an
    involution, so no partner is itself a mirror.
    """
    owner = np.empty(d * d, dtype=np.intp)
    for k, (idx, _) in enumerate(real):
        owner[idx] = k
    partners = []
    for k, (idx, _) in enumerate(real):
        image = (idx % d) * d + idx // d
        j = owner[image[0]]
        if j < k and np.all(owner[image] == j):
            partners.append((j, np.searchsorted(real[j][0], image)))
        else:
            partners.append(None)
    return partners


def _check_system(n: int) -> tuple:
    """The nonsingularity check of a real sector system of order n: a fixed
    random right-hand side, solved to rtol 1e-8. GMRES converges on a
    singular system only for a consistent right-hand side, which a random
    one is not."""
    return np.random.default_rng(0).standard_normal(n), 1e-8


def _coordinate_pairs(d: int) -> tuple:
    """The real coordinates of a hermitian d x d matrix, the one statement
    of their convention: Re rho_nm at rho_nm's flat position and Im rho_nm
    at rho_mn's for n < m, and rho_nn at its own. Returns, for every flat
    position q, the positions re[q] and im[q] of the Re and Im coordinates
    of q's pair, and the sign s[q] with rho_q = x[re[q]] + i s[q] x[im[q]]:
    +1 above the diagonal, -1 below it, and 0 on it, where re and im are q.
    """
    k, l = np.divmod(np.arange(d * d, dtype=np.int32), d)
    low, high = np.minimum(k, l), np.maximum(k, l)
    return low * d + high, high * d + low, np.sign(l - k)


def _real_sectors(model: ModelSpec) -> list:
    """The real sectors of the Liouvillian L of ``model``, the one split of
    L that every route uses, as (flat positions, real block in CSC) pairs
    ordered by first position, so the sector holding rho_00 comes first.

    L preserves hermiticity, so its rows rho_nm with n <= m hold all of
    it. Each of their entries L_pq is scattered, by its real and imaginary
    parts, to the real generator R of the whole space, L in the coordinates
    of ``_coordinate_pairs``: rho_q = x[re[q]] + i s[q] x[im[q]], and
    (L rho)_p is dx[p]/dt, plus i dx[im[p]]/dt above the diagonal. Every entry of R
    takes at most two parts, those of rho_q and of its mirror.
    ``fock.sectors`` of R are the sectors: the sets that L is block
    diagonal over, a mirror pair of L's sectors being one set, and each
    set split into its Re and Im halves when H is i times a real matrix,
    for L then also commutes with rho -> rho*. L is gone before this
    returns, so no d^2 x d^2 complex matrix is held while the sectors are
    solved; the exact zeros of R, cancelled parts included, are dropped.
    """
    d = model.space.total_dim
    re, im, sign = _coordinate_pairs(d)
    upper_rows = np.flatnonzero(sign >= 0).astype(np.int32)
    upper = liouvillian(model)[upper_rows]
    p = np.repeat(upper_rows, np.diff(upper.indptr))
    q, v = upper.indices, upper.data
    del upper
    off_p, s_q = sign[p] != 0, sign[q]

    def nonzero(row, col, value):
        keep = np.flatnonzero(value)
        return row[keep], col[keep], value[keep]

    # one part at a time, each filtered before the next is formed
    parts = [nonzero(p, re[q], v.real), nonzero(p, im[q], -s_q * v.imag),
             nonzero(im[p], re[q], off_p * v.imag), nonzero(im[p], im[q], off_p * s_q * v.real)]
    del p, q, v, off_p, s_q
    rows, cols, values = (np.concatenate(part) for part in zip(*parts))
    del parts
    R = sp.csr_matrix((values, (rows, cols)), shape=(d * d, d * d))
    del rows, cols, values
    R.eliminate_zeros()
    return [(idx, R[idx][:, idx].tocsc()) for idx in sectors(R)]


def _real_coordinates(rho: np.ndarray) -> np.ndarray:
    """Flat real coordinates (``_coordinate_pairs``) of the hermitian part
    of rho: rho_nn, and the halves (rho_nm + rho_mn) / 2 and
    i (rho_nm - rho_mn) / 2 for n < m, each summed onto +0.0 as a sparse
    product sums its terms, so that no coordinate is -0.0.
    ``_densities`` inverts it."""
    d = rho.shape[0]
    _, im, sign = _coordinate_pairs(d)
    v = rho.reshape(-1)
    diag, up = np.flatnonzero(sign == 0), np.flatnonzero(sign > 0)
    low = im[up]
    x = np.zeros(d * d)
    x[diag] += v.real[diag]
    x[up] += 0.5 * v.real[up] + 0.5 * v.real[low]
    x[low] += 0.5 * v.imag[up] - 0.5 * v.imag[low]
    return x


def _densities(xs, idx: np.ndarray, d: int):
    """The hermitian d x d matrices rho_q = x[re[q]] + i s[q] x[im[q]] of
    ``_coordinate_pairs``, made one at a time, for each real vector x of
    ``xs`` given at the flat positions ``idx`` and zero elsewhere. Every
    entry is one coordinate, or one of them times +-1, summed onto +0.0, so
    the map is exact and no part of an entry is -0.0."""
    re, im, sign = _coordinate_pairs(d)
    for x in xs:
        full = np.zeros(d * d)
        full[idx] = x
        rho = np.zeros(d * d, dtype=complex)
        rho.real += full[re]
        rho.imag += sign * full[im]
        yield rho.reshape(d, d)


def _steady_ilu(Lr: sp.csc_matrix, idx: np.ndarray, d: int, *, mirrors=()) -> np.ndarray:
    """The density of the steady state on the real population sector Lr of
    L, at the flat positions ``idx``: the solution of Lr with the row of
    rho_00 replaced by Tr(rho) = 1, solved after its check in the sector's
    one ladder walk (``_solve_sector``; see the module docstring), which
    also walks the sector's ``mirrors``.

    The trace functional is a left null vector of Lr and is nonzero on
    rho_00's row, so that system is nonsingular exactly when the null space
    of Lr is one-dimensional and spanned by a state of nonzero trace.
    """
    trace_row = sp.csr_matrix((idx // d == idx % d).astype(float))
    A = sp.vstack([trace_row, Lr[1:]], format="csc")
    rhs = np.zeros(len(idx))
    rhs[0] = 1.0
    _, x = _solve_sector(A, [_check_system(len(idx)), (rhs, 1e-13)], idx, d, mirrors=mirrors)
    rho, = _densities([x], idx, d)
    return rho


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _called(job, future=None):
    """``future``, or a new Future, finished with ``job()``'s result or its
    exception."""
    from concurrent.futures import Future

    future = Future() if future is None else future
    try:
        future.set_result(job())
    except Exception as exc:
        future.set_exception(exc)
    return future


def _run_sectors(jobs: list):
    """Run ``jobs``, one per sector in sector order whose first is the
    population solve, and return the first one's result. A job is a
    zero-argument callable, or, for a mirror sector that an earlier sector's
    walk carries (``_solve_sector``), the Future that walk finishes.

    The calling thread runs the population job while a pool of
    max(1, usable CPUs - 1) workers takes the other callables from the front
    of its queue, so no more threads run than there are callables. The
    caller then takes back, from the end, every callable that has not
    started and runs it while the workers finish theirs. A failing
    population job is the lowest sector, so its error is raised; the other
    outcomes, a mirror's Future included, are read in sector order, so when
    several sectors fail the lowest one's error is raised, whatever the
    timing and whichever job carried it. A mirror's Future is left unset
    only when its partner fails, and the partner comes first.

    The population job stays on the calling thread on measurement. A plain
    ``ThreadPoolExecutor(min(len(jobs), usable CPUs))`` with an idle caller
    (and no ``_called``) raised the peak RSS of the (13, 15) oscillator's
    benchmark pass from a median of 113.4 to 135.6 MB and left its wall
    time no better (0.588 -> 0.599 s; 2-core x86_64, 6 alternating pairs,
    with four jobs, one per real sector, before mirrors were carried).

    Each job runs in its own copy of the caller's context (two threads
    cannot enter one Context at once): a pool worker starts from a fresh
    one, so numpy's ``errstate``, a context variable, would otherwise hold
    on the jobs the caller runs and not on the others.
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=max(1, _usable_cpus() - 1)) as pool:
        futures = [pool.submit(contextvars.copy_context().run, job) if callable(job) else job
                   for job in jobs[1:]]
        result = jobs[0]()
        for k in reversed(range(len(futures))):
            if callable(jobs[k + 1]) and futures[k].cancel():
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
    for k, (idx, A) in enumerate(_real_sectors(model)):
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
    sector, check first, a mirror sector's carried by its partner's and
    tried first under the partner's factor, as the module docstring sets
    out; when several sectors fail, the one with the lowest first position
    is named. L itself is not held while they are solved: the residual
    L(rho) is measured in operator form (``_lindblad_action``), on the
    density returned.
    """
    if not any(g > 0 for _, g in model.dissipators):
        raise ContractError("steady_state needs at least one dissipator with positive rate")
    from concurrent.futures import Future

    d = model.space.total_dim
    # ordered by first position, so real[0] holds rho_00
    real = _real_sectors(model)
    walks = [functools.partial(_steady_ilu, real[0][1], real[0][0], d)] + [
        functools.partial(_solve_sector, A, [_check_system(len(idx))], idx, d)
        for idx, A in real[1:]]
    # a mirror's walk is carried by its partner's, which finishes its Future
    carried = [[] for _ in real]
    for j, partner in enumerate(_mirror_partners(real, d)):
        if partner is not None:
            k, positions = partner
            outcome = Future()
            carried[k].append((walks[j], positions, outcome))
            walks[j] = outcome
    rho = _run_sectors([functools.partial(walk, mirrors=mirrors) if mirrors else walk
                        for walk, mirrors in zip(walks, carried)])

    tr = np.trace(rho).real
    if abs(tr) < 1e-14:
        raise NumericsError("steady-state candidate has vanishing trace")
    # the residual is that of the density returned, after any clip
    rho = _clip_negative_eigenvalues(rho / tr, "steady state")
    residual = float(np.linalg.norm(_lindblad_action(model, rho)))
    if not residual < STEADY_RESIDUAL_TOL:  # a NaN fails too
        raise NumericsError(f"steady-state residual {residual:.2e} exceeds {STEADY_RESIDUAL_TOL}")
    return QuantumState._spectrum_checked(model.space, rho)
