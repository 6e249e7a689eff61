"""Truncated multimode Fock spaces, bosonic operators, and state algebra.

Conventions
-----------
* Per-mode truncation dims are caller-chosen; every state constructor
  records the probability lost to the truncation (``tail_mass``) so callers
  can assert their own error budgets.
* Flat indexing is row-major with mode 0 slowest: for dims ``(d0, d1, ...)``
  the occupation ``(n0, n1, ...)`` maps to ``n0*d1*d2*... + n1*d2*... + ...``.
* Operators are dense below ``SPARSE_THRESHOLD`` total dimension and
  ``scipy.sparse`` CSR above it. Ladder operators are one band of CSR arrays;
  ``beam_splitter`` takes one Hermitian ``eigh`` per photon-number shell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Sequence

import numpy as np

from ._lazy import LazyModule
from .errors import (
    ContractError,
    InvalidSpaceError,
    ModeIndexError,
    OutOfRangeError,
    ParameterError,
    TruncationError,
)

# imported on first use, so the closed-form CLI commands never load it
sp = LazyModule("scipy.sparse")

SPARSE_THRESHOLD = 256

HERMITICITY_TOL = 1e-12
COHERENT_TAIL_TOL = 1e-10
_NORMALIZATION_TOL = 1e-10
NEGATIVE_EIGENVALUE_FLOOR = 1e-10


@dataclass(frozen=True)
class SpaceDescriptor:
    """Tensor product of truncated single-mode Fock spaces.

    Parameters
    ----------
    dims : tuple of int
        Per-mode truncation dimensions, each >= 2. Mode k holds photon
        numbers 0 .. dims[k]-1.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) == 0:
            raise InvalidSpaceError("space needs at least one mode")
        for d in self.dims:
            if int(d) != d or d < 2:
                raise InvalidSpaceError(f"every mode dim must be an integer >= 2, got {d}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    def check_mode(self, mode: int) -> int:
        if not 0 <= mode < self.n_modes:
            raise ModeIndexError(f"mode {mode} out of range for {self.n_modes}-mode space")
        return mode

    def flat_index(self, occupation: Sequence[int]) -> int:
        """Row-major flat index of an occupation tuple (mode 0 slowest)."""
        if len(occupation) != self.n_modes:
            raise ContractError(f"occupation needs {self.n_modes} entries")
        idx = 0
        for n, d in zip(occupation, self.dims):
            if not 0 <= n < d:
                raise OutOfRangeError(f"occupation {n} outside 0..{d - 1}")
            idx = idx * d + n
        return idx

    def number_values(self, mode: int) -> np.ndarray:
        """Photon number of the given mode for every flat basis index."""
        self.check_mode(mode)
        before = prod(self.dims[:mode]) if mode else 1
        after = prod(self.dims[mode + 1:]) if mode + 1 < self.n_modes else 1
        return np.tile(np.repeat(np.arange(self.dims[mode]), after), before)


def make_space(dims: Iterable[int]) -> SpaceDescriptor:
    """Build a SpaceDescriptor from a list of per-mode truncation dims."""
    return SpaceDescriptor(tuple(dims))


def _as_sparse(m) -> sp.csr_matrix:
    return m.tocsr() if sp.issparse(m) else sp.csr_matrix(m)


def _as_dense(m) -> np.ndarray:
    return m.toarray() if sp.issparse(m) else np.asarray(m)


@dataclass(frozen=True)
class FieldOperator:
    """A linear operator on the full tensor-product space.

    ``matrix`` is a dense complex array for small spaces and a CSR sparse
    matrix above ``SPARSE_THRESHOLD``; use :meth:`dense` when a plain array
    is needed.
    """

    space: SpaceDescriptor
    matrix: object  # np.ndarray or scipy.sparse matrix

    def __post_init__(self):
        n = self.space.total_dim
        if self.matrix.shape != (n, n):
            raise ContractError(
                f"operator shape {self.matrix.shape} does not match space dim {n}")

    def dense(self) -> np.ndarray:
        return _as_dense(self.matrix).astype(complex, copy=False)

    def sparse(self) -> sp.csr_matrix:
        return _as_sparse(self.matrix).astype(complex, copy=False)

    def dag(self) -> "FieldOperator":
        """Hermitian adjoint, in the same storage: a sparse adjoint is CSR
        again, so operator arithmetic keeps CSR throughout."""
        adj = self.matrix.conj().T
        return FieldOperator(self.space, adj.tocsr() if sp.issparse(adj) else adj)

    def hermiticity_defect(self) -> float:
        return (self - self.dag()).max_abs()

    def is_hermitian(self) -> bool:
        return self.hermiticity_defect() < HERMITICITY_TOL

    def __matmul__(self, other: "FieldOperator") -> "FieldOperator":
        if other.space != self.space:
            raise ContractError("operators act on different spaces")
        return FieldOperator(self.space, self.matrix @ other.matrix)

    def __add__(self, other: "FieldOperator") -> "FieldOperator":
        if other.space != self.space:
            raise ContractError("operators act on different spaces")
        return FieldOperator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "FieldOperator") -> "FieldOperator":
        if other.space != self.space:
            raise ContractError("operators act on different spaces")
        return FieldOperator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "FieldOperator":
        return FieldOperator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "FieldOperator":
        return self * (-1.0)

    def commutator(self, other: "FieldOperator") -> "FieldOperator":
        return self @ other - other @ self

    def max_abs(self) -> float:
        return float(abs(self.matrix).max())


def _pack(space: SpaceDescriptor, mat) -> FieldOperator:
    """Store dense below the sparsity threshold, CSR above it."""
    if space.total_dim > SPARSE_THRESHOLD:
        return FieldOperator(space, _as_sparse(mat))
    return FieldOperator(space, _as_dense(mat).astype(complex, copy=False))


@dataclass(frozen=True)
class QuantumState:
    """A pure state vector or density matrix on a SpaceDescriptor.

    ``tail_mass`` records probability discarded by the constructor's
    truncation (0 for exact constructions like Fock states).
    """

    space: SpaceDescriptor
    kind: str  # "pure" | "density"
    data: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        n = self.space.total_dim
        if self.kind == "pure":
            if self.data.shape != (n,):
                raise ContractError(f"pure state must be a length-{n} vector")
            nrm = float(np.linalg.norm(self.data))
            if not abs(nrm - 1.0) < _NORMALIZATION_TOL:  # NaN fails too
                raise ContractError(
                    f"pure state norm {nrm} deviates from 1 beyond {_NORMALIZATION_TOL}")
        elif self.kind == "density":
            if self.data.shape != (n, n):
                raise ContractError(f"density matrix must be {n}x{n}")
            tr = complex(np.trace(self.data))
            if not abs(tr - 1.0) < _NORMALIZATION_TOL:
                raise ContractError(
                    f"density trace {tr} deviates from 1 beyond {_NORMALIZATION_TOL}")
            herm = float(np.abs(self.data - self.data.conj().T).max())
            if not herm < HERMITICITY_TOL:
                raise ContractError(f"density hermiticity defect {herm} beyond {HERMITICITY_TOL}")
            evmin = float(np.linalg.eigvalsh(self.data).min())
            if evmin <= -NEGATIVE_EIGENVALUE_FLOOR:
                raise ContractError(f"density has negative eigenvalue {evmin}")
        else:
            raise ContractError(f"unknown state kind {self.kind!r}")

    @property
    def is_pure(self) -> bool:
        return self.kind == "pure"

    def density(self) -> np.ndarray:
        """Density matrix view of the state (outer product for pure states)."""
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def as_density_state(self) -> "QuantumState":
        if self.is_pure:
            return QuantumState(self.space, "density", self.density(), self.tail_mass)
        return self


# ---------------------------------------------------------------------------
# operators


def annihilation(space: SpaceDescriptor, mode: int = 0) -> FieldOperator:
    """Lowering operator a on the given mode: a|n> = sqrt(n)|n-1>.

    One band at the flat-index offset of one photon in ``mode``, built as
    CSR arrays directly; its zeros, where a column starts the mode's count
    afresh, are not stored.
    """
    space.check_mode(mode)
    dim = space.total_dim
    stride = prod(space.dims[mode + 1:])
    band = np.sqrt(space.number_values(mode)[stride:])
    rows = np.flatnonzero(band)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    indptr[rows + 1] = 1
    np.cumsum(indptr, out=indptr)
    return _pack(space, sp.csr_matrix(
        (band[rows].astype(complex), (rows + stride).astype(np.int32), indptr),
        shape=(dim, dim)))


def creation(space: SpaceDescriptor, mode: int = 0) -> FieldOperator:
    """Raising operator a-dagger on the given mode."""
    return annihilation(space, mode).dag()


def number_operator(space: SpaceDescriptor, mode: int = 0) -> FieldOperator:
    """Photon number operator a-dagger a; diagonal and hermitian."""
    space.check_mode(mode)
    return _pack(space, sp.diags(space.number_values(mode).astype(complex), 0, format="csr"))


def identity_operator(space: SpaceDescriptor) -> FieldOperator:
    return _pack(space, sp.identity(space.total_dim, format="csr", dtype=complex))


def quadrature(space: SpaceDescriptor, mode: int, phi: float) -> FieldOperator:
    """Quadrature X(phi) = (e^{i phi} a-dag + e^{-i phi} a)/2.

    X(0) and X(pi/2) are the real and imaginary parts of a; the vacuum
    variance is 1/4 for every phi.
    """
    a = annihilation(space, mode)
    mat = 0.5 * (np.exp(1j * phi) * a.dag().matrix + np.exp(-1j * phi) * a.matrix)
    return _pack(space, mat)


def mode_rotation(space: SpaceDescriptor, mode: int, theta: float) -> FieldOperator:
    """Phase-space rotation exp(i theta n) on one mode; diagonal unitary."""
    space.check_mode(mode)
    ph = np.exp(1j * theta * space.number_values(mode))
    return _pack(space, sp.diags(ph, 0, format="csr"))


def beam_splitter(space: SpaceDescriptor, transmissivity: float) -> FieldOperator:
    """Two-mode beam-splitter unitary with transmissivity T.

    Realized as exp[theta (a-dag b - a b-dag)] with theta = arccos(sqrt T),
    which conjugates the mode operators as

        U-dag a U = sqrt(T) a + sqrt(R) b
        U-dag b U = -sqrt(R) a + sqrt(T) b,      R = 1 - T.

    The anti-Hermitian generator K conserves total photon number, so each
    sector of its pattern (an n_a + n_b shell) is exponentiated from one
    Hermitian eigh, -iK = V w V-dag, as V e^{iw} V-dag; the 1x1 sectors (every
    state at theta = 0) are exp(K_ii), filled in one step. The conjugation
    relations are exact on every shell that is complete under the truncation.
    """
    if space.n_modes != 2:
        raise ContractError("beam_splitter needs a two-mode space")
    if not 0.0 <= transmissivity <= 1.0:
        raise ParameterError(f"transmissivity {transmissivity} outside [0, 1]")
    theta = float(np.arccos(np.sqrt(transmissivity)))
    a = annihilation(space, 0).sparse()
    b = annihilation(space, 1).sparse()
    K = ((a.conj().T @ b - a @ b.conj().T) * theta).tocsr()
    blocks = sectors(K)
    single = np.array([idx[0] for idx in blocks if idx.size == 1], dtype=int)
    rows, cols, vals = [single], [single], [np.exp(K.diagonal()[single])]
    for idx in (idx for idx in blocks if idx.size > 1):
        w, v = np.linalg.eigh(-1j * K[idx][:, idx].toarray())
        block = (v * np.exp(1j * w)) @ v.conj().T
        rr, cc = np.meshgrid(idx, idx, indexing="ij")
        rows.append(rr.ravel())
        cols.append(cc.ravel())
        vals.append(block.ravel())
    U = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=K.shape,
    )
    return _pack(space, U)


def sectors(M) -> list[np.ndarray]:
    """Decoupled index sectors of a square matrix.

    Returns the weakly connected components of the nonzero pattern of ``M``
    as sorted index arrays, ordered by each component's smallest index: no
    nonzero entry of ``M`` couples two of them, so ``M`` is block diagonal
    over them. The graph is built from the boolean pattern ``M != 0``:
    csgraph casts complex values to real, which discards the purely
    imaginary entries of -i[H, .].
    """
    # imported here so that commands which never split a matrix skip it
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(sp.csr_matrix(M != 0), directed=True,
                                     connection="weak")
    order = np.argsort(labels, kind="stable")
    blocks = np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)
    return sorted(blocks, key=lambda block: block[0])


# ---------------------------------------------------------------------------
# states


def fock_state(space: SpaceDescriptor, occupation: Sequence[int]) -> QuantumState:
    """Unit basis vector |n0, n1, ...>."""
    vec = np.zeros(space.total_dim, dtype=complex)
    vec[space.flat_index(occupation)] = 1.0
    return QuantumState(space, "pure", vec, tail_mass=0.0)


def vacuum_state(space: SpaceDescriptor) -> QuantumState:
    return fock_state(space, (0,) * space.n_modes)


def _coherent_amplitudes(alpha, dim: int):
    """Truncated coherent amplitudes and the Poisson tail mass beyond dim.

    ``alpha`` is one complex amplitude or an array of them; for an array
    of shape s the amplitudes have shape ``(dim,) + s`` and the tails shape
    s. A scalar alpha stays a Python scalar in the recurrence: array
    arithmetic can round a complex product differently in the last bit.
    """
    amps = np.empty((dim,) + np.shape(alpha), dtype=complex)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    amps *= np.exp(-abs(alpha) ** 2 / 2.0)
    kept = np.sum(np.abs(amps) ** 2, axis=0)
    return amps, np.maximum(0.0, 1.0 - kept)


def coherent_state(
    space: SpaceDescriptor,
    mode_amplitudes: Sequence[complex],
    tail_tol: float = COHERENT_TAIL_TOL,
) -> QuantumState:
    """Normalized truncated tensor product of coherent states |alpha_k>.

    Raises TruncationError naming the first mode whose Poisson tail beyond
    its truncation dim exceeds ``tail_tol``.
    """
    if len(mode_amplitudes) != space.n_modes:
        raise ContractError(f"need {space.n_modes} amplitudes")
    vec = np.ones(1, dtype=complex)
    total_tail = 0.0
    for k, (alpha, dim) in enumerate(zip(mode_amplitudes, space.dims)):
        amps, tail = _coherent_amplitudes(complex(alpha), dim)
        if tail > tail_tol:
            raise TruncationError(
                f"mode {k}: coherent tail mass {tail:.3e} exceeds tolerance {tail_tol:.1e} "
                f"(|alpha|={abs(alpha):.3g}, dim={dim})")
        total_tail += float(tail)
        vec = np.kron(vec, amps)
    vec = vec / np.linalg.norm(vec)
    return QuantumState(space, "pure", vec, tail_mass=total_tail)


def thermal_state(space: SpaceDescriptor, mean_occupations: Sequence[float]) -> QuantumState:
    """Truncated tensor product of thermal (geometric) density matrices."""
    if len(mean_occupations) != space.n_modes:
        raise ContractError(f"need {space.n_modes} occupations")
    rho = np.ones((1, 1), dtype=complex)
    tail_total = 0.0
    for nbar, dim in zip(mean_occupations, space.dims):
        if not nbar >= 0:
            raise ParameterError("thermal occupation must be >= 0")
        n = np.arange(dim)
        p = (nbar / (1.0 + nbar)) ** n / (1.0 + nbar) if nbar > 0 else (n == 0).astype(float)
        tail_total += max(0.0, 1.0 - p.sum())
        p = p / p.sum()
        rho = np.kron(rho, np.diag(p.astype(complex)))
    return QuantumState(space, "density", rho, tail_mass=tail_total)


def apply_operator(op: FieldOperator, state: QuantumState) -> QuantumState:
    """Apply an operator to a state (U|psi> or U rho U-dag), renormalized."""
    if op.space != state.space:
        raise ContractError("operator and state live on different spaces")
    if state.is_pure:
        vec = op.matrix @ state.data
        vec = vec / np.linalg.norm(vec)
        return QuantumState(state.space, "pure", np.asarray(vec).ravel(), state.tail_mass)
    m = op.matrix @ state.data @ op.matrix.conj().T
    m = m / np.trace(m).real
    return QuantumState(state.space, "density", 0.5 * (m + m.conj().T), state.tail_mass)


# ---------------------------------------------------------------------------
# expectations


def expectation(state: QuantumState, op: FieldOperator) -> complex:
    """<psi|O|psi> for pure states, Tr(rho O) for densities."""
    if op.space != state.space:
        raise ContractError("operator and state live on different spaces")
    if state.is_pure:
        return complex(np.vdot(state.data, op.matrix @ state.data))
    return complex(np.trace(op.matrix @ state.data))


def variance(state: QuantumState, op: FieldOperator) -> float:
    """<O^2> - <O>^2 for hermitian O (real by construction)."""
    if not op.is_hermitian():
        raise ContractError("variance requires a hermitian operator")
    if state.is_pure:
        ov = op.matrix @ state.data
        m2 = float(np.real(np.vdot(ov, ov)))
        m1 = float(np.real(np.vdot(state.data, ov)))
    else:
        m1 = expectation(state, op).real
        m2 = expectation(state, op @ op).real
    return m2 - m1 * m1


def partial_trace(state: QuantumState, keep_modes: Sequence[int]) -> QuantumState:
    """Reduced density matrix over the kept modes (in their original order).

    A pure state with one traced mode never builds its full density: the
    outer products of the columns M[:, j] of psi, its traced axis last, are
    summed over j in order, the same sums as the trace of the density route,
    so the result is bit-identical to it.
    """
    keep = sorted(set(int(m) for m in keep_modes))
    if not keep:
        raise ContractError("keep_modes must be nonempty")
    for m in keep:
        state.space.check_mode(m)
    dims = state.space.dims
    traced = [m for m in range(len(dims)) if m not in keep]
    kept_dims = tuple(dims[m] for m in keep)
    d = prod(kept_dims)
    if state.is_pure and len(traced) == 1:
        M = np.moveaxis(state.data.reshape(dims), traced[0], -1).reshape(d, -1)
        rho = np.zeros((d, d), dtype=complex)
        for j in range(M.shape[1]):
            rho += np.multiply.outer(M[:, j], M[:, j].conj())
    else:
        rho = state.density().reshape(dims + dims)
        n = len(dims)
        for m in sorted(traced, reverse=True):
            rho = np.trace(rho, axis1=m, axis2=m + n)
            n -= 1
        rho = rho.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return QuantumState(make_space(kept_dims), "density", rho, state.tail_mass)
