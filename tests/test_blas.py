"""``_blas.serial_blas``: the model builders, the Lindblad routes and
``validation.run_all`` hold numpy's and scipy's bundled OpenBLAS to one
thread, process-wide, and give the caller's thread counts back on the last
exit. Where no bundled OpenBLAS exports the thread-count symbols the guard
does nothing, and so do the counts these tests set."""

import hashlib
import inspect
import os
import threading

import numpy as np
import pytest
import scipy.sparse

from nlo_quanta import _blas, evolve, fock, models, validation
from nlo_quanta.errors import AmbiguityError

LIBRARIES = _blas._libraries()


def _counts() -> dict:
    return {pkg: get() for pkg, (get, _) in LIBRARIES.items()}


@pytest.fixture
def caller_threads():
    """Sets every found library's thread count, as a caller would, and
    puts back the counts the test started with."""
    saved = _counts()

    def set_all(n):
        for _, set_ in LIBRARIES.values():
            set_(n)

    yield set_all
    for pkg, count in saved.items():
        LIBRARIES[pkg][1](count)


def _dpo(dims):
    return models.dpo_model(fock.make_space(dims), 0.3, 0.8, 0.7, 0.9)


def _steady_digest(model) -> str:
    return hashlib.sha256(evolve.steady_state(model).data.tobytes()).hexdigest()


def _operator_bits(op):
    m = op.matrix
    if scipy.sparse.issparse(m):
        return type(m), m.data.tobytes(), m.indices.tobytes(), m.indptr.tobytes()
    return type(m), m.shape, m.tobytes()


def _model_bits(model):
    return ([_operator_bits(model.hamiltonian)]
            + [(_operator_bits(op), rate) for op, rate in model.dissipators]
            + [(name, _operator_bits(op)) for name, op in model.charges.items()])


#: every builder of ``models``, each on a dense space of total dimension >= 64
BUILDERS = {
    "h_two_mode_chi2": lambda: models.h_two_mode_chi2(fock.make_space([16, 8]), 1.0, 0.4),
    "h_three_mode_chi2": lambda: models.h_three_mode_chi2(fock.make_space([8, 4, 4]),
                                                          1.0, 0.7, 0.3),
    "h_kerr_single": lambda: models.h_kerr_single(fock.make_space([128]), 0.8, 0.3),
    "h_kerr_cross": lambda: models.h_kerr_cross(fock.make_space([16, 8]), 0.8, 0.6, 0.25),
    "h_nphoton": lambda: models.h_nphoton(fock.make_space([16, 8]), 1.0, 0.3, 3),
    "h_parametric_classical_pump": lambda: models.h_parametric_classical_pump(
        fock.make_space([128]), 0.3, 1.5 + 0.5j),
    "h_chi2_displaced_pump": lambda: models.h_chi2_displaced_pump(
        fock.make_space([16, 8]), 0.02, 3.0),
    "dpo_model": lambda: _dpo((16, 8)),
}


class TestSerialBlas:
    def test_serial_blas_covers_every_builder(self):
        public = {name for name, f in inspect.getmembers(models, inspect.isfunction)
                  if f.__module__ == models.__name__ and not name.startswith("_")}
        assert public == set(BUILDERS)

    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_serial_blas_builder_bits_unchanged(self, name, caller_threads, monkeypatch):
        # each entry of a ladder-monomial product is a single product, so
        # one BLAS thread gives the operators of two, signed zeros included
        caller_threads(2)
        inside = BUILDERS[name]()
        assert inside.space.total_dim >= 64 and not scipy.sparse.issparse(
            inside.hamiltonian.matrix)
        monkeypatch.setattr(_blas, "_libraries", dict)
        outside = BUILDERS[name]()
        assert _model_bits(inside) == _model_bits(outside)

    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "ambiguity-error"])
    def test_serial_blas_restores_callers_count(self, raises, caller_threads):
        caller_threads(3)
        before = _counts()
        if raises:  # dephasing alone: every rung's incomplete LU is exactly singular
            space = fock.make_space([4])
            model = models.ModelSpec(space, 0.0 * fock.number_operator(space, 0),
                                     dissipators=((fock.number_operator(space, 0), 0.5),))
            with pytest.raises(AmbiguityError):
                evolve.steady_state(model)
        else:
            evolve.steady_state(_dpo((6, 4)))
        assert _counts() == before

    def test_serial_blas_interleaved_threads_restore_once_at_last_exit(self, monkeypatch):
        # first in, first out: the second thread still holds the guard when
        # the first leaves, so the count stays 1 until the second leaves
        count, sets = [3], []

        def set_count(n):
            sets.append(n)
            count[0] = n

        monkeypatch.setattr(_blas, "_libraries", lambda: {"numpy": (lambda: count[0], set_count)})
        inside = [threading.Event(), threading.Event()]
        leave = [threading.Event(), threading.Event()]

        def hold(k):
            with _blas.serial_blas:
                inside[k].set()
                leave[k].wait(10)

        holders = [threading.Thread(target=hold, args=(k,)) for k in range(2)]
        holders[0].start()
        assert inside[0].wait(10) and count == [1]
        holders[1].start()
        assert inside[1].wait(10) and count == [1]
        leave[0].set()
        holders[0].join(10)
        assert not holders[0].is_alive() and count == [1] and sets == [1]
        leave[1].set()
        holders[1].join(10)
        assert not holders[1].is_alive() and count == [3] and sets == [1, 3]

    @pytest.mark.skipif("numpy" not in LIBRARIES,
                        reason="numpy's bundled OpenBLAS exports no thread-count symbols")
    def test_serial_blas_gmres_on_pool_worker_sees_one_thread(self, caller_threads, monkeypatch):
        # four CPUs: the pool worker walks the second mirror pair of DPO (8, 6)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        caller_threads(3)
        get = LIBRARIES["numpy"][0]
        seen = []
        gmres = evolve._gmres

        def recording(*args):
            seen.append((threading.get_ident(), get()))
            return gmres(*args)

        monkeypatch.setattr(evolve, "_gmres", recording)
        evolve.steady_state(_dpo((8, 6)))
        workers = {ident for ident, _ in seen} - {threading.get_ident()}
        assert workers and {count for _, count in seen} == {1}
        assert get() == 3

    def test_serial_blas_steady_bits_independent_of_callers_threads(self, caller_threads):
        # at (18, 12), one and two BLAS threads give different bits unguarded
        model = _dpo((18, 12))
        digests = []
        for n in (1, 2):
            caller_threads(n)
            digests.append(_steady_digest(model))
        assert digests[0] == digests[1]

    def test_serial_blas_none_found_gives_single_thread_bits(self, caller_threads, monkeypatch):
        model = _dpo((18, 12))
        caller_threads(2)
        guarded = _steady_digest(model)
        caller_threads(1)
        monkeypatch.setattr(_blas, "_libraries", dict)
        assert _steady_digest(model) == guarded

    def test_serial_blas_run_all_details_independent_of_threads(self, caller_threads, monkeypatch):
        # criterion 3's BLAS-threaded eigh beside a steady state: a guard on
        # the solver alone left part of criterion 3 at one thread, at a
        # point that depended on timing, when the two ran side by side
        def check_steady():
            model = _dpo((8, 6))
            a = fock.annihilation(model.space, 0)
            return {"n": float(fock.expectation(evolve.steady_state(model), a.dag() @ a).real)}

        monkeypatch.setattr(validation, "_CHECKS", {
            3: validation._CHECKS[3], 7: ("DPO (8, 6) steady state", check_steady, {"n": np.inf})})
        caller_threads(2)
        runs = [[(r.passed, repr(r.details)) for r in validation.run_all(threads=threads)]
                for threads in (1, 2, 2)]
        assert runs[0] == runs[1] == runs[2] and all(passed for passed, _ in runs[0])
