"""Hold the bundled OpenBLAS libraries to one thread for the length of a call.

An OpenBLAS call that runs threaded leaves its workers spin-waiting for the
next one, ~130 ms of CPU each time, and lowering the thread count does not
stop a worker that is already spinning. The package's BLAS calls are small
dense products and solves, which gain nothing from a second thread, so the
routes that make them run under ``serial_blas``.
"""

from __future__ import annotations

import contextlib
import functools
import threading

#: (get, set) thread-count symbols, tried in order in each library
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _libraries() -> dict:
    """Package name -> (get, set) thread-count functions of the OpenBLAS
    bundled with numpy and with scipy: a ``<pkg>.libs/*openblas*`` file
    beside the package, and in it the first pair of ``_SYMBOLS`` it
    exports. Found on the first call and kept; a package without one (a
    system BLAS, MKL, Accelerate, or a build without the symbols) is left
    out, so where none is found the guard does nothing."""
    import ctypes
    import importlib.util
    from pathlib import Path

    found = {}
    for pkg in ("numpy", "scipy"):
        spec = importlib.util.find_spec(pkg)
        if spec is None or spec.origin is None:
            continue
        for lib in sorted((Path(spec.origin).resolve().parent.parent / f"{pkg}.libs")
                          .glob("*openblas*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for get, set_ in _SYMBOLS:
                if hasattr(handle, get) and hasattr(handle, set_):
                    getter, setter = getattr(handle, get), getattr(handle, set_)
                    getter.restype, getter.argtypes = ctypes.c_int, ()
                    setter.restype, setter.argtypes = None, (ctypes.c_int,)
                    found.setdefault(pkg, (getter, setter))
                    break
    return found


class _SerialBlas(contextlib.ContextDecorator):
    """Process-wide, reentrant and reference-counted: the first entry, from
    any thread, saves each library's thread count and sets it to 1, and the
    last exit restores the saved counts, also when the body raises. A count
    set from another thread in between is overwritten by that restore."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = [(setter, getter()) for getter, setter in _libraries().values()]
                for setter, _ in self._saved:
                    setter(1)
            self._depth += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for setter, count in self._saved:
                    setter(count)
        return False


#: ``with serial_blas:`` or ``@serial_blas``: hold BLAS to one thread
serial_blas = _SerialBlas()
