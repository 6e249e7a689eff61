"""Per-layer spans for the benchmark, installed from outside the package.

``install`` replaces the names that ``nlo_quanta`` modules look up at call
time (module attributes, the ``np``/``spla`` globals of ``evolve`` and
``soliton``, ``cli.RUNNERS``, ``QuantumState.__post_init__``) with wrappers
that record a span around the original call. The wrappers pass every
argument through unchanged; the one addition is a GMRES callback that
counts iterations. ``uninstall`` puts the originals back.

A span is (id, parent id, name, start, end, pass). Spans stay in memory
and are written once, when the run ends. A layer's self time is the time
its spans cover minus the time covered by their child spans, so the self
times of all layers plus ``unattributed.s`` add up to the traced pass time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

import nlo_quanta.cli as cli
from nlo_quanta import (closed_form, diagnostics, evolve, fock, media, models, oscillator,
                        soliton, validation)

PACKAGE_MODULES = (fock, models, evolve, diagnostics, closed_form, oscillator, media, soliton,
                   validation, cli)

#: Per-layer metrics reported by ``--trace 1``, with their units. Names end in
#: ``.s`` (self time of the span of that name), ``.calls`` (spans of that
#: name), or name a counter or gauge fed by a wrapper or a check.
PER_LAYER = {
    "evolve.spilu.s": "s",
    "evolve.spilu.fill_nnz": "count",
    "evolve.spilu.attempts": "count",
    "evolve.gmres.s": "s",
    "evolve.gmres.iters": "count",
    "evolve.gmres.calls": "count",
    "evolve.dense_eig.s": "s",
    "evolve.liouvillian.s": "s",
    "evolve.liouvillian.nnz": "count",
    "evolve.steady_state.s": "s",
    "evolve.steady_residual.max": "1",
    "evolve.evolve_lindblad.s": "s",
    "evolve.solve_ivp.s": "s",
    "evolve.solve_ivp.nfev": "count",
    "evolve.sample_eigh.s": "s",
    "evolve.sample_eigh.calls": "count",
    "evolve.evolve_pure.s": "s",
    "evolve.expm_multiply.s": "s",
    "evolve.expm_multiply.calls": "count",
    "evolve.eigh.s": "s",
    "fock.beam_splitter.s": "s",
    "fock.state_checks.s": "s",
    "fock.partial_trace.s": "s",
    "fock.expect_var.s": "s",
    "fock.operator_build.s": "s",
    "fock.operator_builds": "count",
    "models.build.s": "s",
    "models.build.calls": "count",
    "diagnostics.criteria.s": "s",
    "diagnostics.husimi_q.s": "s",
    "soliton.split_step.s": "s",
    "soliton.split_step.steps": "count",
    "soliton.fft.calls": "count",
    "soliton.mean_field.s": "s",
    "closed_form.s": "s",
    "closed_form.calls": "count",
    "media.s": "s",
    "media.calls": "count",
    "oscillator.s": "s",
    "oscillator.calls": "count",
    **{f"cli.{name}.s": "s" for name in cli.RUNNERS},
    "cli.write_outputs.s": "s",
    "cli.csv_bytes": "bytes",
    # criterion 7 runs the (25, 15) solve, which does not fit one run; the
    # c7_steady workload measures that solve's layers at a smaller size
    **{f"validation.c{n:02d}.s": "s" for n in range(1, 12) if n != 7},
    "unattributed.s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
}

# metric name -> counter name, where the two differ
_COUNT_ALIASES = {
    "evolve.spilu.attempts": "evolve.spilu.calls",
    "fock.operator_builds": "fock.operator_build.calls",
}

_OPERATOR_BUILDERS = ("annihilation", "creation", "number_operator", "identity_operator",
                      "quadrature", "mode_rotation")
_CRITERIA = ("mandel_excess", "quadrature_squeezing", "duan_simon_sum", "epr_product",
             "number_diff_criterion", "parity_test", "rotation_invariance",
             "fluctuation_bounds")


class Tracer:
    """Span and counter store. Recording happens only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.pass_id = -1
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._undo: list = []

    def wrap(self, name, fn, on_call=None, on_result=None):
        """Span wrapper for ``fn``. ``name`` is a string or a function of
        (parent span name, args) that returns one."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            parent_id, parent_name = tracer._stack[-1] if tracer._stack else (-1, "")
            span_name = name if isinstance(name, str) else name(parent_name, args)
            if on_call is not None:
                kwargs = on_call(args, kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            tracer._stack.append((sid, span_name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent_id, span_name, start, end, tracer.pass_id))
                tracer.counts[span_name + ".calls"] += 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    def counter(self, name, fn):
        """Call counter without a span, for calls too short to time."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing and removing wrappers ---------------------------------

    def _set(self, obj, attr, value):
        old = getattr(obj, attr)
        self._undo.append(lambda: setattr(obj, attr, old))
        setattr(obj, attr, value)

    def _set_item(self, mapping, key, value):
        old = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def _span_everywhere(self, name, fn, **hooks):
        """Wrap ``fn`` in every package module that holds it by name."""
        wrapped = self.wrap(name, fn, **hooks)
        for mod in PACKAGE_MODULES:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        count = self.counts

        def add(key, amount):
            count[key] += amount

        def gmres_callback(args, kwargs):
            return {**kwargs, "callback": lambda _r: add("evolve.gmres.iters", 1),
                    "callback_type": "pr_norm"}

        def eigh_name(parent, _args):
            return "evolve.sample_eigh" if parent == "evolve.evolve_lindblad" else "evolve.eigh"

        self._set(evolve, "np", _Namespace(np, linalg=_Namespace(
            np.linalg,
            eig=self.wrap("evolve.dense_eig", np.linalg.eig),
            eigh=self.wrap(eigh_name, np.linalg.eigh))))
        self._set(evolve, "spla", _Namespace(
            spla,
            spilu=self.wrap("evolve.spilu", spla.spilu, on_result=lambda ilu: add(
                "evolve.spilu.fill_nnz", ilu.L.nnz + ilu.U.nnz)),
            gmres=self.wrap("evolve.gmres", spla.gmres, on_call=gmres_callback),
            expm_multiply=self.wrap("evolve.expm_multiply", spla.expm_multiply)))
        self._set(evolve, "solve_ivp", self.wrap(
            "evolve.solve_ivp", evolve.solve_ivp,
            on_result=lambda sol: add("evolve.solve_ivp.nfev", sol.nfev)))
        self._span_everywhere("evolve.liouvillian", evolve.liouvillian,
                              on_result=lambda L: add("evolve.liouvillian.nnz", L.nnz))
        for fn in (evolve.steady_state, evolve.evolve_pure, evolve.evolve_lindblad):
            self._span_everywhere(f"evolve.{fn.__name__}", fn)

        self._set(fock.QuantumState, "__post_init__",
                  self.wrap("fock.state_checks", fock.QuantumState.__post_init__))
        for fn in (fock.expectation, fock.variance):
            self._span_everywhere("fock.expect_var", fn)
        self._span_everywhere("fock.partial_trace", fock.partial_trace)
        self._span_everywhere("fock.beam_splitter", fock.beam_splitter)
        for attr in _OPERATOR_BUILDERS:
            self._span_everywhere("fock.operator_build", getattr(fock, attr))

        for attr, fn in _public_functions(models):
            if attr.startswith("h_") or attr == "dpo_model":
                self._span_everywhere("models.build", fn)
        for attr in _CRITERIA:
            self._span_everywhere("diagnostics.criteria", getattr(diagnostics, attr))
        self._span_everywhere("diagnostics.husimi_q", diagnostics.husimi_q)

        def count_steps(args, kwargs):
            add("soliton.split_step.steps", kwargs["n_steps"] if "n_steps" in kwargs else args[3])
            return kwargs

        self._span_everywhere("soliton.split_step", soliton.split_step_nlse, on_call=count_steps)
        self._span_everywhere("soliton.mean_field", soliton.mean_field)
        self._set(soliton, "np", _Namespace(np, fft=_Namespace(
            np.fft,
            fft=self.counter("soliton.fft.calls", np.fft.fft),
            ifft=self.counter("soliton.fft.calls", np.fft.ifft))))

        for mod in (closed_form, media, oscillator):
            layer = mod.__name__.rsplit(".", 1)[1]
            for _attr, fn in _public_functions(mod):
                self._span_everywhere(layer, fn)

        for command, fn in list(cli.RUNNERS.items()):
            self._set_item(cli.RUNNERS, command, self.wrap(f"cli.{command}", fn))
        self._set(cli, "write_outputs", self.wrap("cli.write_outputs", cli.write_outputs))
        self._set(validation, "run_criterion", self.wrap(
            lambda _parent, args: f"validation.c{args[0]:02d}", validation.run_criterion))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- per-pass results ----------------------------------------------------

    def begin_pass(self, pass_id: int):
        self.pass_id = pass_id
        self.counts.clear()

    def end_pass(self) -> dict:
        return dict(self.counts)

    def pass_spans(self, pass_id: int) -> list[tuple]:
        return [s for s in self.spans if s[5] == pass_id]


class _Namespace:
    """Stand-in for a module inside one package module: the given names are
    replaced, every other attribute is the module's own."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        value = getattr(self._module, name)
        setattr(self, name, value)
        return value


def _public_functions(mod):
    return [(attr, fn) for attr, fn in vars(mod).items()
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__
            and not attr.startswith("_")]


def self_times(spans) -> tuple[dict, float]:
    """Self time per span name, and the time covered by top-level spans."""
    child = defaultdict(float)
    for _sid, parent, _name, start, end, _pass in spans:
        if parent >= 0:
            child[parent] += end - start
    own = defaultdict(float)
    top = 0.0
    for sid, parent, name, start, end, _pass in spans:
        own[name] += (end - start) - child[sid]
        if parent < 0:
            top += end - start
    return own, top


def layer_metrics(spans, counts: dict, observed: dict, pass_s: float) -> dict:
    """Values of every PER_LAYER metric except the ``trace.*`` ones, for one
    traced pass of ``pass_s`` seconds."""
    own, top = self_times(spans)
    values = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name == "unattributed.s":
            values[name] = pass_s - top
        elif name.endswith(".s"):
            values[name] = own.get(name[:-2], 0.0)
        elif name in observed:
            values[name] = observed[name]
        else:
            values[name] = counts.get(_COUNT_ALIASES.get(name, name), 0)
    return values
