"""Benchmark of nlo_quanta: one workload per process, measured for a fixed time.

Usage (from the repository root):

    python3 bench/run.py --workload c7_steady --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` warms up with
one untraced pass, alternates traced and untraced passes after it, and
prints the per-layer metrics of the traced pass with the median time. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed op (an exception or a
failed check) is counted and the run goes on.
Machine and run facts, per-pass times and op errors go to
``.bench_out/result-*.json``; a traced run also writes its spans to
``.bench_out/spans-*.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: End-to-end metrics reported by ``--trace 0``, with their units.
END_TO_END = {"setup_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# set-up = a fresh process that imports nlo_quanta.cli and makes the inputs
SETUP_SAMPLES = 5
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.generate(sys.argv[3], int(sys.argv[4]))")


@dataclass
class PassResult:
    wall: float = 0.0
    cpu: float = 0.0
    attempted: int = 0
    failed: int = 0
    observed: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    counts: dict | None = None  # a traced pass's counters; None when untraced


def run_pass(ops, tracer=None) -> PassResult:
    """Run every op once. Only ``op.call`` is timed and traced; a raising
    call or check marks the op failed and the pass continues."""
    res = PassResult()
    done = {}
    for op in ops:
        res.attempted += 1
        if tracer is not None:
            tracer.enabled = True
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception:  # a failing op is counted, not fatal
            error = traceback.format_exc()
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            if tracer is not None:
                tracer.enabled = False
        res.wall += t1 - t0
        res.cpu += c1 - c0
        if error is None:
            done[op.name] = result
            try:
                observed = op.check(result, done)
            except Exception:  # a failed check is counted, not fatal
                error = traceback.format_exc()
            else:
                for key, value in observed.items():
                    old = res.observed.get(key)
                    res.observed[key] = value if old is None else \
                        max(old, value) if key.endswith(".max") else old + value
        if error is not None:
            res.failed += 1
            res.errors.append(f"{op.name}: {error.strip().splitlines()[-1]}")
            print(f"op {op.name} failed:\n{error}", file=sys.stderr)
    return res


def measure(ops, seconds: float, tracer=None) -> list[PassResult]:
    """Passes until the next one would end more than half a pass past
    ``seconds``. With a tracer, the first pass warms up untraced and the
    rest alternate traced and untraced."""
    passes: list[PassResult] = []
    loop_walls: list[float] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.begin_pass(len(passes))
            res = run_pass(ops, tracer)
            res.counts = tracer.end_pass()
        else:
            res = run_pass(ops)
        passes.append(res)
        loop_walls.append(time.perf_counter() - t0)
        min_passes = 3 if tracer is not None else 1
        ahead = time.perf_counter() - start + 0.5 * statistics.median(loop_walls)
        if len(passes) >= min_passes and ahead > seconds:
            return passes


def setup_seconds(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR),
                        workload, str(seed)], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def end_to_end_metrics(passes: list[PassResult], setup: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(passes: list[PassResult], tracer) -> dict:
    """Layer numbers of the traced pass with the median time, and the
    tracing overhead against the untraced passes after the warm-up."""
    from tracing import layer_metrics

    traced = [(i, p) for i, p in enumerate(passes) if p.counts is not None]
    untraced = [p.wall for p in passes[1:] if p.counts is None]
    index, chosen = sorted(traced, key=lambda ip: ip[1].wall)[(len(traced) - 1) // 2]
    spans = tracer.pass_spans(index)
    values = layer_metrics(spans, chosen.counts, chosen.observed, chosen.wall)
    traced_median = statistics.median(p.wall for _, p in traced)
    untraced_median = statistics.median(untraced)
    values.update({
        "trace.pass_s": chosen.wall,
        "trace.untraced_pass_s": untraced_median,
        "trace.overhead_frac": traced_median / untraced_median - 1.0,
        "trace.spans": len(spans),
    })
    return values


def blas_facts() -> dict:
    """BLAS build and the thread count each bundled OpenBLAS reports."""
    import numpy
    import scipy

    facts = {}
    for pkg in (numpy, scipy):
        blas = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        entry = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
        libs_dir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libs_dir / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(handle, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    entry["threads"] = getter()
                    break
        facts[pkg.__name__] = entry
    return facts


def run_facts(args, passes, load_before) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "blas": blas_facts(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_before": load_before, "loadavg_after": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nlo_quanta" / "__init__.py").is_file():
        print(f"error: no nlo_quanta package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_before = list(os.getloadavg())
    import workloads

    inputs = workloads.generate(args.workload, args.seed)
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        ops = workloads.build_ops(args.workload, inputs, str(work_dir))
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        passes = measure(ops, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        from tracing import PER_LAYER

        values, units = per_layer_metrics(passes, tracer), PER_LAYER
    else:
        values, units = end_to_end_metrics(passes, setup), END_TO_END
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    facts = run_facts(args, passes, load_before)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"facts": facts, "inputs": inputs, "setup_samples_s": setup,
              "pass_wall_s": [p.wall for p in passes], "pass_cpu_s": [p.cpu for p in passes],
              "pass_traced": [p.counts is not None for p in passes],
              "fail_frac": failed / attempted,
              "errors": [e for p in passes for e in p.errors], "metrics": values}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end", "pass"],
             "spans": tracer.spans}))
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(f"fail_frac: {failed}/{attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
