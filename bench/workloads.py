"""Benchmark workloads: inputs made from a seed, the ops of one pass, and
the check each op's output must pass.

Every op is a call into ``nlo_quanta`` that receives only generated inputs.
The runner times ``Op.call`` and runs ``Op.check`` outside the timed region;
a check raises ``CheckFailed`` on a wrong output and returns a dict of
observed values (``*.max`` names keep the largest value of a pass, other
names are summed).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import nlo_quanta.cli as cli
from nlo_quanta import evolve, fock, models, oscillator, validation

WORKLOADS = ("c7_steady", "open_ladder", "scenarios")

#: Non-validate CLI commands, run at their default config on seed 0.
COMMANDS = tuple(c for c in cli.COMMANDS if c != "validate")
#: Acceptance criteria other than 7, which c7_steady covers at a smaller size.
CRITERIA = (1, 2, 3, 4, 5, 6, 8, 9, 10, 11)

# Criterion 7 solves (25, 15): ~51 s per solve, longer than a whole run.
# (13, 15) keeps the pump truncation that the 5% gates need and the same
# ILU -> GMRES -> probe route, with ILU still most of the solve.
C7_DIMS = (13, 15)
C7_RATIO_SPREAD = 0.01
# Both sides of the d <= 48 dense/ILU switch in evolve.steady_state.
LADDER_DIMS = ((6, 4), (7, 4), (10, 6), (12, 8))
LADDER_RATIOS = (0.45, 0.55)
TRANSIENT = {"dims": (10, 6), "t_max": 20.0, "samples": 41}
STEADY_RESIDUAL_TOL = 1e-10
MOMENT_GATE = 0.05
TRANSIENT_GATE = 1e-9

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "reference_digests.json")


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], dict]


def generate(workload: str, seed: int) -> dict:
    """JSON-ready inputs of a workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "c7_steady":
        params = dict(validation.DPO_ACCEPTANCE) if seed == 0 else \
            _dpo_params(0.5 + rng.uniform(-C7_RATIO_SPREAD, C7_RATIO_SPREAD))
        return {"dims": list(C7_DIMS), "params": params}
    if workload == "open_ladder":
        steady = [{"dims": list(dims), "params": _dpo_params(rng.uniform(*LADDER_RATIOS))}
                  for dims in LADDER_DIMS]
        same = next(s for s in steady if tuple(s["dims"]) == TRANSIENT["dims"])
        return {"steady": steady,
                "transient": {**TRANSIENT, "dims": list(TRANSIENT["dims"]),
                              "params": same["params"]}}
    if workload == "scenarios":
        configs = {c: {} if seed == 0 else _scenario_params(c, rng) for c in COMMANDS}
        return {"configs": configs, "criteria": list(CRITERIA)}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _dpo_params(ratio: float) -> dict:
    """The acceptance oscillator with its drive set for threshold ``ratio``."""
    params = dict(validation.DPO_ACCEPTANCE)
    params["E0"] = ratio * params["gamma_a"] * params["gamma_b"] / params["kappa"]
    return params


def _scenario_params(command: str, rng: random.Random) -> dict:
    """Physical parameters inside each command's valid range; sizes
    (points, dims, grids, step counts) keep their defaults."""
    u = rng.uniform
    table = {
        "squeeze": {"n_pump": 10 ** u(3.0, 5.0), "u_max": u(2.5, 3.5)},
        "entangle": {},
        "kerr": {"alpha": u(1.5, 2.5), "omega": u(0.0, 1.0), "kappa": u(0.5, 1.5),
                 "bs_phi": u(0.2, 0.3)},
        "oscillator": {"kappa": u(0.2, 0.3), "gamma_a": u(0.8, 1.2), "gamma_b": u(1.5, 2.5)},
        "nphoton": {"kappa_n": u(0.1, 0.2), "pump_alpha": u(0.8, 1.2),
                    "t_max": u(2.5, 3.5), "husimi_radius": u(3.0, 4.0)},
        "medium": {"delta": u(0.8, 1.2), "g": u(0.8, 1.2), "n_density": u(0.5, 1.5),
                   "e0_max": u(0.04, 0.06)},
        "dispersion": {"beta_nu_rel": u(0.4, 0.5), "beta_prime_s": u(1.5e-27, 2.5e-27),
                       "beta_dblprime_s2": u(0.5e-43, 1.5e-43)},
        "downconv": {"k0": u(2.5, 3.5), "dz_max": u(35.0, 45.0)},
        "soliton": {"omega1_dblprime": u(1.8, 2.2), "g3": -u(0.045, 0.055)},
    }
    return {key: repr(value) for key, value in table[command].items()}


# ---------------------------------------------------------------------------
# ops


def build_ops(workload: str, inputs: dict, out_dir: str) -> list[Op]:
    if workload == "c7_steady":
        return [_c7_op(inputs)]
    if workload == "open_ladder":
        ops = [_steady_op(s["dims"], s["params"]) for s in inputs["steady"]]
        return ops + [_transient_op(inputs["transient"])]
    if workload == "scenarios":
        reference = None
        if not any(inputs["configs"].values()):
            with open(DIGESTS_PATH) as fh:
                reference = json.load(fh)["csv_sha256"]
        seen: dict = {}
        ops = [_command_op(c, raw, out_dir, reference, seen)
               for c, raw in inputs["configs"].items()]
        return ops + [_criterion_op(n) for n in inputs["criteria"]]
    raise ValueError(f"unknown workload {workload!r}")


def _dpo_model(dims, params):
    return models.dpo_model(fock.make_space(dims), params["kappa"], params["E0"],
                            params["gamma_a"], params["gamma_b"])


def _dpo_steady(dims, params):
    model = _dpo_model(dims, params)
    return model, evolve.steady_state(model)


def _check_steady(model, rho) -> float:
    """Residual ||L vec(rho)|| of a trace-one density, measured here."""
    residual = float(np.linalg.norm(evolve.liouvillian(model) @ rho.data.reshape(-1)))
    if not residual < STEADY_RESIDUAL_TOL:
        raise CheckFailed(f"steady residual {residual:.2e} >= {STEADY_RESIDUAL_TOL}")
    trace = complex(np.trace(rho.data))
    if abs(trace - 1.0) > 1e-10:
        raise CheckFailed(f"steady trace {trace}")
    return residual


def _c7_op(inputs) -> Op:
    dims, params = inputs["dims"], inputs["params"]

    def check(result, _done):
        model, rho = result
        residual = _check_steady(model, rho)
        p = oscillator.DpoParams(**params)
        space = model.space
        a = fock.annihilation(space, 0)
        n_sim = fock.expectation(rho, a.dag() @ a).real
        v2_sim = fock.variance(rho, fock.quadrature(space, 0, np.pi / 2))
        n_ref, _ = oscillator.below_threshold_moments(p)
        v2_ref = oscillator.below_threshold_squeezing(p)
        n_dev, v2_dev = abs(n_sim - n_ref) / n_ref, abs(v2_sim - v2_ref) / v2_ref
        if not (n_dev < MOMENT_GATE and v2_dev < MOMENT_GATE):
            raise CheckFailed(f"moments off the linearized forms: n {n_dev:.3g}, "
                              f"squeezing {v2_dev:.3g} (gate {MOMENT_GATE})")
        return {"evolve.steady_residual.max": residual}

    return Op(f"steady{tuple(dims)}", lambda: _dpo_steady(dims, params), check)


def _steady_op(dims, params) -> Op:
    def check(result, _done):
        return {"evolve.steady_residual.max": _check_steady(*result)}

    return Op(f"steady{tuple(dims)}", lambda: _dpo_steady(dims, params), check)


def _transient_op(spec) -> Op:
    dims, params = spec["dims"], spec["params"]

    def call():
        model = _dpo_model(dims, params)
        times = np.linspace(0.0, spec["t_max"], spec["samples"])
        return evolve.evolve_lindblad(model, fock.vacuum_state(model.space), times)

    def check(result, done):
        steady = done.get(f"steady{tuple(dims)}")
        if steady is None:
            raise CheckFailed("no steady state of the same model to compare with")
        dist = float(np.abs(result.states[-1].data - steady[1].data).max())
        if not dist < TRANSIENT_GATE:
            raise CheckFailed(f"transient ends {dist:.2e} from the steady state")
        return {}

    return Op(f"lindblad{tuple(dims)}", call, check)


def _csv_digests(out_dir: str, result) -> dict:
    digests = {}
    for table in result.tables:
        with open(os.path.join(out_dir, f"{table.name}.csv"), "rb") as fh:
            digests[f"{table.name}.csv"] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _command_op(command, raw, out_dir, reference, seen) -> Op:
    """One CLI command. Against ``reference`` digests when given, otherwise
    against the digests this run's first pass wrote."""

    def call():
        return cli.run(cli.build_config(command, raw, 0, 1, False), out_dir)

    def check(result, _done):
        digests = _csv_digests(out_dir, result)
        expected = {k: reference.get(k) for k in digests} if reference is not None \
            else seen.setdefault(command, digests)
        bad = sorted(k for k in digests if digests[k] != expected[k])
        if bad:
            raise CheckFailed(f"{command}: CSV bytes differ for {', '.join(bad)}")
        size = sum(os.path.getsize(os.path.join(out_dir, k)) for k in digests)
        return {"cli.csv_bytes": size}

    return Op(command, call, check)


def _criterion_op(number) -> Op:
    def check(result, _done):
        if not result.passed:
            raise CheckFailed(f"criterion {number} failed: {result.details}")
        return {}

    return Op(f"criterion{number:02d}", lambda: validation.run_criterion(number), check)
