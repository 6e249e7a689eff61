"""Scenario runner: every capability as a reproducible batch command.

Usage:
    nlo-quanta COMMAND [--config PATH] [--out DIR] [--threads N] [--fast]

Commands: squeeze entangle kerr oscillator nphoton medium dispersion
downconv soliton validate.

Configs are flat INI key-value files with one section per command (plus an
optional [run] section carrying ``command`` and ``seed``); unknown sections
or keys are hard errors. ``TABLE`` holds each command's parameter defaults,
range rule and runner; the rule is checked before any work runs. Outputs are
CSV tables (byte-identical for an identical config and package version, with
the config hash embedded in a comment header) plus a small JSON metadata file
that carries the config echo, version, and wall time.

Exit codes: 0 success, 1 usage error, 2 config/validation error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from . import closed_form as cf
from . import diagnostics as dg
from . import evolve, fock, media, models, oscillator, soliton, validation
from .errors import NumericsError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


class UsageError(ValueError):
    """Command-line level misuse (missing/empty config, no command)."""


@dataclass
class ScenarioConfig:
    """Validated parameters for one command run."""

    command: str
    params: dict
    seed: int = 0
    threads: int = 1
    fast: bool = False

    def hash(self) -> str:
        payload = json.dumps(
            {"command": self.command, "seed": self.seed, "fast": self.fast,
             "params": {k: self.params[k] for k in sorted(self.params)}},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class Table:
    """Columnar series with unit strings, ready for CSV emission."""

    name: str
    columns: list  # of (name, unit, values)

    def rows(self):
        lengths = {len(v) for _, _, v in self.columns}
        if len(lengths) != 1:
            raise ConfigError(f"table {self.name} has ragged columns")
        n = lengths.pop()
        for i in range(n):
            yield [v[i] for _, _, v in self.columns]


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    tables: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    wall_time: float = 0.0


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_, int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _make_out_dir(out_dir: str):
    """Create the output directory; a path that cannot be one is a
    UsageError naming it."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {out_dir!r} is not a usable directory: {exc.strerror}") from exc


def write_outputs(result: ScenarioResult, out_dir: str):
    """Write each table's CSV and the run's meta JSON. A non-finite cell
    raises NumericsError naming its table, column and row before any file
    is written."""
    for table in result.tables:
        for name, _, values in table.columns:
            bad = np.flatnonzero(~np.isfinite(np.asarray(values, dtype=float)))
            if len(bad):
                raise NumericsError(f"table {table.name}: column {name!r} is {values[bad[0]]} "
                                    f"at row {bad[0]} ({len(bad)} non-finite cells)")
    _make_out_dir(out_dir)
    cfg_hash = result.config.hash()
    for table in result.tables:
        path = os.path.join(out_dir, f"{table.name}.csv")
        with open(path, "w") as fh:
            fh.write(f"# nlo-quanta {__version__}\n")
            fh.write(f"# config_hash: {cfg_hash}\n")
            fh.write(",".join(f"{name} [{unit}]" for name, unit, _ in table.columns) + "\n")
            for row in table.rows():
                fh.write(",".join(_fmt(x) for x in row) + "\n")
    meta = {
        "command": result.config.command,
        "config_hash": cfg_hash,
        "version": __version__,
        "config": {"seed": result.config.seed, "fast": result.config.fast,
                   "params": result.config.params},
        "summary": result.summary,
        "wall_time_s": result.wall_time,
        "tables": [t.name for t in result.tables],
    }
    with open(os.path.join(out_dir, f"{result.config.command}_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def parse_config_file(path: str, command: str | None):
    """Read an INI config; returns (command, raw dict, seed). Unknown
    sections or keys raise ConfigError (anti-typo contract)."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        values = {name: dict(parser[name]) for name in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"config file {path!r} is not valid INI: {exc}") from exc
    if not read:
        raise UsageError(f"config file {path!r} is missing or unreadable")
    sections = set(values)
    if not sections and not parser.defaults():
        raise UsageError(f"config file {path!r} is empty")
    seed = 0
    cfg_command = command
    if "run" in sections:
        run = values["run"]
        extra = set(run) - {"command", "seed"}
        if extra:
            raise ConfigError(f"unknown keys in [run]: {sorted(extra)}")
        if "command" in run:
            cfg_command = run["command"].strip()
            if command is not None and cfg_command != command:
                raise ConfigError(
                    f"config command {cfg_command!r} conflicts with CLI command {command!r}")
        if "seed" in run:
            seed = _parse_value("seed", run["seed"], int)
        sections.discard("run")
    if cfg_command is None:
        raise ConfigError("no command given (CLI argument or [run] section)")
    if cfg_command not in TABLE:
        raise ConfigError(f"unknown command {cfg_command!r}")
    unknown_sections = sections - {cfg_command}
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")
    raw = values.get(cfg_command, {})
    return cfg_command, raw, seed


def _parse_value(key: str, text: str, cast: type):
    """``text`` read as a finite ``cast``; an int may be written as an
    integral float (``1e2`` reads as 100). Raises ConfigError otherwise."""
    try:
        value = float(text)
        if not np.isfinite(value) or (cast is int and not value.is_integer()):
            raise ValueError(f"not a finite {cast.__name__}")
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})")
    return cast(value)


def build_config(command: str, raw: dict, seed: int, threads: int, fast: bool) -> ScenarioConfig:
    if fast and command != "validate":
        raise UsageError(f"--fast applies to validate only, not {command!r}")
    entry = TABLE[command]
    unknown = set(raw) - set(entry.defaults)
    if unknown:
        raise ConfigError(f"unknown keys for {command!r}: {sorted(unknown)}")
    params = dict(entry.defaults)
    for key, text in raw.items():
        params[key] = _parse_value(key, text, type(params[key]))
    if not entry.rule(params):
        raise ConfigError(entry.message)
    return ScenarioConfig(command, params, seed=seed, threads=threads, fast=fast)


# ---------------------------------------------------------------------------
# command implementations: a runner takes the validated parameters and
# returns (tables, summary)


def _sweep(name: str, axis: tuple, xs, columns: list, point) -> Table:
    """Table ``name``: the ``axis`` (name, unit) column holding ``xs``, then
    one column per (name, unit) in ``columns``, filled from the values
    ``point(x)`` returns. ``point`` runs once per x."""
    rows = [point(x) for x in xs]
    return Table(name, [(*axis, list(xs))] +
                 [(col, unit, [row[i] for row in rows]) for i, (col, unit) in enumerate(columns)])


def run_squeeze(p: dict):
    table = _sweep(
        "squeeze", ("u", "dimensionless"), np.linspace(p["u_min"], p["u_max"], p["points"]),
        [("var_x1", "dimensionless"), ("var_x2", "dimensionless"),
         ("var_x2_phase_averaged", "dimensionless"), ("var_x2_corrected", "dimensionless")],
        lambda u: (*cf.para_variances(u, 0.0), cf.phase_averaged_var_x2(u, p["n_pump"]),
                   cf.corrected_var_x2(u, p["n_pump"])))
    u_star, var_min = cf.max_squeezing(p["n_pump"])
    optimum = Table("squeeze_optimum", [
        ("n_pump", "photons", [p["n_pump"]]),
        ("u_star", "dimensionless", [u_star]),
        ("var_min", "dimensionless", [var_min]),
    ])
    return [table, optimum], {"u_star": u_star, "var_min": var_min, "n_pump": p["n_pump"]}


def run_entangle(p: dict):
    thetas = np.linspace(0.0, np.pi / 2, p["points"])
    dsum, eprod = [], []
    for theta in thetas:
        s = validation._pair_state(theta)
        dsum.append(dg.duan_simon_sum(s, 0, 1).value)
        eprod.append(dg.epr_product(s, 0, 1).value)
    k = int(np.argmin(dsum))
    table = Table("entangle", [
        ("theta", "rad", list(thetas)),
        ("c0", "dimensionless", list(np.cos(thetas))),
        ("c1", "dimensionless", list(-np.sin(thetas))),
        ("duan_simon_sum", "dimensionless", dsum),
        ("epr_product", "dimensionless", eprod),
    ])
    best = validation._pair_state(thetas[k])
    reports = [dg.duan_simon_sum(best, 0, 1).to_json_row(),
               dg.epr_product(best, 0, 1).to_json_row()]
    return [table], {
        "min_duan_sum": dsum[k], "argmin_theta": float(thetas[k]),
        "analytic_min": 4.0 - 2.0 * np.sqrt(2.0), "analytic_theta": np.pi / 8,
        "criterion_reports": reports}


def run_kerr(p: dict):
    def point(kt):
        a = cf.kerr_mean_amplitude(p["alpha"], p["omega"], p["kappa"], kt / p["kappa"])
        return a.real, a.imag, abs(a)

    table = _sweep("kerr", ("kappa_t", "rad"), np.linspace(0.0, p["kt_max"], p["points"]),
                   [("re_mean", "dimensionless"), ("im_mean", "dimensionless"),
                    ("abs_mean", "dimensionless")], point)
    opt = cf.kerr_bs_optimum(abs(p["alpha"]), p["bs_phi"])
    return [table], {"bs_optimum_excess": opt.excess, "bs_mean_n": opt.mean_n,
                     "bs_r_opt": opt.r_opt, "bs_phi": p["bs_phi"],
                     "bs_validity_warning": opt.validity_warning}


def run_oscillator(p: dict):
    gg = p["gamma_a"] * p["gamma_b"]

    def point(ratio):
        dp = oscillator.DpoParams(p["kappa"], ratio * gg / p["kappa"], p["gamma_a"], p["gamma_b"])
        below = oscillator.steady_branches(dp)[0]
        evals = oscillator.stability_eigenvalues(dp, below)
        return (0.0, below.beta0.real, float(evals.real.max()),
                oscillator.below_threshold_squeezing(dp),
                oscillator.below_threshold_moments(dp)[0])

    table = _sweep(
        "oscillator", ("threshold_ratio", "dimensionless"),
        np.linspace(p["ratio_min"], p["ratio_max"], p["points"]),
        [("alpha0", "dimensionless"), ("beta0", "dimensionless"),
         ("slowest_eigenvalue", "rad/s"), ("squeezed_variance", "dimensionless"),
         ("signal_n_fluct", "dimensionless")], point)
    return [table], {"squeezing_threshold_limit": oscillator.squeezing_threshold_limit(),
                     "gamma_a": p["gamma_a"], "gamma_b": p["gamma_b"], "kappa": p["kappa"]}


def run_nphoton(p: dict):
    space = fock.make_space([p["signal_dim"], p["pump_dim"]])
    model = models.h_nphoton(space, 1.0, p["kappa_n"], p["n"])
    psi0 = fock.coherent_state(space, [0.0, p["pump_alpha"]], tail_tol=1e-9)
    times = np.linspace(0.0, p["t_max"], p["points"])
    result = evolve.evolve_pure(model, psi0, times)
    n_sig = result.expectation_series(fock.number_operator(space, 0)).real
    n_pump = result.expectation_series(fock.number_operator(space, 1)).real
    rot_dev = [dg.rotation_invariance(s, 0, p["n"]) for s in result.states]
    table = Table("nphoton", [
        ("t", "s", list(times)),
        ("n_signal", "photons", list(n_sig)),
        ("n_pump", "photons", list(n_pump)),
        ("signal_rotation_dev", "dimensionless", rot_dev),
    ])
    grid, _ = dg.husimi_grid(p["husimi_radius"], p["husimi_points"])
    q = dg.husimi_q(result.states[-1], 0, grid)
    husimi = Table("nphoton_husimi", [
        ("re_alpha", "dimensionless", list(grid.real.ravel())),
        ("im_alpha", "dimensionless", list(grid.imag.ravel())),
        ("q", "1/pi", list(q.ravel())),
    ])
    return [table, husimi], {"n": p["n"], "final_n_signal": float(n_sig[-1]),
                             "max_rotation_dev": float(max(rot_dev))}


def run_medium(p: dict):
    ref = media.TwoLevelParams(delta=p["delta"], gE=0.0, n_density=p["n_density"], g=p["g"])
    chi1 = media.chi1_two_level(ref)
    chi3 = media.chi3_two_level(ref)

    def point(e0):
        tl = media.TwoLevelParams(delta=p["delta"], gE=p["g"] * e0,
                                  n_density=p["n_density"], g=p["g"])
        return media.two_level_polarization(tl), media.effective_chi_kerr(chi1, chi3, e0)

    table = _sweep("medium", ("E0", "V/m"), np.linspace(p["e0_min"], p["e0_max"], p["points"]),
                   [("polarization_amp", "C/m^2"), ("chi_eff", "dimensionless")], point)
    return [table], {"chi1": chi1, "chi3": chi3, "delta": p["delta"]}


def run_dispersion(p: dict):
    coeffs = media.DispersionCoeffs(
        beta_nu=p["beta_nu_rel"] / media.EPS0,
        beta_nu_prime=p["beta_prime_s"] / media.EPS0,
        beta_nu_dblprime=p["beta_dblprime_s2"] / media.EPS0,
    )
    table = _sweep(
        "dispersion", ("k", "1/m"), np.linspace(p["k_min"], p["k_max"], p["points"]),
        [("omega_plus", "rad/s"), ("omega_minus", "rad/s"), ("A_k", "sqrt(H/m * rad/s)"),
         ("v_k", "m/s")],
        lambda k: (*media.dispersion_omega(k, coeffs), media.mode_norm_Ak(k, coeffs),
                   media.group_velocity(k, coeffs)))
    return [table], {"points": p["points"]}


def run_downconv(p: dict):
    k0 = p["k0"]

    def point(dz):
        v = cf.downconv_kernel(dz, k0)
        return abs(v), v.real, v.imag, abs(cf.downconv_kernel_quadrature(dz, k0, 2001))

    table = _sweep(
        "downconv", ("delta_z", "m"), np.linspace(-p["dz_max"], p["dz_max"], p["points"]),
        [("abs_kernel", "1/m^3"), ("re_kernel", "1/m^3"), ("im_kernel", "1/m^3"),
         ("abs_kernel_quadrature", "1/m^3")], point)
    return [table], {"fitted_decay_exponent": cf.downconv_decay_exponent(k0, 40),
                     "dz0_value": k0 ** 3 / 6.0, "k0": k0}


def run_soliton(p: dict):
    fiber = soliton.soliton_fiber(p["omega1_dblprime"], p["g3"], p["n0"],
                                  p["grid_widths"], p["grid_points"])
    period = fiber.soliton_period(p["n0"])
    t_final = p["periods"] * period
    steps = p["steps"] or fiber.guided_steps(t_final)
    if steps > _MAX_STEPS:
        raise ConfigError(f"soliton needs at most {_MAX_STEPS} split steps; periods = "
                          f"{p['periods']} on {p['grid_points']} grid points takes {steps}")
    profile = soliton.classical_soliton_profile(p["n0"], 0.0, 0.0, fiber, 0.0)

    snap_times = np.linspace(0.0, t_final, p["snapshots"])
    outs = [profile] + soliton.split_step_snapshots(
        profile, fiber, snap_times[1:],
        [max(1, int(round(steps * (st / t_final)))) for st in snap_times[1:]])
    columns = [("x", "m", list(fiber.grid.x))]
    columns += [(f"abs_psi_t{i}", "1/sqrt(m)", list(np.abs(out.values)))
                for i, out in enumerate(outs)]
    peaks = [out.peak() for out in outs]
    profile_table = Table("soliton_profile", columns)
    mf_times = np.linspace(0.0, 4.0 / max(fiber.g3 ** 2 * p["n0"] ** 1.5, 1e-12), 9)
    mf_peaks = [soliton.mean_field(np.sqrt(float(p["n0"])), fiber, t).peak()
                for t in mf_times]
    peak_table = Table("soliton_peak", [
        ("t", "s", list(snap_times)),
        ("peak_abs_psi", "1/sqrt(m)", peaks),
    ])
    mf_table = Table("soliton_mean_field_peak", [
        ("t", "s", list(mf_times)),
        ("peak_mean_field", "1/sqrt(m)", mf_peaks),
    ])
    return [profile_table, peak_table, mf_table], {
        "soliton_period": period, "steps": steps, "norm_sq": profile.norm_sq()}


def run_validate(cfg: ScenarioConfig, out_dir: str):
    matrix_path = os.path.join(out_dir, "validate_matrix.json")
    if os.path.exists(matrix_path):
        with open(matrix_path) as fh:
            previous = json.load(fh)
        if not isinstance(previous, dict):
            raise ConfigError("output dir holds a validate_matrix.json that is not a JSON object; "
                              "refusing to overwrite it (use a fresh --out)")
        if previous.get("config_hash") not in (None, cfg.hash()):
            raise ConfigError(
                f"output dir holds a validate matrix for config {previous['config_hash']}; "
                f"refusing to mix with {cfg.hash()} (use a fresh --out)")
    _make_out_dir(out_dir)
    results = validation.run_all(fast=cfg.fast, threads=cfg.threads, printer=print)
    table = Table("validate", [
        ("criterion", "index", [r.criterion for r in results]),
        ("passed", "bool", [int(r.passed) for r in results]),
        ("seconds", "s", [round(r.seconds, 3) for r in results]),
    ])
    matrix = {
        "config_hash": cfg.hash(),
        "version": __version__,
        "fast": cfg.fast,
        "criteria": {
            str(r.criterion): {
                "name": r.name, "passed": r.passed, "seconds": round(r.seconds, 3),
                "details": r.details,
            } for r in results
        },
        "all_passed": all(r.passed for r in results),
    }
    with open(matrix_path, "w") as fh:
        json.dump(matrix, fh, indent=2, sort_keys=True, default=lambda x: x.item())
    summary = {"all_passed": matrix["all_passed"],
               "n_passed": sum(r.passed for r in results), "n_run": len(results)}
    return [table], summary


# ---------------------------------------------------------------------------
# the command table


@dataclass(frozen=True)
class Command:
    """One command: its parameter defaults (a parameter's type is the type of
    its default), the range rule that ``build_config`` checks before any work
    runs (failing it raises ConfigError(``message``)), and its runner, which
    takes the parameters (validate's: the config and output directory)."""

    defaults: dict
    rule: Callable[[dict], bool]
    message: str
    runner: Callable


# Upper bounds of the size-like parameters: the largest value any test, demo
# or benchmark input uses (181 sweep points, dims 18, n 4, 241 Husimi points,
# a 1024-point grid, ~6000 guided steps, 5 snapshots, a 25-photon soliton),
# with headroom. _MAX_STEPS also bounds the soliton's guided step count.
_MAX_POINTS = 10_000
_MAX_DIM = 64
_MAX_N = 8
_MAX_HUSIMI_POINTS = 401
_MAX_GRID_POINTS = 16_384
_MAX_STEPS = 1_000_000
_MAX_SNAPSHOTS = 100
_MAX_N0 = 1_000

TABLE = {
    "squeeze": Command(
        dict(n_pump=1e4, u_min=0.0, u_max=3.0, points=61),
        lambda p: (p["n_pump"] > 0 and 2 <= p["points"] <= _MAX_POINTS
                   and p["u_max"] > p["u_min"]),
        f"squeeze needs n_pump > 0, 2 <= points <= {_MAX_POINTS}, u_max > u_min", run_squeeze),
    "entangle": Command(
        dict(points=181),
        lambda p: 16 <= p["points"] <= _MAX_POINTS,
        f"entangle needs 16 <= points <= {_MAX_POINTS}", run_entangle),
    "kerr": Command(
        dict(alpha=2.0, omega=0.0, kappa=1.0, kt_max=2.0 * np.pi, points=101, bs_phi=0.25),
        lambda p: 2 <= p["points"] <= _MAX_POINTS and p["kt_max"] > 0 and p["kappa"] != 0,
        f"kerr needs 2 <= points <= {_MAX_POINTS}, kt_max > 0 and kappa != 0", run_kerr),
    "oscillator": Command(
        dict(kappa=0.25, gamma_a=1.0, gamma_b=2.0, ratio_min=0.02, ratio_max=0.999, points=50),
        lambda p: (0.0 < p["ratio_min"] < p["ratio_max"] < 1.0
                   and min(p["kappa"], p["gamma_a"], p["gamma_b"]) > 0
                   and 1 <= p["points"] <= _MAX_POINTS),
        "oscillator sweep needs 0 < ratio_min < ratio_max < 1, kappa, gamma_a, "
        f"gamma_b > 0 and 1 <= points <= {_MAX_POINTS}", run_oscillator),
    "nphoton": Command(
        dict(n=3, kappa_n=0.15, pump_alpha=1.0, signal_dim=18, pump_dim=14, t_max=3.0,
             points=16, husimi_radius=3.5, husimi_points=41),
        lambda p: (2 <= p["n"] <= _MAX_N and p["n"] < p["signal_dim"] <= _MAX_DIM
                   and 2 <= p["pump_dim"] <= _MAX_DIM
                   and 2 <= p["husimi_points"] <= _MAX_HUSIMI_POINTS
                   and 1 <= p["points"] <= _MAX_POINTS),
        f"nphoton needs 2 <= n <= {_MAX_N}, n < signal_dim <= {_MAX_DIM}, "
        f"2 <= pump_dim <= {_MAX_DIM}, 2 <= husimi_points <= {_MAX_HUSIMI_POINTS} "
        f"and 1 <= points <= {_MAX_POINTS}", run_nphoton),
    "medium": Command(
        dict(delta=1.0, g=1.0, n_density=1.0, e0_min=0.0, e0_max=0.05, points=51),
        lambda p: 0 <= p["e0_min"] < p["e0_max"] and 1 <= p["points"] <= _MAX_POINTS,
        f"medium sweep needs 0 <= e0_min < e0_max and 1 <= points <= {_MAX_POINTS}",
        run_medium),
    "dispersion": Command(
        dict(beta_nu_rel=1.0 / 2.25, beta_prime_s=2e-27, beta_dblprime_s2=1e-43,
             k_min=1e6, k_max=2e7, points=100),
        lambda p: (p["beta_nu_rel"] > 0 and p["k_min"] > 0 and p["k_max"] > 0
                   and 1 <= p["points"] <= _MAX_POINTS),
        "dispersion needs beta_nu_rel > 0, k_min > 0, k_max > 0 and "
        f"1 <= points <= {_MAX_POINTS}", run_dispersion),
    "downconv": Command(
        dict(k0=3.0, dz_max=40.0, points=161),
        lambda p: p["k0"] > 0 and p["dz_max"] > 0 and 1 <= p["points"] <= _MAX_POINTS,
        f"downconv needs k0 > 0, dz_max > 0 and 1 <= points <= {_MAX_POINTS}", run_downconv),
    "soliton": Command(
        # steps = 0 takes the step count from FiberParams.guided_steps
        dict(n0=25, omega1_dblprime=2.0, g3=-0.05, grid_widths=24.0, grid_points=1024,
             periods=1.0, steps=0, snapshots=5),
        lambda p: (2 <= p["n0"] <= _MAX_N0 and p["grid_widths"] >= 12 and p["g3"] < 0
                   and p["periods"] > 0 and p["grid_points"] <= _MAX_GRID_POINTS
                   and 0 <= p["steps"] <= _MAX_STEPS
                   and 2 <= p["snapshots"] <= _MAX_SNAPSHOTS),
        f"soliton needs 2 <= n0 <= {_MAX_N0}, g3 < 0, a grid of >= 12 soliton widths, "
        f"periods > 0, grid_points <= {_MAX_GRID_POINTS}, 0 <= steps <= {_MAX_STEPS} and "
        f"2 <= snapshots <= {_MAX_SNAPSHOTS}", run_soliton),
    "validate": Command({}, lambda p: True, "", run_validate),
}

COMMANDS = tuple(TABLE)
#: The scenario runners, by command; ``run`` looks them up at call time.
RUNNERS = {name: c.runner for name, c in TABLE.items() if name != "validate"}


def run(cfg: ScenarioConfig, out_dir: str) -> ScenarioResult:
    """Execute a validated scenario and write its outputs. A runner's numpy
    overflow, division by zero or invalid operation raises where it happens."""
    t0 = time.perf_counter()
    if cfg.command == "validate":
        tables, summary = run_validate(cfg, out_dir)
    else:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            tables, summary = RUNNERS[cfg.command](cfg.params)
    result = ScenarioResult(cfg, tables, summary, time.perf_counter() - t0)
    write_outputs(result, out_dir)
    if cfg.command == "validate" and not summary["all_passed"]:
        raise NumericsError("validate: one or more acceptance criteria failed")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlo-quanta",
        description="Quantum nonlinear optics scenario runner (CSV/JSON outputs).")
    parser.add_argument("command", nargs="?", choices=None, metavar="COMMAND",
                        help=f"one of: {' | '.join(COMMANDS)}")
    parser.add_argument("--config", metavar="PATH", help="INI scenario config")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="worker threads (default: 1)")
    parser.add_argument("--fast", action="store_true",
                        help="validate only: run the fast criteria tier")
    args = parser.parse_args(argv)

    if args.command is None and args.config is None:
        parser.print_usage(sys.stderr)
        print("error: no command given", file=sys.stderr)
        return EXIT_USAGE
    if args.command is not None and args.command not in COMMANDS:
        print(f"error: unknown command {args.command!r}; choose from {', '.join(COMMANDS)}",
              file=sys.stderr)
        return EXIT_USAGE

    if args.threads < 1:
        print("error: --threads must be an integer >= 1", file=sys.stderr)
        return EXIT_CONFIG

    command = args.command
    try:
        if args.config:
            command, raw, seed = parse_config_file(args.config, args.command)
        else:
            command, raw, seed = args.command, {}, 0
        cfg = build_config(command, raw, seed, args.threads, args.fast)
        result = run(cfg, args.out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numeric failure in {command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for key, value in sorted(result.summary.items()):
        print(f"{cfg.command}: {key} = {value}")
    print(f"{cfg.command}: outputs in {args.out} (config {cfg.hash()}, "
          f"{result.wall_time:.1f}s)")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
