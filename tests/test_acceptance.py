"""Acceptance suite: every criterion within its bounds, one pass/fail line
printed per criterion, and the one rule that turns measurements into a
verdict. The same checks back the `nlo-quanta validate` command (criterion
12 runs that command end to end)."""

import json
import math
import os
import subprocess
import sys
import time

import pytest

from nlo_quanta import validation


#: The acceptance contract, copied here by hand as the independent pin of
#: ``validation._CHECKS``: criterion -> {measured key: the number it must
#: stay strictly below}.
CONTRACT = {
    1: {"worst_rel_dev": 0.02},
    2: {"worst_u_dev": 1e-10, "worst_scaling_dev": 1e-10},
    3: {"M_drift": 1e-10, "max_odd_population": 1e-10},
    4: {"min_dev": 1e-9, "c0_dev": 1e-9},
    5: {"worst_abs_dev": 1e-10, "revival_dev": 1e-10},
    6: {"rel_dev": 0.20, "closed_form": 0.0, "simulated": 0.0},
    7: {"eigenvalue_dev": 1e-9, "n_fluct_rel_dev": 0.05, "squeezing_rel_dev": 0.05,
        "threshold_limit_dev": 5e-324},
    8: {"slope_dev": 0.3, "chi1_dev": 5e-324, "chi3_dev": 5e-324},
    9: {"worst_branch_residual": 1e-12, "worst_vk_rel_dev": 1e-6},
    10: {"shape_L2_dev": 1e-3, "norm_rel_drift": 1e-10, "mean_field_t0_rel_dev": 0.01,
         "peak_rise": 0.0},
    11: {"limit_rel_dev": 1e-8, "decay_exponent_dev": 0.1, "peak_offset": 5e-324,
         "quadrature_peak_rel_dev": 1e-6},
}


def _accept(number, budget):
    """Run criterion ``number``: it passes within ``budget`` seconds and
    every bounded value sits below its bound in CONTRACT."""
    result = validation.run_criterion(number)
    print(result.line(), result.details)
    assert result.passed
    for key, bound in CONTRACT[number].items():
        assert result.details[key] < bound, key
    assert result.seconds < budget
    return result.details


def test_contract_table():
    assert validation.EXACT == 5e-324
    assert {n: bounds for n, (_, _, bounds) in validation._CHECKS.items()} == CONTRACT


def test_criterion_01_squeezed_vacuum_law():
    _accept(1, budget=30)


def test_criterion_02_max_squeezing_scaling():
    _accept(2, budget=1)


def test_criterion_03_conservation_and_parity():
    _accept(3, budget=20)


def test_criterion_04_entanglement_minimum():
    details = _accept(4, budget=1)
    assert abs(details["min_value"] - details["target"]) < 1e-9


def test_criterion_05_kerr_exact_mean():
    _accept(5, budget=10)


def test_criterion_06_kerr_bs_subpoissonian():
    _accept(6, budget=120)


def test_criterion_07_dpo_below_threshold():
    _accept(7, budget=120)


def test_criterion_08_two_level_susceptibilities():
    details = _accept(8, budget=1)
    assert abs(details["slope"] - 5.0) < 0.3


def test_criterion_09_dispersion_consistency():
    _accept(9, budget=1)


def test_criterion_10_soliton_propagation():
    _accept(10, budget=60)


def test_criterion_11_downconv_kernel():
    details = _accept(11, budget=60)
    assert abs(details["decay_exponent"] - 2.0) < 0.1


@pytest.mark.parametrize("value, bound, passed", [
    (0.5, 0.5, False),
    (0.0, validation.EXACT, True),
    (5e-324, validation.EXACT, False),
    (math.nan, 1.0, False),
], ids=["equal-to-bound", "zero-under-exact", "ulp-under-exact", "nan"])
def test_one_verdict_rule(monkeypatch, value, bound, passed):
    monkeypatch.setitem(validation._CHECKS, 0, ("probe", lambda: {"x": value, "y": 0.0},
                                                {"x": bound, "y": 1.0}))
    result = validation.run_criterion(0)
    assert result.passed is passed
    assert result.details["bounds"] == {"x": bound, "y": 1.0}


def test_a_nan_in_a_reduction_fails(monkeypatch):
    # the checks combine values with numpy reductions, which keep a NaN;
    # builtin max(0.0, nan) drops it
    monkeypatch.setattr(validation.media, "dispersion_residual", lambda *args: math.nan)
    result = validation.run_criterion(9)
    assert math.isnan(result.details["worst_branch_residual"])
    assert result.passed is False


def test_missing_bounded_key_fails(monkeypatch):
    monkeypatch.setitem(validation._CHECKS, 0, ("probe", lambda: {"x": 0.0},
                                                {"x": 1.0, "y": 1.0}))
    result = validation.run_criterion(0)
    assert result.passed is False
    assert result.details["error"] == "KeyError: 'y'"
    assert result.details["x"] == 0.0
    assert result.details["bounds"] == {"x": 1.0, "y": 1.0}


def test_criterion_12_validate_command(tmp_path):
    """The `validate` command runs criteria 1-11 end to end and reports a
    machine-readable pass/fail matrix within the 10-minute budget."""
    out_dir = tmp_path / "validate_out"
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "nlo_quanta.cli", "validate", "--out", str(out_dir)],
        capture_output=True, text=True, timeout=600)
    elapsed = time.time() - t0
    print(f"[{'PASS' if proc.returncode == 0 else 'FAIL'}] criterion 12 "
          f"validate command ({elapsed:.1f}s)")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    matrix = json.loads((out_dir / "validate_matrix.json").read_text())
    assert matrix["all_passed"] is True
    assert sorted(int(k) for k in matrix["criteria"]) == list(range(1, 12))
    for number, entry in matrix["criteria"].items():
        assert entry["passed"] is True
        assert entry["details"]["bounds"] == CONTRACT[int(number)]
    assert elapsed < 600
    assert os.path.exists(out_dir / "validate.csv")
