"""Nonclassicality and entanglement tests on down-conversion light.

Sweeps the photon-pair superposition c0|00> + c1|11> through the Bloch
angle, finds where the inseparability sum dips below the classical bound 2,
and then runs the parity and twin-beam tests on states produced by actual
chi^2 evolution.

Run:  python demos/demo_entanglement.py
"""

import numpy as np

from nlo_quanta import diagnostics as dg
from nlo_quanta import evolve, fock, models

print("=== pair-state inseparability sweep ===")
space = fock.make_space([5, 5])
i00, i11 = space.flat_index((0, 0)), space.flat_index((1, 1))
print(f"{'theta':>7} {'c0':>7} {'sum':>8} {'product':>9}  verdicts")
for theta in np.linspace(0.0, np.pi / 4, 9):
    vec = np.zeros(space.total_dim, dtype=complex)
    vec[i00], vec[i11] = np.cos(theta), -np.sin(theta)
    st = fock.QuantumState(space, "pure", vec)
    s = dg.duan_simon_sum(st, 0, 1)
    p = dg.epr_product(st, 0, 1)
    print(f"{theta:7.3f} {np.cos(theta):7.3f} {s.value:8.4f} {p.value:9.4f}"
          f"  {s.verdict}/{p.verdict}")
print(f"minimum 4 - 2 sqrt(2) = {4 - 2 * np.sqrt(2):.5f} at c0 = cos(pi/8)"
      f" = {np.cos(np.pi / 8):.5f}")

print()
print("=== parity test on the chi^2 signal mode ===")
two_mode = fock.make_space([16, 16])
model = models.h_two_mode_chi2(two_mode, 1.0, 0.4)
result = evolve.evolve_pure(model, fock.coherent_state(two_mode, [0.0, 1.1]),
                            [0.0, 1.0, 2.5])
for t, st in zip(result.times, result.states):
    rep = dg.parity_test(st, 0)
    extras = rep.extras_dict()
    print(f"t = {t:3.1f}: <Q_o> = {extras['q_odd']:.2e}, "
          f"<Q'_e> = {extras['q_even_excited']:.4f} -> {rep.verdict}")

print()
print("=== twin-beam number-difference test (three-mode chi^2) ===")
three_mode = fock.make_space([16, 10, 10])
model3 = models.h_three_mode_chi2(three_mode, 0.6, 0.4, 0.3)
result3 = evolve.evolve_pure(model3, fock.coherent_state(three_mode, [1.2, 0, 0]),
                             [0.0, 1.5, 3.0])
for t, st in zip(result3.times, result3.states):
    rep = dg.number_diff_criterion(st, 1, 2)
    n_sig = fock.expectation(st, fock.number_operator(three_mode, 1)).real
    print(f"t = {t:3.1f}: <n_signal> = {n_sig:.3f}, criterion = {rep.value:+.3f}"
          f" -> {rep.verdict}")

print()
print("=== conserved-charge fluctuation bounds along the trajectory ===")
rep = dg.fluctuation_bounds(result3, "M1")
print("charge M1 = n_a - n_b: |Dn_a - Dn_b| stays", rep.delta_na.max(),
      "(bound", rep.upper[0], ")")
