"""Quantum solitons in a fiber: shape-invariant split-step propagation of
the matched classical profile, and the decay of the mean field when a
coherent superposition of n-photon Hartree solitons dephases.

Run:  python demos/demo_soliton.py
"""

import numpy as np

from nlo_quanta import soliton

N0 = 25
G3 = -0.05
fiber = soliton.soliton_fiber(2.0, G3, N0, 24, 1024)

print("=== Hartree soliton family ===")
print(f"{'n':>4} {'sech scale w':>13} {'FWHM':>8} {'phase rate':>11}")
for n in (13, 25, 49):
    print(f"{n:4d} {fiber.sech_scale(n):13.4f} {fiber.soliton_fwhm(n):8.4f} "
          f"{fiber.phase_rate(n):11.5f}")
print("(width halves when n-1 doubles)")

print()
print("=== split-step propagation over one soliton period ===")
profile = soliton.classical_soliton_profile(N0, 0.0, 0.0, fiber, 0.0)
period = fiber.soliton_period(N0)
steps = fiber.guided_steps(period)
out = soliton.split_step_nlse(profile, fiber, period, steps)
shape_dev = np.sqrt(np.sum((np.abs(out.values) - np.abs(profile.values)) ** 2) * fiber.grid.dx)
print(f"period = {period:.3f}, steps = {steps}")
print(f"norm^2: {profile.norm_sq():.12f} -> {out.norm_sq():.12f}")
print(f"|psi| shape deviation (L2): {shape_dev:.2e}  (soliton propagates unchanged)")
print(f"energy: {soliton.nlse_energy(profile, fiber):+.6f} -> "
      f"{soliton.nlse_energy(out, fiber):+.6f}")

print()
print("=== mean field of the coherent soliton superposition ===")
alpha = np.sqrt(float(N0))
print(f"alpha = sqrt({N0}); short-time criterion g3^2 t n0^1.5 << 1")
print(f"{'t':>6} {'dephasing param':>16} {'peak |<Psi>|':>13}")
for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
    mf = soliton.mean_field(alpha, fiber, t)
    meta = mf.meta_dict()
    print(f"{t:6.2f} {meta['dephasing_parameter']:16.3f} {mf.peak():13.5f}")
print("phase diffusion: the classical soliton shape survives, the mean decays")
