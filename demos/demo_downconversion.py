"""Multimode down conversion: the box phase-matching function and the
two-detector pair-correlation kernel with its 1/(Delta Z)^2 falloff.

Run:  python demos/demo_downconversion.py
"""

import numpy as np

from nlo_quanta import closed_form as cf

print("=== phase-matching function h(k) for a 1 x 1 x 2 mm crystal ===")
lengths = np.array([1e-3, 1e-3, 2e-3])
print(f"{'dk_z [1/m]':>11} {'h / (lx ly lz)':>15}")
for dkz in (0.0, 500.0, 1570.0, 3141.59, 6000.0):
    h = cf.phase_match_h([0.0, 0.0, dkz], lengths)
    print(f"{dkz:11.1f} {h / lengths.prod():15.4f}")
print("(first zero at dk_z l_z = 2 pi)")

print()
print("=== pair-correlation kernel vs detector separation ===")
k0 = 3.0
print(f"k0 = {k0}; kernel at Delta Z = 0 is k0^3/6 = {k0 ** 3 / 6:.4f}")
print(f"{'Delta Z':>8} {'|kernel|':>10} {'|quadrature|':>13} {'2 k0 / dz^2':>12}")
for dz in (0.0, 0.5, 2.0, 2 * np.pi, 4 * np.pi, 8 * np.pi):
    closed = abs(cf.downconv_kernel(dz, k0))
    quad = abs(cf.downconv_kernel_quadrature(dz, k0, 4001))
    envelope = 2 * k0 / dz ** 2 if dz else float("inf")
    print(f"{dz:8.3f} {closed:10.5f} {quad:13.5f} {envelope:12.5f}")

ms = np.arange(3, 60)
dzs = 2 * np.pi * ms / k0
vals = [abs(cf.downconv_kernel(dz, k0)) for dz in dzs]
slope = -np.polyfit(np.log(dzs), np.log(vals), 1)[0]
print(f"fitted far-field decay exponent: {slope:.3f}  (coincident detection"
      " is most likely; likelihood falls off as 1/(Delta Z)^2)")
