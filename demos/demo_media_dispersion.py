"""Classical medium calculators: two-level susceptibilities, chi^2
frequency mixing, the intensity-dependent refractive index, and the
dispersion relation of the narrow-band quantized theory.

Run:  python demos/demo_media_dispersion.py
"""

import numpy as np

from nlo_quanta import media

print("=== two-level steady-state response ===")
p = media.TwoLevelParams(delta=1.0, gE=0.1)
mu_p, mu_m = media.two_level_mu(p)
print(f"quasi-energies: mu+ = {mu_p:.6f}, mu- = {mu_m:.6f}")
print(f"polarization amplitude: {media.two_level_polarization(p):.4e}")
print(f"chi^(1) = {media.chi1_two_level(p):.4e},  chi^(3) = {media.chi3_two_level(p):.4e}")

print()
print("=== cubic-series accuracy: residual is O(E0^5) ===")
print(f"{'gE':>8} {'|exact - cubic| * E0':>21}")
for ge in (1e-3, 3e-3, 1e-2):
    tl = media.TwoLevelParams(delta=1.0, gE=ge)
    diff = abs(media.two_level_polarization(tl)
               - media.two_level_polarization_cubic(tl)) * ge
    print(f"{ge:8.0e} {diff:21.3e}")

print()
print("=== chi^2 frequency mixing of two tones ===")
spectrum = media.chi2_mixing_spectrum([(2.0, 1.3), (3.1, 0.7)], chi2=4e-12)
for freq, amp in spectrum:
    label = {0.0: "DC", 1.1: "difference", 4.0: "2nd harmonic (tone 1)",
             5.1: "sum", 6.2: "2nd harmonic (tone 2)"}[round(freq, 6)]
    print(f"  {freq:4.1f} rad/s: {amp / media.EPS0:.3e} * eps0   ({label})")

print()
print("=== intensity-dependent susceptibility ===")
chi3 = 4e-24
for e0 in (0.0, 1e7, 1e8):
    print(f"E0 = {e0:8.0e} V/m: chi_eff - chi1 = "
          f"{media.effective_chi_kerr(1.0, chi3, e0) - 1.0:.2e}")

print()
print("=== dispersion relation and mode normalization ===")
coeffs = media.DispersionCoeffs(beta_nu=1.0 / (2.25 * media.EPS0),
                                beta_nu_prime=2e-27 / media.EPS0,
                                beta_nu_dblprime=1e-43 / media.EPS0)
print(f"{'k [1/m]':>9} {'omega_+ [rad/s]':>16} {'v_k [m/s]':>12} {'A_k':>10}")
for k in (2e6, 8e6, 1.6e7):
    w_plus, _ = media.dispersion_omega(k, coeffs)
    print(f"{k:9.1e} {w_plus:16.5e} {media.group_velocity(k, coeffs):12.4e} "
          f"{media.mode_norm_Ak(k, coeffs):10.4e}")
print("(both A_k forms agree to 1e-10; branch equation residual < 1e-12)")
