"""
Warming beats cooling for every Gaussian chain, at every quench depth
=====================================================================

A free-draining bead-spring chain quenched from temperature ratio T+ > 1
relaxes mode by mode: each normal-mode variance a_k follows
a_k' = -2 lambda_k (a_k - a*_k), which is exactly the Fisher-metric
gradient flow of the free-energy-like potential
F = sum_k lambda_k (a*/a - ln(a*/a) - 1).

Pair the hot start with the cold start at the *same* F (the equidistant
temperature T- < 1 solves a scalar transcendental equation) and the cold
(warming) chain reaches equilibrium faster -- for every chain length,
every quench depth, and every individual mode.  The verdict certificate
is the positive cubic gap at each speed coincidence; the straightened
mode geometry is genuinely curved, with a closed-form scalar curvature
that the numeric pipeline reproduces.
"""

import numpy as np

from geoflow.gaussian_chain import (
    ChainSpec,
    equidistant_temperatures,
    potential_F,
    scalar_curvature_mode,
    spectrum,
    universal_asymmetry_experiment,
)

# the equidistant cold partner of a few quench depths
print("T+      equidistant T-")
for t_plus in (1.1, 1.5, 2.0, 4.0, 8.0):
    print(f"{t_plus:4.1f}    {equidistant_temperatures(t_plus):.10f}")

# a 7-bead chain quenched 4x above equilibrium
spec = ChainSpec(7)
sp = spectrum(spec)
print("\nmode rates lambda_k:", np.round(sp.lambdas, 6))
print("equilibrium variances a*_k:", np.round(sp.a_star, 6))

t_plus = 4.0
# each curve ends once its speed has fallen to 1e-6 of its start speed;
# the cold one stops first, at ln(1e6) / (2 lambda_min), and the race
# runs to there
res = universal_asymmetry_experiment(spec, t_plus)
print(f"\nrace window [0, {res.full.ts[-1]:.6f}]")
print(f"\nT+ = {t_plus}, T- = {res.t_minus:.10f}")
print("starting F, hot :", potential_F(sp, res.pair.x2_0))
print("starting F, cold:", potential_F(sp, res.pair.x1_0))

print("\nfull chain verdict:", res.full.verdict)
print("min delta_F over the run:", res.full.delta_f.min())
print("cubic gaps at coincidences:", np.array(res.full.cubic_gaps))

print("\nper-mode verdicts:")
for k, mode_rep in enumerate(res.modes):
    print(f"  mode {k + 1} (rate {sp.lambdas[k]:.4f}): {mode_rep.verdict},"
          f" min delta_F = {mode_rep.delta_f.min():.2e}")

# the straightened mode geometry is curved: closed form
# s = a (a - 5 a*) / (a - a*)^2, singular at equilibrium, zero at 5 a*
print("\nmode-1 scalar curvature at a = ratio * a*:")
for ratio in (0.2, 0.5, 2.0, 3.0, 4.0, 5.0, 6.0):
    s = scalar_curvature_mode(sp, 0, ratio * sp.a_star[0])
    print(f"  ratio {ratio:3.1f}: s = {s:+.4f}")
