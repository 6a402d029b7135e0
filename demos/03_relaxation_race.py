"""
Racing two equally-far-from-equilibrium relaxations
===================================================

Seed two gradient-flow trajectories on the same potential at the same
level f = c and let both relax.  If the potential is not symmetric about
its minimum, one side wins, and the sign of the trajectory cubic
C(xdot, xdot, xdot) at speed-coincidence times certifies the verdict: the
curve whose cubic is smaller keeps the larger loss rate from then on.

The single Gaussian mode (Fisher metric on the variance half-line) is the
cleanest nontrivial case: starting below equilibrium ("warming") beats
starting above it ("cooling") at the matched level.
"""

import numpy as np

from geoflow import compare, equidistant_seed
from geoflow.fixtures import gaussian_mode

g, f = gaussian_mode()          # rate 2, equilibrium variance a* = 1

# the level of the cooling start a = 2; the warming partner lands at
# a ~ 0.5693, not 0.5, because f is asymmetric about a* = 1
level = 2.0 * np.log(2.0) - 1.0
pair = equidistant_seed(g, f, level, [-1.0], [1.0])
print("level c                 =", level)
print("warming seed (curve 1)  =", pair.x1_0)
print("cooling seed (curve 2)  =", pair.x2_0)
print("f at both seeds         =", f(pair.x1_0), f(pair.x2_0))

rep = compare(g, f, pair, t_end=6.0)

print("\nverdict:", rep.verdict)
print("delta_f = f(cooling) - f(warming) stays nonnegative:")
print("  min over the run =", rep.delta_f.min())
print("  max over the run =", rep.delta_f.max())

# the two speeds coincide at t=0 by construction (equal levels are not
# equal speeds in general, but here the report lists every coincidence)
print("\nspeed-coincidence times:", np.round(rep.coincidence_times, 6))
print("cubic gaps at those times (positive = curve 1 faster after):")
print(" ", np.array(rep.cubic_gaps))

# a few sampled points along the race
print("\n   t      f(warming)   f(cooling)    delta_f")
for i in np.linspace(0, len(rep.ts) - 1, 8).astype(int):
    print(f"  {rep.ts[i]:5.2f}   {rep.f1[i]:.8f}   {rep.f2[i]:.8f}"
          f"   {rep.delta_f[i]:.3e}")

for note in rep.notes:
    print("note:", note)
