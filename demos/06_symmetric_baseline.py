"""
The control experiment: distance-squared potentials cannot race
===============================================================

The warming/cooling asymmetry is a property of the potential, not of the
comparison machinery.  When f is half the squared Riemannian distance to
a point, equidistant seeds relax along geodesics at identical rates in
*every* direction, so delta_f is zero to solver precision and the verdict
is inconclusive by design.  Running the same comparator that calls the
Gaussian-mode race confirms the pipeline does not manufacture asymmetry
where there is none.
"""

import numpy as np

from geoflow import compare, equidistant_seed
from geoflow.fixtures import distance_squared_potential, euclidean_quadratic

g, _ = euclidean_quadratic(2)
f = distance_squared_potential(g, np.zeros(2))
level = 0.5

rng = np.random.default_rng(8)
print("ten random direction pairs, max |delta_f| over each run:")
worst = 0.0
for i in range(10):
    d1, d2 = rng.standard_normal((2, 2))
    pair = equidistant_seed(g, f, level, d1, d2)
    rep = compare(g, f, pair, t_end=12.0)
    m = float(np.abs(rep.delta_f).max())
    worst = max(worst, m)
    print(f"  pair {i}: verdict {rep.verdict:13s} max|delta_f| = {m:.3e}")

print("\nworst over all pairs:", worst)
print("bound 1e-7 * level  :", 1e-7 * level)
print("\nany potential whose sub-level sets are metric balls relaxes")
print("symmetrically; asymmetry needs the level sets of f to sit")
print("lopsided around the minimum, as the Gaussian-chain potential does")
