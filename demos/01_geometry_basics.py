"""
Metrics, gradients, and gradient flow on a curved chart
=======================================================

Everything downstream builds on four objects: a chart, a metric field on
it, a scalar potential, and an ODE integrator for steepest descent.  This
walkthrough exercises them on the unit sphere in polar coordinates
(theta, phi) with the height potential f = 1 + cos(theta).
"""

import numpy as np

from geoflow.fixtures import sphere_height
from geoflow.manifold import (
    grad_norm_sq,
    gradient,
    integrate_flow,
)

g, f = sphere_height()
x = np.array([1.0, 0.3])

# the metric is diag(1, sin(theta)^2); lengths along phi shrink toward
# the poles
print("metric at (theta, phi) = (1.0, 0.3):")
print(g(x))

# the Riemannian gradient is the covector df raised through the inverse
# metric; for the height function it points straight down the theta lines
print("\ndf          =", f.gradient_covector(x))
print("grad f      =", gradient(g, f, x))
print("|grad f|^2  =", grad_norm_sq(g, f, x))

# gradient flow x' = -grad f walks downhill; f decreases monotonically
# and the loss rate equals |grad f|^2 (the energy identity)
traj = integrate_flow(g, f, x, 4.0, tol=1e-10)
print("\ngradient flow of the height potential:")
for t in np.linspace(0.0, 4.0, 5):
    p = traj.position(t)
    print(f"  t={t:4.1f}  theta={p[0]:8.5f}  f={f(p):.6f}")

h = 1e-6
t0 = 2.0
fdot = (f(traj.position(t0 + h)) - f(traj.position(t0 - h))) / (2 * h)
print("\nenergy identity at t=2:")
print("  df/dt       =", fdot)
print("  -|grad f|^2 =", -grad_norm_sq(g, f, traj.position(t0)))
