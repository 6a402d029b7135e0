"""
Straightening a gradient flow into pregeodesics
===============================================

Under the Levi-Civita connection a steepest-descent curve bends: its
covariant acceleration is not parallel to its velocity.  Subtracting the
rank-one correction g_ij Z^k from the Christoffel symbols produces a new
connection under which every gradient curve of f is a pregeodesic.  The
price is non-metricity: the new connection no longer preserves the
metric, and its non-metricity tensor has a closed product form that is
visibly asymmetric in its arguments.
"""

import numpy as np

from geoflow import (
    covariant_acceleration,
    gradient,
    integrate_flow,
    levi_civita_connection,
    pregeodesic_residual,
    straightening_connection,
    z_field,
)
from geoflow.straightening import nonmetricity_closed_tensor, nonmetricity_tensor
from geoflow.fixtures import two_mode_chain

g, f = two_mode_chain()
x0 = np.array([3.0, 1.0])

# integrate the descent curve and look at its bending under both
# connections at an interior time
traj = integrate_flow(g, f, x0, 1.0, tol=1e-10)
t = 0.4
v = traj.velocity(t)
lc = levi_civita_connection(g)
straight = straightening_connection(g, f, 0.0)

acc_lc = covariant_acceleration(lc, traj, t)
acc_st = covariant_acceleration(straight, traj, t)
print("velocity at t=0.4:               ", v)
print("Levi-Civita covariant accel:     ", acc_lc)
print("straightened covariant accel:    ", acc_st, "(~0: a true geodesic here)")

# the residual |nabla_grad grad - lam grad| / |grad| measures the defect
# pointwise, no integration needed; it vanishes everywhere, not just on
# one curve
rng = np.random.default_rng(3)
worst = max(pregeodesic_residual(g, f, 0.0, rng.uniform(0.5, 4.0, 2))
            for _ in range(50))
print("\nworst pregeodesic residual over 50 random points:", worst)

# the correction field Z is gradient-rank-one; here it is explicit
x = np.array([3.0, 1.0])
print("\nZ field at (3, 1):", z_field(g, f, 0.0, x))

# non-metricity: the definition (covariant derivative of g) against the
# closed form g(W,X) zeta(Y) + g(W,Y) zeta(X), both as tensors C[k, i, j]
# contracted with the same random directions
c = nonmetricity_tensor(straight, g, x)
w, xv, yv = rng.standard_normal((3, 2))
c_def = np.einsum("kij,k,i,j->", c, w, xv, yv)
c_closed = np.einsum("kij,k,i,j->", nonmetricity_closed_tensor(g, f, 0.0, x),
                     w, xv, yv)
print("\nnon-metricity, definition route: ", c_def)
print("non-metricity, closed form:      ", c_closed)

# unlike the totally symmetric cubic tensors of information geometry,
# this tensor cares which slot the direction sits in
print("\nC(e2, e2, e1) =", c[1, 1, 0])
print("C(e1, e2, e2) =", c[0, 1, 1])
print("argument order matters: the straightened connection is not")
print("a dually flat / statistical structure in disguise")
