"""
Hessian models, Legendre duality, and self-parallel divergence gradients
========================================================================

A convex potential phi on an affine chart induces the whole dually flat
package: the Hessian metric, the dual coordinates eta = dphi, the dual
potential psi, and the canonical divergence D(p||q).  For the exponential
model phi = e^theta this is the geometry of Poisson means; the divergence
is the KL divergence in disguise.

The punchline is the gradient property: in the flat theta chart, the
Hessian-metric gradient field of D_q(.) satisfies (dV)V = V, so gradient
curves of a divergence are pregeodesics of the flat connection out of the
box.  The straightening construction generalizes exactly this to
arbitrary metrics and potentials.
"""

import numpy as np

from geoflow import (
    canonical_divergence,
    canonical_divergence_dual,
    dual_model,
    exponential_model,
    fujiwara_amari_residual,
    legendre_dual,
    metric_field,
)

model = exponential_model()
theta = np.array([0.7])

# Legendre transform: eta = dphi, psi = theta.eta - phi
eta, psi = legendre_dual(model, theta)
print("theta =", theta, " eta =", eta, " psi =", psi)
print("for phi = e^theta: eta = e^theta =", np.exp(theta))

# canonical divergence is nonnegative and vanishes only on the diagonal
p, q = np.array([0.7]), np.array([-0.4])
print("\nD(p||q) =", canonical_divergence(model, p, q))
print("D(q||p) =", canonical_divergence(model, q, p))
print("D(p||p) =", canonical_divergence(model, p, p))

# the dual model swaps the roles: its potential is psi(eta), its
# divergence the reversed one
dm = dual_model(model)
eta_p, eta_q = model.gradient_covector(p), model.gradient_covector(q)
print("\ndual-chart divergence D*(eta_p||eta_q) =",
      canonical_divergence(dm, eta_p, eta_q))
print("equals the reversed original        =",
      canonical_divergence_dual(model, p, q))

# Hessian metric = Fisher information of the model
g = metric_field(model)
print("\nHessian metric at theta=0.7:", g(theta), "= e^theta")

# gradient property of the divergence: residual of (dV)V = V
rng = np.random.default_rng(5)
worst = 0.0
for _ in range(50):
    qq = rng.uniform(-1.5, 1.5, 1)
    xx = rng.uniform(-1.5, 1.5, 1)
    if abs(xx - qq) < 1e-3:
        continue
    worst = max(worst, fujiwara_amari_residual(model, qq, xx))
print("\nworst self-parallel residual over 50 random (q, x):", worst)
