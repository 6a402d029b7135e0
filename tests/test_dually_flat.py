"""Legendre duality, canonical divergence, and the flat-case gradient law."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from geoflow import dually_flat as df
from geoflow import numdiff, verify
from geoflow.errors import (
    CriticalPointError,
    NonConvergenceError,
    NonConvexError,
)
from geoflow.manifold import Chart

# frozen closed forms:
#   conjugate of e^theta at 0: eta = 1, psi = eta ln eta - eta = -1
#   quadratic divergence D(1, 0) = (1-0)^2 / 2
#   exponential divergence at theta_p = ln2, theta_q = 0: 1 - ln 2
EXP_PSI_AT_0 = -1.0
QUAD_D_1_0 = 0.5
EXP_D = 1.0 - np.log(2.0)

MODELS = [
    (df.quadratic_model(2), None,
     lambda rng: rng.uniform(-3, 3, 2)),
    (df.exponential_model(), None,
     lambda rng: rng.uniform(-2, 2, 1)),
    (df.gaussian_natural_model(), np.array([0.0, -0.5]),
     lambda rng: np.array([rng.uniform(-2, 2), rng.uniform(-3, -0.3)])),
]


# ---------------------------------------------------------------- transform


def test_legendre_quadratic():
    m = df.quadratic_model(1)
    eta, psi = df.legendre_dual(m, [3.0])
    assert_allclose(eta, [3.0], atol=1e-12)
    assert_allclose(psi, 4.5, atol=1e-12)
    eta0, psi0 = df.legendre_dual(m, [0.0])
    assert_allclose(eta0, [0.0], atol=1e-12)
    assert psi0 == 0.0


def test_legendre_exponential():
    eta, psi = df.legendre_dual(df.exponential_model(), [0.0])
    assert_allclose(eta, [1.0], atol=1e-12)
    assert_allclose(psi, EXP_PSI_AT_0, atol=1e-12)


def test_legendre_rejects_concave():
    m = df.HessianModel(lambda th: -0.5 * (th * th).sum(axis=-1), Chart(1),
                        name="concave")
    with pytest.raises(NonConvexError):
        df.legendre_dual(m, [1.0])


def test_legendre_involution():
    for model, th0, draw in MODELS:
        dm = df.dual_model(model, theta0=th0)
        rng = np.random.default_rng(5)
        for _ in range(10):
            th = draw(rng)
            eta, _ = df.legendre_dual(model, th)
            back, phi_back = df.legendre_dual(dm, eta)
            assert np.abs(back - th).max() < 1e-8
            assert abs(phi_back - model(th)) < 1e-8


def test_pairing_identity():
    # phi(theta) + psi(eta) = theta . eta
    for model, _th0, draw in MODELS:
        rng = np.random.default_rng(9)
        for _ in range(20):
            th = draw(rng)
            eta, psi = df.legendre_dual(model, th)
            assert abs(model(th) + psi - float(th @ eta)) < 1e-9


def test_metric_consistency():
    # Hessian of phi is the model metric; the dual chart carries its inverse
    for model, th0, draw in MODELS:
        g = df.metric_field(model)
        dm = df.dual_model(model, theta0=th0)
        rng = np.random.default_rng(13)
        for i in range(100):
            th = draw(rng)
            h = model.hessian(th)
            assert_allclose(g(th), h, rtol=1e-8)
            if i % 10 == 0:
                eta = model.gradient_covector(th)
                h_dual = numdiff.jacobian_fd(dm.gradient_covector, eta)
                assert_allclose(h_dual, np.linalg.inv(h), rtol=1e-7,
                                atol=1e-9)


# ---------------------------------------------------------------- divergence


def test_divergence_frozen_values():
    quad = df.quadratic_model(1)
    assert_allclose(df.canonical_divergence(quad, [1.0], [0.0]), QUAD_D_1_0,
                    atol=1e-12)
    assert df.canonical_divergence(quad, [0.7], [0.7]) == pytest.approx(0.0,
                                                                        abs=1e-12)
    expm = df.exponential_model()
    assert_allclose(df.canonical_divergence(expm, [np.log(2.0)], [0.0]),
                    EXP_D, atol=1e-12)


def test_divergence_positivity():
    rng = np.random.default_rng(21)
    for model, _th0, draw in MODELS:
        for _ in range(50):
            p, q = draw(rng), draw(rng)
            d = df.canonical_divergence(model, p, q)
            if np.linalg.norm(p - q) < 1e-10:
                assert abs(d) < 1e-10
            else:
                assert d > 0.0


def test_divergence_gaussian_is_kl():
    # between the underlying densities, D(p, q) = KL(q || p)
    m = df.gaussian_natural_model()

    def theta(mu, var):
        return np.array([mu / var, -0.5 / var])

    def kl(mu0, v0, mu1, v1):
        return 0.5 * (np.log(v1 / v0) + (v0 + (mu0 - mu1) ** 2) / v1 - 1.0)

    got = df.canonical_divergence(m, theta(0.0, 2.0), theta(0.0, 1.0))
    assert_allclose(got, 0.5 * np.log(2.0) - 0.25, atol=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(20):
        mu0, mu1 = rng.uniform(-2, 2, 2)
        v0, v1 = rng.uniform(0.3, 4.0, 2)
        d = df.canonical_divergence(m, theta(mu0, v0), theta(mu1, v1))
        assert_allclose(d, kl(mu1, v1, mu0, v0), rtol=1e-9, atol=1e-12)


def test_dual_view():
    m = df.gaussian_natural_model()
    p = np.array([0.5, -1.0])
    q = np.array([-0.3, -0.7])
    assert df.canonical_divergence_dual(m, p, q) == \
        df.canonical_divergence(m, q, p)


# ---------------------------------------------------------------- flat law


def test_fa_exponential_fd():
    m = df.exponential_model()
    rng = np.random.default_rng(17)
    for _ in range(20):
        q, x = rng.uniform(-2, 2, (2, 1))
        if abs(x[0] - q[0]) < 1e-3:
            continue
        assert df.fujiwara_amari_residual(m, q, x) < 1e-6


def test_fa_all_models_100_pairs():
    rng = np.random.default_rng(31)
    for model, _th0, draw in MODELS:
        count = 0
        while count < 100:
            q, x = draw(rng), draw(rng)
            if np.linalg.norm(x - q) < 1e-3:
                continue
            assert df.fujiwara_amari_residual(model, q, x) < 1e-6
            count += 1


def test_fa_diagonal_raises():
    m = df.quadratic_model(2)
    with pytest.raises(CriticalPointError):
        df.fujiwara_amari_residual(m, [1.0, 0.0], [1.0, 0.0])


def test_fa_stack_equals_pointwise_calls():
    rng = np.random.default_rng(43)
    for model, _th0, draw in MODELS:
        q = np.array([draw(rng) for _ in range(30)])
        x = np.array([draw(rng) for _ in range(30)])
        stack = df.fujiwara_amari_residual(model, q, x)
        assert stack.shape == (30,)
        assert np.array_equal(stack, [df.fujiwara_amari_residual(
            model, qi, xi) for qi, xi in zip(q, x)])
        # one reference point against the whole stack broadcasts
        assert np.array_equal(
            df.fujiwara_amari_residual(model, q[0], x),
            [df.fujiwara_amari_residual(model, q[0], xi) for xi in x])


def test_fa_stack_with_one_diagonal_pair_raises():
    m = df.quadratic_model(2)
    q = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, -0.5]])
    x = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(CriticalPointError):
        df.fujiwara_amari_residual(m, q, x)


def test_fa_residual_catches_an_eta_that_is_not_dphi():
    # eta = 1.2 grad phi breaks the Legendre structure; the divergence
    # values then disagree with the Hessian solve and the residual is O(1)
    good = df.gaussian_natural_model()
    bad = df.HessianModel(good, good.chart,
                          eta=lambda th: 1.2 * good.gradient_covector(th),
                          hessian=good.hessian, name="broken")
    rng = np.random.default_rng(3)
    q = np.array([0.0, -0.5]) + rng.uniform(-0.3, 0.3, (100, 2))
    x = np.array([0.0, -0.5]) + rng.uniform(-0.3, 0.3, (100, 2))
    assert df.fujiwara_amari_residual(good, q, x).max() < 1e-6
    assert df.fujiwara_amari_residual(bad, q, x).max() > 1e-2


def test_metric_consistency_catches_a_hessian_one_percent_off(monkeypatch):
    off = [(name, df.HessianModel(
        m, m.chart, eta=m.gradient_covector,
        hessian=lambda th, m=m: 1.01 * m.hessian(th), name=name),
        center, width) for name, m, center, width in verify._models()]
    monkeypatch.setattr(verify, "_models", lambda: off)
    rows = {r.name: r for r in verify.run_suites(suites=["fujiwara-amari"])}
    assert not rows["metric-consistency"].passed
    assert rows["metric-consistency"].measured > 1e-3


def test_dual_model_default_start_outside_the_chart():
    # the origin is not in the half-plane theta_2 < 0
    dm = df.dual_model(df.gaussian_natural_model())
    with pytest.raises(NonConvergenceError, match="in-chart"):
        dm(np.array([0.0, 1.0]))
