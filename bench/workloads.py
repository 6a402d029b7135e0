"""The benchmark's workloads: what one certificate is and how it is checked.

A workload hands out *rounds*: a fixed list of certificates drawn from
``numpy.random.default_rng([seed, round_index])``.  Each round has the
same make-up on every seed (chain-race covers every bead count 3..12
once), so the time of a round depends on the seed only through the drawn
values, not through how many expensive certificates a seed happens to get.

Every certificate is checked against a closed form or a tolerance that
``verify.py`` or the tests already use.  A certificate fails when it
raises or when its oracle fails.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import geoflow.cli
from geoflow import fixtures, manifold, straightening
from geoflow.gaussian_chain import (
    ChainSpec,
    analytic_variance,
    chain_manifold,
    mode_plane_manifold,
    scalar_curvature_mode,
    spectrum,
)

#: delta_F slack of a one-sided verdict (``comparison.DELTA_TOL``)
DELTA_TOL = 1e-9
#: integrated against closed-form variance, relative (``ode-closed-form``)
VARIANCE_RTOL = 1e-8
#: symmetric control: max |delta_f| over the level (``metric_symmetry_check``)
SYMMETRY_RTOL = 1e-7
#: pregeodesic residual and non-metricity, both relative
POINTWISE_TOL = 1e-8
#: numeric against closed-form mode-plane curvature, relative
CURVATURE_RTOL = 1e-4
#: |s + 2| for the unit sphere's Levi-Civita curvature
SPHERE_TOL = 1e-7


@dataclass
class Outcome:
    """Result of one certificate: pass/fail plus what the oracle measured."""

    ok: bool
    detail: str = ""
    #: chain-race: worst relative error of the written variances
    variance_err: float = 0.0
    #: flat-bowl: the bundle carries the zero-gap note
    zero_gap: bool = False


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``geoflow.cli.main`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = geoflow.cli.main(argv)
    return code, out.getvalue().strip()


def _columns(path: Path) -> dict[str, list[str]]:
    """A written CSV table as column name -> cells."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return dict(zip(header, zip(*rows)))


class ChainRace:
    """``geoflow chain`` with per-mode reports, warming against cooling."""

    name = "chain-race"
    #: a round is one certificate per bead count
    N_BEADS = tuple(range(3, 13))
    T_PLUS = (1.1, 8.0)

    def round(self, rng) -> list[tuple[int, float]]:
        n_beads = rng.permutation(self.N_BEADS)
        # one log-uniform T+ per equal-width log bin, shuffled over N
        edges = np.linspace(*np.log(self.T_PLUS), len(n_beads) + 1)
        t_plus = np.exp(rng.uniform(edges[:-1], edges[1:]))
        rng.shuffle(t_plus)
        return [(int(n), float(t)) for n, t in zip(n_beads, t_plus)]

    def certify(self, cert, out: Path) -> Outcome:
        n_beads, t_plus = cert
        code, stdout = run_cli(["chain", "--n-beads", str(n_beads),
                                "--t-plus", repr(t_plus), "--out", str(out)])
        if code != 0 or stdout != "warming-faster":
            return Outcome(False, f"exit {code}, stdout {stdout!r}")
        modes = _columns(out / "modes.csv")
        bad = [m for m, v in zip(modes["mode"], modes["verdict"])
               if v != "Curve1Faster"]
        if bad:
            return Outcome(False, f"modes {bad} not Curve1Faster")
        table = {k: np.array(v, dtype=float)
                 for k, v in _columns(out / "trajectory.csv").items()}
        low = min(table["delta_F"].min(),
                  np.array(modes["min_delta_F"], dtype=float).min())
        if low < -DELTA_TOL:
            return Outcome(False, f"min delta_F {low:.3e} < {-DELTA_TOL}")
        with open(out / "metadata.json") as fh:
            t_minus = json.load(fh)["config"]["derived"]["t_minus"]
        spect = spectrum(ChainSpec(n_beads))
        err = 0.0
        for side, t_tilde in (("plus", t_plus), ("minus", t_minus)):
            spec = ChainSpec(n_beads, t_tilde=t_tilde)
            for k in range(spect.n_modes):
                got = table[f"a{k + 1}_{side}"]
                want = np.array([analytic_variance(spec, spect, k, t)
                                 for t in table["t"]])
                err = max(err, float(np.max(np.abs(got - want) / want)))
        if err > VARIANCE_RTOL:
            return Outcome(False, f"variance error {err:.3e}", err)
        return Outcome(True, variance_err=err)


class FlatBowl:
    """``geoflow compare`` on the distance-squared bowl: no asymmetry."""

    name = "flat-bowl"
    PER_ROUND = 4
    LEVEL = 0.5

    def round(self, rng) -> list[tuple[np.ndarray, np.ndarray]]:
        return [tuple(rng.standard_normal((2, 2)))
                for _ in range(self.PER_ROUND)]

    def certify(self, cert, out: Path) -> Outcome:
        # ``--direction1=x,y``: the separate-argument form reads a leading
        # '-' as an option; float() keeps numpy 2's repr out of the text
        d1, d2 = (",".join(repr(float(v)) for v in d) for d in cert)
        code, stdout = run_cli([
            "compare", "--model", "euclidean-quadratic",
            f"--direction1={d1}", f"--direction2={d2}",
            "--level", repr(self.LEVEL), "--t-end", "12", "--out", str(out)])
        if code != 3 or stdout != "Inconclusive":
            return Outcome(False, f"exit {code}, stdout {stdout!r}")
        with open(out / "metadata.json") as fh:
            verdicts = json.load(fh)["verdicts"]
        if verdicts[0] != "Inconclusive":
            return Outcome(False, f"bundle verdict {verdicts[0]!r}")
        delta_f = _columns(out / "report.csv")["delta_f"]
        worst = float(np.abs(np.array(delta_f, dtype=float)).max())
        if worst > SYMMETRY_RTOL * self.LEVEL:
            return Outcome(False, f"max |delta_f| {worst:.3e}")
        return Outcome(True, zero_gap=any(v.startswith("zero-gap")
                                          for v in verdicts))


def _point(rng, model: str, spect=None) -> np.ndarray:
    """A non-critical point in the sampling region the tests use."""
    while True:
        if model == "euclidean-quadratic":
            x = rng.uniform(-2.0, 2.0, 2)
            if np.linalg.norm(x) < 0.2:
                continue
        elif model == "gaussian-mode":
            x = np.array([rng.uniform(1.2, 5.0) if rng.random() < 0.5
                          else rng.uniform(0.25, 0.8)])
        elif model == "two-mode":
            x = rng.uniform(0.3, 4.0, 2)
            if abs(x[0] - 2.0) < 0.1 and abs(x[1] - 2.0 / 3.0) < 0.1:
                continue
        elif model == "hessian-exp":
            x = rng.uniform(-1.5, 1.5, 1)
            if abs(x[0]) < 0.05:
                continue
        else:
            x = spect.a_star * np.exp(rng.uniform(np.log(0.25), np.log(4.0),
                                                  spect.n_modes))
        return x


class Geometry:
    """Pointwise checks at seeded points; no integration at all."""

    name = "geometry"

    def __init__(self):
        self.spectra = {"chain-5": spectrum(ChainSpec(6)),
                        "chain-11": spectrum(ChainSpec(12))}
        self.models = {
            "euclidean-quadratic": fixtures.euclidean_quadratic(),
            "gaussian-mode": fixtures.gaussian_mode(),
            "two-mode": fixtures.two_mode_chain(),
            "hessian-exp": fixtures.hessian_exp(),
            **{name: chain_manifold(sp) for name, sp in self.spectra.items()},
        }
        self.mode_spect = spectrum(ChainSpec(2))
        self.mode_plane = mode_plane_manifold(self.mode_spect, 0)
        self.sphere, _ = fixtures.sphere_height()

    def round(self, rng) -> list[tuple]:
        certs = []
        for model in self.models:
            for lam in (0.0, 1.0):
                for check in ("pregeodesic", "nonmetricity"):
                    certs.append((check, model, lam, _point(
                        rng, model, self.spectra.get(model))))
        ratio = (rng.uniform(0.2, 0.8) if rng.random() < 0.5
                 else rng.uniform(1.2, 5.0))
        certs.append(("curvature", "mode-plane", 0.0, ratio))
        certs.append(("sphere", "sphere", 0.0,
                      np.array([rng.uniform(0.3, np.pi - 0.3),
                                rng.uniform(0.0, 6.0)])))
        return certs

    def certify(self, cert, out: Path) -> Outcome:
        check, model, lam, x = cert
        st = straightening
        if check == "pregeodesic":
            g, f = self.models[model]
            err, tol = st.pregeodesic_residual(g, f, lam, x), POINTWISE_TOL
        elif check == "nonmetricity":
            g, f = self.models[model]
            conn = st.straightening_connection(g, f, lam)
            want = st.nonmetricity_closed_tensor(g, f, lam, x)
            got = st.nonmetricity_tensor(conn, g, x)
            err = float(np.abs(got - want).max()
                        / max(1.0, np.abs(want).max()))
            tol = POINTWISE_TOL
        elif check == "curvature":
            g, f = self.mode_plane
            a = x * self.mode_spect.a_star[0]
            want = scalar_curvature_mode(self.mode_spect, 0, a)
            got = st.scalar_curvature(st.straightening_connection(g, f, 0.0),
                                      np.array([0.0, a]))
            err, tol = abs(got - want) / max(1.0, abs(want)), CURVATURE_RTOL
        else:
            lc = manifold.levi_civita_connection(self.sphere)
            err, tol = abs(st.scalar_curvature(lc, x) + 2.0), SPHERE_TOL
        if not err <= tol:
            return Outcome(False, f"{check} on {model}: {err:.3e} > {tol}")
        return Outcome(True)


WORKLOADS = {w.name: w for w in (ChainRace, FlatBowl, Geometry)}
