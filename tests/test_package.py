"""The public surface: what ``import geoflow`` exports, and every module's
``__all__``."""

import importlib
import pkgutil

import pytest

import geoflow

EXPORTS = [
    "__version__",
    "CURVE1_FASTER",
    "CURVE2_FASTER",
    "INCONCLUSIVE",
    "ChainSpec",
    "Chart",
    "EquidistantPair",
    "GeoflowError",
    "MetricField",
    "ScalarPotential",
    "compare",
    "equidistant_seed",
    "straightening_connection",
    "universal_asymmetry_experiment",
]


def test_package_exports_what_a_race_needs():
    assert sorted(geoflow.__all__) == sorted(EXPORTS)
    assert len(set(geoflow.__all__)) == len(geoflow.__all__)


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(geoflow.__path__, "geoflow.")))
def test_every_listed_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{module}.__all__ lists undefined {missing}"
