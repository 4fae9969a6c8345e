"""The package's public names, each loaded on first use."""

import ast
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

import myetrends


def test_every_exported_name_resolves():
    for name in myetrends.__all__:
        assert getattr(myetrends, name) is not None, name


@pytest.mark.parametrize("module", sorted(myetrends._EXPORTS))
def test_every_submodule_name_resolves(module):
    # a stale name left in a submodule's __all__ fails here
    mod = importlib.import_module(f"myetrends.{module}")
    for name in getattr(mod, "__all__", ()):
        assert getattr(mod, name) is not None, f"{module}.{name}"


def test_public_surface_is_pinned():
    # adding or removing a public name is a visible edit here
    assert set(myetrends.__all__) == {
        "__version__",
        "RatPoly", "sma",
        "DesignSpec", "FilterSet", "VerificationReport", "design_filters",
        "variance_inflation", "verify_filter_set",
        "MyeSeries", "ObservedValue", "RegionPair", "PUBLISHED", "IMPUTED", "load_csv",
        "write_csv", "impute_random_walk", "sma_of_base", "display_decimals", "render_value",
        "load_sample", "sample_names", "STANDARD_TARGETS",
        "TrendEstimates", "CompatibilityReport", "ComparisonSpec", "ComparisonResult",
        "apply_filter", "trend_estimates", "nsr", "compatibility", "compare",
        "expected_bias", "synthetic_series",
        "SimulationSpec", "SimulationSummary", "simulate_bias",
        "MODES", "MyeTrendsError", "DataError", "CsvError",
        "MissingDataError", "ImputationError", "DomainError",
    }


def test_dir_lists_every_exported_name():
    assert set(myetrends.__all__) <= set(dir(myetrends))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from myetrends import *", namespace)
    assert set(myetrends.__all__) <= set(namespace)
    assert namespace["simulate_bias"] is myetrends.simulate_bias


def test_each_name_is_its_defining_module_object():
    import myetrends.analysis
    import myetrends.exceptions

    assert myetrends.analysis.MODES is myetrends.MODES is myetrends.exceptions.MODES


def test_each_public_name_is_listed_by_its_home_only():
    # a submodule's __all__ lists only the names it defines, so no module
    # serves another's names and the simulator builds on analysis, not back
    strays = []
    for module in myetrends._EXPORTS:
        mod = importlib.import_module(f"myetrends.{module}")
        strays += [f"{module}.{name}" for name in getattr(mod, "__all__", ())
                   if myetrends._SOURCE.get(name, module) != module]
    assert not strays, strays
    with pytest.raises(AttributeError):
        importlib.import_module("myetrends.analysis").simulate_bias


@pytest.mark.parametrize("module", ["myetrends", "myetrends.analysis"])
def test_unknown_attribute(module):
    mod = importlib.import_module(module)
    with pytest.raises(AttributeError, match=rf"^module {re.escape(repr(module))} has no attribute 'nope'$"):
        mod.nope
    with pytest.raises(ImportError):
        exec(f"from {module} import nope", {})


def test_resolved_names_are_cached():
    # a fresh interpreter: the first read loads the module and stores the
    # value in the package's namespace, so later reads skip __getattr__
    probe = (
        "import sys, myetrends\n"
        "assert 'DesignSpec' not in vars(myetrends)\n"
        "assert 'myetrends.filterdesign' not in sys.modules\n"
        "spec = myetrends.DesignSpec\n"
        "assert vars(myetrends)['DesignSpec'] is spec\n"
        "assert 'myetrends.analysis' not in sys.modules\n"
        "assert myetrends.filterdesign is sys.modules['myetrends.filterdesign']\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_profile_lists_lazily_loaded_modules():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import myetrends; myetrends.DesignSpec"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"\| myetrends\.filterdesign$", proc.stderr, re.MULTILINE), proc.stderr


def test_package_source_keeps_its_one_place_rules():
    # every "an int, not a bool" test goes through exceptions.check_int, and
    # no record is a dataclass: importing dataclasses loads inspect, which
    # every short command would pay for
    broken = []
    for path in sorted(pathlib.Path(myetrends.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if (re.search(r"isinstance\(.*bool\)", line) and path.name != "exceptions.py"
                    or "dataclasses" in line):
                broken.append(f"{path.name}:{number}: {line.strip()}")
    assert not broken, broken


def called_names(path, *functions):
    """Names of the functions and methods that ``functions`` in ``path`` call."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    f = call.func
                    names.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
    return names


def test_design_and_verification_stay_independent():
    # verification re-derives each property by its own algorithm: it never
    # multiplies by running sums or inverts theta, and the design never
    # takes derivatives, so a fault in one cannot hide in both
    package = pathlib.Path(myetrends.__file__).parent
    verify = called_names(package / "filterdesign.py", "verify_filter_set")
    assert "derivatives_at_one" in verify
    assert not verify & {"averaged", "inverse_near_one"}, verify
    design = (called_names(package / "filterdesign.py", "design_filters")
              | called_names(package / "ratpoly.py", "averaged", "inverse_near_one"))
    assert {"averaged", "inverse_near_one"} <= design
    assert not design & {"derivatives_at_one", "derivative_at_one"}, design
