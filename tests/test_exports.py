"""The package's public names, each loaded on first use."""

import importlib
import re
import subprocess
import sys

import pytest

import myetrends


def test_every_exported_name_resolves():
    for name in myetrends.__all__:
        assert getattr(myetrends, name) is not None, name


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
    import myetrends.simulation

    assert myetrends.analysis.simulate_bias is myetrends.simulation.simulate_bias
    assert myetrends.analysis.SimulationSpec is myetrends.SimulationSpec
    assert myetrends.analysis.MODES is myetrends.MODES is myetrends.exceptions.MODES


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
