"""The package namespace is lazy: a module is imported on the first use of
one of its names, so a process loads only the modules it uses."""

import importlib
import os
import subprocess
import sys

import pytest

import stagelens

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Loaded in a fresh interpreter after `statement`: the stagelens modules, one a line.
PROBE = """
import sys
{statement}
print("\\n".join(sorted(m for m in sys.modules if m.split(".")[0] == "stagelens")))
"""

UNUSED_BY_SIMULATION = (
    "appdetect", "correlate", "metricdetect", "nodedetect", "report", "ingest", "evaluate", "cli",
)


def _loaded(statement: str) -> set:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", PROBE.format(statement=statement)],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(out.stdout.split())


def test_import_loads_only_the_package_and_the_allocator_setting():
    assert _loaded("import stagelens") == {"stagelens", "stagelens._alloc"}


def test_simulating_and_saving_loads_no_detector_report_or_ingest():
    loaded = _loaded(
        "from stagelens.simulate import generate_trace\nfrom stagelens.traceio import save_trace"
    )
    assert {"stagelens.simulate", "stagelens.traceio"} <= loaded
    assert not loaded & {f"stagelens.{name}" for name in UNUSED_BY_SIMULATION}


def test_cli_loads_ingest_and_evaluate_only_in_their_commands():
    loaded = _loaded("import stagelens.cli")
    assert "stagelens.report" in loaded
    assert not loaded & {"stagelens.ingest", "stagelens.evaluate"}


@pytest.mark.parametrize("name", stagelens.__all__)
def test_each_public_name_is_its_modules_object(name):
    module = importlib.import_module(f"stagelens.{stagelens._EXPORTS[name]}")
    assert getattr(stagelens, name) is getattr(module, name)
    assert name in dir(stagelens)


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'stagelens' has no attribute 'nosuch'$"):
        stagelens.nosuch


def test_submodule_is_an_attribute_after_importing_the_package():
    assert "stagelens.report" in _loaded("import stagelens\nstagelens.report.render_report")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from stagelens import *", namespace)
    assert all(namespace[name] is getattr(stagelens, name) for name in stagelens.__all__)
