"""Importing stagelens fixes glibc's malloc thresholds, so that memory freed
by one report is reused by the next instead of being faulted in again."""

import os
import platform
import subprocess
import sys

import pytest

from stagelens._alloc import fix_malloc_thresholds

pytestmark = pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="mallopt's thresholds are glibc's",
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Two 3 MiB arrays allocated and freed together, as a report's trace is:
# prints the page faults of 20 rounds after a first one.
CHURN = """
import resource
import numpy as np
import stagelens  # noqa: F401

def churn():
    a, b = np.ones(3 << 17), np.ones(3 << 17)
    del a, b

churn()
start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
"""


def _churn_faults(**env_extra) -> int:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env.pop("GLIBC_TUNABLES", None)
    env.update(PYTHONPATH=SRC, **env_extra)
    out = subprocess.run(
        [sys.executable, "-c", CHURN], env=env, capture_output=True, text=True, check=True
    )
    return int(out.stdout)


def test_freed_arrays_are_reused_without_page_faults():
    assert _churn_faults() < 100


def test_malloc_settings_from_the_environment_are_left_alone(monkeypatch):
    # The control: with glibc's adaptive thresholds, this churn gives its
    # pages back to the kernel every round (about 1,500 faults a round).
    assert _churn_faults(MALLOC_ARENA_MAX="8") > 20 * 1000
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
    assert not fix_malloc_thresholds()
