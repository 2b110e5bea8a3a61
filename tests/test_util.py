"""The process allocator policy: `util.keep_heap` and where the CLI sets it."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from evograft import cli, util

SRC = Path(__file__).resolve().parent.parent / "src"

# Ten rounds of 20 one-MiB arrays, written and freed, after one warm-up round.
# Prints the minor page faults the ten rounds took.
FAULTS = """
import resource, sys
import numpy as np
import evograft.cli
from evograft.util import keep_heap
if sys.argv[1] == "keep":
    assert keep_heap()
def round_():
    arrays = [np.ones(1 << 18, np.float32) for _ in range(20)]
    del arrays
round_()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    round_()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def minor_faults(mode: str) -> int:
    env = {k: v for k, v in os.environ.items() if k != "GLIBC_TUNABLES" and not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-c", FAULTS, mode], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return int(proc.stdout)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_kept_heap_stops_page_faults_on_repeated_temporaries():
    # Control: importing evograft sets nothing, so glibc maps and unmaps each
    # 1 MiB array: about 256 faults per array.
    assert minor_faults("import") > 10 * 20 * 256 // 2
    # Kept: 0 measured on Linux/glibc 2.36; the slack is below one array's pages.
    assert minor_faults("keep") < 256


class FakeLibc:
    def __init__(self, with_mallopt: bool = True):
        self.calls = []
        if with_mallopt:
            self.mallopt = lambda param, value: self.calls.append((param, value)) or 1


@pytest.fixture
def clean_env(monkeypatch):
    """No allocator choice in the environment."""
    for k in [k for k in os.environ if k == "GLIBC_TUNABLES" or k.startswith("MALLOC_")]:
        monkeypatch.delenv(k)
    return monkeypatch


def test_keep_heap_is_a_no_op_without_mallopt(clean_env):
    clean_env.setattr(util.ctypes, "CDLL", lambda name: FakeLibc(with_mallopt=False))
    assert util.keep_heap() is False


@pytest.mark.parametrize("var", ["MALLOC_ARENA_MAX", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"])
def test_keep_heap_leaves_an_operator_choice_alone(clean_env, var):
    libc = FakeLibc()
    clean_env.setattr(util.ctypes, "CDLL", lambda name: libc)
    clean_env.setenv(var, "2")
    assert util.keep_heap() is False
    assert libc.calls == []


@pytest.mark.skipif(os.name != "posix", reason="mallopt is looked up on POSIX only")
def test_keep_heap_sets_arena_mmap_and_trim(clean_env):
    libc = FakeLibc()
    clean_env.setattr(util.ctypes, "CDLL", lambda name: libc)
    assert util.keep_heap() is True
    assert libc.calls == [(-8, 1), (-3, 32 << 20), (-1, 128 << 20)]


def test_cli_sets_the_policy_before_parsing(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "keep_heap", lambda: calls.append("keep_heap"))
    with pytest.raises(SystemExit):
        cli.main(["no-such-command"])
    assert calls == ["keep_heap"]
