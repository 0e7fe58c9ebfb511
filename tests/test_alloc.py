"""``import repro`` fixes glibc's malloc thresholds (repro.alloc).

The pattern below is the one that made query cost depend on history: after
one 1 MiB block is freed, glibc's dynamic rule trims the heap above 2 MiB,
so four live 0.9 MiB temporaries are handed back to the kernel and faulted
in again on every round. With the thresholds pinned they stay in the heap.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from repro.alloc import pin_thresholds

SRC = Path(__file__).resolve().parents[1] / "src"

PATTERN = """
import resource
import numpy as np
import repro

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

np.ones(1 << 17)  # a 1 MiB mmapped block, freed at once
per_round = []
for _ in range(12):
    f0 = faults()
    live = [np.ones(115_000) for _ in range(4)]
    del live
    per_round.append(faults() - f0)
print(max(per_round[2:]))
"""

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="mallopt thresholds are glibc's")


def _worst_round_faults(**env_extra) -> int:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(SRC)
    env.update(env_extra)
    out = subprocess.run([sys.executable, "-c", PATTERN], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1])


@glibc_only
def test_import_keeps_round_temporaries_in_the_heap():
    assert _worst_round_faults() < 50


@glibc_only
def test_thresholds_set_in_the_environment_are_left_alone():
    # A fixed 128 KiB trim threshold hands the temporaries back every round.
    assert _worst_round_faults(MALLOC_TRIM_THRESHOLD_="131072") > 500


def test_pin_backs_off_when_the_environment_chooses():
    assert not pin_thresholds({"MALLOC_MMAP_THRESHOLD_": "131072"})
    assert not pin_thresholds({"MALLOC_TRIM_THRESHOLD_": "131072"})
    assert not pin_thresholds(
        {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"})
