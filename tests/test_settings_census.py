"""The settings the serving and write-plane classes accept, pinned exactly.

Each name here is a setting some caller outside the tests passes (or that
the tests need to inject a fake clock). A setting no caller sets is a
module constant instead, so adding one back has to change this list.
"""

import dataclasses
import inspect

from repro.evolve import RebuildSupervisor, WalWriter
from repro.resilience import Budget
from repro.serve import CircuitBreaker, ServiceConfig
from repro.serve.workers import WorkerPool

#: The object a class is built over, not a setting of it.
SUBJECTS = {"service", "maintainer", "directory"}


def _init_fields(cls):
    return tuple(f.name for f in dataclasses.fields(cls) if f.init)


def _settings(cls):
    return tuple(
        name for name in inspect.signature(cls).parameters
        if name not in SUBJECTS
    )


CENSUS = {
    "ServiceConfig": (_init_fields(ServiceConfig), (
        "workers", "queue_capacity", "default_max_iterations", "triangle",
        "breaker_cooldown_s",
    )),
    "Budget": (_init_fields(Budget), ("deadline_s", "max_iterations")),
    "CircuitBreaker": (_settings(CircuitBreaker), ("cooldown_s", "clock")),
    "WorkerPool": (_settings(WorkerPool), ("num_workers",)),
    "RebuildSupervisor": (_settings(RebuildSupervisor), ("poll_interval_s",)),
    "WalWriter": (_settings(WalWriter), ("fsync",)),
}


def test_each_class_accepts_exactly_its_settings():
    assert {k: got for k, (got, _) in CENSUS.items()} == {
        k: want for k, (_, want) in CENSUS.items()
    }


def test_twelve_settable_values_in_all():
    assert sum(len(got) for got, _ in CENSUS.values()) == 12
