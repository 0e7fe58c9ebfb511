"""Fault-injection plumbing: parsing, arming, firing, restoring."""

import ast
import re
import time
from pathlib import Path

import pytest

from repro.resilience import faults
from repro.resilience.faults import (
    ENV_VAR,
    Fault,
    InjectedCrash,
    InjectedFault,
    clear,
    configure_from_env,
    fault_point,
    injected,
    install,
    installed,
    parse_spec,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    clear()
    yield
    clear()


class TestParsing:
    def test_single_entry(self):
        faults = parse_spec("engine.frontier.iteration:crash:40")
        f = faults["engine.frontier.iteration"]
        assert f.kind == "crash" and f.at_hit == 40 and f.param is None

    def test_multiple_entries_and_param(self):
        faults = parse_spec(
            "a:crash;b:ioerror:2,c:delay:1:0.25"
        )
        assert set(faults) == {"a", "b", "c"}
        assert faults["b"].at_hit == 2
        assert faults["c"].param == 0.25

    def test_defaults(self):
        assert parse_spec("x:crash")["x"].at_hit == 1

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError, match="bad fault entry"):
            parse_spec("justasite")

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_spec("x:explode")

    def test_configure_from_env(self):
        n = configure_from_env({ENV_VAR: "x:crash:3"})
        assert n == 1
        assert installed()["x"].at_hit == 3

    def test_configure_from_empty_env(self):
        assert configure_from_env({}) == 0
        assert installed() == {}


class TestFiring:
    def test_fires_at_exact_hit_only(self):
        install("site", "crash", at_hit=3)
        fault_point("site")
        fault_point("site")
        with pytest.raises(InjectedCrash):
            fault_point("site")
        fault_point("site")  # past the hit: disarmed behavior

    def test_other_sites_unaffected(self):
        install("site", "crash")
        fault_point("other")  # no fire

    def test_ioerror_is_oserror(self):
        install("site", "ioerror")
        with pytest.raises(OSError):
            fault_point("site")
        clear()
        install("site", "ioerror")
        with pytest.raises(InjectedFault):
            fault_point("site")

    def test_delay(self):
        install("site", "delay", param=0.02)
        start = time.perf_counter()
        fault_point("site")
        assert time.perf_counter() - start >= 0.015

    def test_injected_restores_prior(self):
        outer = install("site", "delay")
        with injected("site", "crash"):
            assert installed()["site"].kind == "crash"
        assert installed()["site"] is outer

    def test_injected_removes_when_no_prior(self):
        with injected("site", "crash"):
            pass
        assert "site" not in installed()

    def test_disarmed_fast_path(self):
        # with no faults installed a fault point must simply return
        fault_point("anything")

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            Fault("s", "crash", at_hit=0)


SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _fault_point_sites() -> set:
    """Every ``fault_point("...")`` string literal under ``src/repro``."""
    sites = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            arg = node.args[0]
            if (name == "fault_point" and isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)):
                sites.add(arg.value)
    return sites


def test_known_sites_docstring_matches_the_code():
    # The list follows the "Known sites (...):" heading.
    doc = faults.__doc__.split("Known sites", 1)[1].split(":", 1)[1]
    documented = set(re.findall(r"``([a-z_.]+)``", doc))
    assert documented == _fault_point_sites()
