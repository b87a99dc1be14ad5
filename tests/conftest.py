"""Shared fixtures, and one summary line per acceptance check at the end of a run."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def stroke_proxy():
    """perfbench's stroke_proxy(classes, per_class, seed), MNIST-shaped sparse rows,
    loaded read-only from perfbench/proxy.py so that src/ does not carry it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_proxy", Path(__file__).resolve().parent.parent / "perfbench" / "proxy.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.stroke_proxy


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seen = set()
    lines = []
    for outcome in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid or nodeid in seen:
                continue
            seen.add(nodeid)
            name = nodeid.split("::")[-1]
            lines.append((name, outcome.upper()))
    if lines:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance checks:")
        for name, outcome in sorted(lines):
            terminalreporter.write_line(f"  {name}: {outcome}")
