"""Shared pytest wiring for the suite.

`flipped_weighted_grad` injects the fault the gradcheck tests expect
the audit to catch, in every module `package_modules` lists. The
acceptance module records one (number, name, passed, detail) row per
criterion; the hook below prints them as a compact scoreboard at the
end of the run so the verdicts are visible even when everything passes.
"""

from __future__ import annotations

import pkgutil
import sys
from importlib import import_module

import numpy as np
import pytest

import exitweave


@pytest.fixture
def package_modules():
    """(name, module) for every module of the package, each imported."""
    return [(m.name, import_module(f"exitweave.{m.name}")) for m in pkgutil.iter_modules(exitweave.__path__)]


@pytest.fixture
def flipped_weighted_grad(monkeypatch, package_modules):
    """A gradient fault for gradcheck to catch: the coefficient-folded
    backward sweep training runs, with the sign of its largest-magnitude
    entry flipped in every module that binds it, as a real defect in it
    would reach them all."""
    exact = exitweave.backbone.batch_weighted_grad

    def flipped(*args):
        out = exact(*args)
        idx = np.argmax(np.abs(out))
        out[idx] = -out[idx]
        return out

    for _, module in package_modules:
        if getattr(module, "batch_weighted_grad", None) is exact:
            monkeypatch.setattr(module, "batch_weighted_grad", flipped)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # find the module instance pytest actually executed, whatever name the
    # active import mode registered it under; re-importing would produce a
    # fresh, unpopulated copy
    results = []
    for name, module in list(sys.modules.items()):
        if name.rpartition(".")[2] == "test_acceptance" and module is not None:
            results = getattr(module, "CRITERION_RESULTS", [])
            if results:
                break
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, passed, detail in sorted(results):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} [{status}] {name}: {detail}")
