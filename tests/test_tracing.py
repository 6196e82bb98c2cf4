"""The benchmark tracer's contract with the library.

``perfbench/tracing.py`` replaces funcsol functions by name for one traced
run. A function it names that is renamed or deleted ends a traced
benchmark run with a KeyError, and one that is no longer called reads 0;
these tests catch both in the test suite. The tracer is imported read-only:
no bytecode is written next to it.
"""

import importlib
import pathlib
import sys

import pytest

from funcsol import exprlang, verify
from funcsol.geometry import build_annulus
from funcsol.twopoint import ProblemSpec

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

COUPLED = ProblemSpec.from_strings(2, [["2+0.5*sin(u1)", "0.3+0.1*u2"],
                                       ["0.3+0.1*u2", "1.5+0.2*u1"]], u_star=(0.5, 0.3))


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    module = importlib.import_module("tracing")
    assert pathlib.Path(module.__file__).parent == PERFBENCH
    yield module
    sys.modules.pop("tracing", None)


def test_every_target_is_a_callable_attribute_of_its_owners(tracing):
    for name, owners, attr, _ in tracing.TARGETS:
        for owner in owners:
            assert callable(owner.__dict__.get(attr)), f"{name}: {owner.__name__}.{attr}"


def test_traced_direct_solve_counts_stencil_solves_and_restores(tracing):
    """One direct solve inside a traced run reads its stencil solves and its
    span, and every replaced attribute is the original again afterwards."""
    originals = [(owner, attr, owner.__dict__[attr])
                 for _, owners, attr, _ in tracing.TARGETS for owner in owners]
    originals.append((exprlang, "evaluate", exprlang.evaluate))
    tracer = tracing.Tracer()
    with tracer.run():
        verify.direct_coupled_solve(COUPLED, build_annulus(33, 33, 1.0, 2.0))
    metrics = tracer.metrics()
    assert metrics["pivot.stencil_solves"] == 12
    assert metrics["pivot.stencil_cg_iters"] == 0
    assert metrics["verify.direct_s"] > 0.0
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
