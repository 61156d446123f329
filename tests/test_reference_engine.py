"""No command and no acceptance criterion reaches the Fraction substitution
engine: ``BivarPoly.substitute``, ``frame_apply``, ``divide_out_linear``,
``LinearFrame.inverse`` and ``valuation._step_images`` serve the reference
oracle ``evaluate_naive`` and the tests only.

Each test replaces those five names with a function that raises, in this
process and so in every child the acceptance suite forks, and then checks
that the bytes do not change: each criterion against its entry in the pinned
``suite all --json`` output, each pinned CLI call against its recorded
stdout, stderr and exit code, and ``val krull`` on each kind of curve
against the same call made before the names were replaced.
"""

import json
import sys

import pytest

from test_cli_pinned import CALLS, PINNED, call, in_files  # noqa: F401 (a fixture)
from valtree import poly, valuation
from valtree.poly import IDENTITY_FRAME, BivarPoly
from valtree.suites import ALL_CRITERIA
from valtree.testkit import DEFAULT_SEED

ENGINE = (
    (poly, "divide_out_linear"),
    (poly, "frame_apply"),
    (poly.BivarPoly, "substitute"),
    (poly.LinearFrame, "inverse"),
    (valuation, "_step_images"),
)

RECORDED = json.loads(PINNED.read_text(encoding="utf-8"))
SUITE = json.loads(RECORDED["suite-all-json"][1])

X, Y = BivarPoly.var_x(), BivarPoly.var_y()


class EngineReached(AssertionError):
    """Raised by each engine name while the guard is in place."""


def _reached(*args, **kwargs):
    raise EngineReached("the reference substitution engine was reached")


def forbid_the_engine(monkeypatch):
    """Replace the five names, and any module's own reference to one of them."""
    originals = [getattr(owner, name) for owner, name in ENGINE]
    for owner, name in ENGINE:
        monkeypatch.setattr(owner, name, _reached)
    modules = [m for n, m in sys.modules.items() if n == "valtree" or n.startswith("valtree.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if any(value is f for f in originals):
                monkeypatch.setattr(module, attr, _reached)


@pytest.fixture
def no_engine(monkeypatch):
    forbid_the_engine(monkeypatch)


def test_each_engine_name_raises_under_the_guard(no_engine):
    for reach in (
        lambda: poly.divide_out_linear(X, Y),
        lambda: poly.frame_apply(X, IDENTITY_FRAME),
        lambda: X.substitute(X, Y),
        lambda: IDENTITY_FRAME.inverse(),
        lambda: valuation._step_images(valuation.ZERO_POINT),
        lambda: valuation.evaluate_naive(valuation.M_ADIC, X),
    ):
        with pytest.raises(EngineReached):
            reach()


@pytest.mark.parametrize(
    "criterion", ALL_CRITERIA, ids=[f"criterion_{i}" for i in range(1, 16)]
)
def test_criteria_give_their_pinned_results_without_the_engine(no_engine, criterion):
    result = criterion(DEFAULT_SEED, scale=1.0)
    got = {"criterion": result.criterion, "name": result.name, "passed": result.passed,
           "detail": result.detail}
    assert got == SUITE[result.criterion - 1]


@pytest.mark.parametrize("name, argv", CALLS, ids=[name for name, _ in CALLS])
def test_pinned_calls_give_their_bytes_without_the_engine(no_engine, in_files, name, argv):
    assert call(argv) == RECORDED[name]


# the direction at infinity, 0, and a finite nonzero one, [1:2]
CURVES = {
    "infinity": '{"weights":["inf","1"]}',
    "zero": '{"weights":["1","inf"]}',
    "finite": '{"frame":[["1","0"],["1","2"]],"weights":["1","inf"]}',
}


@pytest.mark.parametrize("kind", CURVES)
def test_krull_on_each_kind_of_curve_gives_its_bytes_without_the_engine(monkeypatch, in_files, kind):
    argv = ["val", "krull", "--valuation", CURVES[kind], "--poly", "x*y+y^2", "--poly", "x^3-y"]
    want = [call(argv), call(argv + ["--json"])]
    assert want[0][0] == 0
    forbid_the_engine(monkeypatch)
    assert [call(argv), call(argv + ["--json"])] == want
