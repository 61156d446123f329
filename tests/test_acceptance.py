"""Acceptance gate: the fifteen criteria, full scale, one line each.

Run with -s to see the per-criterion lines as they pass; each test fails
with the criterion's own detail and witness if the property breaks.
"""

from fractions import Fraction

import pytest

from valtree.suites import ALL_CRITERIA, criterion_9
from valtree.testkit import DEFAULT_SEED


@pytest.mark.parametrize(
    "criterion", ALL_CRITERIA, ids=[f"criterion_{i}" for i in range(1, 16)]
)
def test_acceptance(criterion):
    result = criterion(DEFAULT_SEED, scale=1.0)
    word = "PASS" if result.passed else "FAIL"
    print(f"{word} criterion {result.criterion:2d}: {result.name} -- {result.detail}")
    assert result.passed, f"{result.detail} (witness: {result.witness!r})"


def test_deep_chain_weight_pairs():
    # seed 7 draws (10/11, 11/12), whose chain runs past the stream guard
    result = criterion_9(7, scale=1.0)
    assert result.passed, result.detail


class TestCriterion8Guards:
    """Criterion 8 reads the relation and the strictness from tables built
    once per quadruple; a broken relation or valuation must still fail it."""

    @staticmethod
    def _first_seen():
        """A key per distinct argument, in the order they first appear."""
        keys = {}
        return lambda item: keys.setdefault(item, len(keys))

    def _detail(self, monkeypatch, sim=None, value=None):
        from valtree import suites

        if sim is not None:
            monkeypatch.setattr(suites, "sim_pairs", sim)
        if value is not None:
            monkeypatch.setattr(suites, "evaluate", value)
        result = suites.criterion_8(DEFAULT_SEED, scale=1.0)
        assert not result.passed
        return result.detail

    def test_asymmetric_relation_fails(self, monkeypatch):
        key = self._first_seen()
        detail = self._detail(monkeypatch, sim=lambda p, q: key(p) <= key(q))
        assert detail.endswith("relation not symmetric")

    def test_intransitive_relation_fails(self, monkeypatch):
        key = self._first_seen()
        detail = self._detail(monkeypatch, sim=lambda p, q: abs(key(p) - key(q)) <= 1)
        assert detail.endswith("relation not transitive")

    def test_similar_pairs_that_split_strictness_fail(self, monkeypatch):
        key = self._first_seen()
        detail = self._detail(
            monkeypatch,
            sim=lambda p, q: True,
            value=lambda nu, form: Fraction(2 if key(form) % 2 == 0 else 1),
        )
        assert detail.endswith("similar pairs split strictness")

    def test_strict_pairs_that_are_not_similar_fail(self, monkeypatch):
        detail = self._detail(
            monkeypatch, sim=lambda p, q: p == q, value=lambda nu, form: Fraction(2)
        )
        assert detail.endswith("two strict pairs not similar")
