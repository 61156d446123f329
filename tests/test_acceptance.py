"""Acceptance gate: the fifteen criteria, full scale, one line each.

Run with -s to see the per-criterion lines as they pass; each test fails
with the criterion's own detail and witness if the property breaks.
"""

import multiprocessing
import os
import threading
from fractions import Fraction

import pytest

from valtree import suites
from valtree.suites import ALL_CRITERIA, criterion_9
from valtree.testkit import DEFAULT_SEED, gen_qmv


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


class TestCriterion5Shares:
    """Criterion 5 checks its pairs in shares, one per CPU, the first in this
    process and the others in forked workers.  The workers inherit a
    monkeypatch, so these tests can break a pair in any share; the answer
    must be the serial one whatever the share count."""

    @staticmethod
    def _run(monkeypatch, k, seed=DEFAULT_SEED):
        monkeypatch.setattr(suites, "_cpu_count", lambda: k)
        try:
            return suites.criterion_5(seed, scale=0.2)
        finally:
            assert multiprocessing.active_children() == []

    @staticmethod
    def _break_meet(monkeypatch, pairs, broken):
        """meet with the first input of each of these pairs answers broken(nu, mu)."""
        bad = {gen_qmv(DEFAULT_SEED + 2 * i + 1, max_depth=4, denom_bound=10) for i in pairs}
        meet = suites.meet
        monkeypatch.setattr(suites, "meet", lambda nu, mu: broken(nu, mu) if nu in bad else meet(nu, mu))

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 7, 991])
    def test_share_counts_give_one_result(self, monkeypatch, seed):
        results = [self._run(monkeypatch, k, seed) for k in (1, 2, 3)]
        assert results[0].passed, results[0].detail
        assert len({(r.passed, r.detail) for r in results}) == 1

    def test_each_share_runs_its_pairs_in_order_in_its_own_process(self, monkeypatch, tmp_path):
        log, pair = tmp_path / "pairs.txt", suites._criterion_5_pair

        def logged(seed, i, n_polys):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {i}\n")
            return pair(seed, i, n_polys)

        monkeypatch.setattr(suites, "_criterion_5_pair", logged)
        assert self._run(monkeypatch, 3).passed
        shares = {}
        for line in log.read_text().splitlines():
            pid, i = map(int, line.split())
            shares.setdefault(pid, []).append(i)
        assert len(shares) == 3 and shares[os.getpid()] == list(range(0, 40, 3))
        assert sorted(map(tuple, shares.values())) == [tuple(range(j, 40, 3)) for j in range(3)]

    def test_other_threads_keep_the_pairs_in_this_process(self, monkeypatch):
        started = suites._criterion_5_share

        def only_here(seed, j, k, n_pairs, n_polys):
            if j:
                raise AssertionError("a share was sent to a worker")
            return started(seed, j, k, n_pairs, n_polys)

        monkeypatch.setattr(suites, "_criterion_5_share", only_here)
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert self._run(monkeypatch, 2).passed

    def test_lowest_failing_pair_is_reported(self, monkeypatch):
        # pairs 3 and 8 are incomparable, so "meet = the first input" is not
        # commutative there; with 2 and 3 shares they lie in different ones
        self._break_meet(monkeypatch, (3, 8), lambda nu, mu: nu)
        serial = self._run(monkeypatch, 1)
        assert not serial.passed
        assert serial.detail == "pair 3: meet not commutative"
        for k in (2, 3):
            result = self._run(monkeypatch, k)
            assert (result.passed, result.detail, result.witness) == (
                serial.passed, serial.detail, serial.witness
            )

    def test_a_pair_that_raises_raises(self, monkeypatch):
        def broken(nu, mu):
            raise ZeroDivisionError("broken on purpose")

        self._break_meet(monkeypatch, (5,), broken)
        for k in (1, 2, 3):  # pair 5 runs here, in share 1 and in share 2
            with pytest.raises(ZeroDivisionError, match="broken on purpose"):
                self._run(monkeypatch, k)

    def test_a_worker_that_dies_leaves_the_pairs_to_this_process(self, monkeypatch):
        parent, pair = os.getpid(), suites._criterion_5_pair

        def dying(seed, i, n_polys):
            if os.getpid() != parent:
                os._exit(1)
            return pair(seed, i, n_polys)

        monkeypatch.setattr(suites, "_criterion_5_pair", dying)
        result = self._run(monkeypatch, 2)
        assert result.passed, result.detail
        assert result.detail == "40 pairs: bound x100, laws, maximality"
