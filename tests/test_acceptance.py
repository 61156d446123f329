"""Acceptance gate: the fifteen criteria, full scale, one line each.

Run with -s to see the per-criterion lines as they pass; each test fails
with the criterion's own detail and witness if the property breaks.
"""

import gc
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

from valtree import suites
from valtree.cli import main
from valtree.suites import ALL_CRITERIA, criterion_3, criterion_9
from valtree.testkit import DEFAULT_SEED, gen_qmv, sample_polys
from valtree.valuation import monomial, normalize


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


def test_criterion_3_counts_the_polynomials_it_checked():
    assert criterion_3(DEFAULT_SEED, scale=0.25).detail == "5 seeded polynomials agree; no rank-1 section"
    assert criterion_3(DEFAULT_SEED, scale=1.0).detail == "20 seeded polynomials agree; no rank-1 section"


class TestFailureReports:
    """A criterion broken on purpose reports its number, name, detail and
    witness, in process and through ``valtree suite all``."""

    FIXTURE = normalize(monomial(Fraction(1), Fraction(5, 2)))

    def test_a_broken_stream_fails_criterion_9_at_its_fixture(self, monkeypatch):
        monkeypatch.setattr(suites, "multiplicity_stream", lambda nu: iter(()))
        result = suites.criterion_9(DEFAULT_SEED, scale=1.0)
        assert (result.criterion, result.name, result.passed) == (
            9, "multiplicity streams match the subtractive oracle", False
        )
        assert result.detail == "fixture (1,5/2) stream is off"
        assert result.witness == self.FIXTURE

    def test_a_broken_oracle_fails_criterion_9_at_its_first_pair(self, monkeypatch):
        monkeypatch.setattr(suites, "euclid_multiplicity_oracle", lambda a, b: [])
        rng = random.Random(DEFAULT_SEED)
        g1, g2 = (Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(2))
        got = suites._stream_multiplicities(normalize(monomial(g1, g2)))
        result = suites.criterion_9(DEFAULT_SEED, scale=1.0)
        assert (result.criterion, result.passed) == (9, False)
        assert result.detail == f"weights ({g1},{g2}): {got} != []"
        assert result.witness == (g1, g2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_broken_value_fails_criterion_10_at_its_first_broken_triple(self, monkeypatch, k):
        seed, n = DEFAULT_SEED, 200  # the triples of scale 0.2
        bad = gen_qmv(seed + 17 * 3 + 7)
        first = next(i for i in range(n) if gen_qmv(seed + 17 * i + 7) == bad)
        evaluate = suites.evaluate
        monkeypatch.setattr(
            suites, "evaluate", lambda nu, phi: evaluate(nu, phi) + (1 if nu == bad else 0)
        )
        result = run_shared(monkeypatch, suites.criterion_10, k)
        assert (result.criterion, result.name, result.passed) == (10, "value axioms hold exactly", False)
        assert result.detail == f"triple {first}: product rule fails"
        phi, psi = sample_polys(seed + 17 * first + 8, 2, max_deg=3, max_terms=3, coeff_bound=5)
        assert result.witness == (bad, phi, psi)

    def test_suite_all_prints_the_failure_and_its_witness(self, monkeypatch, capsys):
        monkeypatch.setattr(suites, "dilatation_length", lambda nu: 0)
        assert main(["suite", "all"]) == 1
        lines = capsys.readouterr().out.splitlines()
        fail = lines.index(
            "FAIL criterion  9: multiplicity streams match the subtractive oracle"
            " -- fixture (1,5/2) length is off"
        )
        assert lines[fail + 1] == f"     witness: {self.FIXTURE}"
        assert sum(line.startswith("PASS criterion") for line in lines) == 14
        assert main(["suite", "all", "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [r["criterion"] for r in doc if not r["passed"]] == [9]
        assert doc[8]["passed"] is False and doc[8]["detail"] == "fixture (1,5/2) length is off"


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


def assert_no_children():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_shared(monkeypatch, criterion, k, seed=DEFAULT_SEED, scale=0.2):
    """The criterion with its items checked by k processes."""
    monkeypatch.setattr(suites, "_cpu_count", lambda: k)
    try:
        return criterion(seed, scale=scale)
    finally:
        assert_no_children()


@pytest.mark.parametrize("n", [2, 255, 256, 257, 1000, 1001])
@pytest.mark.parametrize("k", [2, 3])
def test_the_tickets_cover_every_item_once(monkeypatch, tmp_path, k, n):
    """Above 256 items a ticket holds several, the last one maybe fewer."""
    log = tmp_path / "items.txt"

    def item(i):
        with open(log, "a") as fh:
            fh.write(f"{i}\n")

    monkeypatch.setattr(suites, "_cpu_count", lambda: k)
    try:
        assert suites._first_failing(item, n) == n
    finally:
        assert_no_children()
    assert sorted(map(int, log.read_text().split())) == list(range(n))


@pytest.mark.parametrize("k", [2, 3])
def test_the_lowest_failing_item_is_found(monkeypatch, k):
    def item(i):
        if i == 900:
            raise ZeroDivisionError("broken on purpose")
        if i in (517, 518):
            raise suites._Failed("failed")

    monkeypatch.setattr(suites, "_cpu_count", lambda: k)
    try:
        assert suites._first_failing(item, 1001) == 517
        assert suites._first_failing(lambda i: item(i + 400), 601) == 117
    finally:
        assert_no_children()


class TestTheCollectorAcrossForks:
    """The collector's objects are frozen while forked children share them,
    and unfrozen once every child is reaped, whatever the children did; with
    one process nothing is frozen."""

    @staticmethod
    def _run(monkeypatch, tmp_path, k, item, n=40):
        """_run_items over n items on k processes: the (process, freeze count)
        that each item checked saw, in the order each process checked them."""
        log = tmp_path / "freeze.txt"

        def logged(i):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {gc.get_freeze_count()}\n")
            item(i)

        monkeypatch.setattr(suites, "_cpu_count", lambda: k)
        try:
            suites._run_items(logged, n)
        finally:
            assert_no_children()
            assert gc.get_freeze_count() == 0
        return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_passing_items(self, monkeypatch, tmp_path, k):
        seen = self._run(monkeypatch, tmp_path, k, lambda i: None)
        assert len(seen) == 40
        assert all(count > 0 for _, count in seen) if k > 1 else {c for _, c in seen} == {0}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_a_failing_item(self, monkeypatch, tmp_path, k):
        def item(i):
            if i == 17:
                raise suites._Failed("failed")

        with pytest.raises(suites._Failed):
            self._run(monkeypatch, tmp_path, k, item)

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_child_that_dies_without_answering(self, monkeypatch, tmp_path, k):
        parent = os.getpid()

        def item(i):
            if os.getpid() != parent:
                os._exit(1)

        seen = self._run(monkeypatch, tmp_path, k, item)
        # a lost answer leaves all 40 items to this process, checked unfrozen
        assert seen[-40:] == [(parent, 0)] * 40


# the criteria besides 5 (see TestCriterion5Shares) that split their items
SPLIT = (7, 8, 10, 11, 12, 14, 15)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7, 991])
@pytest.mark.parametrize("n", SPLIT, ids=[f"criterion_{n}" for n in SPLIT])
def test_share_counts_give_one_result(monkeypatch, n, seed):
    """A criterion whose items are split over the CPUs answers the same with
    one, two and three processes."""
    criterion = ALL_CRITERIA[n - 1]
    results = [run_shared(monkeypatch, criterion, k, seed) for k in (1, 2, 3)]
    assert results[0].passed, results[0].detail
    assert len({(r.passed, r.detail) for r in results}) == 1


def point_key(p):
    """A tree point by value: the trees of two runs are equal, not the same."""
    return tuple(sorted(p.tree.edges.items())), p.path, p.t


class TestCriterion5Shares:
    """Criterion 5 checks its pairs in one process per CPU, this one and
    forked children, each taking the next pairs whenever it is free.  A
    process's share is the pairs it took.  The children inherit a
    monkeypatch, so these tests can break a pair whichever process takes it;
    the answer must be the serial one whatever the process count."""

    @staticmethod
    def _run(monkeypatch, k, seed=DEFAULT_SEED):
        return run_shared(monkeypatch, suites.criterion_5, k, seed)

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
        log, pair, parent = tmp_path / "pairs.txt", suites._criterion_5_pair, os.getpid()
        waited = []

        def children_logged():
            return {line.split()[0] for line in log.read_text().splitlines()} - {str(parent)}

        def logged(seed, i, n_polys):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {os.getppid()} {i}\n")
            if os.getpid() == parent and not waited:
                # this process holds its first pair until both children have
                # taken one, so that every process gets a share
                waited.append(i)
                deadline = time.monotonic() + 30
                while len(children_logged()) < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
            return pair(seed, i, n_polys)

        monkeypatch.setattr(suites, "_criterion_5_pair", logged)
        assert self._run(monkeypatch, 3).passed
        shares = {}
        for line in log.read_text().splitlines():
            pid, ppid, i = map(int, line.split())
            assert pid == parent or ppid == parent
            shares.setdefault(pid, []).append(i)
        assert len(shares) == 3
        assert all(share == sorted(set(share)) for share in shares.values())
        assert sorted(i for share in shares.values() for i in share) == list(range(40))

    def test_other_threads_keep_the_pairs_in_this_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("a share was sent to a child")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert self._run(monkeypatch, 2).passed

    def test_lowest_failing_pair_is_reported(self, monkeypatch):
        # pairs 3 and 8 are incomparable, so "meet = the first input" is not
        # commutative there; pair 3 is reported whichever processes take them
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
        for k in (1, 2, 3):  # pair 5 runs in whichever process takes it
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

    def test_an_interrupt_here_kills_the_children(self, monkeypatch):
        parent, pair = os.getpid(), suites._criterion_5_pair

        def interrupted(seed, i, n_polys):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return pair(seed, i, n_polys)

        monkeypatch.setattr(suites, "_criterion_5_pair", interrupted)
        with pytest.raises(KeyboardInterrupt):
            self._run(monkeypatch, 3)

    def test_a_pipe_that_cannot_be_made_leaves_the_pairs_here(self, monkeypatch):
        def no_pipe():
            raise OSError("too many open files")

        monkeypatch.setattr(os, "pipe", no_pipe)
        result = self._run(monkeypatch, 3)
        assert result.detail == "40 pairs: bound x100, laws, maximality"


class TestTreeCriteriaShares:
    """Criteria 11 and 12 draw their items in this process, one tree after
    another, then check them in one process per CPU.  A check broken on
    purpose at two items must give the serial first failure, whichever
    processes take them."""

    BROKEN = (5, 6)

    @staticmethod
    def _recorded(monkeypatch, criterion, name):
        """The arguments of every call to the suites' name, in one process."""
        calls, real = [], getattr(suites, name)

        def record(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(suites, name, record)
        assert run_shared(monkeypatch, criterion, 1).passed
        monkeypatch.setattr(suites, name, real)
        return calls

    def test_criterion_11_reports_the_first_broken_triple(self, monkeypatch):
        triples = self._recorded(monkeypatch, suites.criterion_11, "t_tangent_equiv_definitional")
        # a distance made longer by 1 breaks the join check only where the
        # join of alpha and sigma is neither of them
        apart = [
            i for i, (tau, sigma, alpha) in enumerate(triples)
            if suites.t_meet(alpha, sigma) not in (alpha, sigma)
        ]
        broken = [i for i in apart if i >= 5][:2]
        longer = {(point_key(triples[i][2]), point_key(triples[i][1])) for i in broken}
        t_dpsi = suites.t_dpsi

        def stretched(psi, p, q):
            d = t_dpsi(psi, p, q)
            return d + 1 if (point_key(p), point_key(q)) in longer else d

        monkeypatch.setattr(suites, "t_dpsi", stretched)
        results = [run_shared(monkeypatch, suites.criterion_11, k) for k in (1, 2, 3)]
        tau, sigma, alpha = triples[broken[0]]
        answers = {(r.passed, r.detail, tuple(map(point_key, r.witness))) for r in results}
        assert len(answers) == 1
        ((passed, _, witness),) = answers
        assert not passed and point_key(alpha) in witness and point_key(sigma) in witness

    @staticmethod
    def _config_key(sigma, tau, gamma):
        return point_key(sigma), point_key(tau), point_key(gamma)

    def _break_configs(self, monkeypatch, configs, broken):
        bad = {self._config_key(*configs[i][1:4]) for i in broken}
        check = suites.ball_in_subbasic_check

        def failing(psi, sigma, tau, gamma, samples):
            rep = check(psi, sigma, tau, gamma, samples=samples)
            if self._config_key(sigma, tau, gamma) in bad:
                return type(rep)(rep.epsilon, rep.checked, (gamma,))
            return rep

        monkeypatch.setattr(suites, "ball_in_subbasic_check", failing)

    def test_criterion_12_reports_the_first_broken_config(self, monkeypatch):
        configs = self._recorded(monkeypatch, suites.criterion_12, "ball_in_subbasic_check")
        keys = [self._config_key(*c[1:4]) for c in configs]
        first = self.BROKEN[0]
        assert keys.index(keys[first]) == first  # no earlier config is the same
        self._break_configs(monkeypatch, configs, self.BROKEN)
        for k in (1, 2, 3):
            result = run_shared(monkeypatch, suites.criterion_12, k)
            assert not result.passed
            assert result.detail == f"violations at config {first + 1}"

    def _raise_while_drawing(self, monkeypatch, after):
        """The suites' t_tangent_equiv, which only the drawing calls, raises
        on its call number ``after``."""
        calls, equiv = itertools.count(), suites.t_tangent_equiv

        def raising(*args):
            if next(calls) == after:
                raise ZeroDivisionError("broken on purpose")
            return equiv(*args)

        monkeypatch.setattr(suites, "t_tangent_equiv", raising)

    def test_criterion_12_reports_a_broken_config_drawn_before_a_raise(self, monkeypatch):
        configs = self._recorded(monkeypatch, suites.criterion_12, "ball_in_subbasic_check")
        self._break_configs(monkeypatch, configs, self.BROKEN)
        for k in (1, 2, 3):
            self._raise_while_drawing(monkeypatch, 100)
            result = run_shared(monkeypatch, suites.criterion_12, k)
            assert result.detail == f"violations at config {self.BROKEN[0] + 1}"

    def test_criterion_12_raises_while_drawing_when_nothing_failed_before(self, monkeypatch):
        for k in (1, 2, 3):
            self._raise_while_drawing(monkeypatch, 100)
            with pytest.raises(ZeroDivisionError, match="broken on purpose"):
                run_shared(monkeypatch, suites.criterion_12, k)


def test_the_suites_import_no_process_pool():
    """The children are bare forks: a run of the suites imports neither
    ``multiprocessing`` nor ``concurrent.futures``."""
    code = (
        "import sys\n"
        "from valtree.cli import main\n"
        "from valtree.suites import ALL_CRITERIA\n"
        "assert all(c(7, scale=0.05).passed for c in ALL_CRITERIA)\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(suites.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout == "[]\n"
