"""Deep dilatation chains: the integer chain kernel against Fraction
references, and evaluation by strict transforms.

Seeded programs of 50-500 levels mix runs of the centers 0 and infinity with
free centers, end in weight pairs whose continued fractions have partial
quotients up to 10^3, and sometimes carry a frame or a curve terminal.  The
references live in this file: canonicalization by iterating ``dilate`` one
step at a time, level values by the plain Fraction recursion, and a meet that
walks Fraction multiplicities.  Evaluation is checked against literal
substitution on short prefixes of these programs, and by the valuation laws
on the whole programs.  Work is bounded by counting constructions, steps and
terms, not by wall time.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from valtree import valuation
from valtree.cli import main
from valtree.jsonio import valuation_to_json
from valtree.poly import BivarPoly, IDENTITY_FRAME, LinearFrame
from valtree.rationals import INF, is_inf
from valtree.testkit import DEFAULT_SEED, curvette, euclid_multiplicity_oracle
from valtree.valuation import (
    CanonicalForm,
    Comparison,
    Curve,
    Divisorial,
    INF_POINT,
    ProjPoint,
    QuasiMonomialVal,
    TERMINAL,
    Terminal,
    ZERO_POINT,
    canonicalize,
    compare,
    dilate,
    evaluate,
    evaluate_naive,
    from_canonical,
    meet,
    monomial,
    multiplicity_stream,
    normalize,
)

X = BivarPoly.var_x()
Y = BivarPoly.var_y()
FRAMES = (
    LinearFrame(((0, 1), (1, 0))),
    LinearFrame(((1, 0), (1, 1))),
    LinearFrame(((2, -1), (1, 3))),
)
MIRROR = {"LT": "GT", "GT": "LT", "EQ": "EQ", "INCOMPARABLE": "INCOMPARABLE"}


# ---------------------------------------------------------------------------
# seeded deep programs
# ---------------------------------------------------------------------------


def quotients(rng, levels, top):
    """Partial quotients, each at most top, whose Euclid chain has about
    ``levels`` steps (the chain of [a0; a1, ..., ak] has sum - 1 steps)."""
    out, left = [], max(levels, 1) + 1
    while left > 0:
        a = rng.randint(1, min(top, left))
        out.append(a)
        left -= a
    if len(out) > 1 and out[-1] == 1:  # a continued fraction ends in a quotient >= 2
        out[-2] += 1
        out.pop()
    return out


def from_quotients(qs):
    value = Fraction(qs[-1])
    for a in reversed(qs[:-1]):
        value = a + 1 / value
    return value


def continued_fraction(r):
    p, q = r.numerator, r.denominator
    out = []
    while q:
        out.append(p // q)
        p, q = q, p % q
    return out


def weight_pair(rng, levels, top):
    ratio = from_quotients(quotients(rng, levels, top))
    w1 = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    pair = (w1, w1 * ratio)
    return pair if rng.random() < 0.5 else pair[::-1]


def runs(rng, n):
    """n centers in runs of 0 and infinity, with short runs of free centers."""
    steps = []
    while len(steps) < n:
        roll = rng.random()
        if roll < 0.4:
            steps += [ZERO_POINT] * rng.randint(1, 40)
        elif roll < 0.8:
            steps += [INF_POINT] * rng.randint(1, 40)
        else:
            steps += [ProjPoint(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4)))
                      for _ in range(rng.randint(1, 3))]
    return tuple(steps[:n])


def deep_program(rng):
    total = rng.randint(50, 500)
    prefix = runs(rng, rng.randint(0, total // 2))
    frame = rng.choice(FRAMES) if rng.random() < 0.2 else IDENTITY_FRAME
    w = weight_pair(rng, total - len(prefix), rng.choice((3, 30, 1000)))
    return normalize(QuasiMonomialVal(prefix, frame, w))


def curve_program(rng):
    while True:
        prefix = runs(rng, rng.randint(50, 300))
        g = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        direction = rng.choice((ZERO_POINT, INF_POINT, ProjPoint(Fraction(rng.randint(1, 7), 3))))
        try:
            return normalize(from_canonical(CanonicalForm(prefix, Curve(direction, g))))
        except ValueError:  # the chosen direction made the program illegal
            continue


def programs(seed=DEFAULT_SEED + 900):
    rng = random.Random(seed)
    vals = [deep_program(rng) for _ in range(30)]
    vals += [normalize(monomial(*weight_pair(rng, rng.randint(50, 3000), 1000))) for _ in range(10)]
    vals += [curve_program(rng) for _ in range(10)]
    return vals


PROGRAMS = programs()


# ---------------------------------------------------------------------------
# references, kept apart from the code under test
# ---------------------------------------------------------------------------


def reference_canonical(nu):
    """Canonicalization by one ``dilate`` per Euclidean subtraction."""
    steps = list(nu.steps)
    head = QuasiMonomialVal((), nu.frame, nu.weights)
    while True:
        w1, w2 = head.weights
        if is_inf(w1) or is_inf(w2):
            big = 0 if is_inf(w1) else 1
            p, q = head.frame.rows[big]
            d = INF_POINT if q == 0 else ProjPoint(p / q)
            while steps and d in (ZERO_POINT, INF_POINT):
                d = steps.pop().negate()
            return CanonicalForm(tuple(steps), Curve(d, head.weights[1 - big]))
        step = dilate(head)
        if isinstance(step, Terminal):
            return CanonicalForm(tuple(steps), Divisorial(step.gamma))
        steps.append(step.step)
        head = step.tail


def reference_levels(nu):
    """``(v(x_i), v(y_i))`` per level by the Fraction recursion."""
    (a, b), (c, d) = nu.frame.rows
    w1, w2 = nu.weights
    vx = min(w1 if d else INF, w2 if b else INF)
    vy = min(w1 if c else INF, w2 if a else INF)
    levels = [(vx, vy)]
    for step in reversed(nu.steps):
        if step.is_inf:
            vx = vx + vy
        elif step.value == 0:
            vy = vx + vy
        else:
            vy = vx
        levels.append((vx, vy))
    return levels[::-1]


def reference_walk(form):
    program = from_canonical(form)
    levels = reference_levels(program)
    for center, (vx, vy), (nx, ny) in zip(program.steps, levels, levels[1:]):
        yield center, min(vx, vy), nx + ny
    t = form.terminal
    if isinstance(t, Divisorial):
        yield TERMINAL, t.gamma, None
        return
    while True:
        yield INF_POINT if t.direction.is_inf else ZERO_POINT, t.gamma, INF


def reference_monomial_meet(prefix, level_a, level_b, nu, mu):
    """The monomial valuation where two Fraction walks' multiplicities first
    differ: the smaller one on a direction exceptional to neither level, and
    on the exceptional direction of the smaller side the least value either
    level gives it (its e at a level it is exceptional to, else m)."""
    (c_a, m_a, e_a), (c_b, m_b, e_b) = level_a, level_b
    exc_a, exc_b = (None if c is TERMINAL else c.negate() for c in (c_a, c_b))
    small, small_exc = (nu, exc_a) if m_a < m_b else (mu, exc_b)
    if small_exc is None:
        return small
    others = (ProjPoint(Fraction(k, 7)) for k in itertools.count())
    x_dir = next(d for d in itertools.chain((INF_POINT,), others) if d not in (exc_a, exc_b))
    v_y = min(e_a if exc_a == small_exc else m_a, e_b if exc_b == small_exc else m_b)
    frame = LinearFrame((x_dir.as_pair(), small_exc.as_pair()))
    return QuasiMonomialVal(tuple(prefix), frame, (min(m_a, m_b), v_y))


def reference_meet(nu, mu):
    """The lockstep meet on Fraction multiplicities."""
    form_a, form_b = reference_canonical(nu), reference_canonical(mu)
    if form_a == form_b:
        return nu
    prefix = []
    bound = len(form_a.steps) + len(form_b.steps) + 2
    for level_a, level_b in itertools.islice(zip(reference_walk(form_a), reference_walk(form_b)), bound):
        (c_a, m_a, _), (c_b, m_b, _) = level_a, level_b
        if m_a != m_b:
            return reference_monomial_meet(prefix, level_a, level_b, nu, mu)
        if c_a is TERMINAL:
            return nu
        if c_b is TERMINAL:
            return mu
        if c_a != c_b:
            return normalize(from_canonical(CanonicalForm(tuple(prefix), Divisorial(m_a))))
        prefix.append(c_a)
    raise AssertionError("no divergence")


def level_values(nu):
    """``valuation._level_numerators`` as exact rationals."""
    q, levels = valuation._level_numerators(nu)
    return [tuple(INF if n is None else Fraction(n, q) for n in level) for level in levels]


def record_values(nu):
    """The level-0 values kept in a program's record, as exact rationals."""
    nx, ny, q = nu._lead[:3]
    return tuple(INF if n is None else Fraction(n, q) for n in (nx, ny))


def walk(form):
    """``valuation._walk_numerators`` as exact rationals: (center, m, e) per
    level, e being None at a divisorial end and INF for an infinite value."""
    q, levels = valuation._walk_numerators(form)
    for center, m, e in levels:
        yield center, Fraction(m, q), (None if center is TERMINAL else INF) if e is None else Fraction(e, q)


def count_constructions(monkeypatch):
    calls = []
    post_init = QuasiMonomialVal.__post_init__

    def counting(self):
        calls.append(1)
        post_init(self)

    monkeypatch.setattr(QuasiMonomialVal, "__post_init__", counting)
    return calls


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestGenerators:
    def test_programs_are_deep_and_mixed(self):
        lengths = [len(canonicalize(nu).steps) for nu in PROGRAMS[:30]]
        assert min(lengths) >= 50 and max(lengths) <= 520
        assert max(len(canonicalize(nu).steps) for nu in PROGRAMS[30:40]) > 1000
        centers = {s for nu in PROGRAMS for s in nu.steps}
        assert {ZERO_POINT, INF_POINT} <= centers and len(centers) > 10
        assert any(not nu.frame.is_identity() for nu in PROGRAMS)
        assert sum(isinstance(canonicalize(nu).terminal, Curve) for nu in PROGRAMS) == 10


class TestCanonical:
    def test_against_iterated_dilate(self):
        for nu in PROGRAMS:
            assert valuation._build_canonical(nu) == reference_canonical(nu), nu.weights

    def test_euclid_runs_without_a_valuation_per_step(self, monkeypatch):
        calls = count_constructions(monkeypatch)
        form = canonicalize(normalize(monomial(1, 10**5)))
        assert len(calls) <= 2
        assert len(form.steps) == 99_999 and set(form.steps) == {ZERO_POINT}
        assert form.terminal == Divisorial(Fraction(1))
        del calls[:]
        for nu in PROGRAMS:
            valuation._build_canonical(nu)
        assert calls == []

    def test_long_runs_match_dilate(self):
        """Single long runs of either center, after a framed head."""
        for frame in (IDENTITY_FRAME,) + FRAMES:
            for w in ((1, 2000), (2000, 1), (Fraction(1, 3), Fraction(1001, 7)), (7, 7)):
                nu = QuasiMonomialVal((), frame, w)
                assert valuation._build_canonical(nu) == reference_canonical(nu)


    def test_step_limit_admits_weights_one_and_a_million(self):
        form = canonicalize(normalize(monomial(1, 10**6)))
        assert len(form.steps) == 999_999 <= valuation.MAX_CHAIN_STEPS
        assert form.terminal == Divisorial(Fraction(1))


class TestLevelValues:
    def test_normalize_rescales_without_the_level_recursion(self, monkeypatch):
        """``normalize`` of a rescaled deep program rebuilds the program as a
        fresh construction would, fields, hash and level-0 data alike, and
        without running the level recursion."""
        pairs = [
            (nu, QuasiMonomialVal(nu.steps, nu.frame, tuple(w if is_inf(w) else k * w for w in nu.weights)))
            for nu in PROGRAMS for k in (Fraction(3, 2), Fraction(2, 7))
        ]
        calls = []
        levels_back = valuation._levels_back
        monkeypatch.setattr(valuation, "_levels_back", lambda *a: calls.append(1) or levels_back(*a))
        got = [normalize(big) for _, big in pairs]
        assert calls == []
        monkeypatch.undo()
        for (want, _), nu in zip(pairs, got):
            want = QuasiMonomialVal(want.steps, want.frame, want.weights)  # built afresh
            assert (nu.steps, nu.frame, nu.weights) == (want.steps, want.frame, want.weights)
            assert hash(nu) == hash(want) and record_values(nu) == record_values(want)
            assert nu._lead[:4] == want._lead[:4]
            assert [evaluate(nu, phi) for phi in (X, Y, X * Y**2)] == \
                [evaluate(want, phi) for phi in (X, Y, X * Y**2)]

    def test_every_level_against_the_fraction_recursion(self):
        for nu in PROGRAMS:
            assert level_values(nu) == reference_levels(nu)
            assert record_values(nu) == reference_levels(nu)[0]

    def test_walk_against_the_fraction_recursion(self):
        for nu in PROGRAMS:
            form = canonicalize(nu)
            n = len(form.steps) + 3
            got = list(itertools.islice(walk(form), n))
            want = list(itertools.islice(reference_walk(form), n))
            assert got == want

    def test_level_zero_is_the_value_of_x_and_y(self):
        for nu in PROGRAMS:
            assert level_values(nu)[0] == record_values(nu) == (evaluate(nu, X), evaluate(nu, Y))


class TestStream:
    def test_tail_follows_the_subtractive_oracle(self):
        checked = 0
        for nu in PROGRAMS:
            w1, w2 = nu.weights
            if not nu.frame.is_identity() or is_inf(w1) or is_inf(w2):
                continue
            k = len(nu.steps)
            want = euclid_multiplicity_oracle(w1, w2)
            got = list(itertools.islice(multiplicity_stream(nu), k + len(want) + 1))[k:]
            assert [m for _, m in got[:-1]] == want
            assert got[-1] == (TERMINAL, want[-1] if want else w1)
            checked += 1
        assert checked >= 25


def partners(nu, rng):
    """Valuations that meet nu at every kind of divergence."""
    form = canonicalize(nu)
    out = [nu, rng.choice(PROGRAMS)]
    w1, w2 = nu.weights
    if not is_inf(w1) and not is_inf(w2):
        # the same prefix with a nearby weight ratio, its continued fraction
        # changed in the last quotient or cut in half: the walks part deep in
        # the Euclid chain
        low, ratio = min(w1, w2), max(w1, w2) / min(w1, w2)
        qs = continued_fraction(ratio)
        for near in (qs[:-1] + [qs[-1] + 1], qs[:max(1, len(qs) // 2)]):
            high = low * from_quotients(near)
            w = (low, high) if w1 <= w2 else (high, low)
            out.append(normalize(QuasiMonomialVal(nu.steps, nu.frame, w)))
    cut = rng.randint(0, len(form.steps))
    below = CanonicalForm(form.steps[:cut], Divisorial(Fraction(1)))
    out.append(normalize(from_canonical(below)))  # comparable: a point on nu's segment
    sibling = form.steps[:cut] + (ProjPoint(Fraction(rng.randint(1, 9), 7)),)
    out.append(normalize(from_canonical(CanonicalForm(sibling, Divisorial(Fraction(1, 3))))))
    if isinstance(form.terminal, Divisorial):
        child = form.steps + runs(rng, 30)
        out.append(normalize(from_canonical(CanonicalForm(child, Divisorial(Fraction(2, 5))))))
    return out


def word_from_forms(nu, mu, w):
    c_nu, c_mu, c_w = canonicalize(nu), canonicalize(mu), canonicalize(w)
    return ("EQ" if c_nu == c_mu else "LT" if c_w == c_nu
            else "GT" if c_w == c_mu else "INCOMPARABLE")


class TestMeet:
    def pairs(self):
        rng = random.Random(DEFAULT_SEED + 901)
        return [(nu, mu) for nu in PROGRAMS[::2] for mu in partners(nu, rng)]

    def test_meet_against_the_fraction_walk(self):
        pairs = self.pairs()
        words = set()
        for nu, mu in pairs:
            w = meet(nu, mu)
            assert canonicalize(w) == canonicalize(reference_meet(nu, mu))
            words.add(compare(nu, mu).value)
        assert words == {"EQ", "LT", "GT", "INCOMPARABLE"}

    def test_lattice_laws(self):
        for nu, mu in self.pairs():
            w = meet(nu, mu)
            assert canonicalize(meet(mu, nu)) == canonicalize(w)
            assert canonicalize(meet(nu, nu)) == canonicalize(nu)
            assert compare(w, nu) in (Comparison.LT, Comparison.EQ)
            assert compare(w, mu) in (Comparison.LT, Comparison.EQ)
            word = compare(nu, mu).value
            assert compare(mu, nu).value == MIRROR[word]
            assert word == word_from_forms(nu, mu, w)
            for phi in (X, Y):
                assert evaluate(w, phi) <= min(evaluate(nu, phi), evaluate(mu, phi))

    def test_partner_of_689_million_steps_is_refused_by_the_cli(self, capsys):
        """A nearby-weight partner of a deep program whose Euclid run has
        partial quotients summing to 689,541,834: the CLI exits 2 at the step
        limit instead of allocating the chain."""
        nu = PROGRAMS[20]
        w1, w2 = nu.weights
        partner = QuasiMonomialVal(nu.steps, nu.frame, (w1, w2 + Fraction(1, 2)))
        low, high = sorted(partner.weights)
        assert sum(continued_fraction(high / low)) == 689_541_834
        code = main(["val", "canon", "--valuation", json.dumps(valuation_to_json(partner))])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == (
            f"error: the canonical chain needs more than the limit of {valuation.MAX_CHAIN_STEPS} steps"
        )

    @pytest.mark.parametrize("n", [10**3, 10**4])
    def test_long_euclid_meet_builds_a_bounded_number_of_valuations(self, monkeypatch, n):
        nu, mu = normalize(monomial(1, n)), normalize(monomial(1, n + Fraction(1, 2)))
        calls = count_constructions(monkeypatch)
        w = meet.__wrapped__(nu, mu)
        assert len(calls) <= 4
        assert compare(nu, mu) is Comparison.LT and canonicalize(w) == canonicalize(nu)


# ---------------------------------------------------------------------------
# evaluation by strict transforms
# ---------------------------------------------------------------------------


def chain_curvettes(steps, max_terms, max_degree):
    """Curvette equations along a chain: for each prefix, the curve through
    the next center and a curve that leaves it there.  Stops before the
    first prefix whose pair has an equation of more than max_terms terms or
    of degree above max_degree; the sizes grow with the prefix."""
    out = []
    for j, step in enumerate(steps):
        d = step.negate()
        pair = [curvette(steps[:j], d), curvette(steps[:j], ProjPoint(1 if d.is_inf else d.value + 1))]
        if any(len(c.terms) > max_terms or c.total_degree() > max_degree for c in pair):
            break
        out += pair
    return out


class TestEvaluate:
    """evaluate on the deep programs.  Literal substitution is the oracle on
    prefixes of ``ORACLE_DEPTH`` centers, as deep as it finishes in about a
    second over these inputs; deeper, the valuation laws need no oracle."""

    ORACLE_DEPTH = 6

    def record_work(self, monkeypatch):
        """Per strict-transform call, the term counts of its charts' results."""
        calls = []
        transform, chart = valuation._strict_transform, valuation._chart

        def counting_transform(nu, phi):
            calls.append([])
            return transform(nu, phi)

        def counting_chart(f, step):
            e, g = chart(f, step)
            calls[-1].append(len(g))
            return e, g

        monkeypatch.setattr(valuation, "_strict_transform", counting_transform)
        monkeypatch.setattr(valuation, "_chart", counting_chart)
        return calls

    def test_prefixes_against_literal_substitution(self, monkeypatch):
        """Prefixes of the programs and of their canonical rebuilds, framed
        ones included, on curvettes of their own chains (ties that cancel
        level after level), on the equations of the frame's rows (ties that
        only the frame rewrite settles), and on both perturbed."""
        calls = self.record_work(monkeypatch)
        in_frame, rewrites = valuation._in_frame, []
        monkeypatch.setattr(valuation, "_in_frame", lambda f, frame: rewrites.append(f) or in_frame(f, frame))
        programs = [(program.steps, program.frame, program.weights) for nu in PROGRAMS[::2]
                    for program in (nu, from_canonical(canonicalize(nu)))]
        programs += [(nu.steps, frame, nu.weights) for nu in PROGRAMS[1::6] for frame in FRAMES]
        for steps, frame, weights in programs:
            try:
                p = QuasiMonomialVal(steps[:self.ORACLE_DEPTH], frame, weights)
            except ValueError:  # the prefix makes a curve program illegal
                continue
            polys = chain_curvettes(p.steps, 12, 12)
            polys += [curvette(p.steps, valuation._row_direction(p.frame, i)) for i in (0, 1)]
            polys += [c + X ** (c.total_degree() + 1) for c in polys] + [c * c for c in polys[:3]]
            for phi in polys:
                assert evaluate(p, phi) == evaluate_naive(p, phi), (p, phi)
        assert len(calls) >= 50 and max(map(len, calls)) == self.ORACLE_DEPTH
        assert len(rewrites) >= 10

    def test_laws_on_whole_programs(self, monkeypatch):
        """On each program and on its canonical rebuild (50-3,000 levels),
        curvettes of the rebuilt chain take the same value under both
        programs, ``v(fg) = v(f) + v(g)``, and ``v(f+g) = min(v(f), v(g))``
        when those differ.  Inputs are bounded by term counts and degree, and
        so are the strict transforms."""
        calls = self.record_work(monkeypatch)
        checked = 0
        for nu in PROGRAMS:
            full = from_canonical(canonicalize(nu))
            family = chain_curvettes(full.steps, 20, 100)
            for phi in family:
                assert evaluate(nu, phi) == evaluate(full, phi), (nu, phi)
            for f in family[-6:] + family[:2]:
                vf = evaluate(full, f)
                for g in family[-3:] + [X + Y]:
                    vg = evaluate(full, g)
                    assert evaluate(full, f * g) == vf + vg, (nu, f, g)
                    if vf != vg:
                        assert evaluate(full, f + g) == min(vf, vg), (nu, f, g)
                    checked += 1
        assert checked >= 1000
        assert max(map(len, calls)) >= 80  # some transforms follow the chain deep
        assert max(max(c, default=0) for c in calls) <= 60
