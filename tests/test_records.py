"""The package's immutable value records, pinned class by class.

Every record compares by its class and its fields, hashes as the tuple of
its fields (``QuasiMonomialVal`` hashes its record's weight numerators in
place of the weights), prints as ``Name(field=value, ...)``, refuses
assignment and deletion, and is built from its fields by position or by
keyword, defaults filled in, its ``__post_init__`` check run.
"""

from fractions import Fraction

import pytest

from valtree.krull import KrullRank2, KrullSameRank1, Rank2Val
from valtree.poly import IDENTITY_FRAME, BivarPoly, LinearFrame
from valtree.rationals import INF, ZERO
from valtree.suites import SuiteResult
from valtree.testkit import ConsistentWithLeq, Counterexample
from valtree.tree import (
    AxiomReport,
    BallReport,
    BasePointEqualsRepError,
    FIPoint,
    RootedTree,
    TangentRef,
    TreePoint,
)
from valtree.valuation import (
    CanonicalForm,
    Continue,
    Curve,
    Divisorial,
    INF_POINT,
    ProjPoint,
    QuasiMonomialVal,
    Terminal,
)

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
FRAME = LinearFrame(((1, 0), (1, 2)))
FRAME_REPR = "LinearFrame(rows=((Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(2, 1))))"
IDENTITY_REPR = "LinearFrame(rows=((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1))))"
CENTER = ProjPoint(0)
CENTER_REPR = "ProjPoint(value=Fraction(0, 1))"
NU = QuasiMonomialVal((CENTER,), FRAME, (1, Fraction(5, 2)))
NU_WEIGHTS = (Fraction(1), Fraction(5, 2))
NU_REPR = (
    f"QuasiMonomialVal(steps=({CENTER_REPR},), frame={FRAME_REPR}, "
    "weights=(Fraction(1, 1), Fraction(5, 2)))"
)
M_ADIC = QuasiMonomialVal()
M_ADIC_REPR = f"QuasiMonomialVal(steps=(), frame={IDENTITY_REPR}, weights=(Fraction(1, 1), Fraction(1, 1)))"
RANK2 = Rank2Val((1, 2), (0, HALF))
RANK2_REPR = f"Rank2Val(wx=(1, Fraction(2, 1)), wy=(0, Fraction(1, 2)), frame={IDENTITY_REPR})"
LINE = BivarPoly.linear_form(1, 2)
TREE = RootedTree({(0,): Fraction(5, 2), (1,): INF})
ROOT, MID = TREE.root_point(), TREE.point((0,), HALF)
ROOT_REPR = f"TreePoint(tree={TREE!r}, path=(), t=Fraction(0, 1))"
MID_REPR = f"TreePoint(tree={TREE!r}, path=(0,), t=Fraction(1, 2))"

# class -> (its fields by name, in order, as the record holds them; its repr)
CASES = {
    ProjPoint: ({"value": HALF}, "ProjPoint(value=Fraction(1, 2))"),
    LinearFrame: ({"rows": FRAME.rows}, FRAME_REPR),
    QuasiMonomialVal: ({"steps": (CENTER,), "frame": FRAME, "weights": NU_WEIGHTS}, NU_REPR),
    Continue: ({"step": CENTER, "tail": M_ADIC}, f"Continue(step={CENTER_REPR}, tail={M_ADIC_REPR})"),
    Terminal: ({"gamma": THIRD}, "Terminal(gamma=Fraction(1, 3))"),
    Divisorial: ({"gamma": THIRD}, "Divisorial(gamma=Fraction(1, 3))"),
    Curve: (
        {"direction": INF_POINT, "gamma": Fraction(2)},
        "Curve(direction=ProjPoint(value=inf), gamma=Fraction(2, 1))",
    ),
    CanonicalForm: (
        {"steps": (CENTER,), "terminal": Divisorial(THIRD)},
        f"CanonicalForm(steps=({CENTER_REPR},), terminal=Divisorial(gamma=Fraction(1, 3)))",
    ),
    Rank2Val: ({"wx": (1, Fraction(2)), "wy": (0, HALF), "frame": IDENTITY_FRAME}, RANK2_REPR),
    KrullSameRank1: ({"valuation": M_ADIC}, f"KrullSameRank1(valuation={M_ADIC_REPR})"),
    KrullRank2: (
        {"val": RANK2, "support_generator": LINE},
        f"KrullRank2(val={RANK2_REPR}, support_generator=BivarPoly('x + 2*y'))",
    ),
    SuiteResult: (
        {"criterion": 3, "name": "a name", "passed": False, "detail": "a detail", "witness": (1, "w")},
        "SuiteResult(criterion=3, name='a name', passed=False, detail='a detail', witness=(1, 'w'))",
    ),
    ConsistentWithLeq: ({}, "ConsistentWithLeq()"),
    Counterexample: ({"phi": LINE}, "Counterexample(phi=BivarPoly('x + 2*y'))"),
    TreePoint: ({"tree": TREE, "path": (0,), "t": HALF}, MID_REPR),
    TangentRef: ({"base": ROOT, "rep": MID}, f"TangentRef(base={ROOT_REPR}, rep={MID_REPR})"),
    AxiomReport: (
        {"t1": True, "t2": True, "t3": False, "t4": True, "witness": None},
        "AxiomReport(t1=True, t2=True, t3=False, t4=True, witness=None)",
    ),
    FIPoint: ({"kind": "seg", "t": THIRD}, "FIPoint(kind='seg', t=Fraction(1, 3))"),
    BallReport: (
        {"epsilon": Fraction(1, 4), "checked": 8, "violations": (MID,)},
        f"BallReport(epsilon=Fraction(1, 4), checked=8, violations=({MID_REPR},))",
    ),
}

CLASSES = list(CASES)


def test_the_cases_cover_nineteen_classes():
    assert len(CASES) == 19


class Twin:
    """A plain object that holds the same attributes as a record."""

    def __init__(self, fields):
        self.__dict__.update(fields)


@pytest.fixture(params=CLASSES, ids=lambda cls: cls.__name__)
def case(request):
    cls = request.param
    fields, text = CASES[cls]
    return cls, fields, text


def test_positional_and_keyword_construction_give_equal_records(case):
    cls, fields, _ = case
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert type(by_position) is cls
    assert by_position == by_keyword and not by_position != by_keyword
    assert tuple(getattr(by_position, name) for name in fields) == tuple(fields.values())
    assert hash(by_position) == hash(by_keyword)


def test_equality_needs_the_same_class(case):
    cls, fields, _ = case
    record, twin = cls(**fields), Twin(fields)
    assert record != twin and not record == twin
    assert record.__eq__(twin) is NotImplemented
    assert record.__eq__(tuple(fields.values())) is NotImplemented


def test_a_terminal_and_a_divisorial_of_one_value_differ():
    assert Terminal(THIRD) != Divisorial(THIRD)
    assert Terminal(THIRD).__eq__(Divisorial(THIRD)) is NotImplemented
    assert Divisorial(THIRD) == Divisorial(Fraction(2, 6))


OTHERS = {
    ProjPoint: ProjPoint(THIRD),
    LinearFrame: IDENTITY_FRAME,
    QuasiMonomialVal: QuasiMonomialVal((CENTER,), FRAME, (1, 3)),
    Continue: Continue(INF_POINT, M_ADIC),
    Terminal: Terminal(HALF),
    Divisorial: Divisorial(HALF),
    Curve: Curve(CENTER, Fraction(2)),
    CanonicalForm: CanonicalForm((CENTER,), Divisorial(HALF)),
    Rank2Val: Rank2Val((1, 2), (0, HALF), FRAME),
    KrullSameRank1: KrullSameRank1(NU),
    KrullRank2: KrullRank2(RANK2, BivarPoly.linear_form(1, 3)),
    SuiteResult: SuiteResult(3, "a name", False, "a detail"),
    Counterexample: Counterexample(BivarPoly.linear_form(1, 3)),
    TreePoint: TREE.point((1,), HALF),
    TangentRef: TangentRef(MID, ROOT),
    AxiomReport: AxiomReport(True, True, True, True),
    FIPoint: FIPoint("seg", HALF),
    BallReport: BallReport(Fraction(1, 4), 9, (MID,)),
}


def test_records_differing_in_one_field_differ(case):
    cls, fields, _ = case
    if cls is ConsistentWithLeq:
        assert cls() == cls()
        return
    assert cls(**fields) != OTHERS[cls]


def test_the_hash_is_the_hash_of_the_fields(case):
    cls, fields, _ = case
    record = cls(**fields)
    if cls is QuasiMonomialVal:
        # the weights 1 and 5/2 enter as their numerators 2 and 5 over 2
        assert hash(record) == hash(((CENTER,), FRAME, 2, 2, 5))
    else:
        assert hash(record) == hash(tuple(fields.values()))
    assert hash(record) == hash(record)


def test_repr(case):
    cls, fields, text = case
    assert repr(cls(**fields)) == text


def test_assignment_and_deletion_raise(case):
    cls, fields, _ = case
    record = cls(**fields)
    for name in (*fields, "unused_name"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())
    assert not hasattr(record, "unused_name")


def test_missing_extra_and_unknown_arguments_raise(case):
    cls, fields, _ = case
    values = tuple(fields.values())
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, unknown_field=None)
    if values:
        first = next(iter(fields))
        with pytest.raises(TypeError):
            cls(*values, **{first: values[0]})


def test_required_fields_must_be_given():
    with pytest.raises(TypeError):
        TreePoint(TREE, (0,))
    with pytest.raises(TypeError):
        Rank2Val(wy=(0, HALF))
    with pytest.raises(TypeError):
        FIPoint()


class TestDefaults:
    def test_a_valuation_defaults_to_the_m_adic_one(self):
        assert QuasiMonomialVal() == QuasiMonomialVal((), IDENTITY_FRAME, (1, 1))
        assert QuasiMonomialVal(weights=(1, Fraction(5, 2))).frame is IDENTITY_FRAME
        assert QuasiMonomialVal(steps=(CENTER,), weights=(1, Fraction(5, 2))).steps == (CENTER,)
        assert QuasiMonomialVal(weights=(1, 2), frame=FRAME, steps=(0,)) == QuasiMonomialVal(
            (CENTER,), FRAME, (1, 2)
        )

    def test_a_rank_2_valuation_defaults_to_the_identity_frame(self):
        assert RANK2.frame is IDENTITY_FRAME
        assert Rank2Val(wy=(0, HALF), wx=(1, 2)) == RANK2
        assert Rank2Val((1, 2), (0, HALF), frame=FRAME).frame is FRAME

    def test_a_forked_interval_point_defaults_to_offset_zero(self):
        assert FIPoint("X").t == ZERO and FIPoint("X") == FIPoint("X", 0)
        assert FIPoint(kind="seg") == FIPoint("seg", ZERO)
        assert FIPoint(t="1/3", kind="seg") == FIPoint("seg", THIRD)

    def test_reports_default_to_no_witness(self):
        assert SuiteResult(1, "n", True, "d").witness is None
        assert SuiteResult(criterion=1, name="n", passed=True, detail="d", witness=7).witness == 7
        assert AxiomReport(True, True, True, True).witness is None
        assert AxiomReport(t4=False, t3=True, t2=True, t1=True, witness="w").witness == "w"


class TestPostInit:
    def test_the_fields_are_normalized(self):
        assert RANK2.wx == (1, Fraction(2)) and type(RANK2.wx[1]) is Fraction
        assert NU.weights == NU_WEIGHTS and type(NU.weights[0]) is Fraction
        assert QuasiMonomialVal(steps=[0]).steps == (CENTER,)
        assert ProjPoint(2).value == Fraction(2) and ProjPoint(2).as_pair() == (2, 1)

    def test_a_tangent_vector_rejects_its_base_as_representative(self):
        with pytest.raises(BasePointEqualsRepError):
            TangentRef(MID, MID)
        with pytest.raises(BasePointEqualsRepError):
            TangentRef(base=MID, rep=TREE.point((0,), HALF))

    def test_a_forked_interval_point_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown point kind 'Z'"):
            FIPoint("Z")
        with pytest.raises(ValueError, match="unknown point kind"):
            FIPoint(kind="Z", t=HALF)
        with pytest.raises(ValueError, match=r"segment points live in \[0, 1\)"):
            FIPoint("seg", 1)

    def test_other_checks_run_on_keyword_construction(self):
        with pytest.raises(ValueError, match="strictly positive"):
            QuasiMonomialVal(weights=(0, 1))
        with pytest.raises(ValueError):
            LinearFrame(rows=((1, 2), (2, 4)))

    def test_the_check_is_looked_up_when_a_record_is_built(self, monkeypatch):
        seen = []
        check = FIPoint.__post_init__

        def counting(self):
            seen.append(self.kind)
            check(self)

        monkeypatch.setattr(FIPoint, "__post_init__", counting)
        FIPoint("X")
        FIPoint(kind="Y")
        assert seen == ["X", "Y"]
