"""The value records ``Inertia``, ``ReductionStep`` and ``SolveResult``:
their text, equality, hashing, immutability and round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from graph_inertia import Inertia, parse_graph, solve
from graph_inertia.reduction import ReductionRule, ReductionStep, ReductionTrace
from graph_inertia.solver import Method, SolveResult

CONTRACT = ReductionStep(
    ReductionRule.PATH_CONTRACT, ("a", "h", "g", "f"), (("b", "e", Fraction(2)),), (2, 2)
)
SPLIT = SolveResult(
    Inertia(2, 2, 0),
    (Method.FOREST, Method.FOREST),
    ReductionTrace((ReductionStep(ReductionRule.COMPONENT_SPLIT),)),
)

# (record, its repr, its fields in order)
RECORDS = [
    (Inertia(3, 1, 2), "Inertia(pos=3, neg=1, zero=2)", (3, 1, 2)),
    (
        CONTRACT,
        "ReductionStep(rule=<ReductionRule.PATH_CONTRACT: 'PathContract'>, "
        "removed=('a', 'h', 'g', 'f'), added=(('b', 'e', Fraction(2, 1)),), offset=(2, 2))",
        (ReductionRule.PATH_CONTRACT, ("a", "h", "g", "f"), (("b", "e", Fraction(2)),), (2, 2)),
    ),
    (
        SPLIT,
        "SolveResult(inertia=Inertia(pos=2, neg=2, zero=0), "
        "methods=(<Method.FOREST: 'Forest'>, <Method.FOREST: 'Forest'>), "
        "trace=ReductionTrace(steps=(ReductionStep(rule=<ReductionRule.COMPONENT_SPLIT: "
        "'ComponentSplit'>, removed=(), added=(), offset=(0, 0)),)))",
        (
            Inertia(2, 2, 0),
            (Method.FOREST, Method.FOREST),
            ReductionTrace((ReductionStep(ReductionRule.COMPONENT_SPLIT),)),
        ),
    ),
]
FIELDS = {
    Inertia: ("pos", "neg", "zero"),
    ReductionStep: ("rule", "removed", "added", "offset"),
    SolveResult: ("inertia", "methods", "trace"),
}
each_record = pytest.mark.parametrize(
    "record, text, values", RECORDS, ids=[type(r).__name__ for r, _, _ in RECORDS]
)


@each_record
def test_records_keep_their_repr_equality_and_hash(record, text, values):
    assert repr(record) == text
    names = FIELDS[type(record)]
    assert tuple(getattr(record, name) for name in names) == values
    twin = type(record)(*values)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(values)
    assert len({record, twin}) == 1


@each_record
def test_records_are_immutable(record, text, values):
    for name in FIELDS[type(record)]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@each_record
def test_records_survive_pickle_and_copy(record, text, values):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == text


@each_record
def test_records_equal_and_unpack_like_tuples_of_their_fields(record, text, values):
    assert record == values and tuple(record) == values and len(record) == len(values)


def test_step_defaults_and_text():
    step = ReductionStep(ReductionRule.PENDANT_PAIR)
    assert (step.removed, step.added, step.offset) == ((), (), (0, 0))
    assert step.serialize() == "PendantPair removed=[] added=[] offset=(+0,+0)"
    assert step == ReductionStep(ReductionRule.PENDANT_PAIR, (), (), (0, 0))
    assert step != ReductionStep(ReductionRule.PATH_CONTRACT)
    assert CONTRACT.serialize() == "PathContract removed=[a,h,g,f] added=[(b,e,2)] offset=(+2,+2)"


def test_inertia_methods():
    a, b = Inertia(3, 1, 2), Inertia(1, 1, 0)
    total = a + b
    assert type(total) is Inertia and total == Inertia(4, 2, 2)
    assert a.pn == (3, 1)
    assert type(a.as_tuple()) is tuple and a.as_tuple() == (3, 1, 2)
    assert str(a) == "(i+=3, i-=1, i0=2)"
    assert a != b and a != Inertia(3, 1, 3)


def test_solve_builds_the_pinned_result():
    result = solve(parse_graph("a b 1\nc d 2"))
    assert result == SPLIT and repr(result) == RECORDS[2][1]
    assert result.trace.offset == (0, 0)
