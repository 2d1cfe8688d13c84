"""The package's value records, every one a named tuple: their text,
equality, hashing, immutability, defaults and round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from graph_inertia import GraphError, Inertia, parse_graph, solve
from graph_inertia.closed_forms import INFINITY_TABLE, CaseCondition, InfinityRow
from graph_inertia.graph import Classification, ComponentClass, GraphClass, WeightedGraph, classify
from graph_inertia.matrix import DiagonalizationResult, EcmoStep, SymRationalMatrix, congruent_diagonalize
from graph_inertia.reduction import ReductionRule, ReductionStep, ReductionTrace
from graph_inertia.solver import Method, SolveResult
from graph_inertia.structure import BaseDescriptor, BaseKind, HangingTree, describe_base, hanging_trees, two_core
from graph_inertia.testgen import GenSpec

CONTRACT = ReductionStep(
    ReductionRule.PATH_CONTRACT, ("a", "h", "g", "f"), (("b", "e", Fraction(2)),), (2, 2)
)
SPLIT = SolveResult(
    Inertia(2, 2, 0),
    (Method.FOREST, Method.FOREST),
    ReductionTrace((ReductionStep(ReductionRule.COMPONENT_SPLIT),)),
)

F1, F2 = Fraction(1), Fraction(2)
MATRIX = SymRationalMatrix(((Fraction(0), F2), (F2, Fraction(0))))
THETA_FIELDS = (
    BaseKind.THETA,
    3,
    4,
    4,
    (Fraction(4), Fraction(5)),
    (F1, F2, Fraction(3)),
    (Fraction(6), Fraction(7), Fraction(8)),
    ("h", "c", "k"),
    ("h", "a", "b", "k"),
    ("h", "d", "e", "k"),
)
THETA = BaseDescriptor(*THETA_FIELDS)
PENDANT_TREE = WeightedGraph(["c", "d"], [("c", "d", F2)])
PENDANT_TRACE = ReductionTrace((ReductionStep(ReductionRule.PENDANT_PAIR, ("c", "d"), (), (1, 1)),))

# (record, its repr, its fields in order); each repr was read off the
# record before it became a named tuple.
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
    (
        CaseCondition(Fraction(3, 2), F1),
        "CaseCondition(lhs=Fraction(3, 2), rhs=Fraction(1, 1))",
        (Fraction(3, 2), F1),
    ),
    (
        INFINITY_TABLE[(3, 2, 3)],
        "InfinityRow(shape=(3, 2, 3), outcomes=(('gt', (2, 4)), ('eq', (2, 3)), ('lt', (3, 3))), "
        "condition_text='4*a1*b1*a3*b3/(a2*b2) - c1^2')",
        (
            (3, 2, 3),
            (("gt", (2, 4)), ("eq", (2, 3)), ("lt", (3, 3))),
            "4*a1*b1*a3*b3/(a2*b2) - c1^2",
        ),
    ),
    (
        Classification(GraphClass.UNICYCLIC_FOREST_MIX, (ComponentClass.UNICYCLIC, ComponentClass.TREE)),
        "Classification(overall=<GraphClass.UNICYCLIC_FOREST_MIX: 'unicyclic-forest-mix'>, "
        "components=(<ComponentClass.UNICYCLIC: 'unicyclic'>, <ComponentClass.TREE: 'tree'>))",
        (GraphClass.UNICYCLIC_FOREST_MIX, (ComponentClass.UNICYCLIC, ComponentClass.TREE)),
    ),
    (
        MATRIX,
        "SymRationalMatrix(rows=((Fraction(0, 1), Fraction(2, 1)), (Fraction(2, 1), Fraction(0, 1))))",
        (((Fraction(0), F2), (F2, Fraction(0))),),
    ),
    (
        EcmoStep("add", 1, 0, Fraction(1, 2)),
        "EcmoStep(op='add', i=1, j=0, k=Fraction(1, 2))",
        ("add", 1, 0, Fraction(1, 2)),
    ),
    (
        DiagonalizationResult(
            Inertia(1, 1, 0),
            (Fraction(4), Fraction(-1)),
            (EcmoStep("add", 1, 0, F1), EcmoStep("add", 0, 1, Fraction(-1, 2))),
        ),
        "DiagonalizationResult(inertia=Inertia(pos=1, neg=1, zero=0), "
        "diagonal=(Fraction(4, 1), Fraction(-1, 1)), "
        "steps=(EcmoStep(op='add', i=1, j=0, k=Fraction(1, 1)), "
        "EcmoStep(op='add', i=0, j=1, k=Fraction(-1, 2))))",
        (
            Inertia(1, 1, 0),
            (Fraction(4), Fraction(-1)),
            (EcmoStep("add", 1, 0, F1), EcmoStep("add", 0, 1, Fraction(-1, 2))),
        ),
    ),
    (
        PENDANT_TRACE,
        "ReductionTrace(steps=(ReductionStep(rule=<ReductionRule.PENDANT_PAIR: 'PendantPair'>, "
        "removed=('c', 'd'), added=(), offset=(1, 1)),))",
        ((ReductionStep(ReductionRule.PENDANT_PAIR, ("c", "d"), (), (1, 1)),),),
    ),
    (
        THETA,
        "BaseDescriptor(kind=<BaseKind.THETA: 'theta'>, p=3, l=4, q=4, "
        "a=(Fraction(4, 1), Fraction(5, 1)), b=(Fraction(1, 1), Fraction(2, 1), Fraction(3, 1)), "
        "c=(Fraction(6, 1), Fraction(7, 1), Fraction(8, 1)), a_vertices=('h', 'c', 'k'), "
        "b_vertices=('h', 'a', 'b', 'k'), c_vertices=('h', 'd', 'e', 'k'))",
        THETA_FIELDS,
    ),
    (
        HangingTree("c", PENDANT_TREE, True),
        "HangingTree(root='c', tree=WeightedGraph(n=2, m=1), matched_at_root=True)",
        ("c", PENDANT_TREE, True),
    ),
    (
        GenSpec("bicyclic", 40, 7, "force"),
        "GenSpec(target='bicyclic', n=40, seed=7, regime='force')",
        ("bicyclic", 40, 7, "force"),
    ),
]
FIELDS = {
    Inertia: ("pos", "neg", "zero"),
    ReductionStep: ("rule", "removed", "added", "offset"),
    SolveResult: ("inertia", "methods", "trace"),
    CaseCondition: ("lhs", "rhs"),
    InfinityRow: ("shape", "outcomes", "condition_text"),
    Classification: ("overall", "components"),
    SymRationalMatrix: ("rows",),
    EcmoStep: ("op", "i", "j", "k"),
    DiagonalizationResult: ("inertia", "diagonal", "steps"),
    ReductionTrace: ("steps",),
    BaseDescriptor: ("kind", "p", "l", "q", "a", "b", "c", "a_vertices", "b_vertices", "c_vertices"),
    HangingTree: ("root", "tree", "matched_at_root"),
    GenSpec: ("target", "n", "seed", "regime"),
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


def test_the_package_builds_the_pinned_records():
    unicyclic = parse_graph("a b 1\nb c 1\nc a 1\nc d 2")
    theta = parse_graph("h a 1\na b 2\nb k 3\nh c 4\nc k 5\nh d 6\nd e 7\ne k 8")
    built = {
        "Classification": classify(parse_graph("a b 1\nb c 1\nc a 1\nc d 2\nx y 1")),
        "SymRationalMatrix": SymRationalMatrix.from_rows([[0, 2], [2, 0]]),
        "DiagonalizationResult": congruent_diagonalize(MATRIX),
        "BaseDescriptor": describe_base(two_core(theta)),
        "HangingTree": hanging_trees(unicyclic, two_core(unicyclic))[2],
    }
    for record, text, _ in RECORDS:
        if type(record).__name__ in built:
            got = built[type(record).__name__]
            assert type(got) is type(record) and got == record and repr(got) == text


def test_record_defaults():
    empty = ReductionTrace()
    assert empty == ReductionTrace(()) and empty.steps == ()
    assert repr(empty) == "ReductionTrace(steps=())"
    assert empty.offset == (0, 0) and empty.serialize() == ""
    row = InfinityRow((3, 1, 3), (("any", (2, 3)),))
    assert row.condition_text is None and row == InfinityRow((3, 1, 3), (("any", (2, 3)),), None)
    assert row == INFINITY_TABLE[(3, 1, 3)]
    assert repr(row) == "InfinityRow(shape=(3, 1, 3), outcomes=(('any', (2, 3)),), condition_text=None)"
    swap = EcmoStep("swap", 0, 1)
    assert swap.k is None and swap == EcmoStep("swap", 0, 1, None)
    assert repr(swap) == "EcmoStep(op='swap', i=0, j=1, k=None)"
    spec = GenSpec("tree", 10, 3)
    assert spec.regime == "random" and spec == GenSpec("tree", 10, 3, "random")
    assert repr(spec) == "GenSpec(target='tree', n=10, seed=3, regime='random')"


def test_record_methods():
    relations = [CaseCondition(lhs, rhs).relation for lhs, rhs in ((F2, F1), (F1, F1), (F1, F2))]
    assert relations == ["gt", "eq", "lt"]
    assert INFINITY_TABLE[(3, 2, 3)].outcome("eq") == (2, 3)
    assert MATRIX.order == 2 and MATRIX.dump() == "0 2\n2 0"
    assert str(THETA) == "theta(3,4,4)"
    assert PENDANT_TRACE.offset == (1, 1)
    assert PENDANT_TRACE.serialize() == "PendantPair removed=[c,d] added=[] offset=(+1,+1)"


@pytest.mark.parametrize(
    "rows, message",
    [
        (((F1, F2),), "matrix is not square"),
        (((F1,), (F1, F2)), "matrix is not square"),
        (((F1, F2), (Fraction(3), F1)), "matrix is not symmetric at (1,0)"),
        (((F1, F1, F1), (F1, F1, F1), (F1, F2, F1)), "matrix is not symmetric at (2,1)"),
    ],
)
def test_matrix_refuses_non_square_and_non_symmetric_rows(rows, message):
    for build in (
        lambda: SymRationalMatrix(rows),
        lambda: SymRationalMatrix.from_rows(rows),
        lambda: MATRIX._replace(rows=rows),
        lambda: SymRationalMatrix._make((rows,)),
    ):
        with pytest.raises(GraphError) as info:
            build()
        assert str(info.value) == message
