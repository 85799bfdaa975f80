"""The library's frozen value classes: repr, equality, hashing, keyword
construction, immutability and copy/pickle round trips, pinned class by
class.  The reprs are the ones a frozen dataclass printed, save
EliminationStructure's, whose fields became tuples.  SparseIntMatrix, whose
constructor takes entries rather than its fields, has tests of its own at
the end."""

import copy
import pickle
import random

import pytest

from toricbases import Binomial, MonomialOrder, SparseIntMatrix
from toricbases.bases import BasisReport
from toricbases.graphs import EliminationStructure, Graph, eliminate
from toricbases.normalform import NormalFormResult
from toricbases.reductions import IntegerProgram, NoBoxError, NormalFormReduction, ip_to_normalform

ROW = SparseIntMatrix.from_dense([[1, 1]])


def _path():
    return Graph.from_edges(3, [(1, 0), (2, 1)])


def _program(**changes):
    fields = dict(matrix=ROW, rhs=(2,), objective=(1, 2), upper=(2, 2), feasible_hint=(2, 0))
    return IntegerProgram(**{**fields, **changes})


# (make, make a different value, keyword arguments that rebuild make(), repr)
CASES = {
    "MonomialOrder": (
        lambda: MonomialOrder((0, 0)),
        lambda: MonomialOrder((0, 1)),
        dict(weights=[0, 0]),
        "MonomialOrder(weights=(0, 0))",
    ),
    "Binomial": (
        lambda: Binomial((1, 0), (0, 1)),
        lambda: Binomial((0, 1), (1, 0)),
        dict(tail=[0, 1], head=[1, 0]),
        "Binomial(head=(1, 0), tail=(0, 1))",
    ),
    "Graph": (
        _path,
        lambda: Graph.from_edges(3, [(0, 1)]),
        dict(num_vertices=3, edges=frozenset({(0, 1), (1, 2)})),
        "Graph(num_vertices=3, edges=frozenset({(0, 1), (1, 2)}))",
    ),
    "EliminationStructure": (
        lambda: eliminate(_path(), (0, 2, 1)),
        lambda: eliminate(_path(), (0, 1, 2)),
        dict(
            ordering=(0, 2, 1), position=(0, 2, 1), cliques=((0, 1), (2, 1), (1,)),
            fill_edges=frozenset(), clique_number=2, parent=(1, None, 1), height=2,
        ),
        "EliminationStructure(ordering=(0, 2, 1), position=(0, 2, 1), "
        "cliques=((0, 1), (2, 1), (1,)), fill_edges=frozenset(), "
        "clique_number=2, parent=(1, None, 1), height=2)",
    ),
    "NormalFormResult": (
        lambda: NormalFormResult((1,), True, False),
        lambda: NormalFormResult((1,), True, False, 1),
        dict(normal_exponent=(1,), was_standard=True, certified=False),
        "NormalFormResult(normal_exponent=(1,), was_standard=True, certified=False, jumps=0)",
    ),
    "BasisReport": (
        lambda: BasisReport("graver", ((1, -1),), 3, 1, True),
        lambda: BasisReport("graver", ((1, -1),), 3, 1, False),
        dict(kind="graver", elements=((1, -1),), scanned=3, bound_used=1, certified=True),
        "BasisReport(kind='graver', elements=((1, -1),), scanned=3, bound_used=1, certified=True)",
    ),
    "IntegerProgram": (
        _program,
        lambda: _program(feasible_hint=None),
        dict(matrix=ROW, rhs=[2], objective=[1, 2], lower=None, upper=[2, 2], feasible_hint=[2, 0]),
        "IntegerProgram(matrix=SparseIntMatrix(1x2, 2 nonzeros), rhs=(2,), objective=(1, 2), "
        "lower=(0, 0), upper=(2, 2), feasible_hint=(2, 0))",
    ),
    "NormalFormReduction": (
        lambda: ip_to_normalform(_program()),
        lambda: ip_to_normalform(_program(), graded=True),
        dict(
            matrix=ip_to_normalform(_program()).matrix, rhs=(0, 2, 2, 2), start_exponent=(2, 0, 2, 2, 0),
            order=MonomialOrder.lex(5), source_objective=(1, 2), source_upper=(2, 2),
        ),
        "NormalFormReduction(matrix=SparseIntMatrix(4x5, 9 nonzeros), rhs=(0, 2, 2, 2), "
        "start_exponent=(2, 0, 2, 2, 0), order=MonomialOrder(weights=(0, 0, 0, 0, 0)), "
        "source_objective=(1, 2), source_upper=(2, 2))",
    ),
}

parametrize = pytest.mark.parametrize("name", sorted(CASES))


@parametrize
def test_repr_is_pinned(name):
    make, _, _, text = CASES[name]
    value = make()
    assert type(value).__name__ == name
    assert repr(value) == text


@parametrize
def test_equality_is_by_class_and_fields(name):
    make, other, kwargs, _ = CASES[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other() and not a == other()
    # another value class, or a subclass, is never equal
    foreign = Binomial((1,), (0,)) if name != "Binomial" else MonomialOrder((0, 0))
    assert a != foreign and not a == foreign
    twin = type(f"Sub{name}", (type(a),), {})(**kwargs)
    assert a != twin and twin != a
    assert a.__eq__(object()) is NotImplemented


@parametrize
def test_hash_follows_equality(name):
    make, _, _, _ = CASES[name]
    a, b = make(), make()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@parametrize
def test_keyword_construction_matches(name):
    make, _, kwargs, _ = CASES[name]
    assert type(make())(**kwargs) == make()


def test_defaults():
    assert NormalFormResult((1,), True, False).jumps == 0
    ip = IntegerProgram(ROW, (2,), (1, 2), upper=(2, 2))
    assert ip.lower == (0, 0) and ip.feasible_hint is None
    with pytest.raises(NoBoxError):
        IntegerProgram(ROW, (2,), (1, 2))


def test_constructors_normalise_to_tuples():
    assert MonomialOrder([1, 2]).weights == (1, 2)
    b = Binomial([1, 0], [0, 1])
    assert (b.head, b.tail) == ((1, 0), (0, 1))
    ip = IntegerProgram(ROW, [2], [1, 2], lower=[0, 0], upper=[2, 2], feasible_hint=[2, 0])
    assert (ip.rhs, ip.objective, ip.lower, ip.upper, ip.feasible_hint) == ((2,), (1, 2), (0, 0), (2, 2), (2, 0))


@parametrize
def test_fields_cannot_be_set_or_deleted(name):
    make, _, kwargs, _ = CASES[name]
    value = make()
    for field in kwargs:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@parametrize
def test_copy_and_pickle_round_trip(name):
    make, _, _, text = CASES[name]
    value = make()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value and repr(twin) == text


# -- SparseIntMatrix: a Frozen with its own repr and __reduce__ --------------

TWISTED_CUBIC = [[1, 1, 1, 1], [0, 1, 2, 3]]


def test_matrix_repr_is_pinned():
    assert repr(SparseIntMatrix.from_dense(TWISTED_CUBIC)) == "SparseIntMatrix(2x4, 7 nonzeros)"


def test_matrix_equality_ignores_entry_order():
    dense = SparseIntMatrix.from_dense(TWISTED_CUBIC)
    entries = list(dense.iter_entries())
    random.Random(3).shuffle(entries)
    shuffled = SparseIntMatrix(2, 4, entries)
    assert dense is not shuffled and dense == shuffled and hash(dense) == hash(shuffled)
    assert dense != SparseIntMatrix.from_dense([[1, 1, 1, 1], [0, 1, 2, 4]])
    assert dense != SparseIntMatrix.from_dense([[1, 1, 1, 1, 0], [0, 1, 2, 3, 0]])
    assert dense.__eq__(object()) is NotImplemented
    # Frozen's rule: a subclass instance never equals a base instance
    twin = type("SubMatrix", (SparseIntMatrix,), {})(2, 4, entries)
    assert dense != twin and twin != dense


def test_matrix_fields_cannot_be_set_or_deleted():
    A = SparseIntMatrix.from_dense(TWISTED_CUBIC)
    before = hash(A)
    with pytest.raises(AttributeError):
        A.num_cols = 3
    with pytest.raises(AttributeError):
        del A.max_abs
    for field in ("num_rows", "_rows"):
        with pytest.raises(AttributeError):
            setattr(A, field, getattr(A, field))
    assert (A.num_rows, A.num_cols, A.max_abs, hash(A)) == (2, 4, 3, before)


def test_matrix_copy_and_pickle_round_trip():
    A = SparseIntMatrix.from_dense(TWISTED_CUBIC)
    for twin in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
        assert type(twin) is SparseIntMatrix
        assert twin == A and repr(twin) == repr(A) and twin.to_dense() == TWISTED_CUBIC
