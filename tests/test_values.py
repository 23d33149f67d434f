"""The value types: equal values compare == and hash alike, fields reject
assignment, and each constructor check raises the same ValueError."""

import copy
import pickle
from fractions import Fraction

import pytest

from freeq import homs
from freeq import qcompletion as qc
from freeq.constructions import AmalgamData, HNNData, Verdict
from freeq.qcompletion import parse_qword
from freeq.stallings import CoreGraph, FiberComponent, SeparationResult, build_core, is_conjugate_separated
from freeq.tower import Form, Step, Tower
from freeq.words import Alphabet, CyclicWord, Frozen, Presentation, cyclic_reduce

AB = Alphabet(("a", "b"))
X, Y = Presentation(Alphabet(("x",)), ()), Presentation(Alphabet(("y",)), ())
HALF = Fraction(1, 2)
T0 = Tower(AB)
EDGE = homs.edge_context(AB, AB, [((1,), (2,))])
BELOW_V2 = qc.TowerIndex(0, T0, ())

# type -> (make an instance, make a different instance); make() builds a new
# object on every call
VALUES = {
    Alphabet: (lambda: Alphabet(("a", "b")), lambda: Alphabet(("a", "c"))),
    CyclicWord: (lambda: cyclic_reduce((-2, 1, 2)), lambda: cyclic_reduce((1,))),
    Presentation: (lambda: Presentation(AB, ((1, 2, -1, -2),)), lambda: Presentation(AB, ())),
    CoreGraph: (lambda: build_core(AB, [(1, 1)]), lambda: build_core(AB, [(1, 2)])),
    FiberComponent: (
        lambda: FiberComponent(((0, 0),), (((0, 0), 1, (0, 0)),), True),
        lambda: FiberComponent(((0, 0),), (((0, 0), 2, (0, 0)),), True),
    ),
    SeparationResult: (lambda: is_conjugate_separated(build_core(AB, [(1, 1)])), lambda: SeparationResult(True)),
    homs.EdgeContext: (
        lambda: homs.EdgeContext(EDGE.dom, EDGE.cod, EDGE.psi, EDGE.psi_inv),
        lambda: homs.edge_context(AB, AB, [((1,), (2,))]),
    ),
    HNNData: (
        lambda: HNNData(Presentation(AB, ()), ((1, 1),), ((2, 2),)),
        lambda: HNNData(Presentation(AB, ()), ((1, 1),), ((2,),)),
    ),
    AmalgamData: (lambda: AmalgamData(X, Y, ((1, 1),), ((1, 1, 1),)), lambda: AmalgamData(X, Y, ((1,),), ((1,),))),
    Verdict: (
        lambda: Verdict("hyperbolic", "Theorem 1", details={"rank": 1}),
        lambda: Verdict("hyperbolic", "Theorem 1"),
    ),
    Form: (lambda: Form(1, ((), (1,)), (HALF,)), lambda: Form(1, ((1,), ()), (HALF,))),
    Step: (lambda: Step((1, 2), 2, "w"), lambda: Step((1, 2), 3, "w")),
    qc.QLetter: (lambda: parse_qword(AB, "a"), lambda: parse_qword(AB, "B")),
    qc.QProduct: (lambda: parse_qword(AB, "ab"), lambda: parse_qword(AB, "ba")),
    qc.QPower: (lambda: parse_qword(AB, "(ab)^(1/2)"), lambda: parse_qword(AB, "(ab)^(1/3)")),
    qc.VnEntry: (lambda: qc.enumerate_Vn(BELOW_V2, 2).entries[2], lambda: qc.enumerate_Vn(BELOW_V2, 2).entries[3]),
    qc.VnTable: (lambda: qc.enumerate_Vn(BELOW_V2, 2), lambda: qc.enumerate_Vn(BELOW_V2, 1)),
    qc.TowerIndex: (lambda: qc.TowerIndex(0, T0, ()), lambda: qc.TowerIndex(0, Tower(AB), ())),
}
UNHASHABLE = {Verdict}  # its details are a dict


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
class TestValueType:
    def test_equal_values_compare_and_hash_alike(self, cls):
        make, other = VALUES[cls]
        a, b = make(), make()
        assert type(a) is cls and a is not b
        assert a == b and not a != b
        assert a != other() and not a == other()
        assert a != tuple(getattr(a, name) for name in cls.__slots__ if not name.startswith("_"))
        assert copy.copy(a) == a and copy.copy(a) is not a
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert {a: 1}[b] == 1

    def test_fields_reject_assignment(self, cls):
        value = VALUES[cls][0]()
        field = cls.__slots__[0]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) is before

    def test_repr_names_the_class(self, cls):
        assert repr(VALUES[cls][0]()).startswith(f"{cls.__name__}(")


def test_pickle_round_trip():
    t = Tower(AB).extend_centralizer((1, 2), 2)
    values = [t.root(1), Form(1, (t.root(1), (1,)), (HALF,)), t.steps[0], build_core(AB, [(1, 1), (1, 2)])]
    for value in values:
        again = pickle.loads(pickle.dumps(value))
        assert again == value and hash(again) == hash(value)


def test_form_keeps_its_hash():
    f = Form(1, ((), (1,)), (HALF,))
    assert hash(f) == f._hash == hash((1, ((), (1,)), (HALF,)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Alphabet(()), "at least one generator"),
        (lambda: Alphabet(("a", "a")), "must be distinct"),
        (lambda: Alphabet(("A",)), "single lowercase letter"),
        (lambda: Alphabet(("ab",)), "single lowercase letter"),
        (lambda: CyclicWord((1, 2, -1), ()), "not cyclically reduced"),
        (lambda: Presentation(AB, ((),)), "relator equal to identity"),
        (lambda: Presentation(AB, ((2, 1, -2),)), "must be cyclically reduced"),
        (lambda: CoreGraph(AB, 2, ((0, 1, 0), (0, 1, 1))), "graph is not folded"),
        (lambda: CoreGraph(AB, 2, ((0, 1, 1), (1, 1, 1))), "graph is not folded"),
        (lambda: Form(1, ((),), ()), "needs a syllable"),
        (lambda: Form(1, ((),), (HALF,)), "one more h than syllables"),
        (lambda: Form(1, ((), ()), (Fraction(3, 2),)), r"Fraction in \(0,1\)"),
        (lambda: Form(1, ((), ()), (Fraction(0),)), r"Fraction in \(0,1\)"),
        (lambda: Form(1, ((), ()), (0.5,)), r"Fraction in \(0,1\)"),
        (lambda: HNNData(Presentation(AB, ((1, 2, -1, -2),)), ((1,),), ((2,),)), "must be free"),
        (lambda: HNNData(Presentation(AB, ()), ((1,),), ()), "differ in length"),
        (lambda: AmalgamData(X, Presentation(AB, ((1, 1),)), ((1,),), ((1,),)), "must be free"),
    ],
)
def test_constructor_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_every_value_type_is_tested():
    # a value type of any freeq module, subclass of a subclass included
    import freeq.cli  # noqa: F401

    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("freeq."):
                found.add(sub)
    assert found == set(VALUES)


# a class that only copies its fields, and one value of each field
FIELDS_ONLY = {Step: ((1, 2), 2, "w"), FiberComponent: (((0, 0),), (), True)}


@pytest.mark.parametrize("cls", FIELDS_ONLY, ids=lambda cls: cls.__name__)
class TestSharedConstructor:
    def test_too_many_positional_arguments(self, cls):
        with pytest.raises(TypeError):
            cls(*FIELDS_ONLY[cls], 0)

    def test_unknown_keyword(self, cls):
        with pytest.raises(TypeError):
            cls(*FIELDS_ONLY[cls], extra=0)

    def test_field_given_twice(self, cls):
        *args, last = FIELDS_ONLY[cls]
        with pytest.raises(TypeError):
            cls(*args, last, **{cls.__slots__[-1]: last})

    def test_missing_field(self, cls):
        with pytest.raises(TypeError):
            cls(*FIELDS_ONLY[cls][:-1])

    def test_keywords_fill_the_fields_in_slot_order(self, cls):
        args = FIELDS_ONLY[cls]
        value = cls(**dict(zip(cls.__slots__, args)))
        assert value == cls(*args) and value._key() == args


def test_keyword_and_positional_fields_agree():
    v, e = ((0, 0),), (((0, 0), 1, (0, 0)),)
    assert FiberComponent(v, e, contains_basepoint=True) == FiberComponent(v, e, True)


def test_defaults_fill_unset_fields():
    assert SeparationResult(True).witness is None
    assert SeparationResult(True).common_element is None
    failed = SeparationResult(False, witness=(1,))
    assert (failed.holds, failed.witness, failed.common_element) == (False, (1,), None)


def test_default_iso_zips_the_generators():
    assert HNNData(Presentation(AB, ()), ((1,), (2,)), ((2,), (1,))).iso == (((1,), (2,)), ((2,), (1,)))
    assert AmalgamData(X, Y, ((1, 1),), ((1, 1, 1),), iso=(((1,), (1,)),)).iso == (((1,), (1,)),)
