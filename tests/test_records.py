"""Contracts of the public record types.

Every record compares and hashes by its fields, refuses assignment,
survives pickle, copy, ``_replace`` and ``_make``, and rejects bad input
with InputError, whether built directly or by ``_make`` or ``_replace``.
A module poset's basis is a field like the others; its labels and
witnesses are read from its node vector, and checked like fields.
Only the records that cache values beside their fields have a
``__dict__``.
"""
import copy
import pickle

import pytest

from genfrob import (
    Binomial,
    Fiber,
    FiberGraph,
    FinitenessReport,
    FrobeniusReport,
    GeneratorClassification,
    InputError,
    LatticeBasis,
    MarkovBasis,
    ModuleGens,
    ModulePoset,
    MoveSet,
    QuotientClass,
    StructurePoset,
    TermOrder,
    WeightVector,
    classify,
    fiber,
    fiber_graph,
    finiteness_report,
    kernel_basis,
    lattice_ideal,
    minimal_generators,
    module_poset,
    moves,
    sequence_report,
    structure_poset,
)


def _sublattice():
    """An index-3 sublattice of the kernel of (2, 3, 5), built afresh."""
    w = WeightVector((2, 3, 5))
    K = kernel_basis(w)
    return LatticeBasis(w, (K.vectors[0], tuple(3 * x for x in K.vectors[1])))


def _classification():
    H = _sublattice()
    return classify(H, minimal_generators(H, 3).generators[0], 3)


# Each record type: a maker that builds an equal but distinct value on
# every call, and the names of its fields.
RECORDS = {
    WeightVector: (lambda: WeightVector((2, 3, 5)), ("a",)),
    LatticeBasis: (_sublattice, ("weight", "vectors")),
    QuotientClass: (lambda: _sublattice().label((4, 0, 0)), ("degree", "torsion")),
    Fiber: (lambda: fiber(_sublattice(), QuotientClass(6, (0,))), ("label", "points")),
    FrobeniusReport: (
        lambda: sequence_report(_sublattice(), 4),
        ("k_max", "f_values", "m_values", "b_values", "f_diffs", "m_diffs", "dimension",
         "bound_checks"),
    ),
    TermOrder: (lambda: TermOrder(WeightVector((2, 3, 5)), (2, 0, 1)), ("weight", "perm")),
    Binomial: (lambda: Binomial((3, 0, 0), (0, 2, 0)), ("head", "tail")),
    MarkovBasis: (lambda: lattice_ideal(_sublattice()), ("basis", "elements")),
    FiberGraph: (
        lambda: fiber_graph(lattice_ideal(_sublattice()), QuotientClass(10, (0,))),
        ("degree", "vertices", "edges"),
    ),
    ModuleGens: (
        lambda: minimal_generators(_sublattice(), 2),
        ("k", "generators", "supports", "classes", "min_degree_witness", "m_k", "f_1"),
    ),
    GeneratorClassification: (_classification, ("case", "witnesses")),
    MoveSet: (lambda: moves(lattice_ideal(_sublattice())), ("basis", "moves")),
    StructurePoset: (
        lambda: structure_poset(_sublattice()),
        ("basis", "f1", "elements", "covers", "representable"),
    ),
    ModulePoset: (
        lambda: module_poset(_sublattice(), 2),
        ("k", "m_k", "f_1", "nodes", "labels", "minimal_elements", "min_degree_classes", "basis"),
    ),
    FinitenessReport: (
        lambda: finiteness_report(_sublattice(), 3),
        ("k_max", "posets", "b_values", "distinct_label_sets", "full_poset_ks"),
    ),
}
# bound_checks is a dict, so a FrobeniusReport has no hash.
UNHASHABLE = {FrobeniusReport}

# The records that keep a __dict__: the plain-class basis and the posets
# with their cached properties.
WITH_DICT = {LatticeBasis, StructurePoset, ModulePoset}


def _params(classes):
    return pytest.mark.parametrize("cls", list(classes), ids=lambda cls: cls.__name__)


params = _params(RECORDS)


@params
def test_equal_records_compare_and_hash_alike(cls):
    make, _ = RECORDS[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@params
def test_assigning_a_field_raises(cls):
    make, fields = RECORDS[cls]
    r = make()
    for name in fields:
        value = getattr(r, name)
        with pytest.raises(AttributeError):
            setattr(r, name, value)
        assert getattr(r, name) is value


@params
def test_pickle_and_copy_round_trips_compare_equal(cls):
    make, fields = RECORDS[cls]
    r = make()
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(twin) is cls and twin == r
        # The fields left out of equality come along too.
        for name in fields:
            assert getattr(twin, name) == getattr(r, name)


@_params(cls for cls in RECORDS if cls is not LatticeBasis)
def test_replace_and_make_keep_every_field(cls):
    make, fields = RECORDS[cls]
    r = make()
    # For a module poset the second twin is mp._replace(k=mp.k).
    for twin in (r._replace(), r._replace(**{r._fields[0]: r[0]}), cls._make(r)):
        assert type(twin) is cls and twin == r
        for name in fields:
            assert getattr(twin, name) == getattr(r, name)


@_params(cls for cls in RECORDS if cls not in WITH_DICT)
def test_records_without_cached_values_have_no_dict(cls):
    make, _ = RECORDS[cls]
    assert not hasattr(make(), "__dict__")


def test_module_posets_on_different_bases_differ():
    mp = module_poset(_sublattice(), 2)
    K = kernel_basis(WeightVector((2, 3, 5)))
    assert ModulePoset(mp.k, mp.m_k, mp.f_1, mp.nodes, mp.minimal_elements, K) != mp
    twin = ModulePoset(*mp)
    assert twin == mp and hash(twin) == hash(mp)


def test_bad_input_still_raises_input_error():
    w = WeightVector((2, 3, 5))
    H = _sublattice()
    bad = [
        lambda: WeightVector((3,)),
        lambda: WeightVector((0, 3)),
        lambda: WeightVector((2, 4)),
        lambda: LatticeBasis(w, ((3, -2, 0),)),
        lambda: LatticeBasis(w, ((3, -2, 0), (1, 1, 0))),
        lambda: LatticeBasis(w, ((3, -2, 0), (6, -4, 0))),
        lambda: LatticeBasis(w, ((3, -2, 0), (5, 0))),
        lambda: TermOrder(w, (0, 0, 1)),
        lambda: Binomial((1, 0, 0), (1, 0, 0)),
        lambda: Binomial((1, -1, 0), (0, 0, 0)),
        lambda: MarkovBasis(H, (Binomial((4, 0, 1), (1, 2, 1)),)),
        lambda: MarkovBasis(H, (Binomial((5, 0, 1), (0, 5, 0)),)),
        lambda: MoveSet(H, frozenset()),
        lambda: WeightVector._make([(2, 4)]),
        lambda: w._replace(a=(2, 4)),
        lambda: TermOrder(w)._replace(perm=(0, 0, 1)),
        lambda: Binomial._make([(1, 0), (1, 0)]),
        lambda: Binomial((1, 0, 0), (0, 1, 0))._replace(head=(0, 1, 0)),
        lambda: MarkovBasis._make([H, (Binomial((4, 0, 1), (1, 2, 1)),)]),
        lambda: lattice_ideal(H)._replace(elements=(Binomial((5, 0, 1), (0, 5, 0)),)),
        lambda: moves(lattice_ideal(H))._replace(moves=frozenset()),
    ]
    for make in bad:
        with pytest.raises(InputError):
            make()


def test_a_replaced_term_order_orders_monomials():
    # Degrees under (3, 5, 8): 11, 14, 16, 16 and 18. The tie at 16 breaks
    # the other way round under the default order, which perm replaces.
    w = WeightVector((3, 5, 8))
    want = [(1, 0, 1), (3, 1, 0), (2, 2, 0), (0, 0, 2), (0, 2, 1)]
    for order in (TermOrder(w)._replace(perm=(2, 1, 0)), TermOrder._make([w, (2, 1, 0)])):
        assert sorted(reversed(want), key=order.key) == want
        assert order.greater((0, 0, 2), (2, 2, 0))
    assert not TermOrder(w).greater((0, 0, 2), (2, 2, 0))
