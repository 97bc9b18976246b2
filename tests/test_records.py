"""Contracts of the public record types.

Every record compares and hashes by its fields, refuses assignment,
survives pickle and copy, and rejects bad input with InputError. The
one field left out of equality is ``ModulePoset.basis``; a module
poset's labels and witnesses are read from its node vector, and checked
like fields.
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

params = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


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


def test_uncompared_fields_take_no_part_in_equality():
    mp = module_poset(_sublattice(), 2)
    K = kernel_basis(WeightVector((2, 3, 5)))
    other = ModulePoset(mp.k, mp.m_k, mp.f_1, mp.nodes, mp.minimal_elements, K)
    assert other == mp and hash(other) == hash(mp)
    assert other.basis is K


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
    ]
    for make in bad:
        with pytest.raises(InputError):
            make()
