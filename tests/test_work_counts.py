"""How much work the module and poset layers do per basis.

Work is counted where it is done, not where it is asked for:
``Thresholds.__init__`` runs once per residue-graph walk and
``CountTable.__init__`` once per counting table built, however many
callers share them. ``counting.fiber`` (one fiber enumeration) is
wrapped at every place a ``genfrob`` module binds it, and
``poset._covers`` (one Hasse cover build) and ``poset._labels`` (one
expansion of a module poset's node vector into labels) where ``poset``
calls them.
``ideal._buchberger_pairs`` counts Groebner basis runs,
``ideal._normal_form`` the normal forms of their start pairs and
S-pairs, ``ideal._reduced`` inside ``ideal._interreduce`` its tail
normal forms, and ``ideal._packing`` the packings built.
``CountTable.row`` and ``CountTable.cell``, which ``CountTable.count``
reads through, count the table cells read.
``LatticeBasis.label`` counts the points labelled, and
``modules._value_prefixes`` the full prefixes of the lcm search.
``neighbourhood._step`` (one breadth-first step of a move ball, bound in
``neighbourhood`` and ``modules``) counts the ball points formed, and
``CountTable._extremes`` the row extremes worked out per table.
"""
import json
import math
import random
import sys
from functools import cached_property

import pytest

from genfrob import (
    LatticeBasis,
    TermOrder,
    WeightVector,
    brute_force_frobenius,
    brute_force_m,
    counting,
    finiteness_report,
    ideal,
    kernel_basis,
    lattice_ideal,
    lcm_generator_classes,
    module_poset,
    modules,
    neighbourhood,
    poset,
)
from genfrob.cli import main
from genfrob.modules import is_exceptional, minimal_generators


@pytest.fixture
def work(monkeypatch):
    counts = {"walks": 0, "tables": 0, "fibers": 0, "covers": 0, "labels": 0, "groebner": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls, key in ((counting.Thresholds, "walks"), (counting.CountTable, "tables")):
        monkeypatch.setattr(cls, "__init__", counted(key, cls.__init__))
    monkeypatch.setattr(poset, "_covers", counted("covers", poset._covers))
    monkeypatch.setattr(poset, "_labels", counted("labels", poset._labels))
    monkeypatch.setattr(ideal, "_buchberger_pairs", counted("groebner", ideal._buchberger_pairs))
    original = counting.fiber
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "genfrob" and vars(mod).get("fiber") is original:
            monkeypatch.setattr(mod, "fiber", counted("fibers", original))
    return counts


def test_module_enumerates_one_fiber_per_generator(work, capsys):
    assert main(["module", "-a", "13,17,29", "-k", "7", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["generators"]) == 10
    assert len(payload["classification"]) == 10
    assert work["fibers"] == 10
    assert work["walks"] == 1


def test_classify_searches_each_coordinates_top_values_only(monkeypatch, capsys):
    # The three generators of (3,5,8) at k = 60 dominate 60, 61 and 62
    # points. Walking their 59-subsets formed C(60, 59) + C(61, 59) +
    # C(62, 59) = 39,710 lcms. The search over coordinate values takes each
    # coordinate from the j + 1 largest values under its prefix, for j
    # points left out, so it reaches at most 2^3 + 3^3 + 4^3 full prefixes.
    # It reaches 4, each an lcm: one for each exceptional generator and two
    # for the third, which classify compares.
    search = modules._value_prefixes
    leaves = 0

    def counted(*args):
        nonlocal leaves
        for leaf in search(*args):
            leaves += 1
            yield leaf

    monkeypatch.setattr(modules, "_value_prefixes", counted)
    assert main(["module", "-a", "3,5,8", "-k", "60", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [len(s) for s in payload["supports"]] == [60, 61, 62]
    assert [c["case"] for c in payload["classification"]] == [
        "Exceptional",
        "Exceptional",
        "SyzygyWithUnit",
    ]
    assert leaves == 4


def test_module_poset_runs_one_walk(work, capsys):
    # The benchmark harness's self-test traces the CountTable span of
    # `poset -a 3,5,8 -k 2`, so the module poset keeps reading its labels'
    # counts from the oracle table.
    for a, k, labels in (("13,17,29", "4", 77), ("3,5,8", "2", 5)):
        work.update(walks=0, tables=0, labels=0, covers=0)
        assert main(["poset", "-a", a, "-k", k, "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["poset"]["labels"]) == labels
        assert work == {**work, "walks": 1, "tables": 1, "labels": 1, "covers": 1}


def test_module_poset_reads_a_few_table_cells_a_node(monkeypatch):
    # One bisection per residue node along its chain of label degrees
    # r, r + a_s, ... up to F_1: at most ceil(log2(F_1 // a_s + 2)) count
    # reads a node, where a pass over the window's table rows reads all of
    # its (F_1 + 1) * index cells. A row read counts its index cells; a
    # read by class (count) or by torsion code goes through cell.
    cells = 0
    row, cell = counting.CountTable.row, counting.CountTable.cell

    def counted_row(self, degree):
        nonlocal cells
        out = row(self, degree)
        cells += len(out)
        return out

    def counted_cell(self, degree, code):
        nonlocal cells
        cells += 1
        return cell(self, degree, code)

    monkeypatch.setattr(counting.CountTable, "row", counted_row)
    monkeypatch.setattr(counting.CountTable, "cell", counted_cell)
    index6 = LatticeBasis(WeightVector((13, 17, 29)), ((-17, 13, 0), (-696, 522, 6)))
    assert index6.index == 6
    for basis in (kernel_basis(WeightVector((211, 223, 227))), index6):
        a_s = min(basis.weight.a)
        for k in range(1, 4):
            cells = 0
            f1 = module_poset(basis, k).f_1
            assert f1 > 4 * a_s
            bound = a_s * basis.index * ((f1 // a_s + 1).bit_length() + 1)
            assert 0 < cells <= bound, (basis.weight.a, k, cells, bound)


def test_structure_poset_builds_its_covers_once(work, capsys):
    for fmt, lines in (("json", None), ("text", 9), ("dot", 19)):
        work.update(walks=0, covers=0)
        assert main(["poset", "-a", "3,5,8", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if lines is not None:
            assert len(out.splitlines()) == lines
        assert work == {**work, "walks": 1, "covers": 1}


def test_finiteness_report_runs_one_walk(work):
    finiteness_report(kernel_basis(WeightVector((13, 17, 29))), 6)
    assert work["walks"] == 1
    # Posets are told apart by their node vectors; only the distinct
    # label sets are expanded, 4 of the 8 posets here.
    work["labels"] = 0
    rep = finiteness_report(kernel_basis(WeightVector((3, 5, 8))), 8)
    assert work["labels"] == len(rep.distinct_label_sets) == 4


def test_finiteness_report_builds_one_table(work):
    # The k-th poset reads degrees m_k .. m_k + F_1 and m_k grows with k,
    # so a table sized for each k in turn was rebuilt 392 times here.
    basis = kernel_basis(WeightVector((13, 17, 29)))
    rep = finiteness_report(basis, 400)
    assert work["tables"] == 1
    assert basis._memo["table"].max_degree == rep.posets[-1].m_k + rep.posets[0].f_1
    # With F_1 = -1 the posets read no table, so none is built.
    finiteness_report(kernel_basis(WeightVector((1, 4, 7))), 5)
    assert work["tables"] == 1


def test_verify_runs_one_walk_and_builds_no_covers(work, capsys):
    assert main(["verify", "-a", "13,17,29", "--k-max", "4"]) == 0
    capsys.readouterr()
    assert work["walks"] == 1
    assert work["tables"] == 1
    assert work["labels"] == 0
    assert work["covers"] == 0


def test_verify_forms_each_ball_point_once(monkeypatch, capsys):
    # The lcm oracle grows one ball across k: radius 19 on (3,5,8) holds
    # 761 points, the origin and 760 formed in 19 steps. A fresh ball per
    # k formed the sum of the balls of radius 0..19, 5,340 points.
    steps = []
    original = neighbourhood._step

    def step(*args):
        out = original(*args)
        steps.append(len(out))
        return out

    for mod in (neighbourhood, modules):
        monkeypatch.setattr(mod, "_step", step)
    assert main(["verify", "-a", "3,5,8", "--k-max", "20"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 80
    assert len(steps) == 19
    assert 1 + sum(steps) == 761


def test_oracle_tables_work_out_their_row_extremes_once(work, monkeypatch, capsys):
    # brute_force_frobenius and brute_force_m scan each degree's least and
    # greatest count for every k; each table works them out on first read.
    builds = [0]
    original = counting.CountTable.__dict__["_extremes"].func

    def extremes(self):
        builds[0] += 1
        return original(self)

    prop = cached_property(extremes)
    prop.__set_name__(counting.CountTable, "_extremes")
    monkeypatch.setattr(counting.CountTable, "_extremes", prop)
    assert main(["verify", "-a", "13,17,29", "--k-max", "4"]) == 0
    capsys.readouterr()
    assert work["tables"] == builds[0] == 1
    K6 = kernel_basis(WeightVector((13, 17, 29)))
    index6 = LatticeBasis(K6.weight, ((-17, 13, 0), (-696, 522, 6)))
    for basis, presized in ((K6, True), (index6, True), (kernel_basis(K6.weight), False)):
        f_values, m_values = counting.kth_degrees(basis, 6)
        if presized:
            counting._oracle_table(basis, f_values[-1] + basis.weight.a[0])
        work["tables"] = builds[0] = 0
        assert tuple(brute_force_frobenius(basis, k) for k in range(1, 7)) == f_values
        assert tuple(brute_force_m(basis, k) for k in range(1, 7)) == m_values
        # without a table sized for k = 6, the scans grow it by doubling
        assert builds[0] == work["tables"] + presized > 0, (basis, presized)
    # At index 1 a degree has one class, so the extremes are the cells.
    least, greatest = K6._memo["table"]._extremes
    assert least is greatest is K6._memo["table"]._cells


def test_a_larger_k_rebuilds_no_oracle_table(work):
    # The oracle table holds exact counts, which answer count >= k for
    # every k: after the F_1 scan, k = 2..4 rebuild it only where a reader
    # needs a deeper degree.
    basis = kernel_basis(WeightVector((13, 17, 29)))
    brute_force_frobenius(basis, 1)
    work["tables"] = 0
    for k in range(2, 5):
        brute_force_m(basis, k)
        module_poset(basis, k)
        lcm_generator_classes(basis, k)
    assert work["tables"] <= 2


def test_oracles_read_one_table_for_every_k(work):
    # A table of F_K + a_1 degrees holds every F_k scan (F_k <= F_K) and
    # every m_k (m_k <= F_k + 1), so once it exists the oracles for
    # k = 1..K read it and build none.
    K6 = kernel_basis(WeightVector((13, 17, 29)))
    index6 = LatticeBasis(K6.weight, ((-17, 13, 0), (-696, 522, 6)))
    for basis, k_max in (
        (K6, 6),
        (index6, 6),
        (kernel_basis(WeightVector((211, 223, 227))), 3),
        (kernel_basis(WeightVector((1, 4, 7))), 3),
    ):
        f_values, m_values = counting.kth_degrees(basis, k_max)
        counting._oracle_table(basis, f_values[-1] + basis.weight.a[0])
        work["tables"] = 0
        ks = range(1, k_max + 1)
        assert tuple(brute_force_frobenius(basis, k) for k in ks) == f_values, basis
        assert tuple(brute_force_m(basis, k) for k in ks) == m_values, basis
        assert work["tables"] == 0, basis


def test_lcm_oracle_labels_only_the_minimal_lcms(monkeypatch):
    # 896 candidate lcms under the cap at k = 5, of which 51 are minimal.
    basis = kernel_basis(WeightVector((31, 37, 41, 43)))
    markov = lattice_ideal(basis)
    basis.units  # the unit classes, labelled once per basis
    labels = [0]
    original = LatticeBasis.label

    def label(self, p):
        labels[0] += 1
        return original(self, p)

    monkeypatch.setattr(LatticeBasis, "label", label)
    assert len(lcm_generator_classes(basis, 5, markov)) == 9
    assert labels[0] == 51


def test_is_exceptional_shares_one_walk_across_generators(work):
    basis = kernel_basis(WeightVector((5, 7, 11, 13)))
    gens = minimal_generators(basis, 4)
    work["walks"] = 0
    flags = [is_exceptional(basis, g, 4) for g in gens.generators]
    assert flags == [False, False, True, False, True]
    assert work["walks"] == 1


# A round of one saturation pass per variable but the cheapest, plus the
# pass in the target order, made n Groebner runs: 7 and 12 below.


def test_ideal_on_seven_variables_makes_two_groebner_runs(work, capsys):
    assert main(["ideal", "-a", "11,13,17,19,23,29,31", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["generators"]) == 21
    assert work["groebner"] <= 2


def test_twelve_variable_markov_basis_makes_one_groebner_run(work):
    mb = lattice_ideal(kernel_basis(WeightVector((11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53))))
    assert len(mb.elements) == 26
    assert work["groebner"] <= 1


def test_markov_bases_never_take_more_groebner_runs_than_variables(work):
    # kernels and sublattices of index 2-6 under the default or a
    # permuted order
    rng = random.Random(1313)
    cases = 0
    while cases < 150:
        n = rng.randint(2, 7)
        a = tuple(rng.randint(1 if rng.random() < 0.25 else 2, 13 if n <= 4 else 9) for _ in range(n))
        if math.gcd(*a) != 1:
            continue
        vecs = [list(v) for v in kernel_basis(WeightVector(a)).vectors]
        if rng.random() < 0.6:
            i, m = rng.randrange(n - 1), rng.randint(2, 6)
            vecs[i] = [m * x for x in vecs[i]]
        B = LatticeBasis(WeightVector(a), tuple(tuple(v) for v in vecs))
        order = TermOrder(B.weight, tuple(rng.sample(range(n), n))) if rng.random() < 0.3 else None
        work["groebner"] = 0
        lattice_ideal(B, order)
        assert 1 <= work["groebner"] <= n, (a, B.vectors, order)
        cases += 1


def test_interreduce_makes_one_tail_normal_form_per_element_kept(monkeypatch):
    # Every caller passes a Groebner basis, so after head minimalisation
    # each tail has one normal form and a single pass reaches it; a
    # repeated pass would make 145 and 376 here.
    depth, counts = [0], {"tails": 0, "kept": 0}
    original_interreduce, original_reduced = ideal._interreduce, ideal._reduced

    def interreduce(G, order):
        depth[0] += 1
        try:
            out = original_interreduce(G, order)
        finally:
            depth[0] -= 1
        counts["kept"] += len(out)
        return out

    def reduced(u, reducers):
        counts["tails"] += depth[0] > 0
        return original_reduced(u, reducers)

    monkeypatch.setattr(ideal, "_interreduce", interreduce)
    monkeypatch.setattr(ideal, "_reduced", reduced)
    for a, elements, tails in (
        ((11, 13, 17, 19, 23, 29, 31), 21, 91),
        ((11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53), 26, 188),
    ):
        counts.update(tails=0, kept=0)
        assert len(lattice_ideal(kernel_basis(WeightVector(a))).elements) == elements
        assert counts == {"tails": tails, "kept": tails}, a


def test_lattice_ideal_pair_schedule_is_pinned(monkeypatch):
    # The normal forms the Groebner runs take, of start pairs and
    # S-pairs, and how many reduce to zero. The pair criteria alone
    # decide both, so a change of how monomials are stored leaves them.
    counts = {"forms": 0, "zero": 0}
    original = ideal._normal_form

    def normal_form(*args):
        out = original(*args)
        counts["forms"] += 1
        counts["zero"] += out is None
        return out

    monkeypatch.setattr(ideal, "_normal_form", normal_form)
    for a, forms, zero in (
        ((11, 13, 17, 19, 23, 29, 31), 282, 217),
        ((11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53), 878, 765),
    ):
        counts.update(forms=0, zero=0)
        lattice_ideal(kernel_basis(WeightVector(a)))
        assert counts == {"forms": forms, "zero": zero}, a


def test_lattice_ideal_builds_one_packing_per_run_and_widening(monkeypatch):
    # A Groebner run builds its packing once and again at each widening,
    # and the last run hands its packing on to the strip and the Markov
    # walk. The 7 primes make two runs, one of which widens once; the 12
    # primes one run that widens once; (3,5,8) one run that never widens.
    builds = [0]
    original = ideal._packing

    def packing(order, width):
        builds[0] += 1
        return original(order, width)

    monkeypatch.setattr(ideal, "_packing", packing)
    for a, want in (
        ((11, 13, 17, 19, 23, 29, 31), 3),
        ((11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53), 2),
        ((3, 5, 8), 1),
    ):
        builds[0] = 0
        lattice_ideal(kernel_basis(WeightVector(a)))
        assert builds[0] == want, a
