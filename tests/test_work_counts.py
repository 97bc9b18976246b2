"""How much work the module and poset layers do per basis.

Work is counted where it is done, not where it is asked for:
``Thresholds.__init__`` runs once per residue-graph walk and
``CountTable.__init__`` once per counting table built, however many
callers share them. ``counting.fiber`` (one fiber enumeration) is
wrapped at every place a ``genfrob`` module binds it, and
``poset._covers`` (one Hasse cover build) where ``poset`` calls it.
"""
import json
import sys

import pytest

from genfrob import WeightVector, counting, finiteness_report, kernel_basis, poset
from genfrob.cli import main
from genfrob.modules import is_exceptional, minimal_generators


@pytest.fixture
def work(monkeypatch):
    counts = {"walks": 0, "tables": 0, "fibers": 0, "covers": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls, key in ((counting.Thresholds, "walks"), (counting.CountTable, "tables")):
        monkeypatch.setattr(cls, "__init__", counted(key, cls.__init__))
    monkeypatch.setattr(poset, "_covers", counted("covers", poset._covers))
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


def test_module_poset_runs_one_walk(work, capsys):
    assert main(["poset", "-a", "13,17,29", "-k", "4", "--format", "json"]) == 0
    capsys.readouterr()
    assert work["walks"] == 1


def test_finiteness_report_runs_one_walk(work):
    finiteness_report(kernel_basis(WeightVector((13, 17, 29))), 6)
    assert work["walks"] == 1


def test_verify_runs_one_walk_and_builds_no_covers(work, capsys):
    assert main(["verify", "-a", "13,17,29", "--k-max", "4"]) == 0
    capsys.readouterr()
    assert work["walks"] == 1
    assert work["tables"] <= 8
    assert work["covers"] == 0


def test_is_exceptional_shares_one_walk_across_generators(work):
    basis = kernel_basis(WeightVector((5, 7, 11, 13)))
    gens = minimal_generators(basis, 4)
    work["walks"] = 0
    flags = [is_exceptional(basis, g, 4) for g in gens.generators]
    assert flags == [False, False, True, False, True]
    assert work["walks"] == 1
