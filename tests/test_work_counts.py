"""How often the module and poset layers run the residue walk and enumerate fibers.

``counting.thresholds`` (one residue-graph walk) and ``counting.fiber``
(one fiber enumeration) are wrapped at every place a ``genfrob`` module
binds them, so calls from inside ``counting`` are counted too.
"""
import json
import sys

import pytest

from genfrob import WeightVector, counting, finiteness_report, kernel_basis
from genfrob.cli import main


@pytest.fixture
def calls(monkeypatch):
    counts = {"thresholds": 0, "fiber": 0}
    for name in counts:
        original = getattr(counting, name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "genfrob" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


def test_module_enumerates_one_fiber_per_generator(calls, capsys):
    assert main(["module", "-a", "13,17,29", "-k", "7", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["generators"]) == 10
    assert len(payload["classification"]) == 10
    assert calls["fiber"] == 10


def test_module_poset_runs_two_walks(calls, capsys):
    assert main(["poset", "-a", "13,17,29", "-k", "4", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls["thresholds"] == 2


def test_finiteness_report_runs_at_most_two_walks_per_k_plus_one(calls):
    finiteness_report(kernel_basis(WeightVector((13, 17, 29))), 6)
    assert calls["thresholds"] <= 2 * 6 + 1


def test_verify_runs_at_most_five_walks_per_k(calls, capsys):
    assert main(["verify", "-a", "13,17,29", "--k-max", "4"]) == 0
    capsys.readouterr()
    assert calls["thresholds"] <= 5 * 4
