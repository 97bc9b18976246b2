"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench/test_harness.py
The tracer test imports genfrob from src/.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from layertrace import layer_self_times  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    # cli.main 0..10 contains poset 1..9, which contains counting 2..4 and
    # 5..6 and 0.5 s of hot lattice calls; a second top-level span 10..12.
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0.0],
        ["poset.structure_poset", 1.0, 9.0, 0, 0.5],
        ["counting.CountTable", 2.0, 4.0, 1, 0.0],
        ["counting.CountTable", 5.0, 6.0, 1, 0.0],
        ["cli.main", 10.0, 12.0, -1, 0.0],
    ]
    got = layer_self_times(spans, {"lattice": 0.5})
    assert got == {"cli": 2.0 + 2.0, "poset": 8.0 - 3.0 - 0.5, "counting": 3.0, "lattice": 0.5}
    assert sum(got.values()) == 12.0


def test_one_byte_change_is_a_failure():
    golden = json.loads((HERE / "golden_seed0.json").read_text())
    entry = golden["module-deep"][0]
    same = {"exit": entry["exit"], "stdout": entry["stdout"]}
    assert checks.check_golden(same, entry) == []
    text = entry["stdout"]
    flipped = text[:100] + chr(ord(text[100]) ^ 1) + text[101:]
    assert len(flipped) == len(text)
    assert checks.check_golden({"exit": entry["exit"], "stdout": flipped}, entry)
    # Through the harness: the changed instance is the one failure counted.
    import run

    instances = workloads.build("module-deep", workloads.DEFAULT_SEED)
    results = [{"exit": g["exit"], "stdout": g["stdout"]} for g in golden["module-deep"]]
    good = {"results": results}
    bad = {"results": [dict(results[0], stdout=flipped)] + results[1:]}
    argvs = [i["argv"] for i in instances]
    attempted, failed, _, _ = run.check_passes("module-deep", 0, instances, [good, bad], argvs)
    assert (attempted, failed) == (8, 1)
    verify_out = "k=1 pipeline F_k=3 oracle F_k=3 ok\nk=1 m_k module=4 poset=4 ok\n"
    assert checks.check_verify({"exit": 0, "stdout": verify_out}) == []
    assert checks.check_verify({"exit": 0, "stdout": verify_out.replace(" ok\n", " ok \n", 1)})


def test_workloads_rebuild_identically_from_a_seed():
    for name in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, 1, 12345):
            assert workloads.build(name, seed) == workloads.build(name, seed)
    seeds = range(1, 30)
    assert len({json.dumps(workloads.build("module-deep", s)) for s in seeds}) > 1


def test_default_seed_is_the_named_instance_list():
    golden = json.loads((HERE / "golden_seed0.json").read_text())
    for name in workloads.WORKLOADS:
        built = workloads.build(name, workloads.DEFAULT_SEED)
        assert [i["argv"] for i in built] == [g["argv"] for g in golden[name]]
    assert workloads.build("poset-wide", 0)[0]["argv"][2] == "31,37,41"


def test_consistency_checks_accept_the_golden_outputs():
    golden = json.loads((HERE / "golden_seed0.json").read_text())
    for name in workloads.WORKLOADS:
        for inst, g in zip(workloads.build(name, workloads.DEFAULT_SEED), golden[name]):
            if g["stdout"] is not None:
                res = {"exit": g["exit"], "stdout": g["stdout"], "error": None}
                assert checks.check_consistency(inst, res) == [], inst["argv"]


def test_structure_pool_stays_in_its_size_band():
    for w in workloads.STRUCTURE_POOL:
        assert 289 <= workloads.frobenius_oracle(w, 1)[0] + 1 <= 299, w


def test_oracle_and_kernel_basis():
    assert workloads.frobenius_oracle((3, 5, 8), 1) == (7, 0)
    assert workloads.frobenius_oracle((1, 4, 7), 1) == (-1, 0)
    assert workloads.frobenius_oracle((1001, 1003, 1007), 20) == (373371, 57171)
    for w in ((7, 9, 11), (5, 7, 11, 13), (101, 103, 107)):
        for v in workloads.kernel_basis(w):
            assert sum(a * x for a, x in zip(w, v)) == 0


TRACER_CHECK = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import genfrob.cli, genfrob.counting
from layertrace import Tracer

argv = ["poset", "-a", "3,5,8", "-k", "2", "--format", "json"]
plain = io.StringIO()
with contextlib.redirect_stdout(plain):
    genfrob.cli.main(argv)
original = genfrob.counting.m_value
tracer = Tracer()
tracer.install()
for mod in ("counting", "frobenius", "modules", "poset", "cli"):
    assert getattr(sys.modules["genfrob." + mod], "m_value").__wrapped__ is original, mod
traced = io.StringIO()
with contextlib.redirect_stdout(traced):
    genfrob.cli.main(argv)
assert plain.getvalue() == traced.getvalue()
dump = tracer.dump()
names = {s[0] for s in dump["spans"]}
assert {"cli.main", "poset.module_poset", "counting.m_value", "counting.CountTable"} <= names, names
assert dump["counters"]["lattice.class_ops"] > 0
print("ok")
"""


def test_tracer_keeps_outputs_and_wraps_every_import_site():
    env = {"PYTHONPATH": str(HERE.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", TRACER_CHECK, str(HERE)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.stdout.strip() == "ok", proc.stderr
