"""`poset` output, written in chunks from the posets' codes, against
references built from the posets' class-level API, and its error contract.

The JSON reference is `json.dumps(payload, indent=2) + "\\n"`, with the
payload built from `elements` or `labels`, `covers` and
`minimal_elements`; no part of the CLI's writer takes part in it.
"""
import json
import math
import random

import pytest

import genfrob.cli as cli
import genfrob.poset as poset_module
from genfrob import LatticeBasis, WeightVector, kernel_basis, module_poset, structure_poset


def _sublattice(a, index, i=0):
    """The kernel of a, with basis vector i scaled by index."""
    vecs = [list(v) for v in kernel_basis(WeightVector(a)).vectors]
    vecs[i] = [index * x for x in vecs[i]]
    return LatticeBasis(WeightVector(a), tuple(map(tuple, vecs)))


def _run(basis, argv, tmp_path, capsys):
    """The stdout of a successful `poset` run on basis."""
    path = tmp_path / "basis.txt"
    path.write_text("".join(" ".join(map(str, v)) + "\n" for v in basis.vectors))
    weights = ",".join(map(str, basis.weight.a))
    assert cli.main(["poset", "-a", weights, "--basis", str(path), *argv]) == 0
    return capsys.readouterr().out


def _first_difference(got, want):
    """None when the texts are equal, else the first line where they part
    (a whole-text comparison would make a failure's report very long)."""
    if got == want:
        return None
    pairs = zip(got.splitlines(keepends=True), want.splitlines(keepends=True))
    return next(((i, g, w) for i, (g, w) in enumerate(pairs) if g != w), (len(got), len(want)))


def _label(c):
    return [c.degree, *c.torsion]


def _reference_json(basis, k):
    if k is None:
        poset = structure_poset(basis)
        members = poset.elements
    else:
        poset = module_poset(basis, k)
        members = poset.labels
    payload = {
        "a": list(basis.weight.a),
        "k": k,
        "poset": {
            "labels": [_label(c) for c in sorted(members)],
            "hasse": [[_label(x), _label(y)] for x, y in sorted(poset.covers)],
        },
    }
    if k is not None:
        payload["minimal"] = [_label(c) for c in sorted(poset.minimal_elements)]
        payload["m_k"] = poset.m_k
    return json.dumps(payload, indent=2) + "\n"


def _seeded_bases(seed, count):
    """Kernels and sublattices of index up to 20 on 2 to 4 variables whose
    structure posets have at most 1,500 elements, about a fifth of them
    with a weight of 1 (on a kernel, F_1 = -1 and the posets are empty)."""
    rng = random.Random(seed)
    bases = []
    while len(bases) < count:
        n = rng.randint(2, 4)
        a = [rng.randint(2, 11) for _ in range(n)]
        if rng.random() < 0.2:
            a[rng.randrange(n)] = 1
        if math.gcd(*a) != 1:
            continue
        index = 1 if rng.random() < 0.3 else rng.randint(2, 20)
        basis = _sublattice(tuple(a), index, rng.randrange(n - 1))
        if (structure_poset(basis).f1 + 1) * index <= 1500:
            bases.append(basis)
    return bases


def test_poset_json_matches_json_dumps_of_the_class_level_posets(monkeypatch, tmp_path, capsys):
    # case = one basis: its structure poset and its module posets for
    # k = 1..4, written in chunks of 1 to 3 items so that every list
    # crosses chunk boundaries
    kinds, empty = set(), False
    for case, basis in enumerate(_seeded_bases(3637, 60)):
        monkeypatch.setattr(poset_module, "_CHUNK", 1 + case % 3)
        for k in (None, 1, 2, 3, 4):
            argv = ["--format", "json"] + ([] if k is None else ["-k", str(k)])
            got = _run(basis, argv, tmp_path, capsys)
            assert _first_difference(got, _reference_json(basis, k)) is None, \
                (basis.weight.a, basis.vectors, k)
        kinds.add((len(basis.weight.a), basis.index > 1, 1 in basis.weight.a))
        empty |= structure_poset(basis).f1 < 0
    assert kinds == {(n, sub, one) for n in (2, 3, 4) for sub in (False, True)
                     for one in (False, True)}
    assert empty


def test_poset_json_spanning_several_chunks_matches_json_dumps(tmp_path, capsys):
    # The index-2 sublattice of (101,103,107): 7,678 labels and 22,412
    # covers in the structure poset, 10,841 covers at k = 2.
    basis = _sublattice((101, 103, 107), 2)
    sp = structure_poset(basis)
    assert len(sp.label_codes) > poset_module._CHUNK < len(sp.cover_codes)
    for k in (None, 2):
        argv = ["--format", "json"] + ([] if k is None else ["-k", str(k)])
        got = _run(basis, argv, tmp_path, capsys)
        assert _first_difference(got, _reference_json(basis, k)) is None, k


def _reference_text(basis, k):
    poset = structure_poset(basis) if k is None else module_poset(basis, k)
    members = poset.elements if k is None else sorted(poset.labels)
    lines = ["labels: " + str([_label(c) for c in members])]
    lines += [f"cover: {_label(x)} < {_label(y)}" for x, y in sorted(poset.covers)]
    return "\n".join(lines) + "\n"


def _reference_dot(basis):
    def name(c):
        return f"{c.degree}:" + ",".join(map(str, c.torsion)) if c.torsion else str(c.degree)

    poset = structure_poset(basis)
    lines = ["digraph hasse {", "  rankdir=BT;", *(f'  "{name(c)}";' for c in poset.elements)]
    lines += [f'  "{name(x)}" -> "{name(y)}";' for x, y in sorted(poset.covers)]
    return "\n".join(lines) + "\n}\n"


def test_poset_text_and_dot_match_the_class_level_posets(monkeypatch, tmp_path, capsys):
    # case = one basis: its structure poset as text and as DOT and its
    # module poset at k = 2 as text, in chunks of 1 to 3 items; the DOT
    # text also through poset_to_dot
    empty = False
    for case, basis in enumerate(_seeded_bases(3638, 20)):
        monkeypatch.setattr(poset_module, "_CHUNK", 1 + case % 3)
        for k in (None, 2):
            argv = ["--format", "text"] + ([] if k is None else ["-k", str(k)])
            got = _run(basis, argv, tmp_path, capsys)
            assert _first_difference(got, _reference_text(basis, k)) is None, (basis.vectors, k)
        dot = _reference_dot(basis)
        assert _first_difference(_run(basis, ["--format", "dot"], tmp_path, capsys), dot) is None
        assert _first_difference(poset_module.poset_to_dot(structure_poset(basis)), dot) is None
        empty |= structure_poset(basis).f1 < 0
    assert empty


@pytest.mark.parametrize("argv, message", [
    ("poset -a 10007,10009,10037 --format json", "error: the structure poset has "),
    ("poset -a 2001,2003,2011 -k 2 --format json", "error: the module poset's window has "),
])
def test_an_over_budget_poset_writes_nothing_and_creates_no_output_file(argv, message, tmp_path,
                                                                        capsys):
    target = tmp_path / "poset.json"
    assert cli.main([*argv.split(), "-o", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message)
    assert not target.exists()


def test_an_output_file_gets_the_bytes_of_stdout(tmp_path, capsys):
    argv = ["poset", "-a", "31,37,41", "--format", "json"]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    target = tmp_path / "poset.json"
    assert cli.main([*argv, "-o", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == stdout
