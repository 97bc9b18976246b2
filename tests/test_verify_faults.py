"""Planted faults: each engine stage's fault that changes printed output is
caught by ``verify``.

One fault at a time is planted in the residue walk's ``Thresholds``. A
basis's printed output is what ``frobenius -k k``, ``sequence --format
json``, ``module -k k --format json`` and ``poset -k k --format json``
print with their exit codes, for k <= K. Where a fault changes it, compared
with an unfaulted run, ``verify --k-max K`` must exit 3 with a MISMATCH
line, or exit 5 on an internal check. A fault that changes nothing printed
is not a miss, but each fault must change printed output on some basis,
or the case shows nothing.
"""
import pytest

from genfrob import QuotientClass
from genfrob.cli import main
from genfrob.counting import Thresholds

K = 5
# Kernels on 3 and 4 variables, and the index-6 sublattice of (13, 17, 29)
# whose counting table gathers each block through the torsion permutation.
BASES = [
    ("3,5,8", None),
    ("13,17,29", "-17 13 0\n-696 522 6\n"),
    ("13,17,29", None),
    ("31,37,41,43", None),
]


def raise_top_node(monkeypatch):
    """least_degrees raises the top-ranked node's t_k by a_s for k >= 2."""
    real = Thresholds.least_degrees

    def least_degrees(self, k):
        t = real(self, k)
        if k >= 2:
            t[t.index(max(t))] += self.a_s
        return t

    monkeypatch.setattr(Thresholds, "least_degrees", least_degrees)


def drop_last_minimal_node(monkeypatch):
    real = Thresholds.minimal_nodes
    monkeypatch.setattr(Thresholds, "minimal_nodes", lambda self, least: real(self, least)[:-1])


def shift_torsion(monkeypatch):
    """node_class adds 1 to the first torsion coordinate (sublattices only)."""
    real = Thresholds.node_class

    def node_class(self, node, d):
        c = real(self, node, d)
        if not c.torsion:
            return c
        return QuotientClass(c.degree, ((c.torsion[0] + 1) % self._moduli[0], *c.torsion[1:]))

    monkeypatch.setattr(Thresholds, "node_class", node_class)


def raise_f2(monkeypatch):
    """The walk's F_2 is one more than it works out."""
    real = Thresholds.__init__

    def init(self, basis, reached, offsets, s, f, m):
        f = list(f)
        if len(f) >= 2:
            f[1] += 1
        real(self, basis, reached, offsets, s, f, m)

    monkeypatch.setattr(Thresholds, "__init__", init)


def run(capsys, argv):
    """(exit code, stdout), with an exception that escapes main, such as
    the IndexError of ``module`` on a generator class with an empty fiber,
    standing for the exit code."""
    try:
        code = main(argv)
    except Exception as exc:
        code = repr(exc)
    return code, capsys.readouterr().out


def printed(capsys, opts):
    commands = [["sequence", "--k-max", str(K), "--format", "json"]]
    for k in map(str, range(1, K + 1)):
        commands += [["frobenius", "-k", k], ["module", "-k", k, "--format", "json"],
                     ["poset", "-k", k, "--format", "json"]]
    return [run(capsys, [*command, *opts]) for command in commands]


@pytest.mark.parametrize("plant", [raise_top_node, drop_last_minimal_node, shift_torsion, raise_f2])
def test_verify_catches_each_fault_that_changes_output(plant, monkeypatch, capsys, tmp_path):
    cases = []
    for i, (weights, rows) in enumerate(BASES):
        opts = ["-a", weights]
        if rows is not None:
            path = tmp_path / f"basis{i}"
            path.write_text(rows)
            opts += ["--basis", str(path)]
        assert run(capsys, ["verify", "--k-max", str(K), *opts])[0] == 0
        cases.append((opts, printed(capsys, opts)))
    plant(monkeypatch)
    changed = 0
    for opts, clean in cases:
        if printed(capsys, opts) == clean:
            continue
        changed += 1
        code, out = run(capsys, ["verify", "--k-max", str(K), *opts])
        assert code == 5 or (code == 3 and "MISMATCH" in out), (opts, code, out)
    assert changed
