"""Planted faults: each engine stage's fault that changes printed output is
caught by ``verify``.

One fault at a time is planted in the residue walk's ``Thresholds`` or in
``lattice_ideal``. A basis's printed output is what ``sequence --format
json``, ``ideal --format json``, ``ball -k 3 --format json``, and
``frobenius -k k``, ``module -k k --format json`` and ``poset -k k
--format json`` for k <= K print with their exit codes. Where a fault
changes it, compared with an unfaulted run, ``verify --k-max K`` must
exit 3 with a MISMATCH line, or exit 5 on an internal check. A fault
that changes nothing printed is not a miss, but each fault must change
printed output on some basis, or the case shows nothing.

A fault planted in an oracle that ``verify`` alone runs changes nothing
printed; ``verify`` must then exit 0 or report a MISMATCH, and report
one on some basis.
"""
import pytest

from genfrob import QuotientClass, cli, ideal, modules
from genfrob.cli import main
from genfrob.counting import Thresholds
from genfrob.ideal import MarkovBasis

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


def lower_m2(monkeypatch):
    """The walk's m_2 is one less than it works out."""
    real = Thresholds.__init__

    def init(self, basis, reached, offsets, s, f, m):
        m = list(m)
        if len(m) >= 2:
            m[1] -= 1
        real(self, basis, reached, offsets, s, f, m)

    monkeypatch.setattr(Thresholds, "__init__", init)


def rotate_last_atom_map(monkeypatch):
    """The last atom's node map sends each node where the next one goes."""
    real = Thresholds.atom_maps.func

    def atom_maps(self):
        *maps, (d, last) = real(self)
        return (*maps, (d, last[1:] + last[:1]))

    monkeypatch.setattr(Thresholds, "atom_maps", property(atom_maps))


def drop_last_markov_element(monkeypatch):
    """lattice_ideal leaves out the last element of the Markov basis."""
    real = ideal.lattice_ideal

    def lattice_ideal(basis, order=None):
        markov = real(basis, order)
        return MarkovBasis(basis, markov.elements[:-1])

    for module in (ideal, modules, cli):
        monkeypatch.setattr(module, "lattice_ideal", lattice_ideal)


def _strip_nothing(monkeypatch, last):
    """lattice_ideal's last run (or, with last False, its saturation
    passes) strips no common factor from the elements it adds."""
    real = ideal._buchberger_pairs

    def run(pairs, order, strip=0):
        if (strip == (1 << len(order.perm)) - 1) == last:
            strip = 0
        return real(pairs, order, strip)

    monkeypatch.setattr(ideal, "_buchberger_pairs", run)


def strip_nothing_in_the_last_run(monkeypatch):
    _strip_nothing(monkeypatch, True)


def strip_nothing_in_saturation_passes(monkeypatch):
    _strip_nothing(monkeypatch, False)


def lower_lcm_cap(monkeypatch):
    """The lcm oracle's degree cap, m_k + max(F_1, 0), is one less."""
    real = modules.kth_degrees

    def kth_degrees(basis, k):
        f, m = real(basis, k)
        return f, (*m[:-1], m[-1] - 1)

    monkeypatch.setattr(modules, "kth_degrees", kth_degrees)


def run(capsys, argv):
    """(exit code, stdout), with an exception that escapes main, a
    traceback from the CLI, standing for the exit code."""
    try:
        code = main(argv)
    except Exception as exc:
        code = repr(exc)
    return code, capsys.readouterr().out


def printed(capsys, opts):
    commands = [["sequence", "--k-max", str(K), "--format", "json"],
                ["ideal", "--format", "json"], ["ball", "-k", "3", "--format", "json"]]
    for k in map(str, range(1, K + 1)):
        commands += [["frobenius", "-k", k], ["module", "-k", k, "--format", "json"],
                     ["poset", "-k", k, "--format", "json"]]
    return [run(capsys, [*command, *opts]) for command in commands]


def clean_cases(capsys, tmp_path):
    """(options, unfaulted printed output) of each basis, whose verify exits 0."""
    cases = []
    for i, (weights, rows) in enumerate(BASES):
        opts = ["-a", weights]
        if rows is not None:
            path = tmp_path / f"basis{i}"
            path.write_text(rows)
            opts += ["--basis", str(path)]
        assert run(capsys, ["verify", "--k-max", str(K), *opts])[0] == 0
        cases.append((opts, printed(capsys, opts)))
    return cases


@pytest.mark.parametrize("plant", [raise_top_node, drop_last_minimal_node, shift_torsion, raise_f2,
                                   lower_m2, rotate_last_atom_map, drop_last_markov_element,
                                   strip_nothing_in_the_last_run, strip_nothing_in_saturation_passes])
def test_verify_catches_each_fault_that_changes_output(plant, monkeypatch, capsys, tmp_path):
    cases = clean_cases(capsys, tmp_path)
    plant(monkeypatch)
    changed = 0
    for opts, clean in cases:
        if printed(capsys, opts) == clean:
            continue
        changed += 1
        code, out = run(capsys, ["verify", "--k-max", str(K), *opts])
        assert code == 5 or (code == 3 and "MISMATCH" in out), (opts, code, out)
    assert changed


@pytest.mark.parametrize("plant", [lower_lcm_cap])
def test_verify_reports_each_oracle_fault(plant, monkeypatch, capsys, tmp_path):
    cases = clean_cases(capsys, tmp_path)
    plant(monkeypatch)
    caught = 0
    for opts, clean in cases:
        assert printed(capsys, opts) == clean, opts
        code, out = run(capsys, ["verify", "--k-max", str(K), *opts])
        assert code == 0 or (code == 3 and "MISMATCH" in out), (opts, code, out)
        caught += code == 3
    assert caught


@pytest.mark.parametrize("k", ["1", "2", "3"])
def test_module_on_a_generator_class_with_no_point_is_an_internal_error(k, monkeypatch, capsys, tmp_path):
    # The shifted torsion hands minimal_generators a class with an empty
    # fiber on the index-6 sublattice; that is an engine defect, exit 5.
    path = tmp_path / "index6.basis"
    path.write_text(BASES[1][1])
    shift_torsion(monkeypatch)
    assert main(["module", "-k", k, "--format", "json", "-a", "13,17,29", "--basis", str(path)]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal error: no nonnegative point in a generator class")
