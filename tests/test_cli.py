import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import genfrob
from genfrob import WeightVector, class_label, kernel_basis, parse_monomial
from genfrob.cli import main, parse_args

from .oracles import build_parser

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "genfrob.cli", *args],
        capture_output=True,
        text=True,
        env=full_env,
    )


def test_frobenius_prints_17(capsys):
    assert main(["frobenius", "-a", "3,4,11", "-k", "3"]) == 0
    assert capsys.readouterr().out == "17\n"


def test_module_json_generators_match_known_orbits(capsys):
    assert main(["module", "-a", "3,4,11", "-k", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m_k"] == 15
    assert payload["F_k"] == 17
    B = kernel_basis(WeightVector((3, 4, 11)))
    got = {class_label(B, parse_monomial(g, 3)) for g in payload["generators"]}
    want = {class_label(B, (5, 0, 0)), class_label(B, (4, 2, 0))}
    assert got == want


def test_ladder_module_json_matches_recorded_output(capsys):
    # sha256 of the stdout recorded with the fibers enumerated by a full
    # recursion and sorted, supports sorted again per generator
    assert main(["module", "-a", "1001,1003,1007", "-k", "30", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "3477673b5807aa90bc2e61a311a318bb97caef1120b759553a5ee2327e526cd5"


def test_invalid_weights_exit_2():
    res = run_cli(["frobenius", "-a", "1", "-k", "1"])
    assert res.returncode == 2
    res = run_cli(["frobenius", "-a", "2,4", "-k", "1"])
    assert res.returncode == 2


def test_ball_command(capsys):
    assert main(["ball", "-a", "3,4,11", "-k", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 13


def test_ideal_command_text(capsys):
    assert main(["ideal", "-a", "3,5,8"]) == 0
    out = capsys.readouterr().out
    assert "x1*x2 - x3" in out
    assert "x1^5 - x2^3" in out


def test_poset_dot_output(capsys):
    assert main(["poset", "-a", "3,5,8", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph hasse {")
    assert out.count("->") == 8


def test_poset_module_labels(capsys):
    assert main(["poset", "-a", "3,5,8", "-k", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [l[0] for l in payload["poset"]["labels"]] == [0, 3, 5, 6, 7]
    assert payload["m_k"] == 8


def test_sequence_json(capsys):
    assert main(["sequence", "-a", "3,5,8", "--k-max", "6", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["f_values"] == [7, 12, 17, 22, 25, 28]
    assert payload["b_values"] == [7, 4, 1, 1, 1, -1]
    assert payload["dimension"] == 2


def test_verify_exits_zero(capsys):
    assert main(["verify", "-a", "3,5,8", "--k-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "MISMATCH" not in out


def test_verify_over_the_table_budget_exits_2(monkeypatch, capsys):
    # F_1 of (211, 223, 227) is 12,047, so its oracle scan needs a table
    # of more than 12,000 cells; verify asks for that depth at once, so
    # no smaller table is built before the refusal
    from genfrob import counting

    builds = []
    init = counting.CountTable.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(counting.CountTable, "__init__", counted)
    monkeypatch.setattr(counting, "MAX_TABLE_CELLS", 2000)
    assert main(["verify", "-a", "211,223,227", "--k-max", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: a counting table of degrees 0..12258 ")
    assert err.endswith("cells, over the budget of 2000\n")
    assert len(builds) == 1


def test_verify_over_the_ball_budget_exits_2_before_any_check(monkeypatch, capsys):
    # The lcm oracle's ball is grown to radius K - 1 right after the walk,
    # so an over-budget K refuses before any per-k oracle runs. The ball
    # of (3,5,8) holds 2r^2 + 2r + 1 points, 545 at radius 16 and 1,741 at
    # radius 29; a ball per k refused only at k = 17, after 16 F_k scans.
    import genfrob.cli as cli
    from genfrob import neighbourhood

    scans = []
    real = cli.brute_force_frobenius
    monkeypatch.setattr(cli, "brute_force_frobenius", lambda b, k: scans.append(k) or real(b, k))
    monkeypatch.setattr(neighbourhood, "MAX_BALL_POINTS", 500)
    assert main(["verify", "-a", "3,5,8", "--k-max", "30"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: the move ball of radius 29 passes the budget of 500 points at distance 16\n"
    )
    assert scans == []
    # Within the budget the same run answers.
    assert main(["verify", "-a", "3,5,8", "--k-max", "16"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 64
    assert scans == list(range(1, 17))


@pytest.mark.parametrize("argv", [
    ["frobenius", "-a", "3,5,8", "-k", "1_0"],
    ["frobenius", "-a", "3,5,8", "-k", "\u0661\u0660"],
    ["verify", "-a", "3,5,8", "--k-max", "1_0"],
    ["sequence", "-a", "3,5,8", "--k-max=\u0664"],
])
def test_k_options_read_ascii_decimal_digits_only(argv, capsys):
    # int() alone reads "1_0" and the Arabic-Indic digits for 10 as 10, so
    # `frobenius -a 3,5,8 -k 1_0` printed 39, F_10 of (3,5,8).
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid int value" in err.splitlines()[-1]


def test_verify_k_max_below_one_exits_2():
    for k_max in ("0", "-3"):
        res = run_cli(["verify", "-a", "3,5,8", "--k-max", k_max])
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: k_max must be at least 1\n"


def _assert_verify_all_ok(argv, capsys, k_max):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 * k_max
    assert all(line.endswith(" ok") for line in lines), lines


def test_verify_weight_one_two_variables(capsys):
    # F_1 = -1: the module poset is empty by convention, the module is
    # generated by the one class of degree m_k
    _assert_verify_all_ok(["verify", "-a", "1,2"], capsys, 4)


def test_verify_weight_one_three_variables(capsys):
    _assert_verify_all_ok(["verify", "-a", "1,4,7", "--k-max", "3"], capsys, 3)


def test_verify_weight_one_sublattice(tmp_path, capsys):
    # index 2 in the kernel of (1, 2, 4): F_1 = 1, so the window is not empty
    path = tmp_path / "basis.txt"
    path.write_text("-4 2 0\n-4 0 1\n")
    argv = ["verify", "-a", "1,2,4", "--basis", str(path), "--k-max", "3"]
    _assert_verify_all_ok(argv, capsys, 3)


def test_verify_scans_past_several_table_doublings(capsys):
    # verify sizes its one oracle table from the engine's F_k and m_k, so
    # no scan here outgrows it; the doubling scan is covered in test_counting
    _assert_verify_all_ok(["verify", "-a", "211,223,227", "--k-max", "3"], capsys, 3)


def test_ideal_json_ten_variables_matches_recorded_output(capsys):
    # stdout of the implementation with the per-pop chain-criterion rescan,
    # started from the unreduced kernel basis
    weights = "11,13,17,19,23,29,31,37,41,43"
    assert main(["ideal", "-a", weights, "--format", "json"]) == 0
    recorded = Path(__file__).resolve().parent / "data" / "ideal_11_to_43.json"
    assert capsys.readouterr().out == recorded.read_text()


def test_basis_file_input(tmp_path, capsys):
    path = tmp_path / "basis.txt"
    path.write_text("1 2 -1\n4 -3 0\n")
    assert main(["basis", "-a", "3,4,11", "--basis", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["index"] == 1
    assert payload["vectors"] == [[1, 2, -1], [4, -3, 0]]


def test_bad_basis_file_exit_2(tmp_path):
    path = tmp_path / "basis.txt"
    path.write_text("1 0 0\n0 1 0\n")
    res = run_cli(["basis", "-a", "3,4,11", "--basis", str(path)])
    assert res.returncode == 2


def test_weights_and_basis_files_take_only_ascii_decimal_integers(tmp_path, capsys):
    # int() alone reads "3_0" as 30 and the Arabic-Indic digit three as 3
    for weights in ("3_0,7", "\u0663,7", "3,0x7", "3.0,7", "3,+-7"):
        assert main(["frobenius", "-a", weights]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot parse weights"), weights
    path = tmp_path / "basis.txt"
    for line in ("-1_7 13 0", "-17 1\u0663 0"):
        path.write_text(line + "\n-116 87 1\n", encoding="utf-8")
        assert main(["frobenius", "-a", "13,17,29", "--basis", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: bad integer in basis file"), line
    # signs and the spaces around a number are read as before
    assert main(["frobenius", "-a", " +3 , 5,8 "]) == 0
    assert capsys.readouterr().out == "7\n"
    path.write_text("  -17  +13 0\t\n-116 87 1\n")
    assert main(["basis", "-a", "13,17,29", "--basis", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["vectors"] == [[-17, 13, 0], [-116, 87, 1]]


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "-a", "13,17,29", "--basis="],
        ["basis", "-a", "13,17,29", "--basis", ""],
        ["verify", "-a", "13,17,29", "--k-max", "1", "--basis="],
    ],
)
def test_an_empty_basis_path_is_an_unreadable_basis_file(argv, capsys):
    # An empty path names no file; it must not fall back to the kernel basis.
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot read basis file ")


@pytest.mark.parametrize("option", [["-o", ""], ["--output="], ["--output", ""]])
def test_an_empty_output_path_is_an_unwritable_output_file(option, capsys):
    # An empty path names no file; it must not fall back to stdout.
    assert main(["frobenius", "-a", "3,5,8", *option]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write output file ")


def test_verify_refuses_json_format_exit_2():
    # verify prints a text report only; --format json must not be accepted
    # and then ignored.
    res = run_cli(["verify", "-a", "3,5,8", "--k-max", "1", "--format", "json"])
    assert res.returncode == 2
    assert res.stdout == ""
    assert "invalid choice: 'json'" in res.stderr
    assert "Traceback" not in res.stderr


def test_output_deterministic_across_runs():
    r1 = run_cli(["module", "-a", "3,4,11", "-k", "3", "--format", "json"])
    r2 = run_cli(["module", "-a", "3,4,11", "-k", "3", "--format", "json"])
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout


def test_json_round_trips_byte_identically(tmp_path, capsys):
    # every JSON command, on a kernel lattice, a sublattice file and a
    # weight-1 input, prints exactly json.dumps(payload, indent=2) + "\n"
    res = run_cli(["sequence", "-a", "3,5,8", "--k-max", "4", "--format", "json"])
    assert res.returncode == 0
    assert json.dumps(json.loads(res.stdout), indent=2) + "\n" == res.stdout
    sub = tmp_path / "basis.txt"
    sub.write_text("1 2 -1\n8 -6 0\n")  # index 2 in the kernel of (3,4,11)
    commands = [
        ["basis"], ["ideal"], ["ball", "-k", "2"], ["module"], ["module", "-k", "3"],
        ["poset"], ["poset", "-k", "2"], ["frobenius", "-k", "2"], ["sequence", "--k-max", "4"],
    ]
    inputs = [["-a", "3,4,11"], ["-a", "3,4,11", "--basis", str(sub)], ["-a", "1,2"]]
    for command in commands:
        for given in inputs:
            assert main([*command, *given, "--format", "json"]) == 0
            out = capsys.readouterr().out
            assert json.dumps(json.loads(out), indent=2) + "\n" == out, (command, given)
    assert main(["module", "-a", "3,4,11", "-k", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["classification"]
    assert main(["poset", "-a", "1,2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["poset"] == {"labels": [], "hasse": []}


@pytest.mark.parametrize("argv, digest", [
    (["poset", "-a", "211,223,227", "-k", "3"],
     "93dc13e54377a368fb1b3e01f0feaaf5f6196990016187f1d8b3a58e0410bf3f"),
    (["poset", "-a", "101,103,107"],
     "d6595a34e355cfa330d7f48070c577c6cb6fe70b26adfa12490675f59d29f1f8"),
], ids=["211,223,227-k3", "101,103,107"])
def test_ladder_poset_json_matches_recorded_output(argv, digest, capsys):
    # sha256 of the stdout recorded when json.dumps(payload, indent=2)
    # wrote every payload
    assert main([*argv, "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, basis, digest", [
    (["poset", "-a", "211,223,227", "-k", "3"], None,
     "8d5ff1dd7bdd9710afd876d811e77070b2bc3bdfc336b82135c22e6de338d669"),
    (["poset", "-a", "13,17,29", "-k", "3", "--format", "json"], "-17 13 0\n-696 522 6\n",
     "a449a82e80d292558a9a632273a48da3585185bccc827af3f8354566815eb345"),
    (["poset", "-a", "7,9,11", "--format", "json"], "-9 7 0\n-132 99 3\n",
     "f7f36fb879e9951d9b3b3ac22c964caaf2ea22ddd8c989b35547426d8002f79c"),
], ids=["211,223,227-k3-text", "13,17,29-index6-k3", "7,9,11-index3"])
def test_poset_output_matches_recorded_bytes(argv, basis, digest, tmp_path, capsys):
    # sha256 of the stdout recorded when the posets were built class by
    # class, with their covers by class addition; the basis files span
    # sublattices of index 6 and 3
    if basis is not None:
        path = tmp_path / "basis.txt"
        path.write_text(basis)
        argv = [*argv, "--basis", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_structure_poset_over_the_element_budget_exits_2():
    # The walk of (10007, 10009, 10037) has 10,007 entries, well within
    # its budget; its structure poset would have 6,814,762 elements.
    for fmt in ("text", "dot"):
        res = subprocess.run(
            [sys.executable, "-m", "genfrob", "poset", "-a", "10007,10009,10037", "--format", fmt],
            capture_output=True, text=True, timeout=5,
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert "6814762 elements" in res.stderr


def test_module_poset_over_the_element_budget_exits_2():
    # The window of (2001, 2003, 2011) at k = 2 holds 808,401 classes, well
    # within the table budget; listing them is held to the poset budget
    # after the walk, before the table is built. verify lists no labels,
    # so it still answers.
    res = subprocess.run(
        [sys.executable, "-m", "genfrob", "poset", "-a", "2001,2003,2011", "-k", "2"],
        capture_output=True, text=True, timeout=5,
    )
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")
    assert "808401 elements" in res.stderr


@pytest.mark.parametrize("cap", ["5", "abc"])
def test_degree_cap_env_var_is_ignored(cap):
    # The program reads no environment variable; F_2 of (3,5,8) is 12.
    res = run_cli(["frobenius", "-a", "3,5,8", "-k", "2"], env={"GENFROB_DEGREE_CAP": cap})
    assert res.returncode == 0
    assert res.stdout == "12\n"
    assert res.stderr == ""


def test_python_dash_m_genfrob():
    def run(weights, k):
        return subprocess.run(
            [sys.executable, "-m", "genfrob", "frobenius", "-a", weights, "-k", k],
            capture_output=True,
            text=True,
        )

    res = run("3,4,11", "3")
    assert res.returncode == 0
    assert res.stdout == "17\n"
    assert run("2,4", "1").returncode == 2


def test_output_file(tmp_path):
    out = tmp_path / "result.txt"
    res = run_cli(["frobenius", "-a", "3,4,11", "-k", "3", "-o", str(out)])
    assert res.returncode == 0
    assert out.read_text() == "17\n"


def test_verify_mismatch_exits_3(monkeypatch, capsys):
    import genfrob.cli as cli

    monkeypatch.setattr(cli, "brute_force_frobenius", lambda basis, k: -99)
    assert main(["verify", "-a", "3,5,8", "--k-max", "2"]) == 3
    assert "MISMATCH" in capsys.readouterr().out


def run_console_script(args):
    """Run the `genfrob` console script as an installer would generate it.

    The target comes from `[project.scripts]` in pyproject.toml; the child
    imports it, sets `sys.argv[0]` and exits with its return value, so no
    installed package is needed.
    """
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["genfrob"]
    module, func = target.split(":")
    code = (
        "import sys\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'genfrob'\n"
        f"sys.exit({func}())\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
    )


def test_console_script_entry_point():
    res = run_console_script(["frobenius", "-a", "3,4,11", "-k", "3"])
    assert res.returncode == 0
    assert res.stdout == "17\n"
    res = run_console_script(["frobenius", "-a", "2,4", "-k", "1"])
    assert res.returncode == 2


@pytest.mark.skipif(shutil.which("genfrob") is None,
                    reason="genfrob console script not installed on PATH")
def test_installed_console_script_on_path():
    res = subprocess.run(
        ["genfrob", "frobenius", "-a", "3,4,11", "-k", "3"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert res.stdout == "17\n"


def test_verify_lcm_oracle_mismatch_exits_3(monkeypatch, capsys):
    import genfrob.cli as cli

    assert main(["verify", "-a", "3,5,8", "--k-max", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "k=2 lcm oracle orbits=2 ok" in lines
    monkeypatch.setattr(cli, "lcm_generator_classes", lambda basis, k, markov=None: frozenset())
    assert main(["verify", "-a", "3,5,8", "--k-max", "2"]) == 3
    assert "k=1 lcm oracle orbits=0 MISMATCH" in capsys.readouterr().out.splitlines()


def test_verify_poset_line_compares_orbit_sets(monkeypatch, capsys):
    import genfrob.cli as cli
    from genfrob import ModulePoset, QuotientClass

    real = cli.module_poset

    def moved_up(basis, k):
        mp = real(basis, k)
        minimal = frozenset(QuotientClass(c.degree + 1, c.torsion) for c in mp.minimal_elements)
        return ModulePoset(mp.k, mp.m_k, mp.f_1, mp.nodes, minimal, basis)

    monkeypatch.setattr(cli, "module_poset", moved_up)
    # The right number of minimal elements, in the wrong classes.
    assert main(["verify", "-a", "3,5,8", "--k-max", "2"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "k=1 generator orbits=1 poset minimal elements=1 MISMATCH"


def test_verify_m_k_oracle_mismatch_exits_3(monkeypatch, capsys):
    import genfrob.cli as cli

    assert main(["verify", "-a", "3,5,8", "--k-max", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "k=1 pipeline m_k=0 oracle m_k=0 ok"
    assert lines[7] == "k=2 pipeline m_k=8 oracle m_k=8 ok"
    monkeypatch.setattr(cli, "brute_force_m", lambda basis, k: 8 if k == 1 else 9)
    assert main(["verify", "-a", "3,5,8", "--k-max", "2"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "k=1 pipeline m_k=0 oracle m_k=8 MISMATCH"
    assert lines[7] == "k=2 pipeline m_k=8 oracle m_k=9 MISMATCH"
    assert sum(line.endswith(" MISMATCH") for line in lines) == 2


def test_invariant_failure_exits_5_without_traceback(monkeypatch, capsys):
    import importlib

    import genfrob.cli as cli

    def fail(*args, **kwargs):
        raise RuntimeError("invariant broken")

    for name, argv in (
        ("minimal_generators", ["module", "-a", "3,4,11", "-k", "3"]),
        ("lattice_ideal", ["ideal", "-a", "3,5,8"]),
    ):
        with monkeypatch.context() as m:
            m.setattr(cli, name, fail)
            assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.err == "internal error: invariant broken\n"
        assert captured.out == ""
    # the package re-exports the function frobenius under the module's name
    monkeypatch.setattr(importlib.import_module("genfrob.frobenius"), "kth_degrees", fail)
    assert main(["frobenius", "-a", "3,5,8"]) == 5
    assert capsys.readouterr().err == "internal error: invariant broken\n"


def test_output_to_a_missing_directory_or_onto_a_directory_exits_2(tmp_path):
    for target in (tmp_path / "missing" / "out.txt", tmp_path):
        res = run_cli(["frobenius", "-a", "3,5,8", "-o", str(target)])
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: cannot write output file ")
        assert "Traceback" not in res.stderr
        assert res.stdout == ""


def test_poset_dot_with_k_exits_2(capsys):
    assert main(["poset", "-a", "3,5,8", "-k", "-2", "--format", "dot"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: DOT output is for the structure poset only; drop -k\n"
    assert captured.out == ""
    assert main(["poset", "-a", "3,5,8", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph hasse {")


def test_reused_parser_prints_what_a_fresh_process_prints(tmp_path, capsys):
    # No option of one call in a process may carry over into the next.
    assert main(["frobenius", "-a", "3,5,8"]) == 0
    capsys.readouterr()
    target = tmp_path / "module.txt"
    sequence = (
        ["poset", "-k", "2"],
        ["poset"],
        ["module", "-k", "3", "-o", str(target)],
        ["module"],
        ["frobenius", "--format", "json"],
        ["frobenius"],
    )
    for argv in sequence:
        argv = [*argv, "-a", "3,5,8"]
        code = main(argv)
        written = target.read_text() if target.exists() else None
        target.unlink(missing_ok=True)
        got = (code, capsys.readouterr().out, written)
        fresh = subprocess.run([sys.executable, "-m", "genfrob", *argv],
                               capture_output=True, text=True)
        written = target.read_text() if target.exists() else None
        target.unlink(missing_ok=True)
        assert got == (fresh.returncode, fresh.stdout, written), argv
        assert got[1] or got[2]


def test_walk_over_the_memory_budget_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert main(["frobenius", "-a", "3,5", "-k", "100000000"]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error: the residue walk for k = 100000000 needs")
    assert "300000000 list entries" in err


def test_import_pulls_in_none_of_dataclasses_inspect_argparse_gettext_typing():
    # Each costs startup time on every call. The child runs with -S, so
    # modules that site hooks import before genfrob do not hide one.
    code = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "import genfrob.cli\n"
        "print(*sorted(set(sys.modules) - bare))\n"
    )
    # -S drops site-packages from sys.path, so the child is pointed at the
    # genfrob this suite imported.
    env = {**os.environ, "PYTHONPATH": str(Path(genfrob.__file__).parents[1])}
    res = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    added = set(res.stdout.split())
    assert "genfrob.cli" in added
    assert not added & {"dataclasses", "inspect", "argparse", "gettext", "typing"}


# Values of the options, and those that may only be attached to their
# option because a separate word starting with "-" would read as an option.
_VALUES = {
    "weights": ["3,5,8", "3,4,11", "1,2", "7,9,11,13"],
    "basis": ["basis.txt", "dir/b.txt", "-5", ""],
    "output": ["out.txt", "-7", "o"],
    "k": ["1", "3", "0", "-2", "+5"],
    "k_max": ["1", "4", "6", "-3"],
}
_ATTACHED_ONLY = {"weights": ["-3,5", "-1,2"], "output": ["-out.txt"]}
_FLAGS = {
    "weights": ("-a", "--weights"), "basis": (None, "--basis"), "output": ("-o", "--output"),
    "format": (None, "--format"), "k": ("-k", None), "k_max": (None, "--k-max"),
}
_FORMATS = {"poset": ["text", "json", "dot"], "verify": ["text"]}
_K_DEST = {"ball": "k", "module": "k", "poset": "k", "frobenius": "k",
           "sequence": "k_max", "verify": "k_max"}


def _spelled(rng, dest, value, attached_only):
    """One way of writing an option with its value, as a list of words."""
    short, long = _FLAGS[dest]
    forms = []
    if long:
        cut = long[:rng.randrange(3, len(long))]  # a unique prefix: first letters differ
        forms += [[f"{long}={value}"], [f"{cut}={value}"]]
        if not attached_only:
            forms += [[long, value], [cut, value]]
    if short:
        forms.append([short + value])
        if not attached_only:
            forms.append([short, value])
    return rng.choice(forms)


def _valid_argv(rng, command):
    dests = ["weights", "basis", "output", "format"]
    if command in _K_DEST:
        dests.append(_K_DEST[command])
    groups = []
    for dest in dests:
        for _ in range(rng.choice((1, 2)) if dest == "weights" else rng.choice((0, 1, 1, 2))):
            if dest == "format":
                values, attached = _FORMATS.get(command, ["text", "json"]), []
            else:
                values, attached = _VALUES[dest], _ATTACHED_ONLY.get(dest, [])
            value = rng.choice(values + attached)
            groups.append(_spelled(rng, dest, value, value in attached))
    rng.shuffle(groups)
    return [command, *(word for group in groups for word in group)]


def test_table_parser_reads_every_argv_as_the_reference_parser():
    # Every command, options in any order, repeated (the last one wins),
    # cut to a prefix, given with "=", attached to a short option, and
    # negative integers as separate values.
    rng = random.Random(23)
    reference = build_parser()
    commands = ["basis", "ideal", "ball", "module", "poset", "frobenius", "sequence", "verify"]
    corpus = [_valid_argv(rng, commands[i % len(commands)]) for i in range(240)]
    for argv in corpus:
        assert vars(parse_args(argv)) == vars(reference.parse_args(argv)), argv
    words = {word for argv in corpus for word in argv}
    assert {"-k", "-k-2", "--k", "--form", "--weights=-3,5", "-a-3,5", "-o", "-7"} <= words


@pytest.mark.parametrize("argv", [
    ["frobenius"],
    ["frobenius", "-k", "2"],
    ["frobenius", "-a", "3,5", "--bogus"],
    ["frobenius", "-a", "3,5", "-x"],
    ["frobenius", "-a", "3,5", "stray"],
    ["frobenius", "-a", "3,5", "-k", "x"],
    ["frobenius", "-a", "3,5", "-k", "1.5"],
    ["frobenius", "-a", "3,5", "--threads", "2"],
    ["verify", "-a", "3,5", "--format", "json"],
    ["poset", "-a", "3,5", "--format=svg"],
    ["frobenius", "-a"],
    ["frobenius", "-a", "3,5", "--format"],
    ["frobenius", "-a", "3,5", "-k", "--format", "json"],
    ["frobenius", "-a", "-3,5"],
    ["sequence", "-a", "3,5", "-k", "2"],
    ["basis", "-a", "3,5", "-k1"],
    ["frobenius", "-a", "3,5", "--k-max", "2"],
    ["frob", "-a", "3,5"],
    ["-a", "3,5"],
    [],
    ["frobenius", "-a", "3,5", "-k", "1_0"],
    ["sequence", "-a", "3,5", "--k-max", "\u0664"],
])
def test_both_parsers_exit_2_on_malformed_argv(argv, capsys):
    for parse in (parse_args, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: genfrob")


def test_threads_is_an_unrecognized_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobenius", "-a", "3,5", "--threads", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: genfrob frobenius ")
    assert "--threads" not in usage
    assert error == "genfrob frobenius: error: unrecognized arguments: --threads 2"


def _help(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def test_help_lists_every_command_and_its_options(capsys):
    # The names, help strings, options and choices are the reference parser's.
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    helps = {a.dest: a.help for a in commands._choices_actions}
    assert len(helps) == 8
    lines = _help(["-h"], capsys).splitlines()
    for name, text in helps.items():
        assert any(line.split(None, 1) == [name, text] for line in lines), name
    assert _help(["--help"], capsys).splitlines() == lines
    for name, parser in commands.choices.items():
        words = set(_help([name, "--help"], capsys).replace(", ", " ").split())
        for action in parser._actions:
            assert set(action.option_strings) <= words, (name, action.option_strings)
            if action.choices:
                assert "{" + ",".join(action.choices) + "}" in words, name
