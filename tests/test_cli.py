import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from genfrob import WeightVector, class_label, kernel_basis, parse_monomial
from genfrob.cli import main

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


def test_output_deterministic_across_runs():
    r1 = run_cli(["module", "-a", "3,4,11", "-k", "3", "--format", "json"])
    r2 = run_cli(["module", "-a", "3,4,11", "-k", "3", "--format", "json"])
    assert r1.returncode == r2.returncode == 0
    assert r1.stdout == r2.stdout
    r3 = run_cli(["module", "-a", "3,4,11", "-k", "3", "--format", "json",
                  "--threads", "4"])
    assert r3.stdout == r1.stdout


def test_json_round_trips_byte_identically():
    res = run_cli(["sequence", "-a", "3,5,8", "--k-max", "4", "--format", "json"])
    assert res.returncode == 0
    reparsed = json.dumps(json.loads(res.stdout), indent=2) + "\n"
    assert reparsed == res.stdout


def test_degree_cap_env_var():
    good = run_cli(["frobenius", "-a", "3,5,8", "-k", "2"],
                   env={"GENFROB_DEGREE_CAP": "40"})
    assert good.returncode == 0
    assert good.stdout == "12\n"
    bad = run_cli(["frobenius", "-a", "3,5,8", "-k", "2"],
                  env={"GENFROB_DEGREE_CAP": "5"})
    assert bad.returncode == 2


def test_degree_cap_env_var_not_an_integer():
    res = run_cli(["frobenius", "-a", "3,5,8"], env={"GENFROB_DEGREE_CAP": "abc"})
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert "GENFROB_DEGREE_CAP" in res.stderr
    assert "Traceback" not in res.stderr


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
