"""The CLI smoke table: the north star's ladder, budgets and edge inputs.

Each row runs one command under ``timeout`` and checks what it printed.
A command starting ``genfrob`` runs the installed script, one starting
``python`` this interpreter on this checkout's ``src``; ``{tmp}`` is the
row's temporary directory, holding the BASES files. Every row also
requires no traceback on stderr, and an empty stdout on exit 2.

Not named ``test_*.py``, so tier-1 does not collect it. With ``genfrob``
on PATH: ``python -m pytest -q -W error tests/smoke.py``.
"""
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Sublattices of (13, 17, 29): index 6, so the counting table gathers each
# block through the torsion permutation; index 10000, over the table
# budget; index 5000.
BASES = {
    "index6.basis": "-17 13 0\n-696 522 6\n",
    "index10000.basis": "-1700 1300 0\n-11600 8700 100\n",
    "index5000.basis": "-17 13 0\n-580000 435000 5000\n",
}


class Row(NamedTuple):
    cmd: str
    limit: int  # seconds, enforced by timeout (exit 124)
    exit: int = 0
    rss_mb: int | None = None  # peak RSS must stay below this
    lines: int | None = None  # stdout line count
    ok: bool = False  # every stdout line ends in " ok"
    stdout: str | None = None  # exact stdout
    sha256: str | None = None  # of stdout
    json: Callable[[str], bool] | None = None  # a predicate on stdout
    stderr: str | None = None  # exact stderr
    err: str | None = None  # stderr's start
    err_last: str | None = None  # stderr's last line
    err_lacks: str | None = None  # a pattern no stderr line matches
    no_file: bool = False  # the -o file is not there afterwards


def indented(out: str) -> bool:
    return out == json.dumps(json.loads(out), indent=2) + "\n"


def cases(*names: str) -> Callable[[str], bool]:
    return lambda out: [c["case"] for c in json.loads(out)["classification"]] == list(names)


def generators(n: int) -> Callable[[str], bool]:
    return lambda out: len(json.loads(out)["generators"]) == n


EXC = "Exceptional"
PRIMES_12 = "11,13,17,19,23,29,31,37,41,43,47,53"

ROWS = [
    # The README's --format json examples, byte for byte.
    Row("genfrob sequence -a 3,5,8 --k-max 6 --format json", 20, json=indented),
    Row("genfrob ball -a 3,4,11 -k 2 --format json", 20, json=indented),
    Row("genfrob module -a 3,4,11 -k 3 --format json", 20, json=indented),
    Row("genfrob poset -a 3,5,8 -k 2 --format json", 20, json=indented),
    Row("genfrob --help", 20, stderr=""),
    Row("genfrob verify --help", 20, stderr=""),
    # -S leaves out site, so modules its hooks import do not count.
    Row('python -S -X importtime -c "import genfrob.cli"', 20,
        err_lacks=r"\| +(dataclasses|inspect|argparse|gettext|typing)$"),
    # verify: the time limits turn a cliff in the module-poset or oracle
    # layers into a failure; the sha256 was recorded with a fiber per orbit.
    Row("python -m genfrob verify -a 1001,1003,1007 --k-max 2", 20, lines=8, ok=True),
    Row("python -m genfrob verify -a 2001,2003,2007,2011,2017 --k-max 2", 20, rss_mb=100,
        lines=8, ok=True,
        sha256="4e351f0361eb98296d3e00d801d50b41c551840b9905656e9a7ef2c310a242fe"),
    Row("genfrob verify -a 13,17,29 --basis {tmp}/index6.basis --k-max 6", 20, lines=24, ok=True),
    Row("python -m genfrob verify -a 31,37,41,43 --k-max 7", 20, lines=28, ok=True),
    Row("genfrob verify -a 101,103,107 --k-max 20", 20, lines=80, ok=True),
    Row("python -m genfrob verify -a 3,5,8 --k-max 100", 20, lines=400, ok=True),
    Row("genfrob verify -a 3,5,8 --k-max 200", 20, lines=800, ok=True),
    # The lcm oracle's ball passes its budget right after the walk.
    Row("python -m genfrob verify -a 3,5,8 --k-max 800", 30, exit=2,
        err="error: the move ball of radius 799"),
    Row("genfrob module -a 3,5,8 -k 100 --format json", 20, json=cases(EXC, EXC, "SyzygyWithUnit"),
        sha256="4b575606bf9255fa65225b60aea8f771e63c7af8a360ddd248c80fbdbf1212be"),
    Row("genfrob module -a 3,5,8 -k 1000 --format json", 20, json=cases(EXC, EXC, EXC),
        sha256="b221227ce64ae967488dc9a9d327ca9a12aa0792bf74e3f13ae2ba2fcdfba895"),
    Row("python -m genfrob verify -a 10007,10009,10037 --k-max 1", 5, exit=2,
        err="error: a counting table "),
    # The residue walk. The RSS bound catches a walk that stops sharing its
    # lists along the runs of a cycle; a weight that is a multiple of the
    # smallest gives cycles of length 1.
    Row("python -m genfrob frobenius -a 100003,100019,100043 -k 50", 20, rss_mb=100,
        stdout="2015760495\n",
        sha256="75f3b42564c594644a0bfddebf7f71eb82792f083a3d635fe48d700d34a873d2"),
    Row("python -m genfrob frobenius -a 10007,10009,10037,10039,10061 -k 100", 20,
        stdout="3862890\n"),
    Row("python -m genfrob frobenius -a 1001,1003,2002 -k 20", 20, stdout="1040037\n"),
    Row("python -m genfrob frobenius -a 101,103,202 -k 100", 20, stdout="25349\n"),
    # Posets, and their budgets refused before any element or table.
    Row("python -m genfrob poset -a 1001,1003,1007 -k 2", 20, lines=499010,
        sha256="bbc0532d42eb3f98facb5922b84c36d924b924deae124114b3eca54422d48447"),
    Row("python -m genfrob poset -a 1001,1003,1007 --format json", 20, rss_mb=200, lines=9029944,
        sha256="d747d2d4caf86ecc4629cec4a64d7d1d404ce74ca3c5a4eb3582bcad7ae00dbd"),
    Row("python -m genfrob poset -a 10007,10009,10037", 5, exit=2,
        err="error: the structure poset"),
    Row("python -m genfrob poset -a 10007,10009,10037 --format json -o {tmp}/poset.json", 5,
        exit=2, err="error: the structure poset", no_file=True),
    Row("python -m genfrob poset -a 2001,2003,2011 -k 2", 5, exit=2,
        err="error: the module poset"),
    # The move ball: 903,015 lines at radius 300; a budget passed at
    # distance 707.
    Row("genfrob ball -a 3,5,8 -k 300 --format json", 20, lines=903015,
        sha256="cb8eacb58e2fdb6438b0653cad0a3eb9c9dd7cc37b178f945ed98e4972c1b190"),
    Row("genfrob ball -a 3,5,8 -k 100000", 20, exit=2, err="error: the move ball"),
    # Edge inputs: a weight of 1 (F_1 = -1), two variables, an index-10000
    # sublattice, a k past the walk budget, the removed --threads option
    # and integers that int() alone would misread (3_0 as 30, 1_0 as 10).
    Row("genfrob frobenius -a 1,4,7 -k 3", 10, stdout="6\n"),
    Row("genfrob sequence -a 2,3 --k-max 4", 10),
    Row("genfrob verify -a 2,3 --k-max 3", 10, lines=12, ok=True),
    Row("genfrob verify -a 1,4,7 --k-max 3", 10, lines=12, ok=True),
    Row("genfrob verify -a 13,17,29 --basis {tmp}/index10000.basis", 10, exit=2,
        err="error: a counting table "),
    Row("genfrob frobenius -a 3,5,8 -k 99999999999999999999", 10, exit=2,
        err="error: the residue walk"),
    Row("genfrob frobenius -a 3,5 --threads 2", 10, exit=2,
        err_last="genfrob frobenius: error: unrecognized arguments: --threads 2"),
    Row("genfrob frobenius -a 3_0,7", 10, exit=2, err="error: cannot parse weights "),
    Row("genfrob frobenius -a 3,5,8 -k 1_0", 10, exit=2,
        err_last="genfrob frobenius: error: argument -k: invalid int value: '1_0'"),
    # Markov bases: the unit tests count elements only, so a slower Groebner
    # kernel would pass them; the 15-variable bytes pin the packed strip,
    # and degrees near 10^10 the field width.
    Row(f"python -m genfrob ideal -a {PRIMES_12} --format json", 20, json=generators(26)),
    Row(f"genfrob ideal -a {PRIMES_12},59,61,67 --format json", 20, json=generators(29),
        sha256="8cb470b12b1c2408a05565afe5ce94bc512662999497eeeed49dd1a28ba3ed25"),
    Row("genfrob ideal -a 100003,100019", 20, stdout="x1^100019 - x2^100003\n"),
    # Ladder inputs near 10^6, the walk budget at K = 1, a long sequence
    # and a module on an index-5000 sublattice.
    Row("genfrob frobenius -a 1000003,1000033,1000037 -k 1", 20, rss_mb=200,
        stdout="58839176963\n",
        sha256="dfef84be9404faefbc5a2b8e8ceda06adc1630acd2c9d982645a3de36e8cd574"),
    Row("genfrob frobenius -a 7999999,8000001,8000003 -k 1", 5, exit=2, rss_mb=50,
        err="error: the residue walk"),
    Row("genfrob sequence -a 13,17,29 --k-max 2000", 20, lines=2001,
        sha256="fce2c7334ff923eb4d19ff57a7c03a91ee1d1f17fa7b12e480a4b25c6309d0be"),
    Row("genfrob module -a 13,17,29 --basis {tmp}/index5000.basis -k 3", 20, rss_mb=50,
        sha256="9bb21edcdb3b59f708e46cacd13eaf602d3e489a262b77041e6d5a8c6e271f53"),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.cmd for row in ROWS])
def test_row(row: Row, tmp_path: Path) -> None:
    for name, vectors in BASES.items():
        (tmp_path / name).write_text(vectors)
    argv = shlex.split(row.cmd.format(tmp=tmp_path))
    env = dict(os.environ)
    if argv[0] == "python":
        argv[0] = sys.executable
        env["PYTHONPATH"] = str(SRC)
    out_path, err_path = tmp_path / "stdout", tmp_path / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        child = subprocess.Popen(["timeout", str(row.limit), *argv],
                                 stdout=out, stderr=err, env=env)
    # wait4 on timeout gives the peak RSS of timeout and of the command it
    # waited for, this row's alone; getrusage(RUSAGE_CHILDREN) would give
    # the largest peak of every row run so far in this process. timeout,
    # exec'd from a vfork of this process, starts at this process's peak
    # RSS (about 35 MB), so no output is read whole here.
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = code = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text()
    assert code == row.exit, f"exit {code}{' (timed out)' * (code == 124)}\n{stderr}"
    assert "Traceback" not in stderr, stderr
    assert code != 2 or out_path.stat().st_size == 0
    if row.rss_mb is not None:
        assert usage.ru_maxrss / 1024 < row.rss_mb, f"peak RSS {usage.ru_maxrss / 1024:.0f} MB"
    digest, lines = hashlib.sha256(), 0
    with open(out_path, "rb") as out:
        for block in iter(partial(out.read, 1 << 20), b""):
            digest.update(block)
            lines += block.count(b"\n")
    text = out_path.read_text
    assert row.lines is None or lines == row.lines
    assert not row.ok or [s for s in text().splitlines() if not s.endswith(" ok")] == []
    assert row.stdout is None or text() == row.stdout
    assert row.sha256 is None or digest.hexdigest() == row.sha256
    assert row.json is None or row.json(text())
    assert row.stderr is None or stderr == row.stderr
    assert row.err is None or stderr.startswith(row.err), stderr
    assert row.err_last is None or stderr.splitlines()[-1:] == [row.err_last], stderr
    assert row.err_lacks is None or re.search(row.err_lacks, stderr, re.M) is None, stderr
    assert not row.no_file or not Path(argv[argv.index("-o") + 1]).exists()
