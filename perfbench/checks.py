"""Output checks for benchmark instances, run outside the timed region.

On the default seed every instance except ``verify`` is compared byte
for byte with the golden output recorded from the reference commit.
``verify`` must exit 0 with every line ending in ``ok``. On other seeds
the outputs are checked for consistency: values against the independent
residue oracle of workloads.py, ``sequence`` bound checks, and the
``module -k`` generator count against the ``poset -k`` minimal-element
count (the cross command of ``cross_argv``).
"""
from __future__ import annotations

import json

from workloads import frobenius_oracle


def atoms(weights):
    """The weights that are not sums of the other weights."""
    out = []
    for i, g in enumerate(weights):
        others = weights[:i] + weights[i + 1:]
        reach = [True] + [False] * g
        for d in range(1, g + 1):
            reach[d] = any(o <= d and reach[d - o] for o in others)
        if not reach[g]:
            out.append(g)
    return out


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def weights_of(argv):
    return tuple(int(x) for x in _opt(argv, "-a").split(","))


def cross_argv(inst):
    """The command whose output must agree with this instance on another
    seed: ``poset -k`` for ``module -k`` and the other way round."""
    argv = inst["argv"]
    if inst["basis"] or "-k" not in argv or argv[0] not in ("module", "poset"):
        return None
    other = "poset" if argv[0] == "module" else "module"
    return [other, "-a", _opt(argv, "-a"), "-k", _opt(argv, "-k"), "--format", "json"]


def check_verify(res) -> list[str]:
    lines = res["stdout"].splitlines()
    problems = []
    if res["exit"] != 0:
        problems.append(f"exit {res['exit']}")
    if not lines or not all(line.endswith(" ok") for line in lines):
        problems.append("not every line ends in ok")
    return problems


def check_golden(res, golden) -> list[str]:
    problems = []
    if res["exit"] != golden["exit"]:
        problems.append(f"exit {res['exit']}, golden {golden['exit']}")
    if res["stdout"] != golden["stdout"]:
        problems.append("stdout differs from the golden output")
    return problems


def check_consistency(inst, res, cross=None) -> list[str]:
    """Checks that hold on any seed; cross is the cross command's result."""
    if inst["argv"][0] == "verify":
        return check_verify(res)
    if res["exit"] != 0:
        return [f"exit {res['exit']}" + (f" ({res['error']})" if res["error"] else "")]
    try:
        return _consistency(inst["argv"], res["stdout"], cross)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output not in the expected form ({type(exc).__name__}: {exc})"]


def _consistency(argv, stdout, cross) -> list[str]:
    cmd = argv[0]
    w = weights_of(argv)
    k = int(_opt(argv, "-k", "1"))
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)

    if cmd == "frobenius" and "--format" not in argv:
        expect(stdout == f"{frobenius_oracle(w, k)[0]}\n", "F_k differs from the oracle")
        return problems
    out = json.loads(stdout)
    other = None
    if cross is not None:
        expect(cross["exit"] == 0, f"cross command exit {cross['exit']}")
        other = json.loads(cross["stdout"]) if cross["exit"] == 0 else None
    if cmd == "sequence":
        expect(all(out["bound_checks"].values()), "a sequence bound check is false")
        expect(len(out["f_values"]) == int(_opt(argv, "--k-max")), "wrong number of F values")
    elif cmd in ("frobenius", "module"):
        f, m = frobenius_oracle(w, k)
        expect((out["F_k"], out["m_k"], out["b"]) == (f, m, f - m), "F_k or m_k differs from the oracle")
        if cmd == "module":
            expect(len(out["generators"]) == len(out["supports"]), "supports do not match generators")
            if other is not None:
                expect(len(out["generators"]) == len(other["minimal"]),
                       "generator count differs from the poset -k minimal-element count")
    elif cmd == "ball":
        pts = [tuple(p) for p in out["points"]]
        expect(len(set(pts)) == len(pts) and (0,) * len(w) in pts, "ball points not distinct or no origin")
        expect(all(sum(a * x for a, x in zip(w, p)) == 0 for p in pts), "ball point off the kernel")
    elif cmd == "ideal":
        expect(len(out["generators"]) == len(out["vectors"]) >= len(w) - 1, "too few generators")
        expect(all(sum(a * x for a, x in zip(w, v)) == 0 for v in out["vectors"]), "generator off the kernel")
    elif cmd == "poset" and out["k"] is None:
        # On the kernel lattice the classes are the degrees 0..F_1, and
        # y covers x exactly when y - x is an atom of the semigroup.
        f1 = frobenius_oracle(w, 1)[0]
        expect(out["poset"]["labels"] == [[d] for d in range(f1 + 1)], "labels are not 0..F_1")
        covers = sorted([[x], [x + g]] for g in atoms(w) for x in range(f1 + 1 - g))
        expect(sorted(out["poset"]["hasse"]) == covers, "covers are not the atom steps")
    elif cmd == "poset":
        expect(out["m_k"] == frobenius_oracle(w, k)[1], "m_k differs from the oracle")
        if other is not None:
            expect(len(out["minimal"]) == len(other["generators"]),
                   "minimal-element count differs from the module -k generator count")
    return problems
