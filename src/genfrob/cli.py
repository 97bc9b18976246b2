"""Command-line front end.

Deterministic text/JSON/DOT output for the basis, ideal, ball, module,
poset, frobenius, sequence, and verify commands. Exit codes: 0 success,
2 invalid input, 3 verification mismatch, 4 arithmetic overflow, 5
internal error (an invariant check failed; the message goes to stderr).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .counting import _oracle_table, kth_degrees, m_value
from .frobenius import brute_force_frobenius, brute_force_m, frobenius
from .frobenius import sequence_report
from .ideal import lattice_ideal
from .lattice import InputError, LatticeBasis, WeightVector, kernel_basis, sublattice_index
from .modules import classify, lcm_generator_classes, minimal_generators, render_monomial
from .neighbourhood import ball, moves
from .poset import module_poset, poset_to_dot, structure_poset

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_VERIFY_MISMATCH = 3
EXIT_OVERFLOW = 4
EXIT_INTERNAL = 5


def _parse_weights(text: str) -> WeightVector:
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse weights {text!r}") from exc
    return WeightVector(parts)


def _read_basis_file(path: str, weight: WeightVector) -> LatticeBasis:
    vectors = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                vectors.append(tuple(int(x) for x in line.split()))
    except OSError as exc:
        raise InputError(f"cannot read basis file {path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"bad integer in basis file {path}") from exc
    return LatticeBasis(weight, tuple(vectors))


def _make_basis(args) -> LatticeBasis:
    weight = _parse_weights(args.weights)
    if args.basis:
        return _read_basis_file(args.basis, weight)
    return kernel_basis(weight)


def _label_list(c) -> list:
    return [c.degree, *c.torsion]


def _emit(args, text: str) -> None:
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output file {args.output}: {exc}") from exc


_compact = json.JSONEncoder(separators=(",", ":")).encode
_string = json.encoder.encode_basestring_ascii
_INT_TREE_CHARS = str.maketrans("", "", "0123456789-,[]")


def _json_dump(obj) -> str:
    """`json.dumps(obj, indent=2) + "\\n"`, byte for byte (dict keys must be str).

    Integer-list trees, the bulk of every payload, are encoded in C and
    indented with str.replace; only dicts and other lists recurse.
    """
    return _indented(obj, "") + "\n"


def _indented(obj, pad: str) -> str:
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [f"{_string(k)}: {_indented(v, inner)}" for k, v in obj.items()]
        return _block("{", items, pad, "}")
    if isinstance(obj, (list, tuple)):
        return _int_lists(obj, pad) or _block("[", [_indented(v, inner) for v in obj], pad, "]")
    return json.dumps(obj)  # a scalar reads the same indented or not


def _block(opening: str, items: list, pad: str, closing: str) -> str:
    if not items:
        return opening + closing
    return f"{opening}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{closing}"


def _int_lists(obj, pad: str) -> str | None:
    """The indented text of a list whose ints all lie at one depth, with no
    empty list inside; None for any other list."""
    s = _compact(obj)
    if s.translate(_INT_TREE_CHARS) or "[]" in s:
        return None
    # Every comma must close as many lists as it opens: then every int lies
    # at the depth of the first, the length of the leading run of "[".
    j = 1
    while (closes := s.count("]" * j + ",")) or s.count("," + "[" * j):
        if not closes == s.count("," + "[" * j) == s.count("]" * j + "," + "[" * j):
            return None
        j += 1
    depth = len(s) - len(s.lstrip("["))
    ind = [pad + "  " * i for i in range(depth + 1)]
    opened, closed = [""], [""]  # the text of j openings up to an int, of j closings after one
    for j in range(1, depth + 1):
        opened.append("[\n" + ind[depth - j + 1] + opened[-1])
        closed.append(closed[-1] + "\n" + ind[depth - j] + "]")
    body = s[depth:-depth].replace(",", ",\n" + ind[depth])
    for j in range(depth - 1, 0, -1):
        body = body.replace("]" * j + ",\n" + ind[depth] + "[" * j,
                            closed[j] + ",\n" + ind[depth - j] + opened[j])
    return opened[depth] + body + closed[depth]


def _cmd_basis(args) -> int:
    basis = _make_basis(args)
    payload = {
        "a": list(basis.weight.a),
        "vectors": [list(v) for v in basis.vectors],
        "index": sublattice_index(basis),
    }
    if args.format == "json":
        _emit(args, _json_dump(payload))
    else:
        lines = [f"weights: {basis.weight.a}", f"index: {payload['index']}"]
        lines += [f"basis vector: {v}" for v in basis.vectors]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_ideal(args) -> int:
    basis = _make_basis(args)
    mb = lattice_ideal(basis)
    rendered = [
        f"{render_monomial(b.head)} - {render_monomial(b.tail)}" for b in mb.elements
    ]
    payload = {
        "a": list(basis.weight.a),
        "generators": rendered,
        "vectors": [list(b.vector) for b in mb.elements],
    }
    if args.format == "json":
        _emit(args, _json_dump(payload))
    else:
        _emit(args, "\n".join(rendered) + "\n")
    return EXIT_OK


def _cmd_ball(args) -> int:
    basis = _make_basis(args)
    bl = ball(moves(lattice_ideal(basis)), args.k)
    payload = {
        "a": list(basis.weight.a),
        "k": args.k,
        "points": [list(p) for p in bl.points],
    }
    if args.format == "json":
        _emit(args, _json_dump(payload))
    else:
        _emit(args, "\n".join(str(p) for p in bl.points) + "\n")
    return EXIT_OK


def _cmd_module(args) -> int:
    basis = _make_basis(args)
    gens = minimal_generators(basis, args.k)
    fk = frobenius(basis, args.k)
    classification = []
    if args.k >= 2:
        for g in gens.generators:
            c = classify(basis, g, args.k, gens)
            classification.append(
                {
                    "generator": render_monomial(g),
                    "case": c.case,
                    "witnesses": [render_monomial(w) for w in c.witnesses],
                }
            )
    payload = {
        "a": list(basis.weight.a),
        "k": args.k,
        "generators": list(gens.render()),
        "supports": [[list(p) for p in sup] for sup in gens.supports],
        "m_k": gens.m_k,
        "F_k": fk,
        "b": fk - gens.m_k,
        "classification": classification,
    }
    if args.format == "json":
        _emit(args, _json_dump(payload))
    else:
        lines = [f"m_k: {gens.m_k}", f"F_k: {fk}", f"b: {fk - gens.m_k}"]
        for i, g in enumerate(gens.render()):
            lines.append(f"generator: {g} support: {list(gens.supports[i])}")
        for entry in classification:
            lines.append(
                f"classify {entry['generator']}: {entry['case']} "
                f"witnesses {entry['witnesses']}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_poset(args) -> int:
    if args.format == "dot" and args.k is not None:
        raise InputError("DOT output is for the structure poset only; drop -k")
    basis = _make_basis(args)
    if args.format == "dot":
        _emit(args, poset_to_dot(structure_poset(basis)))
        return EXIT_OK
    if args.k is None:
        poset = structure_poset(basis)
        labels = poset.elements
    else:
        poset = module_poset(basis, args.k)
        labels = sorted(poset.labels)
    payload = {
        "a": list(basis.weight.a),
        "k": args.k,
        "poset": {
            "labels": [_label_list(c) for c in labels],
            "hasse": [[_label_list(u), _label_list(v)] for u, v in poset.covers],
        },
    }
    if args.k is not None:
        minimal = sorted(poset.minimal_elements)
        payload["minimal"] = [_label_list(c) for c in minimal]
        payload["m_k"] = poset.m_k
    if args.format == "json":
        _emit(args, _json_dump(payload))
    else:
        lines = [f"labels: {payload['poset']['labels']}"]
        if payload["poset"]["hasse"]:
            lines += [f"cover: {u} < {v}" for u, v in payload["poset"]["hasse"]]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_frobenius(args) -> int:
    basis = _make_basis(args)
    cap = os.environ.get("GENFROB_DEGREE_CAP")
    try:
        degree_cap = int(cap) if cap else None
    except ValueError as exc:
        raise InputError(f"GENFROB_DEGREE_CAP must be an integer, got {cap!r}") from exc
    fk = frobenius(basis, args.k, degree_cap=degree_cap)
    mk = m_value(basis, args.k)
    if args.format == "json":
        payload = {
            "a": list(basis.weight.a),
            "k": args.k,
            "m_k": mk,
            "F_k": fk,
            "b": fk - mk,
        }
        _emit(args, _json_dump(payload))
    else:
        _emit(args, f"{fk}\n")
    return EXIT_OK


def _cmd_sequence(args) -> int:
    basis = _make_basis(args)
    rep = sequence_report(basis, args.k_max)
    payload = {
        "a": list(basis.weight.a),
        "k_max": rep.k_max,
        "f_values": list(rep.f_values),
        "m_values": list(rep.m_values),
        "b_values": list(rep.b_values),
        "f_diffs": list(rep.f_diffs),
        "m_diffs": list(rep.m_diffs),
        "dimension": rep.dimension,
        "bound_checks": rep.bound_checks,
    }
    if args.format == "json":
        _emit(args, _json_dump(payload))
    else:
        lines = [
            f"k={k} m_k={m} F_k={f} b={b}"
            for k, (m, f, b) in enumerate(
                zip(rep.m_values, rep.f_values, rep.b_values), start=1
            )
        ]
        lines.append(f"dimension: {rep.dimension}")
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.k_max < 1:
        raise InputError("k_max must be at least 1")
    basis = _make_basis(args)
    markov = lattice_ideal(basis)
    f_values, m_values = kth_degrees(basis, args.k_max)
    # One oracle table for all: F_k scans read to F_K + a_1, labels and lcm cap to m_K + F_1.
    f1 = max(f_values[0], 0)
    _oracle_table(basis, max(f_values[-1] + basis.weight.a[0], m_values[-1] + f1))
    lines = []
    ok = True

    def check(k, text, match):
        nonlocal ok
        ok = ok and match
        lines.append(f"k={k} {text} {'ok' if match else 'MISMATCH'}")

    for k, fk in enumerate(f_values, start=1):
        oracle = brute_force_frobenius(basis, k)
        check(k, f"pipeline F_k={fk} oracle F_k={oracle}", fk == oracle)
        gens = minimal_generators(basis, k)
        mp = module_poset(basis, k)
        # With F_1 = -1 the module poset's window is empty by convention,
        # so it has no minimal elements; every class of degree >= m_k is
        # then in the module, and the one class of degree m_k generates it.
        minimal = len(mp.minimal_elements) or 1
        check(k, f"generator orbits={len(gens.generators)} poset minimal elements={minimal}",
              len(gens.generators) == minimal)
        oracle_classes = lcm_generator_classes(basis, k, markov)
        check(k, f"lcm oracle orbits={len(oracle_classes)}",
              oracle_classes == frozenset(gens.classes))
        m_oracle = brute_force_m(basis, k)
        check(k, f"pipeline m_k={gens.m_k} oracle m_k={m_oracle}", gens.m_k == m_oracle)
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genfrob",
        description="Generalised Frobenius numbers, lattice ideals, "
        "lattice modules, and structure posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, k=False, k_max=False, formats=("text", "json")):
        p.add_argument("-a", "--weights", required=True, help="weights, e.g. 3,5,8")
        p.add_argument("--basis", help="file with one basis vector per line")
        p.add_argument("-o", "--output", help="write output to this path")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (output is identical for any value)")
        p.add_argument("--format", choices=formats, default="text")
        if k:
            p.add_argument("-k", type=int, default=1)
        if k_max:
            p.add_argument("--k-max", dest="k_max", type=int, default=4)

    common(sub.add_parser("basis", help="kernel or sublattice basis and index"))
    common(sub.add_parser("ideal", help="minimal Markov basis of the lattice ideal"))
    common(sub.add_parser("ball", help="radius-k ball in the move graph"), k=True)
    common(sub.add_parser("module", help="minimal generators of the k-th module"), k=True)
    p = sub.add_parser("poset", help="structure poset, or module poset with -k")
    common(p, formats=("text", "json", "dot"))
    p.add_argument("-k", type=int, default=None)
    common(sub.add_parser("frobenius", help="k-th Frobenius number"), k=True)
    common(sub.add_parser("sequence", help="F/m/b sequence report"), k_max=True)
    common(sub.add_parser("verify", help="pipeline against the counting and lcm oracles"),
           k_max=True, formats=("text",))
    return parser


_COMMANDS = {
    "basis": _cmd_basis,
    "ideal": _cmd_ideal,
    "ball": _cmd_ball,
    "module": _cmd_module,
    "poset": _cmd_poset,
    "frobenius": _cmd_frobenius,
    "sequence": _cmd_sequence,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused for the process."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
