"""Command-line front end.

Deterministic text/JSON/DOT output for the basis, ideal, ball, module,
poset, frobenius, sequence, and verify commands. Exit codes: 0 success,
2 invalid input, 3 verification mismatch, 4 arithmetic overflow, 5
internal error (an invariant check failed; the message goes to stderr).

One table, ``COMMANDS``, gives each command's handler, help, ``--format``
choices and ``-k`` or ``--k-max`` option; ``parse_args`` reads argv
against it in one pass, and the help and usage text are built from it.

A handler takes the parsed options and the basis and writes nothing. It
returns a JSON payload as a dict without the weights (``--format
json``), its text as a list of lines, or, for ``poset``, an iterator of
text chunks that make up the whole output, the weights included; or it
raises InputError, or ``_Mismatch`` with the lines of a failed verify
report. ``poset`` works out every code, cover and minimal element and
runs every check before it returns, so its chunks only format text, a
constant number of list items each, and an error leaves stdout empty
and no ``-o`` file. ``main`` alone builds the basis, puts "a" first in a
payload, writes the output to stdout or ``-o`` and picks the exit code.
"""
from __future__ import annotations

import json
import re
import sys
from itertools import chain
from types import SimpleNamespace

from .counting import _oracle_table, kth_degrees, m_value
from .frobenius import brute_force_frobenius, brute_force_m, frobenius
from .frobenius import sequence_report
from .ideal import lattice_ideal
from .lattice import InputError, LatticeBasis, QuotientClass, WeightVector, kernel_basis
from .lattice import sublattice_index
from .modules import _grown_ball, classify, lcm_generator_classes, minimal_generators
from .modules import render_monomial
from .neighbourhood import ball, moves
from .poset import _check_window, _chunks, _dot_chunks, _texts_by_code, module_poset
from .poset import structure_poset

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_VERIFY_MISMATCH = 3
EXIT_OVERFLOW = 4
EXIT_INTERNAL = 5


def _integer(text: str) -> int:
    """An optionally signed ASCII decimal integer, spaces around it allowed.

    int() alone also takes underscores between digits and non-ASCII
    digits, so "3_0" would read as 30.
    """
    if re.fullmatch(r"[+-]?[0-9]+", text.strip()) is None:
        raise ValueError(text)
    return int(text)


def _parse_weights(text: str) -> WeightVector:
    try:
        parts = tuple(_integer(x) for x in text.split(","))
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
                vectors.append(tuple(_integer(x) for x in line.split()))
    except OSError as exc:
        raise InputError(f"cannot read basis file {path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"bad integer in basis file {path}") from exc
    return LatticeBasis(weight, tuple(vectors))


def _make_basis(args) -> LatticeBasis:
    weight = _parse_weights(args.weights)
    if args.basis is not None:
        return _read_basis_file(args.basis, weight)
    return kernel_basis(weight)


def _emit(args, out) -> None:
    """Write out, a str or an iterator of str chunks, to stdout or -o."""
    chunks = (out,) if isinstance(out, str) else out
    if args.output is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise InputError(f"cannot write output file {args.output}: {exc}") from exc


# Payloads are trees built here, so the encoder need not look for cycles.
_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
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


class _Mismatch(Exception):
    """Raised by verify, with the lines of its report, when a check fails."""


def _cmd_basis(args, basis):
    index = sublattice_index(basis)
    if args.format == "json":
        return {"vectors": [list(v) for v in basis.vectors], "index": index}
    return [f"weights: {basis.weight.a}", f"index: {index}",
            *(f"basis vector: {v}" for v in basis.vectors)]


def _cmd_ideal(args, basis):
    elements = lattice_ideal(basis).elements
    rendered = [f"{render_monomial(b.head)} - {render_monomial(b.tail)}" for b in elements]
    if args.format == "text":
        return rendered
    return {"generators": rendered, "vectors": [list(b.vector) for b in elements]}


def _cmd_ball(args, basis):
    points = ball(moves(lattice_ideal(basis)), args.k).points
    if args.format == "text":
        return [str(p) for p in points]
    return {"k": args.k, "points": [list(p) for p in points]}


def _cmd_module(args, basis):
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
    if args.format == "json":
        return {
            "k": args.k,
            "generators": list(gens.render()),
            "supports": [[list(p) for p in sup] for sup in gens.supports],
            "m_k": gens.m_k,
            "F_k": fk,
            "b": fk - gens.m_k,
            "classification": classification,
        }
    lines = [f"m_k: {gens.m_k}", f"F_k: {fk}", f"b: {fk - gens.m_k}"]
    lines += [f"generator: {g} support: {list(sup)}"
              for g, sup in zip(gens.render(), gens.supports)]
    lines += [f"classify {e['generator']}: {e['case']} witnesses {e['witnesses']}"
              for e in classification]
    return lines


def _cmd_poset(args, basis):
    if args.format == "dot":
        if args.k is not None:
            raise InputError("DOT output is for the structure poset only; drop -k")
        return _dot_chunks(structure_poset(basis))
    if args.k is None:
        poset = structure_poset(basis)
    else:  # listed labels share the structure poset's budget
        _check_window(basis, kth_degrees(basis, args.k)[0][0], "module poset's window")
        poset = module_poset(basis, args.k)
    codes, covers = poset.label_codes, poset.cover_codes
    index, torsions = basis.index, basis.torsions
    if args.format == "text":
        texts = _texts_by_code(basis, codes, "[", ["".join(f", {t}" for t in tor) + "]"
                                                   for tor in torsions])
        return chain(
            _joined("labels: [", codes, lambda part: [texts[z] for z in part], ", ", "]\n"),
            _chunks(covers, lambda part: "".join(
                [f"cover: {texts[x]} < {texts[y]}\n" for x, y in part])),
        )
    # A label's text at each of its two depths: in "labels" and in "hasse".
    head, tails = _label_parts(torsions, " " * 6)
    by_code = _texts_by_code(basis, codes, *_label_parts(torsions, " " * 8))
    start = ('{\n  "a": ' + _indented(list(basis.weight.a), "  ") +
             f',\n  "k": {json.dumps(args.k)},\n  "poset": {{\n    "labels": ')
    end = "\n  }"
    if args.k is not None:
        minimal = [[c.degree, *c.torsion] for c in sorted(poset.minimal_elements)]
        end += f',\n  "minimal": {_indented(minimal, "  ")},\n  "m_k": {poset.m_k}'
    return chain(
        [start],
        _json_list(codes, lambda part: [f"{head}{z // index}{tails[z % index]}" for z in part]),
        [',\n    "hasse": '],
        _json_list(covers, lambda part: [f"[\n        {by_code[x]},\n        {by_code[y]}\n      ]"
                                         for x, y in part]),
        [end + "\n}\n"],
    )


def _label_parts(torsions, pad: str) -> tuple:
    """The head and, per torsion code, the tail of a label's JSON text at
    indent pad: head + degree + tail is the label's text."""
    inner = pad + "  "
    return "[\n" + inner, ["".join(f",\n{inner}{t}" for t in tor) + "\n" + pad + "]"
                           for tor in torsions]


def _json_list(items, text):
    """The JSON text, in chunks, of a list at indent 4 whose items' texts,
    text(part) for a run of items, are at indent 6."""
    if not items:
        return iter(["[]"])
    return _joined("[\n      ", items, text, ",\n      ", "\n    ]")


def _joined(opening: str, items, text, sep: str, closing: str):
    """opening + sep.join(the items' texts) + closing, in chunks, where
    text(part) gives the texts of a run of items."""
    parts = _chunks(items, text)
    yield opening + sep.join(next(parts, ()))
    for part in parts:
        yield sep + sep.join(part)
    yield closing


def _cmd_frobenius(args, basis):
    fk = frobenius(basis, args.k)
    mk = m_value(basis, args.k)
    if args.format == "text":
        return [str(fk)]
    return {"k": args.k, "m_k": mk, "F_k": fk, "b": fk - mk}


def _cmd_sequence(args, basis):
    rep = sequence_report(basis, args.k_max)
    if args.format == "json":
        return rep._asdict()
    triples = zip(rep.m_values, rep.f_values, rep.b_values)
    return [*(f"k={k} m_k={m} F_k={f} b={b}" for k, (m, f, b) in enumerate(triples, start=1)),
            f"dimension: {rep.dimension}"]


def _cmd_verify(args, basis):
    if args.k_max < 1:
        raise InputError("k_max must be at least 1")
    markov = lattice_ideal(basis)
    f_values, m_values = kth_degrees(basis, args.k_max)
    # The lcm oracle's ball, grown once to the last k's radius: over its budget, before any check.
    _grown_ball(basis, moves(markov), args.k_max - 1)
    # One oracle table for all: F_k scans read to F_K + a_1, labels and lcm cap to m_K + F_1.
    f1 = max(f_values[0], 0)
    _oracle_table(basis, max(f_values[-1] + basis.weight.a[0], m_values[-1] + f1))
    checks = []  # (k, what was compared, whether it matched)
    for k, fk in enumerate(f_values, start=1):
        oracle = brute_force_frobenius(basis, k)
        checks.append((k, f"pipeline F_k={fk} oracle F_k={oracle}", fk == oracle))
        gens = minimal_generators(basis, k)
        mp = module_poset(basis, k)
        # A minimal element is a generator's class moved down by m_k. With
        # F_1 = -1 the module poset's window is empty by convention, so it
        # has no minimal elements; every class of degree >= m_k is then in
        # the module, and the one class of degree m_k generates it.
        minimal = {QuotientClass(c.degree + mp.m_k, c.torsion) for c in mp.minimal_elements}
        if not minimal:
            minimal = {QuotientClass(mp.m_k, basis.zero_class.torsion)}
        checks.append((k, f"generator orbits={len(gens.generators)} "
                          f"poset minimal elements={len(minimal)}", set(gens.classes) == minimal))
        oracle_classes = lcm_generator_classes(basis, k, markov)
        checks.append((k, f"lcm oracle orbits={len(oracle_classes)}",
                       oracle_classes == frozenset(gens.classes)))
        m_oracle = brute_force_m(basis, k)
        checks.append((k, f"pipeline m_k={gens.m_k} oracle m_k={m_oracle}", gens.m_k == m_oracle))
    lines = [f"k={k} {text} {'ok' if match else 'MISMATCH'}" for k, text, match in checks]
    if all(match for _, _, match in checks):
        return lines
    raise _Mismatch(lines)


# The options every command takes: (option strings, destination, default, help).
_COMMON = (
    (("-h", "--help"), "help", None, "show this help and exit"),
    (("-a", "--weights"), "weights", None, "weights, e.g. 3,5,8 (required)"),
    (("--basis",), "basis", None, "file with one basis vector per line"),
    (("-o", "--output"), "output", None, "write output to this path"),
    (("--format",), "format", "text", "output format"),
)
_INTEGER_OPTIONS = ("k", "k_max")
_TOP_OPTIONS = {"-h": _COMMON[0], "--help": _COMMON[0]}
_TEXT_JSON = ("text", "json")

# The command table: name -> (handler, help, --format choices, the row of
# its -k or --k-max option or None).
COMMANDS = {
    "basis": (_cmd_basis, "kernel or sublattice basis and index", _TEXT_JSON, None),
    "ideal": (_cmd_ideal, "minimal Markov basis of the lattice ideal", _TEXT_JSON, None),
    "ball": (_cmd_ball, "radius-k ball in the move graph", _TEXT_JSON,
             (("-k",), "k", 1, "radius of the ball")),
    "module": (_cmd_module, "minimal generators of the k-th module", _TEXT_JSON,
               (("-k",), "k", 1, "which module")),
    "poset": (_cmd_poset, "structure poset, or module poset with -k", ("text", "json", "dot"),
              (("-k",), "k", None,
               "module poset of the k-th module; omit it for the structure poset")),
    "frobenius": (_cmd_frobenius, "k-th Frobenius number", _TEXT_JSON,
                  (("-k",), "k", 1, "which Frobenius number")),
    "sequence": (_cmd_sequence, "F/m/b sequence report", _TEXT_JSON,
                 (("--k-max",), "k_max", 4, "report k = 1 to K_MAX")),
    "verify": (_cmd_verify, "pipeline against the counting and lcm oracles", ("text",),
               (("--k-max",), "k_max", 4, "check k = 1 to K_MAX")),
}
_DESCRIPTION = ("Generalised Frobenius numbers, lattice ideals, lattice modules, "
                "and structure posets.")


def parse_args(argv=None) -> SimpleNamespace:
    """The command and its options, read from argv (sys.argv[1:] by
    default) in one pass against the command table.

    `-a/--weights` is required. A value follows its option (`--opt v`,
    `--opt=v`) or is attached to a short one (`-k3`); a long option may
    be cut to a unique prefix; options come in any order and the last
    repeat wins. A separate value may start with "-" only as a negative
    number. `-h` prints help and exits 0; a usage error prints the usage
    and the error to stderr and exits 2.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    stray = []
    for i, arg in enumerate(argv):
        hit = _match(arg, _TOP_OPTIONS, "")
        if hit is None:
            break
        if hit[0] is None:
            stray.append(arg)
        else:
            _help("", hit[1])
    else:
        _fail("", "the following arguments are required: command")
    if arg not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail("", f"argument command: invalid choice: {arg!r} (choose from {choices})")
    return _read_options(arg, argv[i + 1:], stray)


def _read_options(name: str, argv: list, stray: list) -> SimpleNamespace:
    formats = COMMANDS[name][2]
    rows = _rows(name)
    options = {flag: row for row in rows for flag in row[0]}
    values = {dest: default for _, dest, default, _ in rows[1:]}  # all but -h
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--":
            _fail(name, "unrecognized arguments: " + " ".join(argv[i - 1:]))
        hit = _match(arg, options, name)
        if hit is None or hit[0] is None:
            stray.append(arg)
            continue
        (flags, dest, _, _), value = hit
        if dest == "help":
            _help(name, value)
        flag = "/".join(flags)
        if value is None:
            if i == len(argv) or _match(argv[i], options, name) is not None:
                _fail(name, f"argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        if dest in _INTEGER_OPTIONS:
            try:
                value = _integer(value)
            except ValueError:
                _fail(name, f"argument {flag}: invalid int value: {value!r}")
        elif dest == "format" and value not in formats:
            choices = ", ".join(map(repr, formats))
            _fail(name, f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
        values[dest] = value
    if values["weights"] is None:
        _fail(name, "the following arguments are required: -a/--weights")
    if stray:
        _fail(name, "unrecognized arguments: " + " ".join(stray))
    return SimpleNamespace(command=name, **values)


def _rows(name: str) -> tuple:
    """The option rows of a command: the common ones, then its k option."""
    k_row = COMMANDS[name][3]
    return _COMMON if k_row is None else (*_COMMON, k_row)


def _match(arg: str, options: dict, name: str):
    """How one argument reads against the option strings of a command.

    None for a value: a word that does not start with "-", "-" or "--"
    itself, a negative number or a dashed word with a space. Otherwise (the
    option's row, or None for an unknown option; the value given with
    "=" or attached to a short option, or None).
    """
    if arg[:1] != "-" or arg in ("-", "--"):
        return None
    if arg in options:
        return options[arg], None
    head, eq, tail = arg.partition("=")
    if eq and head in options:
        return options[head], tail
    if arg[1] == "-":
        hits = [flag for flag in options if flag.startswith(head)]
        if len(hits) > 1:
            _fail(name, f"ambiguous option: {head} could match {', '.join(hits)}")
        if hits:
            return options[hits[0]], tail if eq else None
    elif arg[:2] in options:
        return options[arg[:2]], arg[2:]
    whole, dot, fraction = arg[1:].partition(".")
    number = (whole + fraction).isdecimal() and bool(fraction or not dot)  # -\d+ or -\d*\.\d+
    return None if number or " " in arg else (None, None)


def _metavar(dest: str, name: str) -> str:
    if dest == "help":
        return ""
    if dest == "format":
        return " {" + ",".join(COMMANDS[name][2]) + "}"
    return " " + dest.upper()


def _usage(name: str) -> str:
    if not name:
        return "usage: genfrob [-h] {" + ",".join(COMMANDS) + "} ..."
    words = []
    for flags, dest, _, _ in _rows(name):
        word = flags[0] + _metavar(dest, name)
        words.append(word if dest == "weights" else f"[{word}]")
    return f"usage: genfrob {name} " + " ".join(words)


def _help(name: str, attached) -> None:
    """Print the help of a command, or of genfrob for name "", and exit 0."""
    if attached is not None:
        _fail(name, f"argument -h/--help: ignored explicit argument {attached!r}")
    sections = [] if name else [("commands", [(cmd, row[1]) for cmd, row in COMMANDS.items()])]
    options = []
    for flags, dest, default, text in _rows(name) if name else _COMMON[:1]:
        if default is not None:
            text += f" (default: {default})"
        options.append((", ".join(flags) + _metavar(dest, name), text))
    sections.append(("options", options))
    out = [_usage(name), COMMANDS[name][1] if name else _DESCRIPTION]
    for title, entries in sections:
        width = max(len(left) for left, _ in entries) + 2
        lines = [f"  {left:<{width}}{right}" for left, right in entries]
        out.append(f"{title}:\n" + "\n".join(lines))
    sys.stdout.write("\n\n".join(out) + "\n")
    raise SystemExit(EXIT_OK)


def _fail(name: str, message: str) -> None:
    """Print the usage and a usage error to stderr and exit 2."""
    sys.stderr.write(f"{_usage(name)}\n{('genfrob ' + name).rstrip()}: error: {message}\n")
    raise SystemExit(EXIT_INVALID_INPUT)


def main(argv=None) -> int:
    """Run one command on argv and return its exit code.

    The basis is built here, the command's result written here: a JSON
    payload after the weights "a", a list of lines, or text chunks as
    they come.
    """
    args = parse_args(argv)
    code = EXIT_OK
    try:
        basis = _make_basis(args)
        try:
            out = COMMANDS[args.command][0](args, basis)
        except _Mismatch as exc:
            out, code = exc.args[0], EXIT_VERIFY_MISMATCH
        if isinstance(out, dict):
            out = _json_dump({"a": list(basis.weight.a), **out})
        elif isinstance(out, list):
            out = "\n".join(out) + "\n"
        _emit(args, out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except OverflowError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
