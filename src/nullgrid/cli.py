"""Command-line frontend.

Every subcommand maps to one library operation.  Exit codes: 0 when the
computation succeeded and any checked bound holds, 1 when a bound or a
documented precondition was violated (with a diagnostic), 2 for input errors
(bad syntax, bad schema), reported on one line prefixed with "error:".
Output is deterministic; --json switches to a schema-versioned object.  A
closed stdout (`| head`) cuts the output without a traceback; the exit code
is still the computation's.  The parser is built once per process.  Each
call is parsed by its subcommand's parser alone; the top-level parser sees
only an argv that does not start with a subcommand, and reports the command
missing or unknown (or prints the top-level help).  Each subcommand's
options are declared once, in _COMMANDS: argparse is built from that
declaration, and a direct reader reads it too.  A subcommand's argv of exact
option strings only -- each option with a value that is not dash-led or
follows "=", each flag bare -- whose values pass their type and choices and
which names every required option is read by that reader.  Any other argv
(help, abbreviations, "--", dash-led or missing values, usage errors) goes
to argparse, so its messages and exit codes are argparse's.  Subcommand
foo-bar is handled by _cmd_foo_bar, looked up at dispatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .applications import (
    cauchy_davenport_check,
    eliahou_kervaire_check,
    extremal_cover,
    hopf_stiefel,
    hyperplane_to_list,
    hyperplanes_from_lists,
    multiset_deg,
    sumset,
    sun_value_set_check,
    value_set,
    vector_multiset_from_list,
    vector_multiset_to_list,
    verify_cover,
)
from .certificates import _reproduction, find_witness, punctured_decompose
from .divdiff import (
    divided_difference,
    divided_difference_recursive,
    top_coefficient_identity_holds,
    weight_table,
)
from .errors import InvariantViolation, PreconditionError
from .fields import FieldSpec, _output_size_error, _value_text
from .ideals import (
    MultisetGrid,
    grid_from_dict,
    in_grid_ideal,
    multiset_from_list,
    multiset_to_list,
    reduce_poly,
)
from .polynomials import MultiPoly, parse_poly

SCHEMA = "nullgrid.v1"


class _InputError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the exit-code contract: a usage error is one "error:"
    line and exit 2 (raised as _InputError), and a dash-led token that names
    no option is a value, so --poly -x1 reads like --poly=-x1.  The
    type=int options read their text with _parse_int; argparse still names
    the type int when it reports any other bad text."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, _parse_int)

    def error(self, message):
        raise _InputError(message)

    def _parse_optional(self, arg_string):
        parsed = super()._parse_optional(arg_string)
        # Python 3.12 returns a list of candidate tuples, earlier versions one tuple
        first = parsed[0] if isinstance(parsed, list) else parsed
        if first is not None and first[0] is None and not arg_string.startswith("--"):
            return None
        return parsed


def _parse_field(text: str) -> FieldSpec:
    if text == "rational":
        return FieldSpec.rationals()
    if text.startswith("prime:"):
        try:
            return FieldSpec.prime(_parse_int(text.split(":", 1)[1], "--field"))
        except ValueError as exc:
            raise _InputError(str(exc)) from exc
    raise _InputError(f"field must be 'prime:<p>' or 'rational', got {text!r}")


def _parse_int(text: str, what: str = None) -> int:
    """int(text) on ASCII text without underscores, as the polynomial
    grammar reads a literal.  A number past Python's int/str digit limit is
    refused by its length and the limit, not the number: as an input error
    that starts with what or, without what, as the ArgumentTypeError of an
    integer option, which argparse prefixes with the option.  Any other bad
    text raises int's own ValueError."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    try:
        return int(text)
    except ValueError:
        digits = text.strip().lstrip("+-")
        limit = sys.get_int_max_str_digits()
        if not (digits.isdecimal() and len(digits) > limit):
            raise
    message = f"a number of {len(digits)} digits exceeds Python's int/str digit limit of {limit}"
    if what is None:
        raise argparse.ArgumentTypeError(message)
    raise _InputError(f"{what}: {message}")


def _json_int(digits: str) -> int:
    return _parse_int(digits, "invalid JSON")


_JSON_DECODER = json.JSONDecoder(parse_int=_json_int)  # json.loads would build one per call


def _load_json(text_or_path: str, inline: bool):
    try:
        if inline:
            text = text_or_path
        else:
            with open(text_or_path) as fh:
                text = fh.read()
        if text.startswith("\ufeff"):  # json.loads' own check, which decode skips
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _JSON_DECODER.decode(text)
    except OSError as exc:
        raise _InputError(f"cannot read {text_or_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise _InputError("invalid JSON: nested too deeply") from exc


def _json_arg(args, name: str, required: str):
    """The JSON given by --NAME PATH or, failing that, --NAME-inline JSON."""
    path, inline = getattr(args, name), getattr(args, name + "_inline")
    if path:
        return _load_json(path, inline=False)
    if inline:
        return _load_json(inline, inline=True)
    flag = "--" + name.replace("_", "-")
    raise _InputError(f"{required} ({flag} PATH or {flag}-inline JSON)")


def _load_grid(args) -> MultisetGrid:
    return grid_from_dict(_json_arg(args, "grid", "a grid is required"))


def _load_poly(args, grid: MultisetGrid) -> MultiPoly:
    return parse_poly(args.poly, grid.arity, grid.spec)


def _parse_ints(text: str, what: str):
    try:
        return tuple(_parse_int(part, what) for part in text.split(","))
    except _InputError:
        raise
    except ValueError as exc:
        raise _InputError(f"{what} must be comma-separated integers, got {text!r}") from exc


def _check_printable(*counts: int) -> None:
    """Refuse computed counts too long to print: one past Python's int/str
    digit limit is the output-size failure (exit 1), as a polynomial or
    field element is (fields._output_size_error).  A handler checks its
    counts before it builds its text, so --json fails the same way."""
    limit = sys.get_int_max_str_digits()
    if limit and any(abs(n) >= 10**limit for n in counts):
        raise _output_size_error()


def _fmt_tuple(values) -> str:
    return "(" + ", ".join(map(str, values)) + ")"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


# -- subcommand handlers: return (human text, json object, exit code) -----------
# main prints one of the two forms; a handler may leave the other None


def _cmd_reduce(args):
    grid = _load_grid(args)
    f = _load_poly(args, grid)
    res = reduce_poly(f, grid)
    lines = [f"r: {res.remainder}"]
    lines += [f"h{i + 1}: {h}" for i, h in enumerate(res.cofactors)]
    obj = {"r": str(res.remainder), "h": [str(h) for h in res.cofactors]}
    return "\n".join(lines), obj, 0


def _cmd_member(args):
    grid = _load_grid(args)
    f = _load_poly(args, grid)
    if args.method == "both":
        by_rem = in_grid_ideal(f, grid, "remainder")
        by_pts = in_grid_ideal(f, grid, "pointwise")
        if by_rem != by_pts:
            raise InvariantViolation(f"membership methods disagree; {_reproduction(f, grid=grid)}")
        member = by_rem
    else:
        member = in_grid_ideal(f, grid, args.method)
    text = f"member: {_fmt_bool(member)}\nmethod: {args.method}"
    return text, {"member": member, "method": args.method}, 0


def _cmd_witness(args):
    grid = _load_grid(args)
    f = _load_poly(args, grid)
    t = _parse_ints(args.t, "--t")
    method = args.method.replace("-", "_")
    w = find_witness(f, grid, t, method=method)
    text = f"point: {_fmt_tuple(w.point)}\nexponent: {_fmt_tuple(w.exponent)}\nvalue: {w.value}"
    obj = {
        "point": [str(x) for x in w.point],
        "exponent": list(w.exponent),
        "value": str(w.value),
        "method": args.method,
    }
    return text, obj, 0


def _cmd_punctured(args):
    s_grid = _load_grid(args)
    d_grid = grid_from_dict(_json_arg(args, "sub_grid", "a sub-grid is required"))
    f = _load_poly(args, s_grid)
    res = punctured_decompose(f, s_grid, d_grid)
    deg_f = f.total_degree()
    text = (
        f"r: {res.remainder}\nh: {res.quotient}\n"
        f"bound: {res.degree_bound}\ndeg_f: {deg_f}"
    )
    obj = {
        "r": str(res.remainder),
        "h": str(res.quotient),
        "bound": res.degree_bound,
        "deg_f": deg_f,
    }
    return text, obj, 0


def _cmd_divdiff(args):
    grid = _load_grid(args)
    f = _load_poly(args, grid)
    if args.method == "def":
        value = divided_difference(f, grid)
    elif args.method == "rec":
        value = divided_difference_recursive(f, grid)
    else:
        value = divided_difference(f, grid)
        if value != divided_difference_recursive(f, grid):
            raise InvariantViolation(f"divided-difference routes disagree; {_reproduction(f, grid=grid)}")
    text = f"value: {value}\nmethod: {args.method}"
    return text, {"value": str(value), "method": args.method}, 0


def _cmd_alpha(args):
    """Builds only the form main prints, and formats each point once: the
    raw table holds each point's box contiguously."""
    grid = _load_grid(args)
    entries, last = [], None
    for (point, u), w in weight_table(grid).weights._raw.items():
        if point != last:
            last, texts = point, [_value_text(x) for x in point]
            head = f"s=({', '.join(texts)}) u="
        value = _value_text(w)
        if args.json:
            entries.append({"point": texts, "exponent": list(u), "value": value})
        else:
            entries.append(f"{head}{_fmt_tuple(u)}: {value}")
    if args.json:
        return None, {"weights": entries}, 0
    return "\n".join(entries), None, 0


def _cmd_check_relation(args):
    grid = _load_grid(args)
    f = _load_poly(args, grid)
    holds = top_coefficient_identity_holds(f, grid)
    return f"holds: {_fmt_bool(holds)}", {"holds": holds}, 0 if holds else 1


def _cmd_cover_check(args):
    grid = _load_grid(args)
    rows = _json_arg(args, "hyperplanes", "hyperplanes are required")
    planes = hyperplanes_from_lists(grid.spec, rows)
    rep = verify_cover(planes, grid)
    lines = [
        f"verdict: {rep.verdict}",
        f"k: {rep.k}",
        f"bound: {rep.bound}",
        f"meets_bound: {_fmt_bool(rep.meets_bound)}",
        f"origin_covered: {_fmt_bool(rep.origin_covered)}",
    ]
    if rep.undercovered_points:
        lines.append(
            "undercovered: " + "; ".join(_fmt_tuple(p) for p in rep.undercovered_points)
        )
    if rep.proportional_pairs:
        lines.append(
            "proportional: " + "; ".join(f"{i + 1}~{j + 1}" for i, j in rep.proportional_pairs)
        )
    obj = {
        "verdict": rep.verdict,
        "k": rep.k,
        "bound": rep.bound,
        "meets_bound": rep.meets_bound,
        "origin_covered": rep.origin_covered,
        "undercovered": [[str(x) for x in p] for p in rep.undercovered_points],
        "proportional": [[i + 1, j + 1] for i, j in rep.proportional_pairs],
    }
    return "\n".join(lines), obj, 0 if rep.verdict == "valid_cover" else 1


def _cmd_cover_extremal(args):
    grid = _load_grid(args)
    planes = extremal_cover(grid)
    lines = [f"k: {len(planes)}"] + [str(h) for h in planes]
    obj = {"k": len(planes), "hyperplanes": [hyperplane_to_list(h) for h in planes]}
    return "\n".join(lines), obj, 0


def _cmd_sumset(args):
    spec = _parse_field(args.field)
    a = multiset_from_list(spec, _load_json(args.a, inline=True))
    b = multiset_from_list(spec, _load_json(args.b, inline=True))
    s = sumset(a, b)
    return str(s), {"sumset": multiset_to_list(s), "size": s.size}, 0


def _cmd_cd_check(args):
    spec = _parse_field(args.field)
    a = multiset_from_list(spec, _load_json(args.a, inline=True))
    b = multiset_from_list(spec, _load_json(args.b, inline=True))
    chk = cauchy_davenport_check(a, b)
    s = chk.measured
    text = (
        f"sumset: {s}\nlhs: {chk.lhs}\nrhs: {chk.rhs}\n"
        f"holds: {_fmt_bool(chk.holds)}"
    )
    obj = {
        "sumset": multiset_to_list(s),
        "lhs": chk.lhs,
        "rhs": chk.rhs,
        "holds": chk.holds,
        "deg_lhs": multiset_deg(s),
        "deg_rhs": multiset_deg(a) + multiset_deg(b),
    }
    return text, obj, 0 if chk.holds else 1


def _cmd_valueset(args):
    grid = _load_grid(args)
    f = _load_poly(args, grid)
    vs = value_set(f, grid)
    return str(vs), {"values": multiset_to_list(vs), "size": vs.size}, 0


def _cmd_sun_check(args):
    grid = _load_grid(args)
    coeffs = [part.strip() for part in args.coeffs.split(",")]
    g = parse_poly(args.g, grid.arity, grid.spec) if args.g else MultiPoly.zero(grid.arity, grid.spec)
    chk = sun_value_set_check(coeffs, args.k, g, grid)
    text = f"lhs: {chk.lhs}\nrhs: {chk.rhs}\nholds: {_fmt_bool(chk.holds)}"
    return text, {"lhs": chk.lhs, "rhs": chk.rhs, "holds": chk.holds}, 0 if chk.holds else 1


def _cmd_hopf_stiefel(args):
    beta = hopf_stiefel(args.p, args.r, args.s)
    _check_printable(beta)
    return str(beta), {"p": args.p, "r": args.r, "s": args.s, "beta": beta}, 0


def _cmd_ek_check(args):
    a = vector_multiset_from_list(args.p, args.dim, _load_json(args.a, inline=True))
    b = vector_multiset_from_list(args.p, args.dim, _load_json(args.b, inline=True))
    chk = eliahou_kervaire_check(a, b)
    _check_printable(chk.lhs, chk.rhs)  # the sumset's multiplicities are at most lhs
    ss = chk.measured
    text = f"sumset: {ss}\nlhs: {chk.lhs}\nrhs: {chk.rhs}\nholds: {_fmt_bool(chk.holds)}"
    obj = {
        "sumset": vector_multiset_to_list(ss),
        "lhs": chk.lhs,
        "rhs": chk.rhs,
        "holds": chk.holds,
    }
    return text, obj, 0 if chk.holds else 1


# -- the subcommands: each one's help line and its options in argparse's
# listing order, a flag and its add_argument keywords each.  build_parser
# adds them to argparse and _read_argv reads them from here

_JSON = ("--json", dict(action="store_true", help="emit a JSON object"))
_GRIDDED = (  # the options every subcommand on a grid starts with
    _JSON, ("--grid", dict(help="path to a grid JSON file")), ("--grid-inline", dict(help="grid JSON given inline")))
_REQUIRED = dict(required=True)
_POLY = ("--poly", _REQUIRED)
_REQUIRED_INT = dict(type=int, required=True)
_COMMANDS = {
    "reduce": ("remainder and cofactors modulo the grid", (*_GRIDDED, _POLY)),
    "member": ("grid ideal membership", (
        *_GRIDDED, _POLY, ("--method", dict(choices=["remainder", "pointwise", "both"], default="both")))),
    "witness": ("nonvanishing witness", (
        *_GRIDDED, _POLY, ("--t", dict(required=True, help="target exponent, e.g. 1,1")),
        ("--method", dict(choices=["exhaustive", "divided-difference"], default="exhaustive")))),
    "punctured": ("punctured decomposition", (
        *_GRIDDED, _POLY, ("--sub-grid", dict(help="path to the sub-grid JSON file")),
        ("--sub-grid-inline", dict(help="sub-grid JSON given inline")))),
    "divdiff": ("generalized divided difference", (
        *_GRIDDED, _POLY, ("--method", dict(choices=["def", "rec", "both"], default="both")))),
    "alpha": ("weight table of the grid", _GRIDDED),
    "check-relation": ("top-coefficient linear identity", (*_GRIDDED, _POLY)),
    "cover-check": ("verify a hyperplane cover", (
        *_GRIDDED, ("--hyperplanes", dict(help="path to hyperplane JSON (list of coefficient arrays)")),
        ("--hyperplanes-inline", dict(help="hyperplane JSON given inline")))),
    "cover-extremal": ("the bound-matching cover", _GRIDDED),
    "sumset": ("multiset sumset over F_p", (
        _JSON, ("--field", dict(required=True, help="prime:<p>")),
        ("--a", dict(required=True, help='multiset JSON, e.g. [{"value":"0","mult":2}]')), ("--b", _REQUIRED))),
    "cd-check": ("Cauchy-Davenport bound", (
        _JSON, ("--field", dict(required=True, help="prime:<p>")), ("--a", _REQUIRED), ("--b", _REQUIRED))),
    "valueset": ("value-set multiset", (*_GRIDDED, _POLY)),
    "sun-check": ("power-sum value-set bound", (
        *_GRIDDED, ("--coeffs", dict(required=True, help="nonzero coefficients, e.g. 1,1")), ("--k", _REQUIRED_INT),
        ("--g", dict(default="", help="perturbation polynomial with deg < k")))),
    "hopf-stiefel": ("Hopf-Stiefel number", (
        _JSON, ("--p", _REQUIRED_INT), ("--r", _REQUIRED_INT), ("--s", _REQUIRED_INT))),
    "ek-check": ("Eliahou-Kervaire bound over F_p^d", (
        _JSON, ("--p", _REQUIRED_INT), ("--dim", _REQUIRED_INT),
        ("--a", dict(required=True, help='vector multiset JSON, e.g. [{"value":[0,1],"mult":1}]')),
        ("--b", _REQUIRED))),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="nullgrid",
        description="Exact vanishing-ideal computations on multiset grids.",
    )
    subparsers = parser.add_subparsers(dest="command")
    for command, (help_line, options) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=help_line)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
    parser._commands = subparsers.choices  # each subcommand's parser by name, for _parse_args
    return parser


@functools.lru_cache(maxsize=None)
def _option_table(command: str):
    """(table, required dests, defaults) for _read_argv, from the command's
    declared options: the table maps each flag to its dest, the function
    that reads its value (None for a store_true flag) and its choices."""
    table, required, defaults = {}, set(), {}
    for flag, kwargs in _COMMANDS[command][1]:
        dest = flag[2:].replace("-", "_")
        if kwargs.get("action") == "store_true":
            table[flag], defaults[dest] = (dest, None, None), False
        else:
            read = _parse_int if kwargs.get("type") is int else str
            table[flag], defaults[dest] = (dest, read, kwargs.get("choices")), kwargs.get("default")
        if kwargs.get("required"):
            required.add(dest)
    return table, required, defaults


def _read_argv(command: str, argv):
    """The attributes the command's parse_args(argv) sets, read from its
    declared options when every token is an exact option string: an option
    with its value next (not dash-led) or after "=", or a store_true flag.
    Values pass through _parse_int for an int option and the choices, every
    required option must be present, the last of a repeated option wins and
    an absent one keeps its default.  None for any other argv, which
    parse_args then parses, so help, usage errors and abbreviations stay
    argparse's."""
    table, required, defaults = _option_table(command)
    values, seen, tokens = dict(defaults), set(), iter(argv)
    for token in tokens:
        if token in table:
            dest, read, choices = table[token]
            if read is None:  # store_true
                values[dest] = True
                continue
            text = next(tokens, "-")  # a missing value gives up as a dash-led one does
            if text.startswith("-"):
                return None
        else:
            option, eq, text = token.partition("=")
            # before Python 3.13 argparse drops an option's value "--"
            if not eq or option not in table or table[option][1] is None or text == "--":
                return None
            dest, read, choices = table[option]
        try:
            value = read(text)
        except (ValueError, argparse.ArgumentTypeError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        seen.add(dest)
    return values if seen >= required else None


def _parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), with a known subcommand's arguments
    given straight to its parser.  The top-level parser would pass them all
    on unchanged (its subparsers action takes nargs=PARSER), after
    classifying each one only to find the command; it parses just an argv
    that does not start with a command, to report the command missing or
    unknown.  The arguments are first read from the subcommand's declared
    options (_read_argv), which argparse was built from too; an argument
    list the reader does not read (help, abbreviations, "--", dash-led or
    missing values, usage errors) goes to the subcommand's parse_args."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in parser._commands:
        command, namespace = argv[0], argparse.Namespace(command=argv[0])
        values = _read_argv(command, argv[1:])
        if values is None:
            return parser._commands[command].parse_args(argv[1:], namespace)
        vars(namespace).update(values)
        return namespace
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        # the subcommand is checked here, not by argparse, so that an
        # unrecognized option before it (nullgrid --bogus) is the error named
        if args.command is None:
            raise _InputError("the following arguments are required: command")
        text, obj, code = globals()["_cmd_" + args.command.replace("-", "_")](args)
    except PreconditionError as exc:  # a ValueError, so caught before input errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"error: invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, KeyError) as exc:  # input errors, parse errors among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an unmapped failure is a bug, reported without a traceback
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1
    if args.json:
        payload = {"schema": SCHEMA, "command": args.command}
        payload.update(obj)
        text = json.dumps(payload)
    try:
        print(text, flush=True)
    except BrokenPipeError:  # silence the flush at exit (Python docs' SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code
