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
missing or unknown (or prints the top-level help).  A subcommand's argv of
exact option strings only -- each store option with a value that is not
dash-led or follows "=", each flag bare -- whose values pass their type and
choices and which names every required option is read from the option
table built once from that parser's own actions.  Any other argv (help,
abbreviations, "--", dash-led or missing values, usage errors) goes to
argparse, so its messages and exit codes are argparse's.  Subcommand foo-bar
is handled by _cmd_foo_bar, looked up at dispatch.
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

    @functools.cached_property
    def _option_table(self):
        """(table, required actions, defaults) for _read_argv, from _actions:
        the table maps each option string to its action when the reader
        models it (a store of one value, or store_true) and to None when not.
        None in place of the triple when an absent action does more than
        leave its default: a positional, a str default that a type converts,
        set_defaults or an exclusive group."""
        if self._defaults or self._mutually_exclusive_groups:
            return None
        table, required, defaults = {}, [], {}
        for action in self._actions:
            if not action.option_strings or (isinstance(action.default, str) and action.type is not None):
                return None
            kind = type(action)
            read = kind is argparse._StoreTrueAction or (kind is argparse._StoreAction and action.nargs is None)
            table.update(dict.fromkeys(action.option_strings, action if read else None))
            if action.required:
                required.append(action)
            if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
                defaults.setdefault(action.dest, action.default)
        return table, required, defaults

    def _read_argv(self, argv):
        """The attributes parse_args(argv) sets, read from the option table
        when every token is an exact option string: a store option with its
        value next (not dash-led) or after "=", or a store_true flag.  Values
        pass through the registered type function and the choices, every
        required option must be present, the last of a repeated option wins
        and an absent one keeps its default.  None for any other argv, which
        parse_args then parses, so help, usage errors and abbreviations stay
        argparse's."""
        if self._option_table is None:
            return None
        table, required, defaults = self._option_table
        values, seen, tokens = dict(defaults), set(), iter(argv)
        for token in tokens:
            if token in table:
                action = table[token]
                if action is None:
                    return None
                if action.nargs == 0:  # store_true
                    values[action.dest] = action.const
                    seen.add(action)
                    continue
                text = next(tokens, "-")  # a missing value gives up as a dash-led one does
                if text.startswith("-"):
                    return None
            else:
                option, eq, text = token.partition("=")
                action = table.get(option)
                # before Python 3.13 argparse drops an option's value "--"
                if not eq or action is None or action.nargs == 0 or text == "--":
                    return None
            try:
                value = self._registry_get("type", action.type, action.type)(text)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
            seen.add(action)
        return values if seen.issuperset(required) else None


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


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="nullgrid",
        description="Exact vanishing-ideal computations on multiset grids.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON object")
    gridded = argparse.ArgumentParser(add_help=False)
    gridded.add_argument("--grid", help="path to a grid JSON file")
    gridded.add_argument("--grid-inline", help="grid JSON given inline")

    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("reduce", parents=[common, gridded], help="remainder and cofactors modulo the grid")
    sp.add_argument("--poly", required=True)

    sp = sub.add_parser("member", parents=[common, gridded], help="grid ideal membership")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--method", choices=["remainder", "pointwise", "both"], default="both")

    sp = sub.add_parser("witness", parents=[common, gridded], help="nonvanishing witness")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--t", required=True, help="target exponent, e.g. 1,1")
    sp.add_argument(
        "--method", choices=["exhaustive", "divided-difference"], default="exhaustive"
    )

    sp = sub.add_parser("punctured", parents=[common, gridded], help="punctured decomposition")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--sub-grid", help="path to the sub-grid JSON file")
    sp.add_argument("--sub-grid-inline", help="sub-grid JSON given inline")

    sp = sub.add_parser("divdiff", parents=[common, gridded], help="generalized divided difference")
    sp.add_argument("--poly", required=True)
    sp.add_argument("--method", choices=["def", "rec", "both"], default="both")

    sp = sub.add_parser("alpha", parents=[common, gridded], help="weight table of the grid")

    sp = sub.add_parser(
        "check-relation", parents=[common, gridded], help="top-coefficient linear identity"
    )
    sp.add_argument("--poly", required=True)

    sp = sub.add_parser("cover-check", parents=[common, gridded], help="verify a hyperplane cover")
    sp.add_argument("--hyperplanes", help="path to hyperplane JSON (list of coefficient arrays)")
    sp.add_argument("--hyperplanes-inline", help="hyperplane JSON given inline")

    sp = sub.add_parser(
        "cover-extremal", parents=[common, gridded], help="the bound-matching cover"
    )

    sp = sub.add_parser("sumset", parents=[common], help="multiset sumset over F_p")
    sp.add_argument("--field", required=True, help="prime:<p>")
    sp.add_argument("--a", required=True, help='multiset JSON, e.g. [{"value":"0","mult":2}]')
    sp.add_argument("--b", required=True)

    sp = sub.add_parser("cd-check", parents=[common], help="Cauchy-Davenport bound")
    sp.add_argument("--field", required=True, help="prime:<p>")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)

    sp = sub.add_parser("valueset", parents=[common, gridded], help="value-set multiset")
    sp.add_argument("--poly", required=True)

    sp = sub.add_parser("sun-check", parents=[common, gridded], help="power-sum value-set bound")
    sp.add_argument("--coeffs", required=True, help="nonzero coefficients, e.g. 1,1")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--g", default="", help="perturbation polynomial with deg < k")

    sp = sub.add_parser("hopf-stiefel", parents=[common], help="Hopf-Stiefel number")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)

    sp = sub.add_parser("ek-check", parents=[common], help="Eliahou-Kervaire bound over F_p^d")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--a", required=True, help='vector multiset JSON, e.g. [{"value":[0,1],"mult":1}]')
    sp.add_argument("--b", required=True)

    return parser


def _parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), with a known subcommand's arguments
    given straight to its parser.  The top-level parser would pass them all
    on unchanged (its subparsers action takes nargs=PARSER), after
    classifying each one only to find the command; it parses just an argv
    that does not start with a command, to report the command missing or
    unknown.  The subcommand's parser first reads its arguments from its
    option table (_ArgumentParser._read_argv); an argument list the table
    does not read (help, abbreviations, "--", dash-led or missing values,
    usage errors) goes to the subcommand's parse_args."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if argv and argv[0] in commands:
        sub, namespace = commands[argv[0]], argparse.Namespace(command=argv[0])
        values = sub._read_argv(argv[1:])
        if values is None:
            return sub.parse_args(argv[1:], namespace)
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
