"""Command-line interface: every analysis as a reproducible batch command.

Every run prints one JSON envelope through `_json_text`, usage errors
included. An argv that starts with a subcommand goes straight to that
subcommand's parser (`_parse`), which gives what the nested parse gives: the
top-level parser would hand it every string after the command unchanged. A
`variety` query's class rows and representatives are rendered to JSON text
once per n (`_variety_rows`); each query selects its rows with one down-set
bit test each and splices their text into its envelope.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields
from functools import cache
from itertools import compress
from json.encoder import encode_basestring_ascii

from .errors import BnSpechtError, ResourceLimitExceeded, ResourceLimits
from .groebner import (
    covering_certificate,
    inclusion_by_certificates,
    radical_report,
    specht_ideal_contains,
    universal_gb_check,
)
from .invariants import detection_report, rank_bound
from .partitions import (
    _check_size,
    bidominates,
    hasse_diagram,
    hecke_leq,
    induced_leq,
    parse_bipartition,
)
from .polynomials import parse_point, parse_polynomial
from .tableaux import reference_bitableau, specht_generators, specht_polynomial_bn
from .varieties import _class_rows, _outside, _representative_rows, bn_orbit_type, sn_orbit_type

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_RESOURCE = 3


_CONSTANTS = {None: "null", True: "true", False: "false"}
_ONLY_STR = frozenset([str])
_ONLY_INT = frozenset([int])


class _Json(str):
    """JSON text, rendered at the indent where it lands, that `_json_text` splices in verbatim."""


def _json_text(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)` byte for byte, its lines after the first shifted by `indent`.

    The stdlib's `indent` turns off its C encoder. Here exact `str`, `int`,
    constant, list, tuple and `str`-keyed dict values are joined directly, and
    a list of only `str` or only `int` items in one `map`. A `_Json` value is
    returned as it is: `variety` renders its class rows through this function
    once per n and splices them in. Any other value (a float, a subclass, a
    dict with other keys) goes to the stdlib and is shifted line by line,
    which is exact because the stdlib escapes every newline inside a string.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return _CONSTANTS[value]
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        kinds = set(map(type, value))
        if kinds == _ONLY_STR:
            items = map(encode_basestring_ascii, value)
        elif kinds == _ONLY_INT:
            items = map(int.__repr__, value)
        else:
            items = [_json_text(item, inner) for item in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if kind is dict:
        if not value:
            return "{}"
        if set(map(type, value)) == _ONLY_STR:
            inner = indent + "  "
            items = [
                f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
                for key, item in value.items()
            ]
            return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if kind is _Json:
        return value
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _limits(args) -> ResourceLimits:
    return ResourceLimits(**{f.name: getattr(args, f.name) for f in fields(ResourceLimits)})


def _cmd_poset(args) -> dict | str:
    diagram = hasse_diagram(args.n)
    return diagram.to_dot() if args.dot else diagram.to_json()


def _cmd_order(args) -> dict:
    a = parse_bipartition(args.a)
    b = parse_bipartition(args.b)
    above = {
        "bidom": bidominates,
        "hecke": lambda x, y: hecke_leq(y, x),
        "induced": lambda x, y: induced_leq(y, x),
    }[args.relation]
    a_geq_b = above(a, b)
    b_geq_a = above(b, a)
    return {
        "a": str(a),
        "b": str(b),
        "relation": args.relation,
        "a_geq_b": a_geq_b,
        "b_geq_a": b_geq_a,
        "comparable": a_geq_b or b_geq_a,
    }


def _cmd_specht(args) -> dict:
    shape = parse_bipartition(args.shape)
    limits = _limits(args)
    if args.all:
        gens = specht_generators(shape, args.n, limits)
    else:
        gens = [specht_polynomial_bn(reference_bitableau(shape, args.n), limits)]
    return {"shape": str(shape), "n": args.n, "generators": [str(g) for g in gens]}


def _cmd_ideal_inc(args) -> dict:
    a = parse_bipartition(args.a)
    b = parse_bipartition(args.b)
    _check_size(args.n, a, b)
    limits = _limits(args)
    out = {"a": str(a), "b": str(b), "n": args.n, "method": args.method}
    if args.method == "groebner":
        out["included"] = specht_ideal_contains(a, b, args.n, limits=limits)
    else:
        if not bidominates(a, b):
            out["included"] = False
            out["chain"] = []
        else:
            report = inclusion_by_certificates(a, b, args.n, limits=limits)
            out["included"] = True
            out["chain"] = [str(c) for c in report.chain]
            out["verified_steps"] = list(report.verified_steps)
    return out


_ROW_INDENT = " " * 6  # a class row's depth in the ok envelope: payload, list, row


@cache
def _variety_rows(n: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The JSON text of each class row and of its representative, in `_class_rows(n)` order.

    Rendered once per n by `_json_text`, at the indent where `_cmd_variety`
    splices them, so its output equals `decomposition_report`'s byte for byte.
    """
    classes = tuple(_json_text(dict(fields), _ROW_INDENT) for _, _, fields in _class_rows(n))
    representatives = tuple(_json_text(coords, _ROW_INDENT) for coords in _representative_rows(n))
    return classes, representatives


def _spliced_rows(rows) -> _Json:
    body = f",\n{_ROW_INDENT}".join(rows)
    return _Json(f"[\n{_ROW_INDENT}{body}\n    ]" if body else "[]")


def _cmd_variety(args) -> dict:
    shape = parse_bipartition(args.shape)
    _check_size(args.n, shape)
    keep = _outside(shape)
    classes, representatives = _variety_rows(args.n)
    return {
        "bipartition": str(shape),
        "classes": _spliced_rows(compress(classes, keep)),
        "representatives": _spliced_rows(compress(representatives, keep)),
    }


def _cmd_orbit_type(args) -> dict:
    coords = parse_point(args.point)
    return {
        "point": [str(c) for c in coords],
        "sn_type": str(sn_orbit_type(coords)),
        "bn_type": str(bn_orbit_type(coords)),
    }


def _cmd_gamma(args) -> dict:
    return detection_report(parse_polynomial(args.poly, args.n), args.n)


def _cmd_certify_cover(args) -> dict:
    return covering_certificate(args.case, args.a, args.b, _limits(args)).to_json()


def _cmd_conjecture(args) -> dict:
    shape = parse_bipartition(args.shape)
    limits = _limits(args)
    orders = list(dict.fromkeys(tag.strip() for tag in args.orders.split(",") if tag.strip()))
    if not orders:
        raise ValueError(f"--orders {args.orders!r} names no monomial order")
    report = universal_gb_check(shape, args.n, orders, limits).to_json()
    report["radical"] = radical_report(shape, args.n, limits)
    return report


def _cmd_rank_bound(args) -> dict:
    shape = parse_bipartition(args.shape)
    return {"shape": str(shape), "n": args.n, "rank_bound": rank_bound(shape, args.n)}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, so that `run` prints them as rejected input.

    An argument that starts with '-' and a digit is a value, such as the point `-1,2`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise BnSpechtError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bnspecht")
    sub = parser.add_subparsers(dest="command", required=True)

    required, integer = {"required": True}, {"type": int, "required": True}
    n, shape, a, b = ("--n", integer), ("--shape", required), ("--a", required), ("--b", required)
    case = ("--case", {**integer, "choices": [3, 4]})
    caps = [
        (f"--{f.name.replace('_', '-')}", {"type": int, "default": f.default})
        for f in fields(ResourceLimits)
    ]

    def choice(flag, *values):
        return flag, {"choices": values, "default": values[0]}

    commands = {  # name: (handler, *its options in --help order, caps first if read)
        "poset": (_cmd_poset, n),
        "order": (_cmd_order, a, b, choice("--relation", "bidom", "hecke", "induced")),
        "specht": (_cmd_specht, *caps, shape, n, ("--all", {"action": "store_true"})),
        "ideal-inc": (
            _cmd_ideal_inc, *caps, a, b, n, choice("--method", "groebner", "certificate")
        ),
        "variety": (_cmd_variety, shape, n),
        "orbit-type": (_cmd_orbit_type, ("--point", required)),
        "gamma": (_cmd_gamma, ("--poly", required), n),
        "certify-cover": (_cmd_certify_cover, *caps, case, (a[0], integer), (b[0], integer)),
        "conjecture": (
            _cmd_conjecture, *caps, shape, n, ("--orders", {"default": "lex,deglex,degrevlex"})
        ),
        "rank-bound": (_cmd_rank_bound, shape, n),
    }
    for name, (func, *options) in commands.items():
        p = sub.add_parser(name)
        for flag, settings in options:
            p.add_argument(flag, **settings)
        p.set_defaults(func=func)
    group = sub.choices["poset"].add_mutually_exclusive_group()
    group.add_argument("--dot", action="store_true")
    group.add_argument("--json", action="store_true")
    parser.commands = sub.choices
    return parser


def _parse(argv) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, with a subcommand's argv read by its parser alone.

    The top-level parser's subparsers action takes every string after the
    command, `--` included, before the top level's own `-h` can act, and
    passes them unchanged to the subcommand's parser. The top level then only
    sets `command` and rejects the leftovers, as here. Any other argv (empty,
    `--help`, an unknown command) goes to the top-level parser.
    """
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def run(argv) -> int:
    """Run one `bnspecht` call; print its envelope (or DOT text) and return its exit code.

    argv that starts with a subcommand goes straight to that subcommand's
    parser (`_parse`). The nested parse would hand it the same strings and add
    only `command` and the unrecognized-arguments error, so the outcome is the
    same, with one argparse scan instead of two.
    """
    try:
        args = _parse(argv)
        payload = args.func(args)
    except ResourceLimitExceeded as exc:
        print(_json_text({"status": "resource-exceeded", "error": str(exc)}))
        return EXIT_RESOURCE
    except (BnSpechtError, ValueError) as exc:
        print(_json_text({"status": "rejected-input", "error": str(exc)}))
        return EXIT_REJECTED
    if isinstance(payload, str):  # raw DOT text
        print(payload)
    else:
        print(_json_text({"status": "ok", "payload": payload}))
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
