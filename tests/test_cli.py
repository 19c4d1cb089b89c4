"""End-to-end tests of the command-line interface."""

import argparse
import io
import json
import os
import subprocess
import sys
import time
from collections import OrderedDict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from fractions import Fraction
from functools import cache
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bnspecht.cli import (
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_RESOURCE,
    _json_text,
    _limits,
    _parse,
    build_parser,
    run,
)
from bnspecht.errors import BnSpechtError, ResourceLimits
from bnspecht.partitions import enumerate_bipartitions, parse_bipartition

SRC = Path(__file__).resolve().parents[1] / "src"


def invoke(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def payload(capsys, *argv):
    code, out = invoke(capsys, *argv)
    assert code == EXIT_OK, out
    doc = json.loads(out)
    assert doc["status"] == "ok"
    return doc["payload"]


def test_poset_json_and_dot(capsys):
    doc = payload(capsys, "poset", "--n", "2")
    vertices = {(tuple(v["left"]), tuple(v["right"])) for v in doc["vertices"]}
    assert ((2,), ()) in vertices and ((), (1, 1)) in vertices
    assert len(doc["vertices"]) == 5
    assert all(len(edge) == 2 for edge in doc["edges"])
    code, out = invoke(capsys, "poset", "--n", "2", "--dot")
    assert code == EXIT_OK
    assert out.startswith("digraph") and '"([2],[])"' in out


def test_order_relations(capsys):
    doc = payload(capsys, "order", "--a", "((2),())", "--b", "((1),(1))")
    assert doc["a_geq_b"] is True and doc["b_geq_a"] is False and doc["comparable"]
    doc = payload(
        capsys, "order", "--a", "((2),())", "--b", "((1),(1))", "--relation", "hecke"
    )
    assert doc["a_geq_b"] is True
    doc = payload(
        capsys, "order", "--a", "((1,1),())", "--b", "((1),(1))", "--relation", "induced"
    )
    assert doc["a_geq_b"] is True and doc["b_geq_a"] is False


def test_specht_generators_command(capsys):
    doc = payload(capsys, "specht", "--shape", "((1),(1))", "--n", "2", "--all")
    assert set(doc["generators"]) == {"x1", "x2"}
    doc = payload(capsys, "specht", "--shape", "((1,1),())", "--n", "2")
    assert doc["generators"] == ["x1^2 - x2^2"]


def test_ideal_inclusion_command(capsys):
    doc = payload(capsys, "ideal-inc", "--a", "((1),(1))", "--b", "((1,1),())", "--n", "2")
    assert doc["included"] is True
    doc = payload(
        capsys,
        "ideal-inc",
        "--a",
        "((2),())",
        "--b",
        "((1,1),())",
        "--n",
        "2",
        "--method",
        "certificate",
    )
    assert doc["included"] is True
    assert doc["chain"] == ["((2),())", "((1),(1))", "((1,1),())"]
    assert doc["verified_steps"] == [True, True]
    doc = payload(
        capsys,
        "ideal-inc",
        "--a",
        "((1,1),())",
        "--b",
        "((1),(1))",
        "--n",
        "2",
        "--method",
        "certificate",
    )
    assert doc["included"] is False and doc["chain"] == []


def test_variety_command_lists_the_five_classes(capsys):
    doc = payload(capsys, "variety", "--shape", "((1,1),(2))", "--n", "4")
    got = {c["bipartition"] for c in doc["classes"]}
    assert got == {"((4),())", "((3,1),())", "((2,2),())", "((2,1,1),())", "((),(4))"}
    assert len(doc["representatives"]) == 5


def test_orbit_type_command(capsys):
    doc = payload(capsys, "orbit-type", "--point", "2,-2,0")
    assert doc["bn_type"] == "((1,1),(1))"
    assert doc["sn_type"] == "(1,1,1)"
    doc = payload(capsys, "orbit-type", "--point", "1/2,-1/2,1/2")
    assert doc["bn_type"] == "((),(3))"


def test_gamma_command(capsys):
    doc = payload(capsys, "gamma", "--poly", "x1^2*x2*x3 + x1", "--n", "4")
    assert doc["maximal_gamma_star"] == ["((1,1),(2))"]
    assert doc["rank_bound"] > 0


def test_certify_cover_command(capsys):
    doc = payload(capsys, "certify-cover", "--case", "3", "--a", "1", "--b", "1")
    assert doc["verified"] is True and doc["target"] == "x1^2 - x2^2"


def test_conjecture_command(capsys):
    doc = payload(
        capsys,
        "conjecture",
        "--shape",
        "((1),(1))",
        "--n",
        "2",
        "--orders",
        "lex,deglex",
    )
    assert doc["orders"] == {"lex": True, "deglex": True}
    assert doc["radical"]["agreement"] is True


def test_rank_bound_command(capsys):
    doc = payload(capsys, "rank-bound", "--shape", "((1),(1))", "--n", "2")
    assert doc["rank_bound"] == 1


def test_output_is_deterministic(capsys):
    _, first = invoke(capsys, "variety", "--shape", "((1),(1,1))", "--n", "3")
    _, second = invoke(capsys, "variety", "--shape", "((1),(1,1))", "--n", "3")
    assert first == second
    _, first = invoke(capsys, "poset", "--n", "3")
    _, second = invoke(capsys, "poset", "--n", "3")
    assert first == second


def test_printed_bipartitions_round_trip(capsys):
    doc = payload(capsys, "variety", "--shape", "((2,1),(1,1))", "--n", "5")
    for entry in doc["classes"]:
        parsed = parse_bipartition(entry["bipartition"])
        assert str(parsed) == entry["bipartition"]


def test_rejected_input_exit_code(capsys):
    code, out = invoke(capsys, "order", "--a", "((1,x),(2))", "--b", "((2),())")
    assert code == EXIT_REJECTED
    assert json.loads(out)["status"] == "rejected-input"
    code, out = invoke(capsys, "variety", "--shape", "((1),(1))", "--n", "3")
    assert code == EXIT_REJECTED
    code, out = invoke(capsys, "gamma", "--poly", "x1 +", "--n", "2")
    assert code == EXIT_REJECTED


@pytest.mark.parametrize("method", ["groebner", "certificate"])
def test_ideal_inclusion_checks_the_sizes_before_either_method(capsys, method):
    argv = ("ideal-inc", "--a", "((1,1),())", "--b", "((2),())", "--n", "5", "--method", method)
    code, out = invoke(capsys, *argv)
    assert code == EXIT_REJECTED
    assert json.loads(out) == {"status": "rejected-input", "error": "shapes must have size 5"}


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ("variety", "--shape", "((1),())"),
            "bnspecht variety: the following arguments are required: --n",
        ),
        (("poset", "--n", "x"), "bnspecht poset: argument --n: invalid int value: 'x'"),
        (
            ("frob",),
            "bnspecht: argument command: invalid choice: 'frob' (choose from 'poset', 'order', "
            "'specht', 'ideal-inc', 'variety', 'orbit-type', 'gamma', 'certify-cover', "
            "'conjecture', 'rank-bound')",
        ),
        (
            ("ideal-inc", "--a", "((1),())", "--b", "((1),())", "--n", "1", "--method", "sat"),
            "bnspecht ideal-inc: argument --method: invalid choice: 'sat' "
            "(choose from 'groebner', 'certificate')",
        ),
        (("poset", "--n", "2", "--extra"), "bnspecht: unrecognized arguments: --extra"),
        ((), "bnspecht: the following arguments are required: command"),
        (
            ("poset", "--n", "2", "--max-basis", "5"),
            "bnspecht: unrecognized arguments: --max-basis 5",
        ),
    ],
    ids=["missing", "not-an-int", "subcommand", "choice", "unrecognized", "empty", "uncapped"],
)
def test_usage_errors_are_rejected_input(capsys, argv, error):
    code, out = invoke(capsys, *argv)
    assert code == EXIT_REJECTED
    assert json.loads(out) == {"status": "rejected-input", "error": error}
    assert capsys.readouterr().err == ""


def test_help_still_exits_zero_with_the_usage(capsys):
    with pytest.raises(SystemExit) as exited:
        run(["variety", "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bnspecht variety")


NEGATIVE_N = {
    "poset": ("poset",),
    "specht": ("specht", "--shape", "((),())"),
    "ideal-inc": ("ideal-inc", "--a", "((),())", "--b", "((),())"),
    "variety": ("variety", "--shape", "((),())"),
    "gamma": ("gamma", "--poly", "1"),
    "conjecture": ("conjecture", "--shape", "((),())"),
    "rank-bound": ("rank-bound", "--shape", "((),())"),
}


@pytest.mark.parametrize("argv", NEGATIVE_N.values(), ids=NEGATIVE_N.keys())
def test_a_negative_n_gets_one_message_on_every_subcommand(capsys, argv):
    code, out = invoke(capsys, *argv, "--n", "-1")
    assert code == EXIT_REJECTED
    assert json.loads(out) == {"status": "rejected-input", "error": "n must be non-negative"}


def test_non_ascii_digits_are_rejected_with_their_position(capsys):
    code, out = invoke(capsys, "order", "--a", "((\u00b2),())", "--b", "((1),())")
    assert code == EXIT_REJECTED
    assert json.loads(out) == {
        "status": "rejected-input",
        "error": "expected a part or ')' (at position 2)",
    }


@pytest.mark.parametrize("point", ["1/0", "2,-1/0,0", "0/0"])
def test_orbit_type_rejects_a_zero_denominator(capsys, point):
    code, out = invoke(capsys, "orbit-type", "--point", point)
    assert code == EXIT_REJECTED
    doc = json.loads(out)
    assert doc["status"] == "rejected-input" and "zero denominator" in doc["error"]


@pytest.mark.parametrize(
    "point,error",
    [
        ("\u0661,1_0,1e1", "expected a number (at position 0)"),
        ("1,1_0,1e1", "unexpected character '_' (at position 3)"),
        ("1e1", "unexpected character 'e' (at position 1)"),
        ("1.5,2", "unexpected character '.' (at position 1)"),
        ("", "expected a number (at position 0)"),
        ("1,", "expected a number (at position 2)"),
        ("1,,2", "expected a number (at position 2)"),
        ("+-1", "expected a number (at position 1)"),
        ("1/", "expected a denominator after '/' (at position 2)"),
        ("2,-1/0,0", "zero denominator (at position 5)"),
        ("-1,", "expected a number (at position 3)"),
        ("-1/0,2", "zero denominator (at position 3)"),
        ("-2,x", "expected a number (at position 3)"),
        ("-x", "bnspecht orbit-type: argument --point: expected one argument"),
    ],
)
def test_orbit_type_reads_the_polynomial_number_grammar(capsys, point, error):
    code, out = invoke(capsys, "orbit-type", "--point", point)
    assert code == EXIT_REJECTED
    assert json.loads(out) == {"status": "rejected-input", "error": error}


def test_orbit_type_coordinates_take_a_sign_and_spaces(capsys):
    doc = payload(capsys, "orbit-type", "--point", " 1/2 , - 3,+4 ")
    assert doc["point"] == ["1/2", "-3", "4"]
    assert doc == payload(capsys, "orbit-type", "--point", "1/2,-3,4")


def test_conjecture_checks_each_order_once_in_first_seen_order(capsys):
    argv = ("conjecture", "--shape", "((1),(1))", "--n", "2")
    doc = payload(capsys, *argv, "--orders", "deglex, lex,deglex,,lex")
    assert list(doc["orders"]) == ["deglex", "lex"]
    assert doc == payload(capsys, *argv, "--orders", "deglex,lex")


@pytest.mark.parametrize("orders", ["", ",", " , ,"])
def test_conjecture_rejects_an_empty_order_list(capsys, orders):
    code, out = invoke(capsys, "conjecture", "--shape", "((1),(1))", "--n", "2", "--orders", orders)
    assert code == EXIT_REJECTED
    doc = json.loads(out)
    assert doc["status"] == "rejected-input" and "names no monomial order" in doc["error"]


SPECHT_111 = ("specht", "--shape", "((1,1,1),())", "--n", "3")
# under --max-basis 2 the basis outgrows the cap; without it, included: true
IDEAL_INC = ("ideal-inc", "--a", "((2,2),())", "--b", "((2,1,1),())", "--n", "4")
BACK_TO_BACK = [
    (SPECHT_111 + ("--max-terms", "1"), EXIT_RESOURCE),
    (SPECHT_111, EXIT_OK),
    (SPECHT_111 + ("--all",), EXIT_OK),
    (SPECHT_111, EXIT_OK),
    (IDEAL_INC + ("--max-basis", "2"), EXIT_RESOURCE),
    (IDEAL_INC, EXIT_OK),
    (("order", "--a", "((2),())", "--b", "((1),(1))", "--relation", "hecke"), EXIT_OK),
    (("order", "--a", "((2),())", "--b", "((1),(1))"), EXIT_OK),
    (("poset", "--n", "2", "--dot"), EXIT_OK),
    (("poset", "--n", "2"), EXIT_OK),
    (("orbit-type", "--point", "1/0"), EXIT_REJECTED),
    (("orbit-type", "--point", "2,-2,0"), EXIT_OK),
]


def test_back_to_back_runs_print_what_fresh_runs_print(capsys):
    fresh = []
    for argv, _ in BACK_TO_BACK:
        build_parser.cache_clear()
        fresh.append(invoke(capsys, *argv))
    build_parser.cache_clear()
    for (argv, code), expected in zip(BACK_TO_BACK, fresh):
        got = invoke(capsys, *argv)
        assert got == expected and got[0] == code, argv
    assert build_parser.cache_info().misses == 1


CAPPED = {
    "specht": SPECHT_111,
    "ideal-inc": IDEAL_INC,
    "certify-cover": ("certify-cover", "--case", "3", "--a", "1", "--b", "1"),
    "conjecture": ("conjecture", "--shape", "((1),(1))", "--n", "2"),
}


def test_only_the_subcommands_that_read_the_caps_accept_them():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 10
    for name, p in sub.choices.items():
        caps = [
            (a.option_strings, a.dest, a.type, a.default)
            for a in p._actions
            if any(option.startswith("--max-") for option in a.option_strings)
        ]
        expected = [
            ([f"--{f.name.replace('_', '-')}"], f.name, int, f.default)
            for f in fields(ResourceLimits)
        ]
        assert caps == (expected if name in CAPPED else []), name


@pytest.mark.parametrize("argv", CAPPED.values(), ids=CAPPED.keys())
def test_every_capped_handler_reads_each_cap(argv):
    caps = ("--max-basis", "7", "--max-terms", "8", "--max-cosets", "9", "--max-enumeration", "10")
    args = build_parser().parse_args([*argv, *caps])
    expected = ResourceLimits(max_basis=7, max_terms=8, max_cosets=9, max_enumeration=10)
    assert _limits(args) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ("specht", "--shape", "((1),())", "--n", "1", "--max-terms", "-3"),
        ("certify-cover", "--case", "3", "--a", "1", "--b", "1", "--max-cosets", "-1"),
    ],
)
def test_a_negative_cap_is_rejected_input(capsys, argv):
    code, out = invoke(capsys, *argv)
    assert code == EXIT_REJECTED
    doc = json.loads(out)
    assert doc["status"] == "rejected-input" and "must be non-negative" in doc["error"]


def test_a_large_generator_enumeration_exits_3_at_once(capsys):
    start = time.perf_counter()
    code, out = invoke(capsys, "specht", "--all", "--shape", "((8,8),())", "--n", "16")
    assert time.perf_counter() - start < 1
    assert code == EXIT_RESOURCE
    assert json.loads(out) == {
        "status": "resource-exceeded",
        "error": "enumeration size 2027025 exceeds cap 100000",
    }


@pytest.mark.parametrize(
    "argv, error",
    [
        # |BP_40| = sum of p(k) p(40 - k), counted before any partition is built
        (("poset", "--n", "40"), "enumeration size 9035539 exceeds cap 100000"),
        # squaring's first product over the cap: the 12th power's 455 terms times the 16th's 969
        (
            ("gamma", "--poly", "(x1+x2+x3+x4)^60", "--n", "4"),
            "term count 440895 exceeds cap 200000",
        ),
    ],
)
def test_a_large_enumeration_or_power_exits_3_at_once(capsys, argv, error):
    start = time.perf_counter()
    code, out = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == EXIT_RESOURCE
    assert json.loads(out) == {"status": "resource-exceeded", "error": error}


def test_resource_exit_code(capsys):
    code, out = invoke(
        capsys,
        "ideal-inc",
        "--a",
        "((2,2),())",
        "--b",
        "((2,1,1),())",
        "--n",
        "4",
        "--max-basis",
        "2",
    )
    assert code == EXIT_RESOURCE
    assert json.loads(out)["status"] == "resource-exceeded"


# ---------------------------------------------------------------------------
# an argv grammar over the ten subcommands: the dispatching parse against the
# nested one, and the envelope contract

POLYS = (  # polynomials of degree at most 4, by the largest variable index they use
    ("0", "1", "-3/4"),
    ("x1", "x1^4 - 1/2*x1"),
    ("x1^2 - x2^2", "x1*x2*(x1 - x2)", "(x1 + x2)^4"),
    ("x2*x3*(x1^2 - 1)", "1/2*x1*x2*x3 - x3^4"),
)
CORRUPT = {
    "--n": ("-1", "x", "1.5", ""),
    "--shape": ("((1,x),())", "((1),(1)", "((0,2),())", "()", "((1),(1))"),
    "--relation": ("frob",),
    "--method": ("sat",),
    "--point": ("1/0", "", "x", "1e1", "2,,1"),
    "--poly": ("x1 +", "x4", "x1 \u00e9", "x1^-1", ""),
    "--case": ("5", "x"),
    "--orders": ("", " , ", "frob"),
}
CORRUPT.update({"--a": CORRUPT["--shape"] + ("1",), "--b": CORRUPT["--shape"] + ("-1",)})
CAP_FLAGS = tuple(f"--{f.name.replace('_', '-')}" for f in fields(ResourceLimits))
CORRUPT.update(dict.fromkeys(CAP_FLAGS, ("-1", "x")))
FLAGS = ("--all", "--dot", "--json")  # the options that take no value
OPTIONS = {  # each subcommand's options, optional ones after "|"; `CAPPED` ones add the caps
    "poset": "--n | --dot --json",
    "order": "--a --b | --relation",
    "specht": "--shape --n | --all",
    "ideal-inc": "--a --b --n | --method",
    "variety": "--shape --n |",
    "orbit-type": "--point |",
    "gamma": "--poly --n |",
    "certify-cover": "--case --a --b |",
    "conjecture": "--shape --n | --orders",
    "rank-bound": "--shape --n |",
}
ODD_TOKENS = (
    "--", "--sh", "--m", "--n=2", "--a=1", "--max-basis=1", "-1", "--frob", "-x", "", "poset",
    "frob",
)
HELP_TOKENS = ("-h", "--help", "--he")


def valid_values(command, n):
    """The valid values of each option at n; every n is at most 3."""
    shapes = tuple(str(shape) for shape in enumerate_bipartitions(n))
    return {
        "--n": (str(n),),
        "--shape": shapes,
        "--a": ("1", "2") if command == "certify-cover" else shapes,  # a = b = 3 takes 1 s
        "--b": ("0", "1", "2") if command == "certify-cover" else shapes,
        "--relation": ("bidom", "hecke", "induced"),
        "--method": ("groebner", "certificate"),
        "--point": ("2,-2,0", "1/2, -1/2", "0", "-1,3"),
        "--poly": tuple(chain.from_iterable(POLYS[: n + 1])),
        "--case": ("3", "4"),
        "--orders": ("lex", "deglex, degrevlex", "lex-rev,lex,lex"),
        **dict.fromkeys(CAP_FLAGS, ("0", "1", "2", "50", "2000")),
    }


def mostly(good, bad):
    """`good` three times in four, else `bad` (`one_of` would merge repeated branches)."""
    return st.sampled_from((good, good, good, bad)).flatmap(lambda drawn: drawn)


def option(flag, valid):
    """A flag alone if it takes no value, else the flag and a value, valid three times in four."""
    if flag in FLAGS:
        return st.just((flag,))
    value = mostly(st.sampled_from(valid[flag]), st.sampled_from(CORRUPT[flag]))
    return value.map(lambda value: (flag, value))


@cache
def command_argvs(command, n, tokens):
    """One subcommand's argv at n: its options in any order, some dropped, plus stray strings."""
    valid = valid_values(command, n)
    required, optional = (flags.split() for flags in OPTIONS[command].split("|"))
    optional += CAP_FLAGS if command in CAPPED else ()
    nothing = st.just(())
    own = [mostly(option(flag, valid), nothing) for flag in required]
    own += [option(flag, valid) | nothing for flag in optional]
    stray = st.sampled_from(sorted(CORRUPT) + list(FLAGS)).flatmap(lambda f: option(f, valid))
    stray |= st.sampled_from(tokens).map(lambda token: (token,))
    ordered = st.permutations(own).flatmap(lambda own: st.tuples(*own))
    parts = st.tuples(ordered, mostly(nothing, stray.map(lambda stray: (stray,))))
    return parts.map(lambda parts: [command, *chain.from_iterable(chain(*parts))])


def argvs(tokens=ODD_TOKENS):
    """argv lists of the ten subcommands at n <= 3, or of stray strings with no subcommand."""
    drawn = st.tuples(st.sampled_from(sorted(OPTIONS)), st.integers(0, 3))
    commands = drawn.flatmap(lambda drawn: command_argvs(*drawn, tokens))
    return mostly(commands, st.lists(st.sampled_from(tokens), max_size=3))


def parse_outcome(parse, argv):
    """(Namespace, printed text), or the usage error's message, or the exit code and its text."""
    printed = io.StringIO()
    with redirect_stdout(printed), redirect_stderr(printed):
        try:
            return parse(argv), printed.getvalue()
        except BnSpechtError as exc:
            return "usage error", str(exc), printed.getvalue()
        except SystemExit as exc:
            return "exit", exc.code, printed.getvalue()


@settings(max_examples=500, deadline=None)
@given(argvs(ODD_TOKENS + HELP_TOKENS))
@example(["variety", "--shape", "((1),())"])
@example(["poset", "--n", "x"])
@example(["frob"])
@example(["ideal-inc", "--a", "((1),())", "--b", "((1),())", "--n", "1", "--method", "sat"])
@example(["poset", "--n", "2", "--extra"])
@example([])
@example(["poset", "--n", "2", "--max-basis", "5"])
@example(["--help"])
@example(["variety", "--help"])
@example(["order", "--", "--a", "((1),())"])
@example(["specht", "--sh", "((1),())", "--n", "1", "--he"])
@example(["poset", "--n", "2", "poset", "-h"])
def test_the_dispatching_parse_equals_the_nested_parse(argv):
    assert parse_outcome(_parse, argv) == parse_outcome(build_parser().parse_args, argv)


STATUS = {EXIT_OK: "ok", EXIT_REJECTED: "rejected-input", EXIT_RESOURCE: "resource-exceeded"}


@settings(max_examples=300, deadline=None)
@given(argvs())
@example(["certify-cover", "--case", "4", "--a", "2", "--b", "2"])
@example(["conjecture", "--shape", "((1),(1,1))", "--n", "3", "--max-basis", "1"])
@example(["gamma", "--poly", "(x1+x2)^4", "--n", "3"])
@example(["poset", "--n", "3", "--dot"])
def test_every_call_prints_one_envelope_whose_status_is_its_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert err.getvalue() == ""
    assert code in STATUS, out.getvalue()
    if code == EXIT_OK and getattr(_parse(argv), "dot", False):
        assert out.getvalue().startswith("digraph")
        return
    envelope = json.loads(out.getvalue())
    assert list(envelope) == ["status", "payload" if code == EXIT_OK else "error"]
    assert envelope["status"] == STATUS[code]


# ---------------------------------------------------------------------------
# the envelope writer against json.dumps(indent=2)


class Text(str):
    pass


class Count(int):
    pass


AWKWARD = '"\\/\n\r\t\x00\x1f\x7f[]{},: \u00e9\u20ac\u2028\ud800\U0001f600x'
json_texts = st.text(st.sampled_from(AWKWARD), max_size=6) | st.text(max_size=6)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**30), 10**30)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | json_texts
    | json_texts.map(Text)
    | st.integers().map(Count)
)
json_keys = json_texts | st.integers() | st.floats() | st.booleans() | st.none()


def json_containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(json_texts, max_size=4)
        | st.lists(st.integers() | st.booleans(), max_size=4)
        | st.dictionaries(json_texts, children, max_size=4)
        | st.dictionaries(json_texts, children, max_size=4).map(OrderedDict)
        | st.dictionaries(json_keys, children, max_size=4)
    )


json_values = st.recursive(json_leaves, json_containers, max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(json_values)
@example([])
@example({})
@example([[], {}, (), ""])
@example({"status": "ok", "payload": {"classes": [{"left": [2, 1], "nonempty": True}]}})
@example([True, 1, False, 0])
@example({1: [1.5, "a\nb"], "1": {"x": None}})
@example({"a": {True: [], None: {}}})
def test_writer_matches_json_dumps_indent_2(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [Fraction(1, 2), [1, {"a": {Fraction(1, 2)}}], {"a": {(1, 2): 3}}, {"a": [b"x"]}]
)
def test_writer_raises_what_json_dumps_raises(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        _json_text(value)
    assert str(got.value) == str(expected.value)


ENVELOPES = [
    ("poset", ("poset", "--n", "3"), EXIT_OK),
    ("order", ("order", "--a", "((2),())", "--b", "((1),(1))", "--relation", "induced"), EXIT_OK),
    ("specht", ("specht", "--shape", "((1),(1))", "--n", "2", "--all"), EXIT_OK),
    (
        "ideal-inc",
        ("ideal-inc", "--a", "((2),())", "--b", "((1,1),())", "--n", "2")
        + ("--method", "certificate"),
        EXIT_OK,
    ),
    ("variety", ("variety", "--shape", "((1,1),(2))", "--n", "4"), EXIT_OK),
    ("orbit-type", ("orbit-type", "--point", "1/2,-1/2,0"), EXIT_OK),
    ("gamma", ("gamma", "--poly", "x1^2*x2*x3 + 1/2*x1", "--n", "4"), EXIT_OK),
    ("certify-cover", ("certify-cover", "--case", "3", "--a", "1", "--b", "1"), EXIT_OK),
    (
        "conjecture",
        ("conjecture", "--shape", "((1),(1))", "--n", "2", "--orders", "lex,deglex"),
        EXIT_OK,
    ),
    ("rank-bound", ("rank-bound", "--shape", "((1),(1))", "--n", "2"), EXIT_OK),
    ("rejected-non-ascii", ("gamma", "--poly", "x1 \u00e9 x2", "--n", "2"), EXIT_REJECTED),
    ("rejected-digit", ("order", "--a", "((\u00b2),())", "--b", "((1),())"), EXIT_REJECTED),
    ("rejected-inner-zero", ("order", "--a", "((0,2),())", "--b", "((2),())"), EXIT_REJECTED),
    ("resource", IDEAL_INC + ("--max-basis", "2"), EXIT_RESOURCE),
    ("usage", ("variety", "--shape", "((1),())"), EXIT_REJECTED),
]


@pytest.mark.parametrize("argv, code", [pytest.param(a, c, id=i) for i, a, c in ENVELOPES])
def test_every_envelope_is_the_indent_2_layout(capsys, argv, code):
    got, out = invoke(capsys, *argv)
    assert got == code, out
    assert json.dumps(json.loads(out), indent=2) + "\n" == out
    assert out.isascii()


# ---------------------------------------------------------------------------
# the CLI as a subprocess (the L5 layer)


def module_env():
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


@pytest.mark.parametrize(
    "argv",
    [
        ("poset", "--n", "3"),
        ("variety", "--shape", "((1,1),(2))", "--n", "4"),
        ("gamma", "--poly", "x1 \u00e9 x2", "--n", "2"),
        ("variety", "--shape", "((1),())"),
        ("poset", "--n", "2", "--extra"),
        (),
    ],
    ids=["poset", "variety", "rejected", "usage", "unrecognized", "empty"],
)
def test_the_module_prints_what_run_prints(capsys, argv):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "bnspecht.cli", *argv],
        capture_output=True,
        env=module_env(),
        timeout=30,
    )
    elapsed = time.perf_counter() - start
    code, out = invoke(capsys, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"")
    status = {EXIT_OK: "ok", EXIT_REJECTED: "rejected-input"}[code]
    assert json.loads(proc.stdout)["status"] == status
    assert elapsed < 1, f"{argv[0]} took {elapsed:.2f} s"
