"""Tests of the package namespace, its source hygiene and the bench tracer's hooks into it."""

import ast
import importlib.util
import types
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import bnspecht
from bnspecht.errors import ResourceLimitExceeded, ResourceLimits


def test_all_lists_no_modules():
    assert bnspecht.__all__
    assert [n for n in bnspecht.__all__ if isinstance(getattr(bnspecht, n), types.ModuleType)] == []
    assert {"specht_generators", "ResourceLimits", "hasse_diagram"} <= set(bnspecht.__all__)


SOURCES = sorted(Path(bnspecht.__file__).parent.glob("*.py"))


def _read_names(tree) -> list[str]:
    """Every name the tree reads, plain or as an attribute, once per read."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    ]


def _private_definitions(tree):
    """(name, defining statement) for each module-level private function, class or variable."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def source_hygiene(sources: dict[str, str]) -> list[str]:
    """Module-level private names read only by their own definition, and unread imports.

    `sources` maps each module's file name to its text. `__init__.py`
    re-exports what it imports, so its imports are exempt.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads = Counter(name for tree in trees.values() for name in _read_names(tree))
    problems = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            if reads[name] == _read_names(definition).count(name):
                problems.append(f"{module}: {name} is never used")
        if module == "__init__.py":
            continue
        used = set(_read_names(tree))
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        problems.append(f"{module}: import of {bound} is never used")
    return problems


def test_sources_define_no_unused_private_names_or_imports():
    assert source_hygiene({path.name: path.read_text() for path in SOURCES}) == []


def test_source_hygiene_finds_a_stale_helper_and_an_unused_import():
    sources = {path.name: path.read_text() for path in SOURCES}
    sources["partitions.py"] += "\n\ndef _skip_space(text, i):\n    return _skip_space(text, i + 1)\n"
    sources["partitions.py"] = sources["partitions.py"].replace(
        "from .errors import ", "from .errors import ParseError, ", 1
    )
    assert source_hygiene(sources) == [
        "partitions.py: _skip_space is never used",
        "partitions.py: import of ParseError is never used",
    ]


def unread_parameters(sources: dict[str, str]) -> list[str]:
    """Each parameter of a function or lambda, other than self and cls, that its body never loads."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            loads = {
                name.id
                for statement in body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            function = getattr(node, "name", "lambda")
            for param in params:
                if param and param.arg not in ("self", "cls") and param.arg not in loads:
                    found.append(f"{module}:{node.lineno} {function} never reads {param.arg}")
    return found


def test_sources_read_every_parameter():
    assert unread_parameters({path.name: path.read_text() for path in SOURCES}) == []


def test_parameter_scan_finds_an_unread_parameter():
    sources = {path.name: path.read_text() for path in SOURCES}
    line = sources["partitions.py"].count("\n") + 3
    sources["partitions.py"] += "\n\ndef _f(a, b):\n    return a\n"
    assert unread_parameters(sources) == [f"partitions.py:{line} _f never reads b"]


def foreign_private_reads(sources: dict[str, str]) -> list[str]:
    """Each `obj._name` load in a module that neither defines nor assigns `_name`.

    A module owns the private names of the functions and classes it defines
    and of the names and attributes it assigns; reading any other object's
    private attribute reaches into a module's internals.
    """
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        owned = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owned.add(node.name)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                owned.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                owned.add(node.attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
                if name.startswith("_") and not name.startswith("__") and name not in owned:
                    found.append(f"{module}:{node.lineno} {ast.unparse(node)}")
    return found


def test_no_module_reads_another_modules_private_attributes():
    assert foreign_private_reads({path.name: path.read_text() for path in SOURCES}) == []


def test_private_read_scan_finds_an_added_read():
    sources = {path.name: path.read_text() for path in SOURCES}
    line = sources["invariants.py"].count("\n") + 3
    sources["invariants.py"] += "\n\nTOP = hasse_diagram(3)._down[0]\n"
    assert foreign_private_reads(sources) == [f"invariants.py:{line} hasse_diagram(3)._down"]


def fraction_constructions(sources: dict[str, str]) -> list[str]:
    """Each `Fraction(...)` call outside `polynomials._normalize` and `_exact_quotient`.

    Those two helpers decide how an exact number is stored, for coefficients,
    point coordinates and values alike; every other module goes through them.
    """
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        owners = [
            node
            for node in tree.body
            if module == "polynomials.py"
            and isinstance(node, ast.FunctionDef)
            and node.name in ("_normalize", "_exact_quotient")
        ]
        allowed = {id(node) for owner in owners for node in ast.walk(owner)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "Fraction":
                    found.append(f"{module}:{node.lineno}")
    return found


def test_only_the_coefficient_helpers_construct_a_fraction():
    assert fraction_constructions({path.name: path.read_text() for path in SOURCES}) == []


def test_fraction_scan_finds_an_added_construction():
    sources = {path.name: path.read_text() for path in SOURCES}
    line = sources["varieties.py"].count("\n") + 3
    sources["varieties.py"] += "\n\nONE = Fraction(1)\n"
    assert fraction_constructions(sources) == [f"varieties.py:{line}"]


# the callers that `SparsePolynomial._of_clean`'s docstring names: each builds keys from valid keys
UNCHECKED_BUILDERS = (
    "__add__", "__neg__", "__mul__", "scale", "unpack_polynomial", "_scatter", "act",
    "_term_subset",
)


def unchecked_constructions(sources: dict[str, str]) -> list[str]:
    """Each `_of_clean(...)` call outside the `polynomials` functions in UNCHECKED_BUILDERS.

    `_of_clean` checks no exponent, so every other construction goes through
    `SparsePolynomial.__init__`, which does.
    """
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        owners = [
            node
            for node in ast.walk(tree)
            if module == "polynomials.py"
            and isinstance(node, ast.FunctionDef)
            and node.name in UNCHECKED_BUILDERS
        ]
        allowed = {id(node) for owner in owners for node in ast.walk(owner)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "_of_clean":
                    found.append(f"{module}:{node.lineno}")
    return found


def test_only_the_named_builders_skip_the_exponent_check():
    assert unchecked_constructions({path.name: path.read_text() for path in SOURCES}) == []
    doc = bnspecht.SparsePolynomial._of_clean.__doc__
    assert [name for name in UNCHECKED_BUILDERS if f"{name}`" not in doc] == []


def test_unchecked_construction_scan_finds_an_added_call():
    sources = {path.name: path.read_text() for path in SOURCES}
    line = sources["varieties.py"].count("\n") + 3
    sources["varieties.py"] += "\n\nZERO = SparsePolynomial._of_clean(1, {})\n"
    inner = sources["polynomials.py"].count("\n") + 4
    sources["polynomials.py"] += "\n\ndef _one(n):\n    return SparsePolynomial._of_clean(n, {})\n"
    assert unchecked_constructions(sources) == [f"polynomials.py:{inner}", f"varieties.py:{line}"]


CAPS = [f.name for f in fields(ResourceLimits)]


def cap_check_problems(sources: dict[str, str], caps: list[str]) -> list[str]:
    """Each `.check(...)` call whose first argument is not a string literal naming a cap,
    then each cap that no call checks.

    `ResourceLimits.check` finds its limit by name, so a misspelt name fails
    only when the check runs; this scan fails it at once.
    """
    problems, checked = [], set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "check"
            ):
                continue
            cap = node.args[0] if node.args else None
            if isinstance(cap, ast.Constant) and cap.value in caps:
                checked.add(cap.value)
            else:
                problems.append(f"{module}:{node.lineno} {ast.unparse(node)}")
    return problems + [f"{cap} is never checked" for cap in caps if cap not in checked]


def test_every_cap_has_a_noun():
    assert list(ResourceLimits.NOUNS) == CAPS


def test_every_cap_check_names_a_cap_and_every_cap_is_checked():
    assert cap_check_problems({path.name: path.read_text() for path in SOURCES}, CAPS) == []


def test_cap_scan_finds_a_misspelt_cap_and_an_unchecked_one():
    sources = {path.name: path.read_text() for path in SOURCES}
    text = sources["invariants.py"]
    line = text[: text.index('limits.check("max_cosets"')].count("\n") + 1
    sources["invariants.py"] = text.replace('check("max_cosets"', 'check("max_coset"')
    problems = cap_check_problems(sources, [*CAPS, "max_seconds"])
    assert problems[0].startswith(f"invariants.py:{line} limits.check('max_coset', ")
    assert problems[1:] == ["max_seconds is never checked"]


CAP_MESSAGES = {
    "max_basis": "basis size 1 exceeds cap 0",
    "max_terms": "term count 1 exceeds cap 0",
    "max_cosets": "coset count 1 exceeds cap 0",
    "max_enumeration": "enumeration size 1 exceeds cap 0",
}


@pytest.mark.parametrize("cap", CAPS)
def test_each_cap_names_its_noun_count_and_limit(cap):
    limits = ResourceLimits(**{cap: 0})
    limits.check(cap, 0)
    with pytest.raises(ResourceLimitExceeded) as caught:
        limits.check(cap, 1)
    assert str(caught.value) == CAP_MESSAGES[cap]


def load_tracing():
    """bench/tracing.py, loaded by path; the file is only read."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_tracer_lists_only_methods_its_classes_define():
    """The tracer looks each listed method up in its class's __dict__."""
    tracing = load_tracing()
    for (layer, cls_name), methods in tracing.CLASS_METHODS.items():
        cls = getattr(importlib.import_module(f"bnspecht.{layer}"), cls_name)
        assert [m for m in methods if m not in cls.__dict__] == [], cls_name


def test_bench_tracer_wraps_what_it_lists_and_unwraps_it():
    """The tracer names methods by string, so removing one breaks the traced benchmark."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        names = tracing.traced_names()
    finally:
        tracer.uninstall()
    assert names
    listed = {f"{cls}.{m}" for (_, cls), methods in tracing.CLASS_METHODS.items() for m in methods}
    assert listed <= set(names)
    assert tracing.traced_names() == []
