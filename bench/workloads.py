"""The benchmark's three query workloads and the checks on their outputs.

Every query calls the library through a module attribute looked up at call
time (`bn.<name>`, `cli.run`), never through a name bound when the query is
built, so the traced run's patched functions are the ones called.

Expected answers are fixed before any query runs, so checking an output
calls no library function that the tracer wraps:

- fixed sweeps: a digest of the output's canonical text, recorded at the
  seed commit in `expected.json` (outputs must stay byte-identical);
- `specht_ideal_contains` pairs: the verdict must equal `bidominates(a, b)`;
- `covering_certificate`: `.verified` must be true;
- the n=3 conjecture results: equal to `reports/conjecture_n3.json`, read only;
- `order` queries on seed-chosen pairs: equal to the full relation table on
  BP_8, whose digest is recorded too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import bnspecht as bn
from bnspecht import cli
from bnspecht.polynomials import ORDER_TAGS

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"
CONJECTURE_N3 = ROOT / "reports" / "conjecture_n3.json"
WORKLOADS = ("groebner-sweep", "poset-queries", "poly-construct")
QUICK_PER_GROUP = 2


@dataclass
class Query:
    id: str
    group: str
    run: Callable[[], Any]
    text: Callable[[Any], str] | None = None  # canonical output text, digested
    verdict: Callable[[Any], bool] | None = None  # a check that needs no digest


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED.read_text())


def is_correct(q: Query, out, expected: dict[str, str]) -> bool:
    if q.text is not None and expected.get(q.id) != digest(q.text(out)):
        return False
    return q.verdict is None or q.verdict(out) is True


def run_cli(argv: list[str]) -> str:
    """`bnspecht <argv>` in-process; its stdout, or an error if it exits non-zero."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {buf.getvalue()}")
    return buf.getvalue()


def json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def polys_text(polys) -> str:
    return "\n".join(map(str, polys))


def basis_text(gb) -> str:
    return f"{gb.order} {gb.n}\n{polys_text(gb.generators)}"


# ---------------------------------------------------------------------------
# workloads


def groebner_sweep() -> list[Query]:
    """Reduced bases, ideal inclusion and the conjecture sweep: Buchberger does the work."""
    qs = []
    for order in ("lex", "deglex", "degrevlex"):
        for s in bn.enumerate_bipartitions(5):
            qs.append(Query(f"basis/n5/{order}/{s}", "basis/n5",
                            lambda s=s, o=order: bn.specht_ideal_basis(s, 5, o), basis_text))
    # cheapest first, so that --quick stays quick
    for s in ("((3),(1,1,1))", "((1,1,1,1,1),(1))", "((2,2,1,1),())", "((1,1),(1,1,1,1))",
              "((2,1,1,1),(1))"):
        shape = bn.parse_bipartition(s)
        qs.append(Query(f"basis/n6/lex/{s}", "basis/n6",
                        lambda s=shape: bn.specht_ideal_basis(s, 6, "lex"), basis_text))
    shapes4 = bn.enumerate_bipartitions(4)
    for a in shapes4:
        for b in shapes4:
            expect = bn.bidominates(a, b)
            qs.append(Query(f"contains/n4/degrevlex/{a}/{b}", "contains/n4",
                            lambda a=a, b=b: bn.specht_ideal_contains(a, b, 4, "degrevlex"),
                            verdict=lambda out, e=expect: out is e))
    archive = {r["shape"]: r for r in json.loads(CONJECTURE_N3.read_text())["reports"]}
    for s in bn.enumerate_bipartitions(3):
        arch = archive[str(s)]

        def same_as_archive(report, arch=arch):
            doc = report.to_json()
            return doc["generator_count"] == arch["generator_count"] and all(
                doc["orders"][tag] == passed for tag, passed in arch["orders"].items()
            )

        qs.append(Query(f"conjecture/n3/{s}", "conjecture/n3",
                        lambda s=s: bn.universal_gb_check(s, 3, ORDER_TAGS),
                        lambda r: json_text(r.to_json()), same_as_archive))
        qs.append(Query(f"radical/n3/{s}", "radical/n3", lambda s=s: bn.radical_report(s, 3),
                        json_text, lambda out, arch=arch: out == arch["radical"]))
    for s in shapes4:
        qs.append(Query(f"conjecture/n4/degrevlex/{s}", "conjecture/n4",
                        lambda s=s: bn.universal_gb_check(s, 4, ["degrevlex"]),
                        lambda r: json_text(r.to_json())))
    return qs


def order_tables() -> dict[str, tuple[list[list[bool]], str]]:
    """`a_geq_b` for every ordered pair of BP_8, per relation, with the table's digest."""
    shapes = bn.enumerate_bipartitions(8)
    above = {
        "bidom": bn.bidominates,
        "hecke": lambda x, y: bn.hecke_leq(y, x),
        "induced": lambda x, y: bn.induced_leq(y, x),
    }
    tables = {}
    for rel, geq in above.items():
        table = [[geq(a, b) for b in shapes] for a in shapes]
        bits = "".join("1" if v else "0" for row in table for v in row)
        tables[rel] = (table, digest(bits))
    return tables


def poset_queries(rng: random.Random, expected: dict[str, str]) -> list[Query]:
    """Many small CLI queries on the poset, varieties and gamma; Buchberger never runs."""
    qs = []
    for n in range(6, 13):
        for flag in ("json", "dot"):
            qs.append(Query(f"poset/n{n}/{flag}", "poset",
                            lambda n=n, f=flag: run_cli(["poset", "--n", str(n), f"--{f}"]), str))
    shapes10 = bn.enumerate_bipartitions(10)
    for s in shapes10:
        qs.append(Query(f"variety/n10/{s}", "variety",
                        lambda s=s: run_cli(["variety", "--shape", str(s), "--n", "10"]), str))
    for s in shapes10[::4]:
        qs.append(Query(f"rank-bound/n10/{s}", "rank-bound",
                        lambda s=s: run_cli(["rank-bound", "--shape", str(s), "--n", "10"]), str))
    shapes8 = bn.enumerate_bipartitions(8)
    tables = {
        rel: table if expected.get(f"poset-queries/order-table/n8/{rel}") == table_digest else None
        for rel, (table, table_digest) in order_tables().items()
    }
    for k in range(len(shapes8)):
        i, j = rng.randrange(len(shapes8)), rng.randrange(len(shapes8))
        a, b = shapes8[i], shapes8[j]
        for rel, table in tables.items():

            def agrees(out, table=table, i=i, j=j):
                doc = json.loads(out)["payload"]
                return table is not None and (doc["a_geq_b"], doc["b_geq_a"]) == (table[i][j], table[j][i])

            argv = ["order", "--a", str(a), "--b", str(b), "--relation", rel]
            qs.append(Query(f"order/n8/{rel}/{k}/{a}/{b}", f"order/{rel}",
                            lambda argv=argv: run_cli(argv), verdict=agrees))
    for n, poly in ((4, "x2*x3*(x1^2 - 1)"), (8, "x1^2*x2^2*x3*x4 - x5*x6"),
                    (10, "x1^4*x2^2*x3*x4 + x5^3*x6 - 2")):
        qs.append(Query(f"gamma/n{n}", "gamma",
                        lambda n=n, p=poly: run_cli(["gamma", "--poly", p, "--n", str(n)]), str))
    for n in (5, 6, 7):
        diagram = bn.hasse_diagram(n)
        qs.append(Query(f"chains/n{n}", "chains", lambda d=diagram: d.maximal_chain_lengths(),
                        lambda lengths: json_text(sorted(lengths))))
    return qs


def poly_construct() -> list[Query]:
    """Big exact products, the group action and Specht-generator construction."""
    qs = []
    for case in (3, 4):
        for b in range(4):
            for a in range(1, 9):
                n = a + 2 * b + (case == 4)
                # ambient <= 8; b = 0 at n = 8 (40320-term products, 6 s each) is left out
                if n > 8 or (n == 8 and b == 0):
                    continue
                qs.append(Query(f"cover/{case}/{a}/{b}", f"cover/{case}",
                                lambda c=case, a=a, b=b: bn.covering_certificate(c, a, b),
                                lambda cert: json_text(cert.to_json()),
                                lambda cert: cert.verified))
    for s in bn.enumerate_bipartitions(7):
        qs.append(Query(f"specht-bn/n7/{s}", "specht-bn",
                        lambda s=s: bn.specht_polynomial_bn(bn.reference_bitableau(s, 7)), str))
    for s in bn.enumerate_bipartitions(6):
        qs.append(Query(f"generators/n6/{s}", "generators/n6",
                        lambda s=s: bn.specht_generators(s, 6), polys_text))
    big = bn.bp((2, 2), (2, 1, 1))
    qs.append(Query(f"generators/n8/{big}", "generators/n8",
                    lambda: bn.specht_generators(big, 8), polys_text))
    for n, text in ((5, "x2*x3*(x1^2 - 1)"), (6, "x1^2*x2*x3 + x1")):
        p = bn.parse_polynomial(text, n)
        qs.append(Query(f"orbit/n{n}", "orbit", lambda p=p: bn.bn_orbit(p), polys_text))
    for k, (text, n, exps, sets) in enumerate((
        ("x1^2*x2*x3", 4, (2, 1, 1, 0), [(4,), (), ()]),
        ("x1^4", 5, (4, 0, 0, 0, 0), [(2, 3)]),
        ("x1", 2, (1, 0), [()]),
    )):
        p, m = bn.parse_polynomial(text, n), bn.Monomial(exps)
        qs.append(Query(f"symmetrization/{k}", "symmetrization",
                        lambda p=p, m=m, sets=sets: bn.verify_symmetrization(p, m, sets),
                        str, lambda ok: ok))
    return qs


def build(workload: str, seed: int, quick: bool, expected: dict[str, str]) -> list[Query]:
    """The workload's queries, ids prefixed by the workload; the seed picks sampled inputs."""
    rng = random.Random(seed)
    if workload == "groebner-sweep":
        qs = groebner_sweep()
    elif workload == "poset-queries":
        qs = poset_queries(rng, expected)
    elif workload == "poly-construct":
        qs = poly_construct()
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    for q in qs:
        q.id = f"{workload}/{q.id}"
    if quick:
        per_group: dict[str, list[Query]] = {}
        for q in qs:
            per_group.setdefault(q.group, []).append(q)
        qs = [q for group in per_group.values() for q in group[:QUICK_PER_GROUP]]
    return qs
