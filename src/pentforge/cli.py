"""Batch command-line interface.

Every command prints a human-readable report followed by a machine block of
stable `key: value` lines.  Exit codes: 0 success/valid, 1 design invalid,
2 input/parse error, 3 search budget exhausted, 4 precondition violation.
Commands raise; `run` alone turns an exception into an exit code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import catalog, defgraph, search
from .analysis import (count_olps, known_spectrum, max_olps_bound,
                       two_olp_excluded, verify_pentagonal)
from .construct import (ConstructionError, expand_orbits, gdd_compose,
                        parse_gdd, parse_orbit, parse_pbd, parse_sts,
                        bose_pent3, pbd_pent3)
from .core import (Design, DesignError, ParseError, divisibility_ok,
                   parameters, parse_design, read_text, serialize_design)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_PRECONDITION = 4


class CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise CliFailure(EXIT_INPUT, f"cannot write {path}: {exc}") from None


def _machine(out, **kv) -> None:
    for key, value in kv.items():
        if isinstance(value, bool):
            value = "yes" if value else "no"
        print(f"{key}: {value}", file=out)


def _emit_design(design: Design, out_path: str | None, stdout) -> None:
    text = serialize_design(design)
    if out_path:
        _write(Path(out_path), text)
    else:
        stdout.write(text)


def _verified(design: Design) -> Design:
    report = verify_pentagonal(design)
    if not report.ok:
        raise CliFailure(EXIT_INVALID,
                         f"constructed design failed verification: "
                         f"{report.violations[:3]}")
    return design


def cmd_verify(args, out) -> int:
    design = parse_design(read_text(args.file))
    report = verify_pentagonal(design)
    for code, witness in report.violations:
        print(f"violation: {code} {witness}", file=out)
    q = count_olps(design).q if report.ok else 0
    _machine(out, pentagonal=report.ok, v=design.v, b=design.b, k=design.k,
             r=report.r if report.r is not None else "irregular",
             olp_count=q)
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_analyze(args, out) -> int:
    design = parse_design(read_text(args.file))
    report = verify_pentagonal(design)
    if not report.ok or report.r is None:
        _machine(out, pentagonal=False)
        return EXIT_INVALID
    olps = count_olps(design)
    cls = olps.classes
    for comp, tag, gir in cls.components:
        print(f"component: {len(comp)} vertices, {tag}"
              + (f" (girth {gir})" if tag != "K_kk" else ""), file=out)
    _machine(out, pentagonal=True, v=design.v, b=design.b, k=design.k,
             r=report.r, olp_count=olps.q,
             max_olp_bound=(max_olps_bound(report.r) if design.k == 3 else "n/a"),
             girth=("inf" if cls.girth == defgraph.INFINITE_GIRTH else cls.girth),
             connected=cls.connected, k_kk_components=cls.k_kk_count)
    return EXIT_OK


def cmd_expand(args, out) -> int:
    design = _verified(expand_orbits(parse_orbit(read_text(args.file))))
    _emit_design(design, args.out, out)
    _machine(out, v=design.v, b=design.b, k=design.k)
    return EXIT_OK


def cmd_build(args, out) -> int:
    ingredient = args.parse(read_text(args.source))
    design = _verified(args.construct(ingredient, args.drop))
    _emit_design(design, args.out, out)
    _machine(out, v=design.v, b=design.b, k=design.k,
             olp_count=count_olps(design).q)
    return EXIT_OK


def cmd_compose(args, out) -> int:
    gdd = parse_gdd(read_text(args.gdd))
    parts = [(i, parse_design(read_text(path))) for i, path in enumerate(args.part)]
    design = gdd_compose(gdd, parts)
    _emit_design(design, args.out, out)
    _machine(out, v=design.v, b=design.b, k=design.k,
             olp_count=count_olps(design).q)
    return EXIT_OK


def cmd_pent2_count(args, out) -> int:
    n = search.pent2_count(args.r)
    print(n, file=out)
    _machine(out, r=args.r, count=n)
    return EXIT_OK


def cmd_pent2_enumerate(args, out) -> int:
    systems = search.pent2_enumerate(args.r)
    for ctype, design in systems:
        name = f"pent2_r{args.r}_" + "+".join(str(c) for c in ctype)
        if args.outdir:
            outdir = Path(args.outdir)
            try:
                outdir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise CliFailure(EXIT_INPUT, f"cannot write {outdir}: {exc}") from None
            _write(outdir / f"{name}.design", serialize_design(design))
        print(f"design: {name} v={design.v} b={design.b}", file=out)
    _machine(out, r=args.r, count=len(systems))
    return EXIT_OK


def cmd_complete(args, out) -> int:
    graph = defgraph.parse_graph(read_text(args.graph))
    budget = search.SearchBudget(max_nodes=args.nodes, max_seconds=args.seconds)
    design = search.complete_from_deficiency(graph, args.k, args.r, budget)
    if design is None:
        print("search space exhausted: no geometry has this deficiency graph",
              file=out)
        _machine(out, found=False)
        return EXIT_INVALID
    design = _verified(design)
    _emit_design(design, args.out, out)
    _machine(out, found=True, v=design.v, b=design.b, k=design.k)
    return EXIT_OK


def cmd_catalog_list(args, out) -> int:
    entries = catalog.catalog_entries()
    for e in entries:
        print(f"{e.id}: v={e.v} b={e.b} k={e.k} r={e.r}", file=out)
    _machine(out, entries=len(entries))
    return EXIT_OK


def cmd_catalog_verify_all(args, out) -> int:
    rows = catalog.catalog_verify_all()
    failures = 0
    for entry_id, ok, problems in rows:
        status = "PASS" if ok else "FAIL: " + "; ".join(problems)
        print(f"{entry_id}: {status}", file=out)
        failures += 0 if ok else 1
    _machine(out, entries=len(rows), failures=failures,
             all_pass=(failures == 0))
    return EXIT_OK if failures == 0 else EXIT_INVALID


def cmd_spectrum(args, out) -> int:
    fact = known_spectrum(args.k, args.r)
    label = {"open": "open (possible exception)"}.get(fact.status, fact.status)
    print(f"PENT({args.k},{args.r}): {label} -- {fact.note}", file=out)
    _machine(out, spectrum_status=fact.status,
             divisible=divisibility_ok(args.k, args.r))
    if args.k == 3 and args.r % 3 in (0, 1):
        _machine(out, max_olp_bound=max_olps_bound(args.r))
        if args.r >= 7:
            _machine(out, two_olp_excluded=two_olp_excluded(args.r))
    return EXIT_OK


def cmd_params(args, out) -> int:
    v, b = parameters(args.k, args.r)
    _machine(out, v=v, b=b if b is not None else "non-integral",
             divisible=divisibility_ok(args.k, args.r))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pentforge",
        description="Construct, verify, analyze and catalog pentagonal geometries.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a design file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="OLP count and deficiency graph analysis")
    p.add_argument("file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("expand", help="expand a cyclic orbit file")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("build", help="run a named construction")
    bsub = p.add_subparsers(dest="builder", required=True)
    for name, ingredient, parse, construct, help in (
            ("bose", "sts", parse_sts, bose_pent3,
             "pentagonal geometry from a Steiner triple system"),
            ("pbd", "pbd", parse_pbd, pbd_pent3,
             "pentagonal geometry from a PBD with one 5-block")):
        pb = bsub.add_parser(name, help=help)
        pb.add_argument(f"--{ingredient}", dest="source",
                        metavar=ingredient.upper(), required=True)
        pb.add_argument("--drop", type=int, required=True)
        pb.add_argument("--out")
        pb.set_defaults(func=cmd_build, parse=parse, construct=construct)

    p = sub.add_parser("compose", help="overlay part geometries on a GDD")
    p.add_argument("--gdd", required=True)
    p.add_argument("--part", action="append", required=True,
                   help="design file, one per group, in group order")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("pent2", help="block-size-2 systems")
    psub = p.add_subparsers(dest="pent2cmd", required=True)
    pc = psub.add_parser("count")
    pc.add_argument("r", type=int)
    pc.set_defaults(func=cmd_pent2_count)
    pe = psub.add_parser("enumerate")
    pe.add_argument("r", type=int)
    pe.add_argument("--outdir")
    pe.set_defaults(func=cmd_pent2_enumerate)

    p = sub.add_parser("complete",
                       help="complete a geometry from a deficiency graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--nodes", type=int, default=search.SearchBudget().max_nodes)
    p.add_argument("--seconds", type=float, default=search.SearchBudget().max_seconds)
    p.add_argument("--out")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("catalog", help="bundled catalog operations")
    csub = p.add_subparsers(dest="catalogcmd", required=True)
    cl = csub.add_parser("list")
    cl.set_defaults(func=cmd_catalog_list)
    cv = csub.add_parser("verify-all")
    cv.set_defaults(func=cmd_catalog_verify_all)

    p = sub.add_parser("spectrum", help="known existence status of PENT(k,r)")
    p.add_argument("k", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("params", help="point/line counts forced by (k,r)")
    p.add_argument("k", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(func=cmd_params)

    return top


def run(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except CliFailure as exc:
        print(f"error: {exc}", file=out)
        return exc.code
    except ParseError as exc:
        print(f"parse error: {exc}", file=out)
        return EXIT_INPUT
    except ConstructionError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_PRECONDITION
    except DesignError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_INPUT
    except search.BudgetExhausted as exc:
        print(f"error: {exc}", file=out)
        return EXIT_BUDGET
    except OSError as exc:  # `_write` reports its own; any other is a read
        print(f"error: cannot read {exc.filename}: {exc}", file=out)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_PRECONDITION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
