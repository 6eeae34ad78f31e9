"""Spans around calls into pentforge's public functions, for the traced run.

The tracer replaces each traced function with a wrapper in every pentforge
module namespace that holds it, so a call is recorded wherever the caller
looks the name up (``count_olps`` reaching ``defgraph.build_deficiency``,
``catalog`` calling its imported ``verify_pentagonal``).  Methods and
classmethods are wrapped on their class.  Nothing in the package changes:
the wrappers live on freshly imported modules that are dropped before the
next job.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the operation id the benchmark
set when the call began.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import builtins
import io
import json
from collections import Counter
from time import perf_counter

# Public functions per layer, as "function" or "Class.method".
TRACED = {
    "core": ["Design.make", "PairCoverage.of", "verify_pls", "parse_design",
             "serialize_design", "records"],
    "analysis": ["opposite_line", "opposite_line_map", "verify_pentagonal",
                 "count_olps"],
    "defgraph": ["Graph.from_edges", "build_deficiency", "components",
                 "subgraph", "girth", "classify", "is_connected"],
    "construct": ["expand_orbits", "parse_orbit", "cyclic_idempotent_quasigroup",
                  "bose_sts", "sts_bose", "Sts.check", "steiner_quasigroup",
                  "Quasigroup.check", "bose_pent3"],
    "search": ["pent2_enumerate", "cycle_types", "design_from_cycle_type",
               "mandatory_lines", "complete_from_deficiency"],
    "catalog": ["catalog_entries", "catalog_load", "parse_family_orbit",
                "expand_family_orbits", "verify_entry", "catalog_verify_all"],
    "cli": ["run"],
}
MODULES = tuple(TRACED)
TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

# Calls counted per design, for the waste ratios: traced name -> index of the
# Design among the wrapper's positional arguments (classmethods get cls first).
PER_DESIGN = {
    "core.PairCoverage.of": 1,
    "defgraph.build_deficiency": 0,
    "analysis.opposite_line": 0,
    "analysis.verify_pentagonal": 0,
}
ACCEPTING = "analysis.verify_pentagonal"
MANIFEST = "manifest.txt"


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op = "setup"
        self.manifest_reads: Counter = Counter()  # by op
        self._stack: list[int] = []
        # id(design) -> [design, calls by traced name, accepted].  Holding the
        # design keeps its id from being reused before `take_designs`.
        self._designs: dict[int, list] = {}
        self._saved_open = None

    # -- recording ---------------------------------------------------------
    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        design_at = PER_DESIGN.get(name)

        def traced(*args, **kwargs):
            if design_at is not None and len(args) > design_at:
                design = args[design_at]
                entry = self._designs.setdefault(id(design), [design, Counter(), False])
                entry[1][name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, perf_counter(), parent, self.op)
                stack.pop()
            if name == ACCEPTING and getattr(result, "ok", False):
                self._designs[id(args[0])][2] = True
            return result

        return traced

    def take_designs(self) -> list[tuple[int, Counter]]:
        """(points, calls by name) of each design verify_pentagonal accepted
        since the last take; forgets every tracked design."""
        accepted = [(d.v, calls) for d, calls, ok in self._designs.values() if ok]
        self._designs.clear()
        return accepted

    # -- installing ----------------------------------------------------------
    def install(self, pf) -> None:
        """Wrap every traced function of the freshly imported modules in `pf`."""
        namespaces = [getattr(pf, mod) for mod in MODULES] + [pf.package]
        for mod, fns in TRACED.items():
            module = getattr(pf, mod)
            for dotted in fns:
                name = f"{mod}.{dotted}"
                if "." in dotted:
                    cls_name, meth = dotted.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(name, raw))
                    continue
                original = getattr(module, dotted)
                wrapped = self._wrap(name, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapped)

    def count_manifest_reads(self) -> None:
        """Count opens of the catalog manifest, by op, until `stop_counting`."""
        saved = self._saved_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file).endswith(MANIFEST):
                self.manifest_reads[self.op] += 1
            return saved(file, *args, **kwargs)

        builtins.open = io.open = counting_open

    def stop_counting(self) -> None:
        if self._saved_open is not None:
            builtins.open = io.open = self._saved_open
            self._saved_open = None

    # -- summary and output --------------------------------------------------
    def self_times(self, keep) -> tuple[Counter, Counter]:
        """Self seconds and calls by traced name, over spans whose op passes
        `keep`.  Self time is a span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if keep(op):
                self_s[name] += end - start - child[i]
                calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
