"""The four benchmark workloads.

Each workload makes its inputs from the seed in `prepare`, lists the
operations of one timed job in `ops`, and checks every output in `check`
against references the package under test does not compute: the manifest's
transcribed invariants, closed forms and counts made here.  `prepare` and
`ops` reach pentforge only through the freshly imported modules in `pf`, so
the traced run sees every call.  State handed from `prepare` to `ops` is
plain data, never a pentforge object, because the modules are imported
afresh before every job.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from io import StringIO
from pathlib import Path


# ---------------------------------------------------------------------------
# References computed here

def read_manifest(path: Path) -> list[dict]:
    """Entries of the catalog manifest: id, path and integer invariants, with
    `connected` as a bool.  Deliberately not the package's own reader."""
    entries: list[dict] = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = (part.strip() for part in line.split(":", 1))
        if key == "entry":
            entries.append({"id": value})
        elif key == "path":
            entries[-1]["path"] = value
        elif key in ("v", "b", "k", "r", "olp_count", "girth"):
            entries[-1][key] = int(value)
        elif key == "connected":
            entries[-1][key] = value == "yes"
    return entries


def design_text(v: int, k: int, r: int, lines) -> str:
    out = ["kind: pent", f"v: {v}", f"k: {k}", f"r: {r}"]
    out += ["line: " + " ".join(map(str, line)) for line in lines]
    return "\n".join(out) + "\n"


def deficiency_edges(v: int, lines) -> list[tuple[int, int]]:
    """Point pairs that no line covers, sorted."""
    covered = set()
    for line in lines:
        covered.update(itertools.combinations(sorted(line), 2))
    return [(x, y) for x in range(v) for y in range(x + 1, v)
            if (x, y) not in covered]


def component_sizes(v: int, edges) -> list[int]:
    nbrs: list[list[int]] = [[] for _ in range(v)]
    for x, y in edges:
        nbrs[x].append(y)
        nbrs[y].append(x)
    seen = [False] * v
    sizes = []
    for start in range(v):
        if seen[start]:
            continue
        seen[start] = True
        queue, size = deque([start]), 0
        while queue:
            size += 1
            for w in nbrs[queue.popleft()]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        sizes.append(size)
    return sorted(sizes, reverse=True)


def partitions(n: int, smallest: int) -> list[tuple[int, ...]]:
    """Every partition of n into parts >= smallest, parts descending, sorted."""
    if n == 0:
        return [()]
    found = []
    for first in range(smallest, n + 1):
        for rest in partitions(n - first, smallest):
            if not rest or rest[0] <= first:
                found.append((first,) + rest)
    return sorted(found)


def machine_values(text: str) -> dict[str, str]:
    """The `key: value` lines a CLI command printed."""
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            values[key] = value
    return values


def _cli(pf, argv: list[str]) -> tuple[int, str]:
    out = StringIO()
    code = pf.cli.run(argv, out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    def __init__(self, cfg: dict, seed: int, workdir: Path, data: Path):
        self.cfg, self.seed, self.workdir, self.data = cfg, seed, workdir, data

    def decided(self, output) -> bool:
        """Whether an operation that returned reached a verdict."""
        return True


class Catalog(Workload):
    """`catalog verify-all` over the bundled entries, then `analyze` on a
    seeded point-relabelled copy of each entry."""

    def __init__(self, *args):
        super().__init__(*args)
        self.entries = read_manifest(self.data / "manifest.txt")
        copies = self.cfg["copies"]
        self.copied = [e for e in self.entries if copies == "all" or e["id"] in copies]

    def prepare(self, pf) -> list[tuple[dict, str]]:
        outdir = self.workdir / "catalog"
        outdir.mkdir(parents=True, exist_ok=True)
        copies = []
        for entry in self.copied:
            design = pf.catalog.catalog_load(entry["id"])
            perm = list(range(design.v))
            random.Random(f"{self.seed}/{entry['id']}").shuffle(perm)
            lines = sorted(tuple(sorted(perm[p] for p in line)) for line in design.lines)
            path = outdir / f"{entry['id']}.design"
            path.write_text(design_text(design.v, design.k, entry["r"], lines))
            copies.append((entry, str(path)))
        return copies

    def ops(self, pf, copies):
        yield "verify-all", lambda: _cli(pf, ["catalog", "verify-all"])
        for entry, path in copies:
            yield f"analyze:{entry['id']}", lambda path=path: _cli(pf, ["analyze", path])

    def check(self, copies, op_id: str, output) -> str | None:
        if op_id == "verify-all":
            return check_verify_all([e["id"] for e in self.entries], output)
        entry = next(e for e, _ in copies if f"analyze:{e['id']}" == op_id)
        return check_analyze(entry, output)


def check_verify_all(ids: list[str], output) -> str | None:
    code, text = output
    if code != 0:
        return f"exit code {code}"
    passed = {line.split(":", 1)[0] for line in text.splitlines()
              if line.endswith(": PASS")}
    missing = [i for i in ids if i not in passed]
    if missing:
        return f"entries not reported PASS: {missing}"
    values = machine_values(text)
    if values.get("entries") != str(len(ids)) or values.get("all_pass") != "yes":
        return f"summary {values.get('entries')} entries, all_pass {values.get('all_pass')}"
    return None


def check_analyze(entry: dict, output) -> str | None:
    code, text = output
    if code != 0:
        return f"exit code {code}"
    values = machine_values(text)
    expect = {"pentagonal": "yes", "olp_count": str(entry["olp_count"])}
    for key in ("v", "b", "k", "r"):
        expect[key] = str(entry[key])
    if "girth" in entry:
        expect["girth"] = str(entry["girth"])
    if "connected" in entry:
        expect["connected"] = "yes" if entry["connected"] else "no"
    for key, want in expect.items():
        if values.get(key) != want:
            return f"{key}={values.get(key)}, manifest says {want}"
    return None


class Bose(Workload):
    """STS(n) by `sts_bose`, points relabelled and the drop point chosen by the
    seed, then what `build bose` does, then verification of a one-point
    mutant of the result."""

    def prepare(self, pf) -> dict:
        n = self.cfg["sts_order"]
        rng = random.Random(self.seed)
        perm = list(range(n))
        rng.shuffle(perm)
        return {"n": n, "perm": perm, "drop": rng.randrange(n)}

    def ops(self, pf, state):
        made = {}

        def build():
            n, perm = state["n"], state["perm"]
            sts = pf.construct.sts_bose(n)
            triples = sorted(tuple(sorted(perm[p] for p in t)) for t in sts.triples)
            relabelled = pf.construct.Sts(v=n, triples=tuple(triples))
            design = made["design"] = pf.construct.bose_pent3(relabelled, state["drop"])
            report = pf.analysis.verify_pentagonal(design)
            if not report.ok:
                return design.v, design.b, False, report.r, None, ""
            text = pf.core.serialize_design(design)
            return design.v, design.b, True, report.r, pf.analysis.count_olps(design).q, text

        def mutant():
            design = made["design"]
            lines, moved = one_point_mutant(design.lines, random.Random(self.seed))
            bad = pf.core.Design.make(v=design.v, k=design.k, lines=lines, kind="pent")
            report = pf.analysis.verify_pentagonal(bad)
            return moved, report.ok, report.violations

        yield "build", build
        yield "mutant", mutant

    def check(self, state, op_id: str, output) -> str | None:
        if op_id == "build":
            return check_bose_build(state["n"], output)
        return check_bose_mutant(output)


def one_point_mutant(lines, rng: random.Random):
    """Move one point of a line onto a point already collinear with another
    point of it, so that pair becomes covered twice.  Returns the new lines
    and the moved point."""
    line = rng.choice(lines)
    anchor = rng.choice(line)
    dropped = rng.choice([p for p in line if p != anchor])
    other = rng.choice([m for m in lines if anchor in m and m is not line])
    moved = rng.choice([p for p in other if p != anchor])
    new = tuple(sorted([p for p in line if p != dropped] + [moved]))
    return [new if m is line else m for m in lines], moved


def check_bose_build(n: int, output) -> str | None:
    v, b, ok, r, olps, text = output
    v_want = 3 * n - 3
    r_want = (3 * n - 1) // 2 - 3
    b_want = v_want * r_want // 3
    if not ok:
        return "verify_pentagonal rejected the Bose construction"
    if (v, b, r) != (v_want, b_want, r_want):
        return f"(v, b, r) = {(v, b, r)}, closed form gives {(v_want, b_want, r_want)}"
    if olps != (n - 1) // 2:
        return f"{olps} OLPs, the Bose route attains {(n - 1) // 2}"
    if not text.startswith(f"kind: pent\nv: {v_want}\nk: 3\n") or text.count("\nline: ") != b_want:
        return "serialized design does not carry the header and line records"
    return None


def check_bose_mutant(output) -> str | None:
    moved, ok, violations = output
    if ok:
        return "mutant accepted"
    if not any(code == "pair-covered-twice" and moved in witness
               for code, witness in violations):
        return f"no pair-covered-twice witness with moved point {moved}"
    return None


class Complete(Workload):
    """`complete_from_deficiency` on catalog deficiency graphs, each with its
    own time limit.  The catalog labelling is kept whatever the seed, because
    relabelling changes the search work by up to 100x."""

    UNDECIDED = "undecided"

    def __init__(self, *args):
        super().__init__(*args)
        self.manifest = {e["id"]: e for e in read_manifest(self.data / "manifest.txt")}

    def prepare(self, pf) -> list[dict]:
        instances = []
        for entry_id, limit in self.cfg["limits_s"].items():
            design = pf.catalog.catalog_load(entry_id)
            entry = self.manifest[entry_id]
            instances.append({"id": entry_id, "v": entry["v"], "k": entry["k"],
                              "r": entry["r"], "limit": limit,
                              "edges": deficiency_edges(design.v, design.lines)})
        return instances

    def ops(self, pf, instances):
        for inst in instances:
            yield f"complete:{inst['id']}", lambda inst=inst: _complete(pf, inst)

    def check(self, instances, op_id: str, output) -> str | None:
        inst = next(i for i in instances if f"complete:{i['id']}" == op_id)
        return check_completion(inst, output)

    def decided(self, output) -> bool:
        return output[0] != self.UNDECIDED


def _complete(pf, inst: dict):
    graph = pf.defgraph.Graph.from_edges(inst["v"], inst["edges"])
    budget = pf.search.SearchBudget(max_seconds=inst["limit"])
    try:
        design = pf.search.complete_from_deficiency(graph, inst["k"], inst["r"], budget)
    except pf.search.BudgetExhausted:
        return Complete.UNDECIDED, None, None
    if design is None:
        return "exhausted", None, None
    return "found", design, pf.analysis.verify_pentagonal(design)


def check_completion(inst: dict, output) -> str | None:
    status, design, report = output
    if status == Complete.UNDECIDED:
        return None
    if status != "found":
        return "search exhausted, but the catalog geometry has this deficiency graph"
    if not report.ok:
        return "completion is not pentagonal"
    if (design.v, design.k) != (inst["v"], inst["k"]):
        return f"completion has v={design.v}, k={design.k}"
    if deficiency_edges(design.v, design.lines) != inst["edges"]:
        return "completion's deficiency edges differ from the input graph"
    return None


class Pent2(Workload):
    """`pent2_enumerate(r)` with every design serialized, then a seeded sample
    parsed back and verified."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reference = partitions(self.cfg["r"] + 3, 4)

    def prepare(self, pf) -> dict:
        count = len(self.reference)
        sample = random.Random(self.seed).sample(range(count), min(self.cfg["sample"], count))
        return {"r": self.cfg["r"], "reference": self.reference, "sample": sample}

    def ops(self, pf, state):
        made = {}

        def enumerate_all():
            systems = pf.search.pent2_enumerate(state["r"])
            made["texts"] = [(ctype, d.v, d.b, pf.core.serialize_design(d))
                             for ctype, d in systems]
            return made["texts"]

        def roundtrip(i: int):
            ctype, _, _, text = made["texts"][i]
            design = pf.core.parse_design(text)
            return ctype, design.v, design.lines, pf.analysis.verify_pentagonal(design)

        yield "enumerate", enumerate_all
        for i in state["sample"]:
            yield f"roundtrip:{i}", lambda i=i: roundtrip(i)

    def check(self, state, op_id: str, output) -> str | None:
        if op_id == "enumerate":
            return check_pent2_enumeration(state["r"], state["reference"], output)
        return check_pent2_roundtrip(state["r"], output)


def check_pent2_enumeration(r: int, reference, output) -> str | None:
    n = r + 3
    b_want = n * (n - 3) // 2
    if sorted(ctype for ctype, _, _, _ in output) != reference:
        return f"{len(output)} cycle types, brute force gives {len(reference)}"
    for ctype, v, b, text in output:
        if (v, b) != (n, b_want):
            return f"{ctype}: v={v}, b={b}, want {n}, {b_want}"
        if not text.startswith(f"kind: pent\nv: {n}\nk: 2\n") or text.count("\nline: ") != b_want:
            return f"{ctype}: serialized design does not carry the header and line records"
    return None


def check_pent2_roundtrip(r: int, output) -> str | None:
    ctype, v, lines, report = output
    if not report.ok or report.r != r:
        return f"{ctype}: parsed design not verified as PENT(2,{r})"
    if component_sizes(v, deficiency_edges(v, lines)) != sorted(ctype, reverse=True):
        return f"{ctype}: deficiency cycles do not match the cycle type"
    return None


WORKLOADS = {"catalog": Catalog, "bose": Bose, "complete": Complete, "pent2": Pent2}
