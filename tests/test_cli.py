import io
import shutil
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from pentforge import catalog, cli
from pentforge.cli import run
from pentforge.construct import degenerate_pent, serialize_gdd, td3
from pentforge.core import Design, DesignError, parse_design, serialize_design
from pentforge.defgraph import build_deficiency, serialize_graph


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def catalog_file(entry_id):
    return str(catalog.catalog_dir() / (catalog.catalog_entry(entry_id).path))


def test_verify_valid(tmp_path):
    code, out = invoke(["verify", catalog_file("pent3_9_olp0")])
    assert code == 0
    assert "pentagonal: yes" in out
    assert "olp_count: 0" in out


def test_verify_invalid(tmp_path):
    d = catalog.catalog_load("pent3_9_olp0")
    broken = d.lines[1:]
    path = tmp_path / "broken.design"
    path.write_text(serialize_design(Design.make(v=22, k=3, lines=broken)))
    code, out = invoke(["verify", str(path)])
    assert code == 1
    assert "pentagonal: no" in out


@pytest.mark.parametrize("text, r", [
    ("v: 0\nk: 3\n", "none"),  # no points, so none can differ
    ("v: 4\nk: 2\nline: 0 1\nline: 0 2\n", "irregular"),
])
def test_verify_names_why_there_is_no_r(tmp_path, text, r):
    path = tmp_path / "x.design"
    path.write_text(text)
    code, out = invoke(["verify", str(path)])
    assert code == 1
    assert "pentagonal: no\n" in out and f"r: {r}\n" in out


def test_verify_parse_error(tmp_path):
    path = tmp_path / "bad.design"
    path.write_text("v: not-a-number\n")
    code, out = invoke(["verify", str(path)])
    assert code == 2


def test_verify_missing_file():
    code, out = invoke(["verify", "/nonexistent/x.design"])
    assert code == 2


def test_analyze(tmp_path):
    code, out = invoke(["analyze", catalog_file("pent3_9_olp1")])
    assert code == 0
    assert "olp_count: 1" in out
    assert "max_olp_bound: 2" in out
    assert "k_kk_components: 1" in out


def test_expand_to_file(tmp_path):
    out_path = tmp_path / "x.design"
    code, out = invoke(["expand", catalog_file("pent4_13"),
                        "--out", str(out_path)])
    assert code == 0
    assert "b: 143" in out
    d = parse_design(out_path.read_text())
    assert d.v == 44 and d.b == 143


def test_build_bose(tmp_path):
    sts = catalog.catalog_dir() / "support" / "sts7.sts"
    code, out = invoke(["build", "bose", "--sts", str(sts), "--drop", "0",
                        "--out", str(tmp_path / "p.design")])
    assert code == 0
    assert "olp_count: 3" in out


def test_build_bose_bad_drop(tmp_path):
    sts = catalog.catalog_dir() / "support" / "sts7.sts"
    code, out = invoke(["build", "bose", "--sts", str(sts), "--drop", "99"])
    assert code == 4


def test_build_pbd(tmp_path):
    pbd = catalog.catalog_dir() / "support" / "pbd11.pbd"
    code, out = invoke(["build", "pbd", "--pbd", str(pbd), "--drop", "5",
                        "--out", str(tmp_path / "p.design")])
    assert code == 0
    assert "v: 30" in out and "b: 130" in out


def test_build_pbd_drop_in_distinguished():
    pbd = catalog.catalog_dir() / "support" / "pbd11.pbd"
    code, out = invoke(["build", "pbd", "--pbd", str(pbd), "--drop", "0"])
    assert code == 4


def test_compose(tmp_path):
    gdd_path = tmp_path / "td.gdd"
    gdd_path.write_text(serialize_gdd(td3(6)))
    part = tmp_path / "deg.design"
    part.write_text(serialize_design(degenerate_pent(3)))
    code, out = invoke(["compose", "--gdd", str(gdd_path),
                        "--part", str(part), "--part", str(part),
                        "--part", str(part), "--out", str(tmp_path / "c.design")])
    assert code == 0
    assert "olp_count: 3" in out


def test_pent2_count():
    code, out = invoke(["pent2", "count", "7"])
    assert code == 0
    assert out.splitlines()[0] == "3"


def test_pent2_count_500_matches_coin_change():
    # Partitions of 503 into parts >= 4, counted by the coin-change table.
    ways = [1] + [0] * 503
    for part in range(4, 504):
        for total in range(part, 504):
            ways[total] += ways[total - part]
    code, out = invoke(["pent2", "count", "500"])
    assert code == 0
    assert out.splitlines() == [str(ways[503]), "r: 500", f"count: {ways[503]}"]


def test_pent2_enumerate(tmp_path):
    code, out = invoke(["pent2", "enumerate", "5", "--outdir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "pent2_r5_4+4.design").exists()
    assert (tmp_path / "pent2_r5_8.design").exists()
    assert "count: 2" in out


def test_complete(tmp_path):
    g = build_deficiency(catalog.catalog_load("pent3_9_olp1"))
    graph_path = tmp_path / "g.graph"
    graph_path.write_text(serialize_graph(g))
    code, out = invoke(["complete", "--graph", str(graph_path),
                        "--k", "3", "--r", "9", "--out", str(tmp_path / "d.design")])
    assert code == 0
    assert "found: yes" in out
    d = parse_design((tmp_path / "d.design").read_text())
    assert build_deficiency(d).edges == g.edges


def test_complete_budget_exhausted(tmp_path):
    g = build_deficiency(catalog.catalog_load("pent3_9_olp1"))
    graph_path = tmp_path / "g.graph"
    graph_path.write_text(serialize_graph(g))
    code, out = invoke(["complete", "--graph", str(graph_path),
                        "--k", "3", "--r", "9", "--nodes", "1"])
    assert code == 3


@pytest.mark.parametrize("seconds", ["0", "nan", "-1"])
def test_complete_rejects_a_budget_that_is_not_positive(tmp_path, seconds):
    g = build_deficiency(catalog.catalog_load("pent3_9_olp1"))
    graph_path = tmp_path / "g.graph"
    graph_path.write_text(serialize_graph(g))
    code, out = invoke(["complete", "--graph", str(graph_path),
                        "--k", "3", "--r", "9", "--seconds", seconds])
    assert code == 4
    assert "budget limits must be positive" in out


def test_catalog_list():
    code, out = invoke(["catalog", "list"])
    assert code == 0
    assert "entries: 23" in out
    assert "pent4_60: v=185 b=2775 k=4 r=60" in out


def test_catalog_verify_all():
    code, out = invoke(["catalog", "verify-all"])
    assert code == 0
    assert "all_pass: yes" in out
    assert out.count("PASS") == 23


def test_spectrum():
    code, out = invoke(["spectrum", "4", "48"])
    assert code == 0
    assert "open (possible exception)" in out
    assert "spectrum_status: open" in out


def test_spectrum_k3_extras():
    code, out = invoke(["spectrum", "3", "9"])
    assert code == 0
    assert "max_olp_bound: 2" in out
    assert "two_olp_excluded: yes" in out


def test_params():
    code, out = invoke(["params", "3", "9"])
    assert code == 0
    assert "v: 22" in out and "b: 66" in out


def test_deterministic_output():
    first = invoke(["catalog", "verify-all"])
    second = invoke(["catalog", "verify-all"])
    assert first == second


def test_machine_block_keys_stable():
    _, out = invoke(["verify", catalog_file("pent3_9_olp1")])
    keys = [line.split(":")[0] for line in out.strip().splitlines()]
    assert keys == ["pentagonal", "v", "b", "k", "r", "olp_count"]


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    return str(path)


def test_malformed_numbers_exit_2(tmp_path):
    cases = [
        ["verify", _write(tmp_path, "d.design", "v: 6\nk: 3\nr: q\nline: 0 1 2\n")],
        ["expand", _write(tmp_path, "o.orbit",
                          "kind: orbit\nmodulus: x\nstep: 1\nk: 3\nbase: 0 1 3\n")],
        ["build", "bose", "--drop", "0", "--sts",
         _write(tmp_path, "s.sts", "kind: sts\nv: 7\ntriple: 0 1 z\n")],
        ["complete", "--k", "3", "--r", "1", "--graph",
         _write(tmp_path, "g.graph", "kind: graph\nv: 6\nedge: 0 a\n")],
    ]
    for argv in cases:
        code, out = invoke(argv)
        assert (code, out.split(":")[0]) == (2, "parse error"), argv


def test_compose_gdd_block_outside_points_exits_4(tmp_path):
    gdd = _write(tmp_path, "g.gdd", "kind: gdd\nv: 3\nk: 3\ngroup: 0\ngroup: 1\n"
                 "group: 2\nblock: 0 1 5\n")
    part = _write(tmp_path, "p.design", serialize_design(degenerate_pent(3)))
    code, out = invoke(["compose", "--gdd", gdd, "--part", part])
    assert code == 4
    assert "bad block" in out


def test_unwritable_output_exits_2(tmp_path):
    """Each --out, and --outdir, names the path it cannot write and exits 2."""
    missing = str(tmp_path / "missing" / "x.design")
    blocker = _write(tmp_path, "blocker", "")
    part = _write(tmp_path, "p.design", serialize_design(degenerate_pent(3)))
    graph = _write(tmp_path, "g.graph", serialize_graph(
        build_deficiency(catalog.catalog_load("pent3_9_olp1"))))
    cases = [
        (["expand", catalog_file("pent4_13"), "--out", missing], missing),
        (["build", "bose", "--sts", str(catalog.catalog_dir() / "support" / "sts7.sts"),
          "--drop", "0", "--out", missing], missing),
        (["compose", "--gdd", _write(tmp_path, "td.gdd", serialize_gdd(td3(6))),
          "--part", part, "--part", part, "--part", part, "--out", missing], missing),
        (["complete", "--graph", graph, "--k", "3", "--r", "9", "--out", missing], missing),
        (["pent2", "enumerate", "5", "--outdir", blocker], blocker),
    ]
    for argv, path in cases:
        code, out = invoke(argv)
        assert (code, out.startswith(f"error: cannot write {path}")) == (2, True), argv


def test_sts_of_four_point_blocks_exits_4(tmp_path):
    """PG(2,3), the lines {i, i+1, i+3, i+9} mod 13, covers every pair once
    but its blocks are not triples."""
    lines = sorted(sorted((i + d) % 13 for d in (0, 1, 3, 9)) for i in range(13))
    sts = _write(tmp_path, "pg23.sts", "kind: sts\nv: 13\n" + "".join(
        "triple: " + " ".join(map(str, line)) + "\n" for line in lines))
    code, out = invoke(["build", "bose", "--sts", sts, "--drop", "0"])
    assert (code, out) == (4, "error: STS: block (0, 1, 3, 9) is not a triple\n")


def test_pbd_four_point_triple_exits_4(tmp_path):
    text = (catalog.catalog_dir() / "support" / "pbd11.pbd").read_text()
    assert "triple: 0 5 6\n" in text
    pbd = _write(tmp_path, "bad.pbd", text.replace("triple: 0 5 6\n", "triple: 0 5 6 7\n"))
    code, out = invoke(["build", "pbd", "--pbd", pbd, "--drop", "0"])
    assert (code, out) == (4, "error: PBD: block (0, 5, 6, 7) is not a triple\n")


@pytest.mark.parametrize("argv", [["catalog", "list"], ["catalog", "verify-all"]])
def test_catalog_without_manifest_exits_2(tmp_path, monkeypatch, argv):
    monkeypatch.setenv("PENTFORGE_CATALOG", str(tmp_path))
    code, out = invoke(argv)
    manifest = tmp_path / "manifest.txt"
    assert code == 2
    assert out.startswith(f"error: cannot read {manifest}: ")
    assert "No such file" in out and out.count("\n") == 1


def exit_code(argv):
    """`run`'s exit code and output; argparse's own exit is code 2 too."""
    try:
        return invoke(argv)
    except SystemExit as exc:
        return exc.code, ""


SUPPORT = catalog.catalog_dir() / "support"


def _graph_file(tmp_path):
    return _write(tmp_path, "g.graph", serialize_graph(
        build_deficiency(catalog.catalog_load("pent3_9_olp1"))))


def _sts7():
    return str(SUPPORT / "sts7.sts")


# name -> (argv from tmp_path, exit code, start of the output's first line).
# One row per exit code and per exception type that `run` maps.
EXIT_MATRIX = {
    "valid": (lambda t: ["verify", catalog_file("pent3_9_olp0")], 0, "pentagonal: yes"),
    "invalid-design": (lambda t: ["verify", _write(t, "e.design", "v: 3\nk: 2\n")],
                       1, "violation: opposite-not-a-line"),
    "constructed-design-invalid": (
        lambda t: ["build", "bose", "--drop", "0", "--sts", _write(t, "s.sts", "v: 1\n")],
        1, "error: constructed design failed verification"),
    "ParseError": (lambda t: ["verify", _write(t, "d.design", "v: x\n")],
                   2, "parse error: line 1:"),
    "DesignError": (
        lambda t: ["expand", _write(t, "o.orbit", "modulus: 7\nstep: 1\nk: 1\nbase: 0\n")],
        2, "parse error: line 3: k must be at least 2, got 1"),
    "OSError-missing": (lambda t: ["verify", str(t / "missing.design")],
                        2, "error: cannot read "),
    "OSError-undecodable": (
        lambda t: ["analyze", _write(t, "d.design", b"v: 6\nk: 3\n\xff")],
        2, "error: cannot read "),
    "CliFailure-write": (
        lambda t: ["pent2", "enumerate", "5", "--outdir", _write(t, "blocker", "")],
        2, "error: cannot write"),
    "argparse-no-verify": (
        lambda t: ["expand", catalog_file("pent4_13"), "--no-verify"], 2, ""),
    "BudgetExhausted": (
        lambda t: ["complete", "--graph", _graph_file(t), "--k", "3", "--r", "9",
                   "--nodes", "1"],
        3, "error: "),
    "ConstructionError-build": (
        lambda t: ["build", "bose", "--sts", _sts7(), "--drop", "99"],
        4, "error: drop point 99"),
    "ConstructionError-compose": (
        lambda t: ["compose", "--gdd", _write(t, "td.gdd", serialize_gdd(td3(6))),
                   "--part", catalog_file("pent3_9_olp0")],
        4, "error: need exactly one part"),
    "SearchPreconditionError-pent2": (
        lambda t: ["pent2", "count", "-5"], 4, "error: need r >= 2"),
    "SearchPreconditionError-complete": (
        lambda t: ["complete", "--graph", _graph_file(t), "--k", "3", "--r", "8"],
        4, "error: graph has 22 vertices"),
    "SearchPreconditionError-k": (
        lambda t: ["complete", "--graph", _graph_file(t), "--k", "1", "--r", "9"],
        4, "error: need k >= 2 and r >= 1, got (1, 9)"),
    "SearchPreconditionError-r": (
        lambda t: ["complete", "--graph", _write(t, "e.graph", "kind: graph\nv: 0\n"),
                   "--k", "2", "--r", "-3"],
        4, "error: need k >= 2 and r >= 1, got (2, -3)"),
    "ValueError-spectrum": (lambda t: ["spectrum", "3", "0"], 4, "error: need k >= 2"),
    "ValueError-params": (
        lambda t: ["params", "1", "1"], 4, "error: parameters require k >= 2"),
}


@pytest.mark.parametrize("case", sorted(EXIT_MATRIX))
def test_exit_code_matrix(tmp_path, case):
    argv, code, first = EXIT_MATRIX[case]
    got, out = exit_code(argv(tmp_path))
    assert (got, out.partition("\n")[0].startswith(first)) == (code, True), out
    assert "Traceback" not in out


def test_design_error_without_a_record_exits_2(monkeypatch):
    """No file input reaches `run`'s DesignError clause today; it stays the
    exit path for a DesignError that names no record."""
    def fail(spec):
        raise DesignError("boom")
    monkeypatch.setattr(cli, "expand_orbits", fail)
    assert invoke(["expand", catalog_file("pent4_13")]) == (2, "error: boom\n")


def test_undecodable_manifest_exits_2(tmp_path, monkeypatch):
    _write(tmp_path, "manifest.txt", b"entry: x\xff\n")
    monkeypatch.setenv("PENTFORGE_CATALOG", str(tmp_path))
    code, out = invoke(["catalog", "list"])
    assert code == 2
    assert out.startswith(f"error: cannot read {tmp_path / 'manifest.txt'}: ")
    assert out.count("\n") == 1


def test_verify_all_reports_a_payload_it_cannot_load_and_goes_on(tmp_path, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(catalog.catalog_dir(), data)
    (data / catalog.catalog_entry("pent4_13").path).write_text(
        "kind: orbit\nmodulus: 7\nstep: 1\nk: 1\nbase: 0\n")
    with open(data / catalog.catalog_entry("pent3_9_olp0").path, "ab") as f:
        f.write(b"\xff")
    monkeypatch.setenv("PENTFORGE_CATALOG", str(data))
    code, out = invoke(["catalog", "verify-all"])
    assert code == 1
    assert "pent4_13: FAIL: load failed: line 4: k must be at least 2, got 1\n" in out
    assert "pent3_9_olp0: FAIL: load failed: [Errno" in out
    assert out.count("PASS") == 21 and "failures: 2\n" in out


@pytest.mark.parametrize("command,text", [
    (["build", "bose", "--drop", "0", "--sts"],
     "kind: sts\nv: 1000000000000000000000000000003\ntriple: 0 1 2\n"),
    (["build", "pbd", "--drop", "6", "--pbd"],
     "kind: pbd\nv: 1000000000000000000000000000001\ndistinguished: 0 1 2 3 4\n"),
    (["compose", "--part", "p.design", "--gdd"],
     "kind: gdd\nv: 1000000000000000000000000000000\nk: 3\ngroup: 0 1 2\n"),
    (["build", "bose", "--drop", "0", "--sts"],
     "kind: sts\nv: 1000000000000000000000000000003\ntriple: 0 1 1000000\n"),
    (["compose", "--part", "p.design", "--gdd"],
     "kind: gdd\nv: 20000\nk: 3\n" + "".join(f"group: {x}\n" for x in range(20000))),
    (["build", "bose", "--drop", "0", "--sts"], "v: -5\n"),
], ids=["sts", "pbd", "gdd", "sts-far-label", "gdd-singletons", "sts-negative"])
def test_ingredient_of_huge_order_exits_4(tmp_path, command, text):
    """The pair cover check needs memory for the blocks given, not for v."""
    code, out = invoke(command + [_write(tmp_path, "huge", text)])
    assert code == 4 and out.startswith("error: "), out


@pytest.mark.parametrize("text,message", [
    ("v: 6\nk: 3\nline: 0 1 2\nline: 3 4 5\n# comment\nline: 2 1 0\n",
     "line 6: duplicate line (0, 1, 2)"),
    ("v: 6\nk: 3\nline: 0 1 2\n\nline: 3 4 9\n",
     "line 5: line (3, 4, 9) has a point outside 0..5"),
    ("k: 3\nv: -1\n", "line 2: bad parameters v=-1, k=3"),
], ids=["duplicate", "outside", "parameters"])
def test_verify_names_the_rejected_record(tmp_path, text, message):
    code, out = invoke(["verify", _write(tmp_path, "d.design", text)])
    assert (code, out) == (2, f"parse error: {message}\n")


@pytest.mark.parametrize("text,message", [
    ("kind: graph\nv: 4\nedge: 0 1\n# comment\nedge: 2 9\n",
     "line 5: edge (2,9) out of range for n=4"),
    ("kind: graph\nv: 4\nedge: 0 1\n\nedge: 3 3\nedge: 1 2\n", "line 5: loop at vertex 3"),
], ids=["range", "loop"])
def test_complete_names_the_rejected_edge(tmp_path, text, message):
    graph = _write(tmp_path, "g.graph", text)
    code, out = invoke(["complete", "--graph", graph, "--k", "2", "--r", "1"])
    assert (code, out) == (2, f"parse error: {message}\n")


def test_expand_names_the_bad_base_block(tmp_path):
    orbit = _write(tmp_path, "o.orbit",
                   "kind: orbit\nmodulus: 7\nstep: 1\nk: 3\nbase: 0 1 3\nbase: 0 1 9\n")
    assert invoke(["expand", orbit]) == (2, "parse error: line 6: bad base block (0, 1, 9)\n")


def test_verify_all_names_the_forbit_record_with_a_bad_residue(tmp_path, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(catalog.catalog_dir(), data)
    path = data / catalog.catalog_entry("pent3_12").path
    lines = path.read_text().splitlines()
    n = lines.index("base: a1 a5 b0")
    lines[n] = "base: a1 a5 b7"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setenv("PENTFORGE_CATALOG", str(data))
    code, out = invoke(["catalog", "verify-all"])
    assert code == 1
    assert (f"pent3_12: FAIL: load failed: line {n + 1}: a point label has a residue "
            "outside 0..6\n") in out


# Random input files, as raw bytes or as records with this package's keys.
RECORD_KEYS = ("kind", "v", "k", "r", "line", "modulus", "step", "base", "lines",
               "families", "edge", "triple", "distinguished", "group", "block")
record_values = st.one_of(
    st.sampled_from(("pent", "pls", "raw", "orbit", "graph", "sts", "pbd", "gdd")),
    st.lists(st.integers(-2, 40), max_size=6).map(lambda ps: " ".join(map(str, ps))))
record_text = st.lists(st.tuples(st.sampled_from(RECORD_KEYS), record_values),
                       max_size=30).map(lambda rs: "".join(f"{k}: {v}\n" for k, v in rs))
input_files = st.one_of(
    st.binary(max_size=300), record_text.map(str.encode),
    st.tuples(record_text, st.binary(max_size=8)).map(lambda t: t[0].encode() + t[1]))

FUZZED = {
    "verify": ["verify", "{}"],
    "analyze": ["analyze", "{}"],
    "expand": ["expand", "{}"],
    "complete": ["complete", "--graph", "{}", "--k", "2", "--r", "2", "--seconds", "2"],
    "bose": ["build", "bose", "--drop", "0", "--sts", "{}"],
    "pbd": ["build", "pbd", "--drop", "0", "--pbd", "{}"],
    "compose": ["compose", "--part", "p.design", "--gdd", "{}"],
}


@pytest.mark.parametrize("command", sorted(FUZZED))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=input_files)
def test_any_input_file_gives_a_documented_exit_code(tmp_path, command, data):
    path = _write(tmp_path, "input", data)
    part = _write(tmp_path, "p.design", serialize_design(degenerate_pent(3)))
    argv = [{"{}": path, "p.design": part}.get(a, a) for a in FUZZED[command]]
    code, out = invoke(argv)
    assert code in (0, 1, 2, 3, 4)
    if code >= 2:
        assert out.count("\n") == 1 and out.startswith(("error: ", "parse error: ")), out
    try:
        data.decode()
    except UnicodeDecodeError:
        assert (code, out.startswith(f"error: cannot read {path}: ")) == (2, True), out



# Verdicts on the CLI path do not depend on how the points are labelled.
CATALOG_IDS = [e.id for e in catalog.catalog_entries()]


@st.composite
def relabelled_catalog_designs(draw):
    """A catalog design or one of its one-point mutants (one point of one
    line swapped for a point off that line), and the same design under a
    random relabelling of its points."""
    d = catalog.catalog_load(draw(st.sampled_from(CATALOG_IDS)))
    lines = [list(line) for line in d.lines]
    if draw(st.booleans()):
        line = lines[draw(st.integers(0, d.b - 1))]
        line[draw(st.integers(0, d.k - 1))] = draw(
            st.sampled_from([p for p in range(d.v) if p not in line]))
        assume(len(set(map(frozenset, lines))) == d.b)
    perm = draw(st.permutations(range(d.v)))
    relabelled = [[perm[p] for p in line] for line in lines]
    return tuple(Design.make(v=d.v, k=d.k, lines=ls, r_claimed=d.r_claimed, kind=d.kind)
                 for ls in (lines, relabelled))


def verdict(tmp_path, design):
    """The exit codes and output lines of `verify` and `analyze` as a
    multiset, each violation cut to its code."""
    path = _write(tmp_path, "d.design", serialize_design(design))
    seen = Counter()
    for command in ("verify", "analyze"):
        code, out = invoke([command, path])
        seen[f"{command} exit {code}"] += 1
        seen.update(f"{command} " + (line.split(" (", 1)[0]
                                     if line.startswith("violation: ") else line)
                    for line in out.splitlines())
    return seen


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=relabelled_catalog_designs())
def test_verdict_does_not_depend_on_labels(tmp_path, pair):
    design, relabelled = pair
    assert verdict(tmp_path, design) == verdict(tmp_path, relabelled)
