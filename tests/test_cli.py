import io

from pentforge import catalog
from pentforge.cli import run
from pentforge.construct import degenerate_pent, serialize_gdd, td3
from pentforge.core import parse_design, serialize_design
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
    from pentforge.core import Design
    path = tmp_path / "broken.design"
    path.write_text(serialize_design(Design.make(v=22, k=3, lines=broken)))
    code, out = invoke(["verify", str(path)])
    assert code == 1
    assert "pentagonal: no" in out


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
    path.write_text(text)
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
