import builtins
import io
from pathlib import Path

import pytest

from pentforge import catalog
from pentforge.analysis import count_olps
from pentforge.catalog import UnknownEntryError, parse_family_orbit
from pentforge.cli import run
from pentforge.construct import ConstructionError, OrbitSpec, expand_orbits
from pentforge.core import ParseError
from pentforge.defgraph import build_deficiency, girth
from tests.conftest import check_universal


ENTRY_IDS = sorted(e.id for e in catalog.catalog_entries())
BUNDLED_MANIFEST = (catalog.catalog_dir() / "manifest.txt").read_text()


def test_catalog_has_23_entries():
    assert len(catalog.catalog_entries()) == 23


def test_expected_stats_consistent_with_counting():
    for e in catalog.catalog_entries():
        assert e.v == e.r * e.k - e.r + e.k + 1
        assert e.b * e.k == e.v * e.r


def test_load_pent3_9_olp1():
    d = catalog.catalog_load("pent3_9_olp1")
    assert d.v == 22 and d.b == 66


def test_load_pent4_52_expands_2093_lines():
    d = catalog.catalog_load("pent4_52")
    assert d.v == 161 and d.b == 2093


def test_load_pent3_12_family_orbit():
    d = catalog.catalog_load("pent3_12")
    assert d.v == 28 and d.b == 112
    assert count_olps(d).q == 0


def test_unknown_id():
    with pytest.raises(UnknownEntryError):
        catalog.catalog_load("pent3_nonesuch")


def test_verify_all_passes():
    rows = catalog.catalog_verify_all()
    assert [entry_id for entry_id, ok, _ in rows if not ok] == []
    assert [entry_id for entry_id, _, _ in rows] == sorted(
        e.id for e in catalog.catalog_entries())


def test_fault_injection_detected(tmp_path, monkeypatch):
    # Corrupt one point of one line in one fixture; exactly that entry fails.
    import shutil
    src = catalog.catalog_dir()
    shutil.copytree(src, tmp_path / "data")
    target = tmp_path / "data" / "pent3_9_olp0.design"
    text = target.read_text()
    assert "line: 0 3 4" in text
    target.write_text(text.replace("line: 0 3 4", "line: 0 3 5"), )
    monkeypatch.setenv("PENTFORGE_CATALOG", str(tmp_path / "data"))
    rows = dict((eid, (ok, problems)) for eid, ok, problems in
                catalog.catalog_verify_all())
    ok, problems = rows["pent3_9_olp0"]
    assert not ok
    assert all(rows[eid][0] for eid in rows if eid != "pent3_9_olp0")


def test_family_orbit_expansion_minimal():
    # two families over Z_3: base {a0, a1, b0} develops to 3 lines
    spec = OrbitSpec(families=2, modulus=3, step=1, k=3, bases=((0, 1, 3),))
    d = expand_orbits(spec)
    assert d.b == 3 and d.v == 6


def test_family_orbit_duplicate_detection():
    spec = OrbitSpec(families=1, modulus=3, step=1, k=3, bases=((0, 1, 2),))
    with pytest.raises(ConstructionError, match="duplicate"):
        expand_orbits(spec)


def test_parse_family_orbit_labels():
    spec = parse_family_orbit(
        "kind: forbit\nfamilies: 2\nmodulus: 17\nk: 3\nbase: a7 b0 b1\n")
    assert spec.bases == ((7, 17, 18),)
    assert (spec.families, spec.step) == (2, 1)


def test_orbit_entries_have_full_orbits():
    # base count x (modulus/step) = expected line count for every orbit entry
    for e in catalog.catalog_entries():
        if not e.path.endswith(".orbit"):
            continue
        from pentforge.construct import parse_orbit
        spec = parse_orbit((catalog.catalog_dir() / e.path).read_text())
        assert len(spec.bases) * (spec.modulus // spec.step) == e.b


def test_labeled_systems_reproduce_stated_deficiency_edges():
    for eid in ("pent3_12", "pent3_15", "pent3_21"):
        entry = catalog.catalog_entry(eid)
        assert entry.deficiency_edges
        d = catalog.catalog_load(eid)
        assert build_deficiency(d).edges == entry.deficiency_edges


def test_support_ingredients_validate():
    catalog.support_sts("sts7").check()
    catalog.support_sts("sts13").check()
    pbd11 = catalog.support_pbd("pbd11")
    pbd11.check()
    assert len(pbd11.triples) == 15
    pbd17 = catalog.support_pbd("pbd17")
    assert len(pbd17.triples) == 42


def test_universal_properties_on_sample_entries():
    for eid in ("pent3_9_olp1", "pent3_10", "pent3_15", "pent4_13", "pent4_24"):
        check_universal(catalog.catalog_load(eid))


def test_girth_claims_spot_checked():
    assert girth(build_deficiency(catalog.catalog_load("pent3_24"))) == 7
    assert girth(build_deficiency(catalog.catalog_load("pent4_24"))) == 6


@pytest.mark.parametrize("old,new,message", [
    ("source: main-k3\n", "", "missing required field 'source'"),
    ("b: 66\n", "", "missing required field 'b'"),
    ("k: 3\n", "", "missing required field 'k'"),
    ("r: 9\n", "", "missing required field 'r'"),
    ("v: 22\n", "v: ten\n", "bad v value 'ten'"),
    ("entry: pent3_9_olp0\n", "entry: pent3_9_olp1\n", "line 11: duplicate entry id$"),
], ids=["no-source", "no-b", "no-k", "no-r", "v-not-a-number", "repeated-id"])
def test_bad_manifest_is_a_parse_error(tmp_path, monkeypatch, old, new, message):
    text = (catalog.catalog_dir() / "manifest.txt").read_text()
    assert old in text
    (tmp_path / "manifest.txt").write_text(text.replace(old, new, 1))
    monkeypatch.setenv("PENTFORGE_CATALOG", str(tmp_path))
    with pytest.raises(ParseError, match=f"^entry pent3_9_olp1: .*{message}"):
        catalog.catalog_entries()
    for argv in (["catalog", "list"], ["catalog", "verify-all"]):
        out = io.StringIO()
        assert run(argv, out=out) == 2, argv
        assert out.getvalue().startswith("parse error:")


# ---------------------------------------------------------------------------
# The manifest index

def test_manifest_is_opened_once_for_23_loads(monkeypatch):
    monkeypatch.setattr(catalog, "_index", (None, None, {}))
    opened = []
    saved = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return saved(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    for entry_id in ENTRY_IDS:
        catalog.catalog_load(entry_id)
    assert sum(name.endswith("manifest.txt") for name in opened) == 1
    assert len(opened) == 24  # the manifest and 23 payloads


def _copy_manifest(tmp_path, monkeypatch) -> Path:
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(BUNDLED_MANIFEST)
    monkeypatch.setenv("PENTFORGE_CATALOG", str(tmp_path))
    return manifest


def test_rewritten_manifest_is_read_again(tmp_path, monkeypatch):
    manifest = _copy_manifest(tmp_path, monkeypatch)
    assert [e.id for e in catalog.catalog_entries()] == ENTRY_IDS
    manifest.write_text(manifest.read_text().split("\nentry: pent4_60\n")[0])
    assert [e.id for e in catalog.catalog_entries()] == ENTRY_IDS[:-1]
    with pytest.raises(UnknownEntryError):
        catalog.catalog_entry("pent4_60")
    monkeypatch.delenv("PENTFORGE_CATALOG")  # the directory is picked on each call
    assert catalog.catalog_entry("pent4_60").v == 185


def test_entries_list_is_a_copy():
    entries = catalog.catalog_entries()
    entries.pop()
    entries[0] = None
    assert [e.id for e in catalog.catalog_entries()] == ENTRY_IDS


@pytest.mark.parametrize("how", ["missing", "not-utf8", "deleted"])
def test_manifest_errors_are_not_kept(tmp_path, monkeypatch, how):
    manifest = _copy_manifest(tmp_path, monkeypatch)
    if how == "deleted":  # read once, then gone
        assert len(catalog.catalog_entries()) == 23
        manifest.unlink()
    elif how == "missing":
        manifest.unlink()
    else:
        manifest.write_bytes(b"entry: \xff\n")
    outputs = []
    for _ in range(2):
        out = io.StringIO()
        assert run(["catalog", "list"], out=out) == 2
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(f"error: cannot read {manifest}: ")
    manifest.write_text(BUNDLED_MANIFEST)
    assert len(catalog.catalog_entries()) == 23
