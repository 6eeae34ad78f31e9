"""The record types: immutable NamedTuples, the validated ones checked however
an instance is built, and none of them costing the package a `dataclasses` or
`importlib.resources` import."""

import subprocess
import sys
from pathlib import Path

import pytest

import pentforge
from pentforge import analysis, catalog, construct, core, defgraph, search
from pentforge.construct import ConstructionError, OrbitSpec, Sts
from pentforge.search import SearchBudget

MODULES = (core, analysis, catalog, construct, defgraph, search)


def design():
    return construct.degenerate_pent(3)


RECORDS = {
    "Design": design,
    "VerificationReport": lambda: core.verify_pls(design()),
    "Schema": lambda: core.DESIGN,
    "OppositeLineMap": lambda: analysis.opposite_line_map(design()),
    "OlpSet": lambda: analysis.count_olps(design()),
    "SpectrumFact": lambda: analysis.known_spectrum(3, 7),
    "CatalogEntry": lambda: catalog.catalog_entry("pent3_12"),
    "Graph": defgraph.petersen,
    "ComponentClassification": lambda: defgraph.classify(defgraph.petersen(), 3),
    "OrbitSpec": lambda: OrbitSpec(modulus=13, step=1, k=4, bases=((0, 1, 3, 9),)),
    "Quasigroup": lambda: construct.cyclic_idempotent_quasigroup(3),
    "Sts": lambda: construct.sts_bose(9),
    "Pbd": lambda: catalog.support_pbd("pbd11"),
    "Gdd": lambda: construct.td3(3),
    "SearchBudget": SearchBudget,
}


def test_every_record_type_is_listed():
    found = {name for module in MODULES for name, value in vars(module).items()
             if isinstance(value, type) and hasattr(value, "_fields")
             and value.__module__ == module.__name__ and not name.startswith("_")}
    assert found == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_no_field_can_be_assigned(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert getattr(record, field) is value


def test_reprs_equality_and_hashing_stay_those_of_the_fields():
    d = design()
    assert repr(d) == ("Design(v=6, k=3, lines=((0, 1, 2), (3, 4, 5)), r_claimed=1, "
                       "kind='pent')")
    assert repr(core.verify_pls(d)) == "VerificationReport(ok=True, r=1, violations=())"
    assert repr(SearchBudget()) == "SearchBudget(max_nodes=100000000, max_seconds=60.0)"
    assert repr(analysis.known_spectrum(3, 4)) == (
        "SpectrumFact(k=3, r=4, status='not-exist', "
        "note='no PENT(3,4); no PENT(3,6) (computer search)')")
    twin = core.parse_design(core.serialize_design(d))
    assert twin == d and hash(twin) == hash(d) == hash((6, 3, d.lines, 1, "pent"))
    assert d != d._replace(r_claimed=None)


def failure(build):
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value), getattr(info.value, "where", None)


@pytest.mark.parametrize("name, field, bad, expected", [
    ("OrbitSpec", "step", 5,
     (ConstructionError, "step 5 must be positive and divide modulus 13", "step")),
    ("OrbitSpec", "bases", ((0, 1, 3, 13),),
     (ConstructionError, "bad base block (0, 1, 3, 13)", 0)),
    ("Quasigroup", "order", 2, (ConstructionError, "row 0 is not a permutation", None)),
    ("Sts", "v", 8, (ConstructionError, "STS order must be 1 or 3 (mod 6), got 8", None)),
    ("Pbd", "distinguished", (0, 1, 2, 3),
     (ConstructionError, "distinguished block must have 5 distinct points", None)),
    ("Gdd", "blocks", construct.td3(3).blocks[1:],
     (ConstructionError, "GDD: pair (0,3) uncovered", None)),
    ("SearchBudget", "max_nodes", 0, (ValueError, "budget limits must be positive", None)),
    ("SearchBudget", "max_seconds", float("nan"),
     (ValueError, "budget limits must be positive", None)),
])
def test_a_bad_value_is_rejected_however_the_record_is_built(name, field, bad, expected):
    good = RECORDS[name]()
    cls = type(good)
    assert cls._make(good) == good._replace() == cls(**good._asdict()) == good
    fields = good._asdict() | {field: bad}
    assert failure(lambda: cls(**fields)) == expected
    assert failure(lambda: cls(*fields.values())) == expected
    assert failure(lambda: cls._make(fields.values())) == expected
    assert failure(lambda: good._replace(**{field: bad})) == expected


def test_a_checked_record_keeps_tuple_arity_errors():
    with pytest.raises(TypeError, match="Expected 2 arguments, got 3"):
        Sts._make((7, (), None))
    with pytest.raises(ValueError, match="unexpected field names"):
        SearchBudget()._replace(nodes=5)


def test_the_cli_imports_neither_dataclasses_nor_importlib_resources():
    src = Path(pentforge.__file__).parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pentforge.cli; "
            "print([m for m in ('dataclasses', 'importlib.resources') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
