"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

Each workload runs at tiny size, untraced and traced, and must print the
metric names and units BENCHMARK.json lists.  Each checker is then fed one
deliberately wrong output, which must be counted as a failed operation.
"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DATA = ROOT / "src" / "pentforge" / "data"


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_the_declared_metrics(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_declared_metrics_match_the_harness():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.end_to_end_names()
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        run.per_layer_names(run.load_config())
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(wl.WORKLOADS)


def test_times_are_rescaled_by_the_reference_rounds():
    nominal = run.REFERENCE_S
    assert run.at_reference_speed(2.0, [2 * nominal]) == pytest.approx(1.0)
    assert run.at_reference_speed(1.5, [2 * nominal, nominal]) == pytest.approx(1.0)


def test_host_sampler_times_rounds_while_work_runs():
    samples = [run.REFERENCE_S]
    with run.HostSampler(samples) as sampler:
        end = run.perf_counter() + 3 * run.SAMPLE_EVERY_S
        while run.perf_counter() < end:
            sum(range(1000))
    assert len(samples) >= 2 and sampler.spent > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_no_result_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.iterdir():
        if path.is_file():
            (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bose", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# Each checker counts a wrong output as failed.

def _workload(name: str, size: str = "tiny"):
    cfg = run.load_config()[name][size]
    return wl.WORKLOADS[name](cfg, 3, ROOT / ".bench_work" / "selftest", DATA)


def _failed(workload, state, op_id, output) -> int:
    tally = run.Tally()
    problem = tally.account(workload, state, op_id, output, None)
    assert (problem is not None) == (tally.failed == 1)
    return tally.failed


def test_catalog_checkers_count_wrong_outputs():
    catalog = _workload("catalog")
    entry = catalog.copied[0]
    copies = [(entry, "unused")]
    ids = [e["id"] for e in catalog.entries]
    good = "\n".join(f"{i}: PASS" for i in ids) + f"\nentries: {len(ids)}\nfailures: 0\nall_pass: yes\n"
    assert _failed(catalog, copies, "verify-all", (0, good)) == 0
    assert _failed(catalog, copies, "verify-all", (1, good)) == 1
    assert _failed(catalog, copies, "verify-all", (0, good.replace(": PASS", ": FAIL: x", 1))) == 1

    values = dict(pentagonal="yes", v=entry["v"], b=entry["b"], k=entry["k"], r=entry["r"],
                  olp_count=entry["olp_count"], girth=entry.get("girth", "inf"),
                  connected="yes" if entry.get("connected", True) else "no")
    text = "".join(f"{key}: {value}\n" for key, value in values.items())
    op_id = f"analyze:{entry['id']}"
    assert _failed(catalog, copies, op_id, (0, text)) == 0
    wrong = text.replace(f"olp_count: {entry['olp_count']}", f"olp_count: {entry['olp_count'] + 1}")
    assert _failed(catalog, copies, op_id, (0, wrong)) == 1


class _Report:
    def __init__(self, ok, r=None, violations=()):
        self.ok, self.r, self.violations = ok, r, violations


def test_bose_checkers_count_wrong_outputs():
    bose = _workload("bose")
    state = {"n": 21}
    v, r = 60, 28
    text = "kind: pent\nv: 60\nk: 3\nr: 28\n" + "line: 0 1 2\n" * 560
    assert _failed(bose, state, "build", (v, 560, True, r, 10, text)) == 0
    assert _failed(bose, state, "build", (v, 560, True, r, 9, text)) == 1
    assert _failed(bose, state, "build", (v, 559, True, r, 10, text)) == 1
    witness = (("irregular-point", (3, 27)), ("pair-covered-twice", (4, 7)))
    assert _failed(bose, state, "mutant", (7, False, witness)) == 0
    assert _failed(bose, state, "mutant", (7, True, ())) == 1
    assert _failed(bose, state, "mutant", (5, False, witness)) == 1


def test_one_point_mutant_covers_a_pair_twice():
    lines = [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)]
    new, moved = wl.one_point_mutant(lines, random.Random(1))
    assert len(new) == len(lines) and sum(new != old for new, old in zip(new, lines)) == 1
    pairs = [p for line in new for p in ((line[0], line[1]), (line[0], line[2]), (line[1], line[2]))]
    assert any(pairs.count(p) == 2 and moved in p for p in pairs)


def test_completion_checker_counts_wrong_outputs():
    complete = _workload("complete")
    lines = [(0, 1), (2, 3)]
    inst = {"id": "x", "v": 4, "k": 2, "edges": wl.deficiency_edges(4, lines)}

    class Found:
        v, k = 4, 2

    found = Found()
    found.lines = lines
    op_id = "complete:x"
    assert _failed(complete, [inst], op_id, ("undecided", None, None)) == 0
    assert _failed(complete, [inst], op_id, ("found", found, _Report(True))) == 0
    assert _failed(complete, [inst], op_id, ("exhausted", None, None)) == 1
    assert _failed(complete, [inst], op_id, ("found", found, _Report(False))) == 1
    found.lines = [(0, 2), (1, 3)]
    assert _failed(complete, [inst], op_id, ("found", found, _Report(True))) == 1


def test_pent2_checkers_count_wrong_outputs():
    pent2 = _workload("pent2")
    state = pent2.prepare(None)
    n, b = 13, 65
    text = "kind: pent\nv: 13\nk: 2\nr: 10\n" + "line: 0 1\n" * b
    output = [(ctype, n, b, text) for ctype in state["reference"]]
    assert len(state["reference"]) == 5
    assert _failed(pent2, state, "enumerate", output) == 0
    assert _failed(pent2, state, "enumerate", output[:-1]) == 1
    assert _failed(pent2, state, "enumerate", output[:-1] + [(output[-1][0], n, b - 1, text)]) == 1

    # PENT(2,1) on 4 points: K4 minus the 4-cycle 0-1-2-3.
    lines = ((0, 2), (1, 3))
    assert _failed(pent2, {"r": 1}, "roundtrip:0", ((4,), 4, lines, _Report(True, 1))) == 0
    assert _failed(pent2, {"r": 1}, "roundtrip:0", ((4,), 4, lines, _Report(False))) == 1
    assert _failed(pent2, {"r": 1}, "roundtrip:0", ((5,), 4, lines, _Report(True, 1))) == 1


def test_exceptions_fail_and_budget_stops_do_not():
    complete = _workload("complete")
    tally = run.Tally()
    tally.account(complete, [], "complete:x", None, RecursionError("depth"))
    assert (tally.attempted, tally.failed, tally.decided) == (1, 1, 0)
    inst = {"id": "x", "v": 4, "k": 2, "edges": []}
    tally.account(complete, [inst], "complete:x", ("undecided", None, None), None)
    assert (tally.attempted, tally.failed, tally.decided) == (2, 1, 0)


def test_reference_partition_count():
    assert len(wl.partitions(43, 4)) == 1067
