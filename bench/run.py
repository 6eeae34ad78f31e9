"""pentforge benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size tiny]

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up its inputs several times (set-up time is the
median), then runs timed jobs of the workload until the next one would end
after S seconds.  pentforge is imported afresh, untimed, before every job, so
no job gains from state an earlier one left in the process: each costs what
a fresh command-line invocation costs.  Every output is checked.

A shared host runs Python up to twice as fast at one moment as a few seconds
later.  So the benchmark keeps timing a reference round, fixed pure-Python
work (``reference_wall``): several rounds before the first set-up and after
each set-up, and one round every ``SAMPLE_EVERY_S`` while a job runs, from a
timer signal (``HostSampler``; the rounds' own time is taken out of the
job's).  ``setup_s`` and ``wall_s`` report set-up and job times at a nominal
host speed: a set-up counts its wall time times ``REFERENCE_S`` over the mean
round time around it, an operation of a job its wall time times
``REFERENCE_S`` over the mean of the rounds timed during it.  An operation
that stops at its own wall-clock limit counts its raw time, which the host's
speed does not change.  The raw seconds are in the traced run
(``trace.untraced_wall_s``; ``host.reference_s`` is the median round time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json.  With ``--trace 1``
jobs alternate untraced and traced; the traced ones record spans around
pentforge's public functions (see tracing.py), the per-layer metrics come
from those, and the spans are written to ``.bench_traces/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import MODULES, TRACED_NAMES, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUPS = 7
# The reported times are seconds on a host that runs a reference round in
# REFERENCE_S, about what one takes on a quiet host.
REFERENCE_S = 0.005
REFERENCE_LINES = 8000
SETUP_REFERENCE_ROUNDS = 16
SAMPLE_EVERY_S = 0.2
SETUP_SHARES = ("core.parse_design", "construct.expand_orbits",
                "catalog.expand_family_orbits", "defgraph.classify", "defgraph.girth")
RATIOS = {
    # name: (unit, traced name counted per accepted design, per point?)
    "analysis.opposite_per_point": ("calls/point", "analysis.opposite_line", True),
    "core.pair_coverage_per_design": ("calls/design", "core.PairCoverage.of", False),
    "defgraph.deficiency_per_design": ("calls/design", "defgraph.build_deficiency", False),
}


def load_config() -> dict:
    return json.loads((BENCH / "workloads.json").read_text())


def end_to_end_names() -> list[tuple[str, str]]:
    return [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
            ("decided_frac", "fraction")]


def per_layer_names(config: dict) -> list[tuple[str, str]]:
    instances = list(config["complete"]["full"]["limits_s"])
    names = []
    for fn in TRACED_NAMES:
        names += [(f"{fn}.self_s", "s"), (f"{fn}.calls", "count")]
    names += [(f"{mod}.share", "fraction") for mod in MODULES]
    names += [(name, unit) for name, (unit, _, _) in RATIOS.items()]
    names.append(("catalog.manifest_reads_per_pass", "reads/pass"))
    names += [(f"search.complete.{i}_s", "s") for i in instances]
    names += [(f"search.limit_overrun.{i}_s", "s") for i in instances]
    names.append(("search.limit_overrun_s", "s"))
    names += [(f"setup.{fn}.share", "fraction") for fn in SETUP_SHARES]
    names.append(("setup.catalog.manifest_reads", "count"))
    names.append(("host.reference_s", "s"))
    names += [("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
              ("trace.overhead_frac", "fraction"), ("trace.spans_per_job", "count")]
    return names


def _reference_data() -> tuple[list[tuple[int, ...]], dict[tuple[int, int], int]]:
    rng = random.Random(0)
    lines = [tuple(sorted(rng.sample(range(400), 3))) for _ in range(REFERENCE_LINES)]
    pairs = {(a, b): rng.randrange(3) for line in lines for a in line for b in line if a < b}
    return lines, pairs


REFERENCE_DATA = _reference_data()


def reference_round() -> int:
    """Fixed pure-Python work over tuples and a dict built once, of the kind
    pentforge does.  It allocates nothing that outlives a step, so its time
    does not depend on how much memory the job holds or has just freed."""
    lines, pairs = REFERENCE_DATA
    total = 0
    for line in lines:
        for a in line:
            for b in line:
                if a < b:
                    total += pairs[a, b]
    return total


def reference_wall(rounds: int = 1) -> float:
    """Mean wall time of a reference round over ``rounds`` rounds.  The work
    never changes, so its time measures how fast the host runs Python at
    that moment.  The cyclic collector is off meanwhile (a round makes no
    cycles), so a collection of the job's own heap never lands in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(rounds):
            reference_round()
        return (perf_counter() - start) / rounds
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(wall: float, round_times: list[float]) -> float:
    """A wall time rescaled to the nominal host speed by the reference
    rounds timed around or during it."""
    return wall * REFERENCE_S / statistics.fmean(round_times)


class HostSampler:
    """Times one reference round every SAMPLE_EVERY_S seconds from a SIGALRM
    handler, appending to ``samples``; ``spent`` is the wall time the
    handler took, which no operation counts."""

    def __init__(self, samples: list[float]):
        self.samples = samples
        self.spent = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        self.samples.append(reference_wall())
        self.spent += perf_counter() - t0
        self._busy = False

    def __enter__(self) -> HostSampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def fresh_pentforge(tracer: Tracer | None = None) -> SimpleNamespace:
    """Import pentforge anew, dropping every module an earlier import left."""
    for name in [n for n in sys.modules if n == "pentforge" or n.startswith("pentforge.")]:
        del sys.modules[name]
    pf = SimpleNamespace(package=importlib.import_module("pentforge"),
                         **{m: importlib.import_module(f"pentforge.{m}") for m in MODULES})
    if tracer is not None:
        tracer.install(pf)
    return pf


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    decided: int = 0

    def account(self, workload, state, op_id: str, output, exc) -> str | None:
        """Count one operation; returns what was wrong with it, if anything.
        An exception, RecursionError included, is a failure."""
        self.attempted += 1
        if exc is not None:
            problem = f"{type(exc).__name__}: {exc}"
        else:
            problem = workload.check(state, op_id, output)
            self.decided += workload.decided(output)
        if problem is not None:
            self.failed += 1
        return problem


@dataclass
class Job:
    traced: bool
    wall: float  # raw seconds, the sum of the operations'
    scaled: float  # seconds at the nominal host speed
    ops: list  # (op_id, seconds, decided)
    designs: list  # traced jobs: (points, calls by name) per accepted design


def run_job(workload, pf, state, tally: Tally, tracer: Tracer | None, label: str,
            samples: list[float]) -> Job:
    """Run one job.  ``samples`` ends with a reference round timed before
    it; an untraced job appends the rounds its HostSampler times.  An
    operation no round fell in is scaled by the last round before it."""
    gc.collect()
    outputs = []
    sampler = HostSampler(samples)
    with sampler if tracer is None else nullcontext():
        for op_id, fn in workload.ops(pf, state):
            if tracer is not None:
                tracer.op = f"{label}/{op_id}"
            first, spent = len(samples), sampler.spent
            t0 = perf_counter()
            try:
                out, exc = fn(), None
            except Exception as err:  # counted as a failed operation below
                out, exc = None, err
            secs = perf_counter() - t0 - (sampler.spent - spent)
            outputs.append((op_id, out, exc, secs, samples[first:] or samples[first - 1:first]))
    designs = tracer.take_designs() if tracer is not None else []
    ops = []
    scaled = 0.0
    for op_id, out, exc, secs, rounds in outputs:
        problem = tally.account(workload, state, op_id, out, exc)
        if problem is not None:
            print(f"FAILED {op_id}: {problem}", file=sys.stderr)
        decided = exc is None and workload.decided(out)
        ops.append((op_id, secs, decided))
        scaled += at_reference_speed(secs, rounds) if decided else secs
    return Job(traced=tracer is not None, wall=sum(secs for _, secs, _ in ops),
               scaled=scaled, ops=ops, designs=designs)


def measure(workload, seconds: float, tracer: Tracer | None) -> tuple[Tally, dict]:
    if tracer is not None:
        tracer.count_manifest_reads()
    tally = Tally()
    setups = []
    reference_wall(SETUP_REFERENCE_ROUNDS)  # warm-up
    setup_refs = [reference_wall(SETUP_REFERENCE_ROUNDS)]
    try:
        for i in range(SETUPS):
            if tracer is not None:
                tracer.op = f"setup{i}"
            gc.collect()
            t0 = perf_counter()
            state = workload.prepare(fresh_pentforge(tracer))
            setups.append(perf_counter() - t0)
            if tracer is not None:
                tracer.take_designs()
            setup_refs.append(reference_wall(SETUP_REFERENCE_ROUNDS))
        jobs: list[Job] = []
        samples = [setup_refs[-1]]
        loop_start = perf_counter()
        while True:
            traced = tracer is not None and len(jobs) % 2 == 1
            if tracer is not None:
                tracer.op = f"job{len(jobs)}" if traced else "untraced"
            pf = fresh_pentforge(tracer if traced else None)
            jobs.append(run_job(workload, pf, state, tally,
                                tracer if traced else None, f"job{len(jobs)}", samples))
            spent = perf_counter() - loop_start
            typical = statistics.median(job.wall for job in jobs)
            if spent + typical > seconds and (tracer is None or len(jobs) >= 2):
                break
    finally:
        if tracer is not None:
            tracer.stop_counting()
    print(f"setup {' '.join(f'{s:.3f}' for s in setups)} s; {len(jobs)} jobs "
          f"{' '.join(f'{job.wall:.3f}' for job in jobs)} s, "
          f"{' '.join(f'{job.scaled:.3f}' for job in jobs)} s at nominal speed; "
          f"{len(samples) - 1} reference rounds in jobs, median "
          f"{statistics.median(samples):.5f} s", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(at_reference_speed(s, [before, after]) for s, before, after
                                         in zip(setups, setup_refs, setup_refs[1:])),
            "wall_s": statistics.median(job.scaled for job in jobs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "decided_frac": tally.decided / tally.attempted,
        }
    else:
        metrics = layer_metrics(workload, tracer, setups, jobs)
        metrics["host.reference_s"] = statistics.median(setup_refs + samples[1:])
    return tally, metrics


def layer_metrics(workload, tracer: Tracer, setups: list[float], jobs: list[Job]) -> dict:
    traced = [job for job in jobs if job.traced]
    n = len(traced)
    traced_wall = sum(job.wall for job in traced)
    is_job = lambda op: op.startswith("job")
    self_s, calls = tracer.self_times(is_job)
    metrics = {}
    for fn in TRACED_NAMES:
        metrics[f"{fn}.self_s"] = self_s[fn] / n
        metrics[f"{fn}.calls"] = calls[fn] / n
    for mod in MODULES:
        metrics[f"{mod}.share"] = sum(s for fn, s in self_s.items()
                                      if fn.startswith(mod + ".")) / traced_wall
    accepted = [design for job in traced for design in job.designs]
    for name, (_, counted, per_point) in RATIOS.items():
        base = sum(v if per_point else 1 for v, _ in accepted)
        metrics[name] = sum(c[counted] for _, c in accepted) / base if base else 0.0
    metrics["catalog.manifest_reads_per_pass"] = sum(
        reads for op, reads in tracer.manifest_reads.items() if is_job(op)) / n

    # Completion instances: time to a verdict or to the limit, and how far an
    # undecided instance ran past its limit.  Zero where the workload has none.
    limits = workload.cfg.get("limits_s", {})
    metrics["search.limit_overrun_s"] = 0.0
    for entry_id in load_config()["complete"]["full"]["limits_s"]:
        runs = [(secs, decided) for job in traced for op_id, secs, decided in job.ops
                if op_id == f"complete:{entry_id}"]
        overruns = [secs - limits[entry_id] for secs, decided in runs if not decided]
        overrun = statistics.median(overruns) if overruns else 0.0
        metrics[f"search.complete.{entry_id}_s"] = (
            statistics.median(secs for secs, _ in runs) if runs else 0.0)
        metrics[f"search.limit_overrun.{entry_id}_s"] = overrun
        metrics["search.limit_overrun_s"] += overrun

    setup_self, _ = tracer.self_times(lambda op: op.startswith("setup"))
    for fn in SETUP_SHARES:
        metrics[f"setup.{fn}.share"] = setup_self[fn] / sum(setups)
    metrics["setup.catalog.manifest_reads"] = sum(
        reads for op, reads in tracer.manifest_reads.items()
        if op.startswith("setup")) / len(setups)

    untraced = statistics.median(job.wall for job in jobs if not job.traced)
    traced_median = statistics.median(job.wall for job in traced)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.traced_wall_s"] = traced_median
    metrics["trace.overhead_frac"] = traced_median / untraced - 1
    metrics["trace.spans_per_job"] = sum(1 for span in tracer.spans if is_job(span[4])) / n
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "pentforge" / "__init__.py").is_file():
        print(f"error: no pentforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The catalog commands must read the bundled catalog.
    os.environ.pop("PENTFORGE_CATALOG", None)
    config = load_config()[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](config[args.size], args.seed, workdir,
                                        SRC / "pentforge" / "data")
    tracer = Tracer() if args.trace else None
    try:
        tally, values = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.write(ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")
    names = per_layer_names(load_config()) if args.trace else end_to_end_names()
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
