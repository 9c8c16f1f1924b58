"""Benchmark of backedge: three seeded workloads run through the public API.

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``decide``, ``enumerate`` and ``compile``;
``--workload all`` runs the three one after another, each in its own process.
Load model: closed loop, one process, one job at a time (the program is
single-threaded).  Each run is a fresh process, so backedge's module-level
caches start cold, as they do for every CLI call.

Job times are given in reference units (``ref``).  On a shared VM (a
2-vCPU Intel Xeon guest) the speed a process gets drifts by up to half
within seconds, for backedge and for any pure-Python loop alike, so
seconds from two runs of the same job list differ by more than the
change they should detect.  A timer signal
therefore runs ``reference_loop``, a fixed pure-Python computation in the
style of backedge's inner loops, every ``SAMPLE_PERIOD_S`` of the pass,
in the middle of a job too, and the run divides each job's time (less the
samples taken inside it) by the median reference time of the samples
taken during the job and just around it: a job that takes 50 ref takes as
long as 50 reference loops run at that moment.  The raw seconds are
printed as well.  The per-layer ``busy_s`` of a traced run are raw
seconds and include the samples taken inside the spans (about 2%).

With ``--trace 0`` the run times each job and prints the end-to-end metrics:
``wall_ref`` (sum of job times), ``job_p50_ref``/``job_p90_ref`` (per-job
time, a failed job counting as the full job budget), ``setup_s`` (import
plus input generation plus reference load, the median over five fresh
processes, in seconds at a nominal host speed: see REFERENCE_NOMINAL_S)
and ``peak_rss_mb``.  With ``--trace 1`` the run first
repeats the untraced run in a child process, then runs the same job list
with spans recorded around every call into backedge, and prints the
per-layer metrics, the tracing overhead against the child's ``wall_ref`` and
the determinism gate: every counter of the two runs must agree exactly.

Every output is checked outside the timed region, independently and, when
the seed has a record in ``bench/reference/``, against the outputs of the
seed commit.  ``--record`` (untraced only) writes that record for the seed.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics, with the metric names and units of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, aggregate

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SETUP_REPEATS = 5
# set-up time is given in seconds on a host where reference_loop takes
# REFERENCE_NOMINAL_S (its time on an idle 2-vCPU Intel Xeon VM): the raw time
# times REFERENCE_NOMINAL_S over the median of SETUP_PROBES reference
# loops run just before and SETUP_PROBES just after the set-up
REFERENCE_NOMINAL_S = 0.001
SETUP_PROBES = 5
# no job starts after this many seconds of a pass, and none runs past
# PASS_CAP_S + 5: a pass, and so a traced run of two passes, ends in time
PASS_CAP_S = 60.0
# reference_loop scans bits of REFERENCE_N fixed REFERENCE_N-bit rows (about
# 1 ms); it runs every SAMPLE_PERIOD_S, and the samples from SAMPLE_MARGIN_S
# before a job to SAMPLE_MARGIN_S after it set that job's unit
REFERENCE_N = 200
REFERENCE_ROWS = tuple(random.Random(0).getrandbits(REFERENCE_N) for _ in range(REFERENCE_N))
SAMPLE_PERIOD_S = 0.05
SAMPLE_MARGIN_S = 0.2
LAYERS = ("core", "solvers", "generation", "constructions", "gadgets",
          "reduction", "rulecheck", "subword", "io", "cli")


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    incorrect: bool = False
    wall_s: float = 0.0
    check_s: float = 0.0
    latencies: list = field(default_factory=list)
    intervals: list = field(default_factory=list)  # (start, end) of each job
    failed_by_layer: Counter = field(default_factory=Counter)
    records: dict = field(default_factory=dict)
    reference_checked: int = 0

    def fail(self, job, why: str, *, incorrect: bool) -> None:
        self.failed += 1
        self.failed_by_layer[job.layer] += 1
        self.incorrect |= incorrect
        print(f"FAILED {job.id}: {why}", file=sys.stderr)


class HostSpeed:
    """Times reference_loop every SAMPLE_PERIOD_S from a SIGALRM handler,
    which Python runs in the main thread between two bytecodes, so it
    also samples the host's speed in the middle of a long job."""

    def __init__(self):
        self.samples: list = []  # (start, seconds) of each reference_loop

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def spent(self, start: float, end: float) -> float:
        """Seconds of the samples that started between `start` and `end`;
        a handler that starts before `end` is read also ends before it."""
        lo = bisect.bisect_left(self.samples, (start,))
        hi = bisect.bisect_left(self.samples, (end,))
        return sum(took for _, took in self.samples[lo:hi])

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def unit(self, start: float, end: float) -> float:
        """Median reference time from SAMPLE_MARGIN_S before `start` to
        SAMPLE_MARGIN_S after `end`, or of the nearest samples if none."""
        lo = bisect.bisect_left(self.samples, (start - SAMPLE_MARGIN_S,))
        hi = bisect.bisect_right(self.samples, (end + SAMPLE_MARGIN_S,))
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(self.samples), hi + 2)
        return statistics.median(took for _, took in self.samples[lo:hi])


def run_pass(wl, chains, tracer, expected: dict, host: HostSpeed) -> PassResult:
    from backedge import Deadline
    from backedge.core import BudgetExhausted

    res = PassResult()
    started = time.perf_counter()
    for chain in chains:
        state: dict = {}
        broken = None
        for job in chain:
            res.attempted += 1
            elapsed = time.perf_counter() - started
            if broken is None and elapsed > PASS_CAP_S:
                broken = f"pass passed its {PASS_CAP_S:.0f} s cap"
            if broken is not None:
                res.latencies.append(wl.JOB_BUDGET_S)
                res.intervals.append((started + elapsed, started + elapsed))
                res.fail(job, f"not run: {broken}", incorrect=False)
                continue
            tracer.job = job.id
            deadline = Deadline(min(wl.JOB_BUDGET_S, PASS_CAP_S + 5 - elapsed))
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.job"):
                    out = job.run(tracer, deadline, state)
            except Exception as exc:
                # a budget overrun is a failed job; any other exception is
                # also a wrong answer.  Later jobs of the chain cannot run.
                broken = f"{job.id} failed"
                t1 = time.perf_counter()
                res.wall_s += t1 - t0 - host.spent(t0, t1)
                res.latencies.append(wl.JOB_BUDGET_S)
                res.intervals.append((t0, t1))
                over = isinstance(exc, BudgetExhausted)
                res.fail(job, f"budget: {exc}" if over else traceback.format_exc(),
                         incorrect=not over)
                continue
            t1 = time.perf_counter()
            took = t1 - t0 - host.spent(t0, t1)
            res.wall_s += took
            res.latencies.append(took)
            res.intervals.append((t0, t1))
            c0 = time.perf_counter()
            try:
                output = wl.digest(job.check(out, tracer))
                res.records[job.id] = f"{job.input} {output}"
                ref = expected.get(job.id)
                if ref is not None and ref.split()[0] == job.input:
                    res.reference_checked += 1
                    if ref.split()[1] != output:
                        raise wl.CheckFailed("output differs from the seed commit's")
            except Exception:
                res.fail(job, traceback.format_exc(), incorrect=True)
            res.check_s += time.perf_counter() - c0
    tracer.job = None
    return res


def reference_loop() -> int:
    """A fixed computation in the style of backedge's inner loops: bit tests
    on the rows of a tournament-sized adjacency matrix of Python ints."""
    count = 0
    for row in REFERENCE_ROWS:
        for u in range(0, REFERENCE_N, 3):
            if row >> u & 1:
                count += 1
    return count


def in_reference_units(res: PassResult, host: HostSpeed) -> list[float]:
    """Each job's time over the reference time around it, so that the
    host's speed at that moment cancels."""
    return [took / host.unit(start, end)
            for took, (start, end) in zip(res.latencies, res.intervals)]


def percentile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by the Beta(q(n+1), (1-q)(n+1)) mass of their
    rank interval.  Where jobs of different kinds leave a gap in the
    times, one order statistic jumps across it from seed to seed, and
    this estimate does not."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8  # midpoint rule within each rank interval
    weights = []
    for i in range(n):
        ts = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in ts))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> dict:
    path = reference_path(workload)
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get(str(seed), {})


def write_reference(workload: str, seed: int, records: dict) -> None:
    path = reference_path(workload)
    data = {}
    if path.is_file():
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    data[str(seed)] = records
    data = {k: data[k] for k in sorted(data, key=int)}
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=0, sort_keys=True)
        handle.write("\n")


def layer_metrics(busy: dict, self_time: dict, counts: Counter, res: PassResult) -> dict:
    def b(name: str) -> float:
        return busy.get(name, 0.0)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num * scale / den if den else 0.0

    c = counts
    m = {
        "solvers.omega.calls": c["solvers.omega.calls"],
        "solvers.omega.busy_s": b("solvers.omega"),
        "solvers.omega.nodes": c["solvers.omega.nodes"],
        "solvers.omega.us_per_node": ratio(b("solvers.omega"), c["solvers.omega.nodes"], 1e6),
        "solvers.forcing.busy_s": b("solvers.forcing"),
        "solvers.forcing.nodes": c["solvers.forcing.nodes"],
        "solvers.orderings.calls": c["solvers.orderings.calls"],
        "solvers.orderings.busy_s": b("solvers.orderings"),
        "solvers.orderings.nodes": c["solvers.orderings.nodes"],
        "solvers.orderings.yielded": c["solvers.orderings.yielded"],
        "solvers.orderings.yield_per_node": ratio(
            c["solvers.orderings.yielded"], c["solvers.orderings.nodes"]),
        "solvers.min_order_with_omega.busy_s": b("solvers.min_order_with_omega"),
        "generation.canonical_tournaments.busy_s": b("generation.canonical_tournaments"),
        "generation.canonical_tournaments.classes": c["generation.canonical_tournaments.classes"],
        "generation.canonical_tournaments.accept_ratio": ratio(
            c["generation.canonical_tournaments.classes"],
            c["generation.canonical_tournaments.candidates"]),
        "gadgets.verify.busy_s": b("gadgets.verify"),
        "gadgets.verify.nodes": c["gadgets.verify.nodes"],
        "gadgets.verify.minimum_orderings": c["gadgets.verify.minimum_orderings"],
        "rulecheck.check_rules.busy_s": b("rulecheck.check_rules"),
        "rulecheck.check_rules.cells": c["rulecheck.check_rules.cells"],
        "rulecheck.check_rules.cells_per_s": ratio(
            c["rulecheck.check_rules.cells"], b("rulecheck.check_rules")),
        "rulecheck.check_rules.violated_cells": c["rulecheck.check_rules.violated_cells"],
        "subword.to_pass.busy_s": b("subword.to_pass"),
        "subword.solve_pass.calls": c["subword.solve_pass.calls"],
        "subword.solve_pass.busy_s": b("subword.solve_pass"),
        "constructions.refused": c["constructions.refused"],
        "reduction.build.busy_s": b("reduction.build"),
        "reduction.build.vertices": c["reduction.build.vertices"],
        "reduction.build.us_per_vertex": ratio(
            b("reduction.build"), c["reduction.build.vertices"], 1e6),
        "cli.run.calls": c["cli.run.calls"],
        "cli.run.busy_s": b("cli.run"),
        "bench.check_s": res.check_s,
    }
    for outcome in ("refute", "witness"):
        name = f"solvers.omega_decide.{outcome}"
        m[f"{name}.busy_s"] = b(name)
        m[f"{name}.nodes"] = c[f"{name}.nodes"]
    for outcome in ("sat", "unsat"):
        name = f"solvers.chi_decide.{outcome}"
        m[f"{name}.calls"] = c[f"{name}.calls"]
        m[f"{name}.busy_s"] = b(name)
        m[f"{name}.conflicts"] = c[f"{name}.conflicts"]
        m[f"{name}.us_per_conflict"] = ratio(b(name), c[f"{name}.conflicts"], 1e6)
    for kind in ("pi", "amplifier"):
        m[f"constructions.{kind}.busy_s"] = b(f"constructions.{kind}")
        m[f"constructions.{kind}.vertices"] = c[f"constructions.{kind}.vertices"]
    for name in ("ordering_from_assignment", "verify_ordering", "assignment_from_ordering"):
        m[f"reduction.{name}.busy_s"] = b(f"reduction.{name}")
    for name in ("contains_subtournament", "directed_triangle"):
        m[f"core.{name}.calls"] = c[f"core.{name}.calls"]
        m[f"core.{name}.busy_s"] = b(f"core.{name}")
    for name in ("save_tournament", "load_tournament"):
        m[f"io.{name}.busy_s"] = b(f"io.{name}")
        m[f"io.{name}.bytes"] = c[f"io.{name}.bytes"]
    for layer in LAYERS:
        m[f"{layer}.failed"] = res.failed_by_layer[layer]
        m[f"{layer}.self_s"] = self_time.get(layer, 0.0)
    m["bench.self_s"] = self_time.get("bench", 0.0)
    return m


def self_argv(args, workload: str, *extra: str) -> list[str]:
    """This script again, for `workload` with the same seed and length."""
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def rerun(args, *extra: str, timeout: float) -> list[str]:
    """Rerun this workload in a fresh process and return its stdout lines."""
    argv = self_argv(args, args.workload, *extra)
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}")
    return lines


def untraced_run(args) -> dict:
    lines = rerun(args, "--trace", "0", timeout=120)
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("counters "):
            result["counters"] = json.loads(line[len("counters "):])
    return result


def setup(args, src: Path, workdir: str):
    """Import backedge, draw the inputs and load the reference outputs."""
    t0 = time.perf_counter()
    wl = importlib.import_module("workloads")
    if not Path(wl.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported backedge from {wl.cli.__file__}, not from {src}")
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    chains = wl.chains_for(args.workload, args.seed, args.seconds, workdir)
    expected = load_reference(args.workload, args.seed)
    return wl, chains, expected, time.perf_counter() - t0


def machine() -> str:
    cpu = "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"Python {sys.version.split()[0]}, nproc {os.cpu_count()}, {cpu}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="decide, enumerate, compile, or all (one after another)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this seed's outputs to bench/reference/")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of a fresh process and exit")
    args = parser.parse_args(argv)
    if args.record and args.trace:
        parser.error("--record needs --trace 0")

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "backedge" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"run.py: no backedge sources under {src} or no {spec_path.name}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload == "all":
        status = 0
        for workload in spec["workloads"]:
            argv = self_argv(args, workload["name"], "--trace", str(args.trace))
            status = max(status, subprocess.run(argv).returncode)
        return status
    sys.path.insert(0, str(src))

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        probe = HostSpeed()
        for _ in range(SETUP_PROBES):
            probe.sample()
        wl, chains, expected, setup_time = setup(args, src, workdir)
        for _ in range(SETUP_PROBES):
            probe.sample()
        unit = statistics.median(took for _, took in probe.samples)
        setup_pair = (setup_time, setup_time * REFERENCE_NOMINAL_S / unit)
        if args.setup_only:
            print(*setup_pair)
            return 0
        pairs = [setup_pair] + [tuple(map(float, rerun(args, "--setup-only", timeout=60)[-1].split()))
                                for _ in range(SETUP_REPEATS - 1)]
        setup_s = statistics.median(nominal for _, nominal in pairs)
        if wl.canonical_tournaments.cache_info().currsize != 0:
            raise SystemExit("canonical_tournaments cache is warm before the first job")

        child = untraced_run(args) if args.trace else None
        tracer = Tracer(enabled=bool(args.trace))
        with HostSpeed() as host:
            res = run_pass(wl, chains, tracer, expected, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    jobs = len(res.latencies)
    units = in_reference_units(res, host)
    wall_ref = sum(units)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload}: {why.get(args.workload, '')}")
    print(f"seed {args.seed}, {res.attempted} jobs; {machine()}")
    print("load: closed loop, one process, one job at a time; no layer waits on "
          "another, so no waiting metric is reported")
    print(f"failed_frac {res.failed / max(1, res.attempted):.4f} "
          f"({res.failed} of {res.attempted} jobs)")
    print(f"reference: {res.reference_checked} of {res.attempted} outputs compared with "
          f"the seed commit's (seed {'recorded' if expected else 'not recorded'})")
    print(f"bench.check_s {res.check_s:.3f} s (independent checks, untimed)")
    print(f"setup samples (s, raw/nominal): {' '.join(f'{x:.4f}/{y:.4f}' for x, y in pairs)}")
    refs = [took for _, took in host.samples]
    print(f"raw seconds: wall {res.wall_s:.3f} s, job p50 {1000 * percentile(res.latencies, 0.5):.3f} "
          f"ms, p90 {1000 * percentile(res.latencies, 0.9):.3f} ms; reference loop median "
          f"{1000 * statistics.median(refs):.4f} ms, fastest {1000 * min(refs):.4f} ms "
          f"({len(refs)} samples)")
    print("counters " + json.dumps(dict(sorted(tracer.counts.items()))))

    correct = not res.incorrect
    if args.trace:
        busy, self_time = aggregate(tracer.spans)
        values = layer_metrics(busy, self_time, tracer.counts, res)
        values["bench.trace_overhead_frac"] = wall_ref / child["metrics"]["wall_ref"]["value"] - 1
        differ = sorted(k for k in set(tracer.counts) | set(child["counters"])
                        if tracer.counts.get(k, 0) != child["counters"].get(k, 0))
        values["bench.counters_differing"] = len(differ)
        if differ:
            print("determinism gate FAILED, counters differ: " + ", ".join(differ))
        else:
            print(f"determinism gate: all {len(tracer.counts)} counters repeat exactly")
        correct = correct and child["correct"] and not differ
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-{args.seed}.jsonl", "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
        wanted = spec["per_layer"]
        attempted = res.attempted + child["attempted"]
        failed = res.failed + child["failed"]
    else:
        values = {
            "wall_ref": wall_ref,
            "job_p50_ref": percentile(units, 0.5),
            "job_p90_ref": percentile(units, 0.9),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
        attempted, failed = res.attempted, res.failed
        if args.record:
            if res.failed:
                raise SystemExit("not recording a run with failed jobs")
            write_reference(args.workload, args.seed, res.records)

    names = {m["name"] for m in wanted}
    if names != set(values):
        raise SystemExit(f"metric mismatch with BENCHMARK.json: {sorted(names ^ set(values))}")
    metrics = {}
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f" ({jobs} jobs, {jobs - int(0.9 * jobs) - 1} beyond p90)" \
            if m["name"] == "job_p90_ref" else ""
        print(f"{m['name']} {value:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
