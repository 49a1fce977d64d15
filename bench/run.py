#!/usr/bin/env python3
"""dualchain benchmark: run one workload, check every output, print metrics.

Run from the repository root:

    python3 bench/run.py --workload sim_oracle --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):

  sim_oracle  chain-sim on 3-agent rosters at the criterion-7 oracle states,
              chain B under perblock:144, eda:144:6:12:0.8 and epoch:144,
              exponential and deterministic, every task writing --events
              and --series
  sim_fleet   chain-sim on a seeded 300-agent roster, --replicas 2,
              JSON report only
  analysis    zones, simulate (with a price pump), an equilibria sweep,
              best-response and analyze; nothing in chainsim

Each task is one in-process ``dualchain.cli.dispatch(argv)`` call on inputs
generated from --seed; outputs go to files in a scratch directory and are
checked after every call.  The task list is repeated in rounds until
--seconds have passed (at least three rounds).

With --trace 0 the metrics are the end-to-end ones, measured untraced:
wall_s (median seconds per round, first task to last checked output),
setup_s (median over several fresh processes of process start to first
task ready: import dualchain and generate the inputs) and peak_rss_mb
(this process's ru_maxrss).  failed_ratio (tasks that exited non-zero or
failed their check, over tasks attempted) is printed with them.

With --trace 1, half the time runs untraced and half traced; the metrics
are the per-layer ones from the traced rounds (medians over rounds) plus
the tracing overhead.  Spans are written to .bench_traces/.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"failed" counts tasks whose output check failed, including any non-zero
exit other than the known refusal on the series shaped to provoke it;
that refusal is counted in failed_ratio and in ingest.refused.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_tmp")
TRACES = os.path.join(ROOT, ".bench_traces")

import workloads  # noqa: E402  (sibling module; needs no dualchain import)

MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 3
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
PAYOFF_REPEATS = 5


def import_program() -> float:
    """Import dualchain from this checkout's src/; return the import time."""
    if not os.path.isfile(os.path.join(SRC, "dualchain", "__init__.py")):
        raise SystemExit(f"bench: no dualchain sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import dualchain.cli  # noqa: F401
    elapsed = perf_counter() - t0
    import dualchain
    if not os.path.abspath(dualchain.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported dualchain from {dualchain.__file__}, not {SRC}")
    return elapsed


def load_reference() -> dict:
    path = os.path.join(BENCH, "reference.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def declared_metrics() -> tuple[dict, dict]:
    """(end_to_end, per_layer) name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build_workload(args, workdir: str, import_s: float) -> workloads.Workload:
    from dualchain.core import config_from_json
    wl = workloads.build(args.workload, args.seed, args.scale, workdir,
                         load_reference(), config_from_json)
    wl.import_s = import_s
    return wl


class Tally:
    """Task outcomes over a run."""

    def __init__(self):
        self.attempted = self.failed = self.refused = 0
        self.problems: list[str] = []

    def add(self, task, status: str, problems: list[str]):
        self.attempted += 1
        if status == "failed":
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{task.key}: " + "; ".join(problems[:3]))
        elif status == "refused":
            self.refused += 1


def execute(cli, task, tracer=None) -> dict:
    """One in-process CLI call with stderr captured; returns its observation."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.begin_task(task.key)
        code = cli.dispatch(list(task.argv))
        if tracer is not None:
            tracer.end_task(code)
    return workloads.observe(task, code, err.getvalue())


def run_task(cli, task, tally: Tally, tracer=None):
    tally.add(task, *workloads.outcome(task, execute(cli, task, tracer)))


class HostSpeed:
    """Host speed from a fixed pure-Python reference loop.

    This host's speed drifts by +-20% over seconds (other tenants, clock
    changes), far more than the bounds a regression is judged by.  Timings
    are therefore reported in nominal seconds: host seconds scaled by
    NOMINAL_REF_S over the median time of the reference loops run around
    them.  The loop does not touch dualchain, so nothing the program does
    changes it.  `exponent` is how strongly the timed work follows the
    loop: 1 for one-thread work, less for the threaded --replicas runs
    (see workloads.FLEET_SPEED_EXPONENT).
    """

    NOMINAL_REF_S = 0.010  # median time of one loop on the development host
    EVERY_S = 0.15  # time a loop before a task once this much time has passed
    ROUND_END_SAMPLES = 3

    def __init__(self, exponent: float = 1.0):
        self.exponent = exponent
        self.samples: list[float] = []
        self.measured_at = None

    @staticmethod
    def reference_loop() -> float:
        table: dict[int, float] = {}
        acc: list[float] = []
        x = 0.0
        for i in range(40000):
            x = (x * 1.0001 + i) % 977.0
            table[i & 255] = x
            if i & 7 == 0:
                acc.append(table.get(i & 127, 0.0))
        return x + len(acc)

    def sample(self):
        t0 = perf_counter()
        self.reference_loop()
        self.measured_at = perf_counter()
        self.samples.append(self.measured_at - t0)

    def maybe_sample(self):
        if self.measured_at is None or perf_counter() - self.measured_at >= self.EVERY_S:
            self.sample()

    def factor(self) -> float:
        """Nominal seconds per host second over the samples since the last call."""
        value = (self.NOMINAL_REF_S / statistics.median(self.samples)) ** self.exponent
        self.samples = []
        return value


def run_rounds(cli, wl, seconds: float, min_rounds: int, tally: Tally, speed: HostSpeed,
               tracer=None) -> tuple[list[float], list[float]]:
    """Repeat the task list; stop when another round would overrun `seconds`.

    Returns each round's nominal and host seconds, summed over its tasks
    (each timed from dispatch to its checked output).  Reference loops run
    between tasks and after the last one, outside the timed spans.
    """
    nominal: list[float] = []
    raw: list[float] = []
    start = perf_counter()
    while len(raw) < min_rounds or \
            perf_counter() - start + statistics.median(raw) <= seconds:
        if tracer is not None:
            tracer.round = len(raw)
        t_raw = 0.0
        for task in wl.rounds[len(raw) % len(wl.rounds)]:
            speed.maybe_sample()
            task.clear_outputs()
            t0 = perf_counter()
            run_task(cli, task, tally, tracer)
            t_raw += perf_counter() - t0
        for _ in range(speed.ROUND_END_SAMPLES):
            speed.sample()
        nominal.append(t_raw * speed.factor())
        raw.append(t_raw)
    return nominal, raw


def probe_setup(args) -> list[float]:
    """Time fresh processes from start until their first task is ready.

    Each time is in nominal seconds, scaled by the reference loops timed
    just before and just after the probe.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-probe"]
    speed = HostSpeed()
    times = []
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            speed.sample()
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            try:
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise RuntimeError("setup probe did not exit")
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()}")
        for _ in range(3):
            speed.sample()
        times.append(elapsed * speed.factor())
    return times


def time_payoff_values(points) -> float:
    """Median ns per direct payoff_values call over the workload's grid points."""
    if not points:
        return 0.0
    from dualchain.payoff import payoff_values
    samples = []
    for _ in range(PAYOFF_REPEATS):
        t0 = perf_counter()
        for r_f, r_b, k, n_in, n_de in points:
            payoff_values(r_f, r_b, k, n_in, n_de)
        samples.append((perf_counter() - t0) * 1e9 / len(points))
    return statistics.median(samples)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, rnd: int) -> dict:
    """Per-layer metrics of one traced round."""
    spans = [s for s in tracer.spans if s.round == rnd]
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def named(*names):
        return [s for s in spans if s.name in names]

    def secs(ss):
        return sum(s.end - s.start for s in ss) / 1e9

    def attr(ss, key):
        return sum(s.attrs.get(key) or 0 for s in ss)

    def agg(name):
        return tracer.aggregates.get((rnd, name), [0, 0])

    m = {}
    dispatches = named("cli.dispatch")
    m["cli.self_s"] = sum(tracer.self_ns(d, children[d.id]) for d in dispatches) / 1e9
    m["cli.exit2"] = sum(1 for d in dispatches if d.attrs.get("exit") == 2)
    m["cli.exit1"] = sum(1 for d in dispatches if d.attrs.get("exit") == 1)
    # CPU seconds of the runs a --replicas dispatch fans out, per second of
    # that dispatch: 1.0 when the runs take turns, N when N run in parallel.
    fanned = [(d, [c for c in children[d.id] if c.name == "chainsim.run"]) for d in dispatches]
    fanned = [(d, runs) for d, runs in fanned if len(runs) > 1]
    m["cli.replica_overlap"] = _ratio(sum(attr(runs, "cpu_ns") for _, runs in fanned) / 1e9,
                                      secs([d for d, _ in fanned]))

    # CPU time, so that runs sharing the interpreter lock are not counted twice.
    runs = named("chainsim.run")
    m["chainsim.run_s"] = attr(runs, "cpu_ns") / 1e9
    m["chainsim.blocks"] = attr(runs, "blocks")
    m["chainsim.blocks_per_s"] = _ratio(m["chainsim.blocks"], m["chainsim.run_s"])
    m["chainsim.retargets"] = attr(runs, "retargets")
    m["chainsim.switches"] = attr(runs, "switches")
    m["chainsim.events"] = attr(runs, "events")
    m["chainsim.output_s"] = secs(named("chainsim.sample_series", "chainsim.write_series_csv",
                                        "chainsim.write_events_csv"))
    m["chainsim.report_s"] = secs(named("chainsim.empirical_payoffs"))

    calls, ns = agg("equilibrium.zone_of")
    m["equilibrium.zone_of_calls"] = calls
    m["equilibrium.zone_of_ns"] = _ratio(ns, calls)
    eqs = named("equilibrium.equilibria")
    m["equilibrium.equilibria_calls"] = len(eqs)
    m["equilibrium.equilibria_us"] = _ratio(secs(eqs) * 1e6, len(eqs))

    flows = named("dynamics.simulate_flow")
    m["dynamics.flow_steps"] = attr(flows, "steps")
    m["dynamics.flow_steps_per_s"] = _ratio(m["dynamics.flow_steps"], secs(flows))
    m["dynamics.best_response_s"] = agg("dynamics.step_best_response")[1] / 1e9

    loads = named("ingest.load_series")
    rows_of_task = {s.task: s.attrs.get("rows") or 0 for s in loads}
    detects = named("ingest.detect_fickle_periods")
    estimates = named("ingest.estimate_state_path")
    paths = named("ingest.zone_path")
    done = [s for s in paths if "rows" in s.attrs]
    m["ingest.rows"] = attr(loads, "rows")
    m["ingest.load_rows_per_s"] = _ratio(m["ingest.rows"], secs(loads))
    m["ingest.detect_rows_per_s"] = _ratio(sum(rows_of_task.get(s.task, 0) for s in detects),
                                           secs(detects))
    m["ingest.estimate_rows_per_s"] = _ratio(attr(estimates, "rows"), secs(estimates))
    m["ingest.zone_path_rows_per_s"] = _ratio(attr(done, "rows"), secs(done))
    m["ingest.refused"] = sum(1 for s in paths if s.attrs.get("refused"))
    return m


def _median_metrics(per_round: list[dict]) -> dict:
    return {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}


def measure(cli, args, wl) -> tuple[dict, Tally, str]:
    tally = Tally()
    speed = HostSpeed(wl.speed_exponent)
    if not args.trace:
        setup = probe_setup(args)
        walls, raw = run_rounds(cli, wl, args.seconds, MIN_ROUNDS, tally, speed)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        note = (f"{len(walls)} rounds of {len(wl.rounds[0])} tasks; host seconds per round: "
                f"median {statistics.median(raw):.4f}, min {min(raw):.4f}, max {max(raw):.4f}; "
                f"{len(setup)} set-up probes")
        return metrics, tally, note

    import tracer as tracing
    plain, _ = run_rounds(cli, wl, args.seconds / 2, MIN_TRACE_ROUNDS, tally, speed)
    values_ns = time_payoff_values(wl.payoff_points)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced, _ = run_rounds(cli, wl, args.seconds / 2, MIN_TRACE_ROUNDS, tally, speed,
                               tracer)
    finally:
        tracer.uninstall()
    metrics = _median_metrics([layer_metrics(tracer, r) for r in range(len(traced))])
    metrics["payoff.values_ns"] = values_ns
    metrics["core.import_s"] = wl.import_s
    metrics["core.config_load_s"] = wl.config_load_s
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    os.makedirs(TRACES, exist_ok=True)
    path = os.path.join(TRACES, f"{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path)
    note = (f"{len(plain)} untraced + {len(traced)} traced rounds of {len(wl.rounds[0])} tasks; "
            f"nominal seconds per round untraced {statistics.median(plain):.4f}, traced "
            f"{statistics.median(traced):.4f}; spans in {os.path.relpath(path, ROOT)}")
    return metrics, tally, note


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="dualchain benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="toy sizes are for the smoke check only")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    end_to_end, per_layer = declared_metrics()
    import_s = import_program()
    from dualchain import cli

    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        wl = build_workload(args, workdir, import_s)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        metrics, tally, note = measure(cli, args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = per_layer if args.trace else end_to_end
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"bench: metrics not computed: {sorted(missing)}")
    for problem in tally.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    failed_ratio = (tally.failed + tally.refused) / tally.attempted
    print(f"workload={args.workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}: {note}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_ratio':32s} {failed_ratio:.6g} ({tally.refused} refused "
          f"[{workloads.KNOWN_REFUSAL}] + {tally.failed} failed of {tally.attempted} tasks)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
