#!/usr/bin/env python3
"""Toy-size smoke check of the benchmark harness and its output checks.

Run from the repository root (takes well under a minute, times nothing):

    python3 bench/smoke.py

It checks that
  - every workload runs at toy size, traced and untraced, and prints a
    correct result with exactly the metrics BENCHMARK.json declares;
  - the same seed gives the same inputs;
  - the analysis workload shows the known unresolvable_state refusal;
  - each output check rejects a corrupted output;
  - the benchmark exits non-zero, printing no result, in a directory that
    holds only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

SEED = 3
failures: list[str] = []


def expect(cond: bool, what: str):
    if not cond:
        failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)


def run_main(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    expect(code == 0, f"run.py {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def check_runs():
    end_to_end, per_layer = run.declared_metrics()
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = ["--workload", name, "--seed", str(SEED), "--seconds", "0",
                    "--scale", "toy", "--trace", str(trace)]
            result = run_main(argv)
            tag = f"{name} trace={trace}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: result {result['correct']}, {result['failed']} failed")
            declared = per_layer if trace else end_to_end
            expect(result["metrics"].keys() == declared.keys(), f"{tag}: metric names")
            for metric, unit in declared.items():
                got = result["metrics"].get(metric, {})
                expect(got.get("unit") == unit and isinstance(got.get("value"), (int, float)),
                       f"{tag}: {metric} malformed")
            m = {k: v["value"] for k, v in result["metrics"].items()}
            if trace and name.startswith("sim_"):
                expect(m["chainsim.blocks"] > 0 and m["chainsim.run_s"] > 0, f"{tag}: no blocks")
                expect(m["equilibrium.zone_of_calls"] == 0, f"{tag}: zone_of ran in a sim")
            if trace and name == "sim_fleet":
                expect(m["cli.replica_overlap"] > 0, f"{tag}: no replica fan-out seen")
            if trace and name == "analysis":
                expect(m["chainsim.blocks"] == 0, f"{tag}: chainsim ran in analysis")
                expect(m["ingest.refused"] >= 1 and m["cli.exit2"] >= 1,
                       f"{tag}: known refusal not visible")
                expect(m["equilibrium.zone_of_calls"] > 0 and m["dynamics.flow_steps"] > 0,
                       f"{tag}: analytic layers not exercised")
            if not trace:
                expect(all(v > 0 for v in m.values()), f"{tag}: an end-to-end metric is 0")


def _digest(workdir: str, wl) -> list:
    files = sorted(os.listdir(workdir))
    blobs = [hashlib.sha256(open(os.path.join(workdir, f), "rb").read()).hexdigest()
             for f in files]
    argv = [[a.replace(workdir, "<dir>") for a in t.argv] for t in wl.tasks]
    return [files, blobs, argv]


def build(name: str, workdir: str):
    from dualchain.core import config_from_json
    return workloads.build(name, SEED, "toy", workdir, run.load_reference(), config_from_json)


def check_inputs_repeat():
    for name in workloads.WORKLOADS:
        seen = []
        for _ in range(2):
            workdir = tempfile.mkdtemp(dir=run.SCRATCH)
            try:
                seen.append(_digest(workdir, build(name, workdir)))
            finally:
                shutil.rmtree(workdir)
        expect(seen[0] == seen[1], f"{name}: same seed gave different inputs")


# Per task kind: a corruption of the observed outputs the check must reject.
CORRUPT = {
    "chain": lambda o: o.__setitem__("blocks.a", o["blocks.a"] + 5),
    "fleet": lambda o: o["rewards"][0].__setitem__(
        next(iter(o["rewards"][0])), next(iter(o["rewards"][0].values())) * 1.01),
    "zones": lambda o: o.__setitem__("sha256", "0" * 64),
    "simulate": lambda o: o.__setitem__("steps_used", o["steps_used"] + 10),
    "equilibria": lambda o: o.__setitem__("case_tag", o["case_tag"] % 4 + 1),
    "best_response": lambda o: o.__setitem__("r_f", o["r_f"] + 0.01),
    "analyze": lambda o: o.__setitem__(
        "periods", [dict(p, r_f_estimate=p["r_f_estimate"] + 0.2) for p in o["periods"]]),
}


def check_checks():
    from dualchain import cli
    for name in workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(dir=run.SCRATCH)
        try:
            wl = build(name, workdir)
            kinds_done = set()
            for task in wl.tasks:
                obs = run.execute(cli, task)
                code = obs["exit"]
                status, problems = workloads.outcome(task, obs)
                if task.info.get("may_refuse"):
                    expect(status in ("refused", "ok"), f"{task.key}: {status} {problems}")
                    expect(status == "refused" or code == 0, f"{task.key}: refusal not seen")
                else:
                    expect(status == "ok", f"{task.key}: {status} {problems}")
                if task.kind in kinds_done:
                    continue
                kinds_done.add(task.kind)
                bad = copy.deepcopy(obs)
                CORRUPT[task.kind](bad)
                expect(workloads.outcome(task, bad)[0] == "failed",
                       f"{task.key}: corrupted output passed its check")
                crashed = dict(obs, exit=1, error="internal")
                expect(workloads.outcome(task, crashed)[0] == "failed",
                       f"{task.key}: exit 1 passed its check")
        finally:
            shutil.rmtree(workdir)


def check_bare_directory():
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = tempfile.mkdtemp(dir=run.SCRATCH)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "analysis", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        expect(proc.returncode != 0, "bare directory: exit code 0")
        expect('"correct"' not in proc.stdout, "bare directory: printed a result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    os.makedirs(run.SCRATCH, exist_ok=True)
    run.import_program()
    check_inputs_repeat()
    check_checks()
    check_runs()
    check_bare_directory()
    print(f"smoke: {'FAILED ' + str(len(failures)) if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
