#!/usr/bin/env python3
"""Record bench/reference.json from the current program.

Run from the repository root, only when a benchmark change needs a new
reference (never in a change that claims a speed-up):

    python3 bench/record_reference.py

It records, for both scales:

  simulate  outcome and steps_used of every flow-pool entry
  zones     a SHA-256 of each zone map, with per-zone counts
  chain     deterministic sim_oracle slots: the report fields, exactly;
            exponential slots: a band per field over the calibration seeds
  fleet     a band per field over the calibration seeds, both replicas

A band is [min - m, max + m] over the calibration runs, with margin
m = max(4 sd, 2% of the mean, 2 for counts).  Fields that are bimodal in
exponential runs (the final difficulties, which depend on the phase of
the cycle at the horizon) are left to the invariant checks.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile

import run
import workloads

# Workload seeds for calibration; none is the held-out seed.
CALIBRATION_SEEDS = range(5001, 5017)
CHAIN_FIELDS = ("blocks.a", "blocks.b", "fickle_cycles", "retargets", "events",
                "mean_interval.a", "mean_interval.b", "final_difficulty.a",
                "final_difficulty.b", "rewards_total")
BAND_FIELDS = ("blocks.a", "blocks.b", "fickle_cycles", "retargets", "events",
               "mean_interval.a", "mean_interval.b")


def dispatch(cli, task) -> dict:
    obs = run.execute(cli, task)
    if obs["exit"] != 0:
        raise SystemExit(f"{task.key}: exit {obs['exit']} ({obs.get('error')})")
    return obs


def band(values: list) -> list:
    mean = statistics.fmean(values)
    sd = statistics.stdev(values) if len(values) > 1 else 0.0
    margin = max(4.0 * sd, 0.02 * abs(mean))
    if all(isinstance(v, int) for v in values):
        margin = max(margin, 2.0)
    return [min(values) - margin, max(values) + margin]


def density_fields(samples: list[dict]) -> tuple[str, ...]:
    keys = [k for k in samples[0] if k.startswith("density.")]
    return tuple(k for k in keys if all(k in s for s in samples))


def record_simulate(cli, workdir: str) -> dict:
    recorded = {}
    configs = {}
    for cid, k, n_in, n_de, c in workloads.FLOW_CONFIGS:
        configs[cid] = workloads._dump(os.path.join(workdir, f"{cid}.json"),
                                       workloads._game_dict(k, n_in, n_de, c))
    out = os.path.join(workdir, "flow.json")
    for entry in workloads.flow_pool():
        argv = ["simulate", "--config", configs[entry["config"]],
                "--initial", "{!r},{!r}".format(*entry["state"]),
                "--max-steps", str(workloads.FLOW_MAX_STEPS), "--format", "json",
                "--out", out, "--quiet"]
        if entry["schedule"] is not None:
            argv += ["--k-schedule", workloads._dump(os.path.join(workdir, "pump.json"),
                                                     entry["schedule"])]
        obs = dispatch(cli, workloads.Task(entry["id"], "simulate", argv, {"out": out}))
        recorded[entry["id"]] = {"outcome": obs["outcome"], "steps_used": obs["steps_used"]}
    return recorded


def record_zones(cli, workdir: str) -> dict:
    recorded = {}
    for zi, (k, n_in, n_de) in enumerate(workloads.ZONE_CONFIGS):
        path = workloads._dump(os.path.join(workdir, f"z{zi}.json"),
                               workloads._game_dict(k, n_in, n_de, 0.0))
        for grid in sorted(set(workloads.ZONE_GRID.values())):
            out = os.path.join(workdir, "zones.csv")
            task = workloads.Task("", "zones", ["zones", "--config", path, "--grid", str(grid),
                                                "--out", out, "--quiet"], {"out": out})
            obs = dispatch(cli, task)
            recorded[f"zones/c{zi}/g{grid}"] = {"sha256": obs["sha256"], "counts": obs["counts"]}
    return recorded


def record_sims(cli, name: str, scale: str, load_config) -> dict:
    """Run a chain-sim workload over the calibration seeds; key -> samples."""
    samples: dict[str, list[dict]] = {}
    modes = {}
    for seed in CALIBRATION_SEEDS:
        workdir = tempfile.mkdtemp(dir=run.SCRATCH)
        try:
            wl = workloads.build(name, seed, scale, workdir, {}, load_config)
            for task in wl.tasks:
                if task.kind == "chain" and task.info["mode"] == "deterministic" \
                        and task.key in samples:
                    continue
                obs = dispatch(cli, task)
                if task.kind == "fleet":
                    for i in range(obs["replicas"]):
                        samples.setdefault(task.key, []).append(
                            {k[len(f"r{i}."):]: v for k, v in obs.items()
                             if k.startswith(f"r{i}.")})
                else:
                    samples.setdefault(task.key, []).append(obs)
                    modes[task.key] = task.info["mode"]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    recorded = {}
    for key, runs in samples.items():
        if modes.get(key) == "deterministic":
            fields = CHAIN_FIELDS + density_fields(runs)
            recorded[key] = {"kind": "exact", "fields": {f: runs[0][f] for f in fields}}
        else:
            fields = tuple(f for f in BAND_FIELDS if f in runs[0]) + density_fields(runs)
            recorded[key] = {"kind": "band", "samples": len(runs),
                             "fields": {f: band([r[f] for r in runs]) for f in fields}}
    return recorded


def main() -> int:
    run.import_program()
    from dualchain import cli
    from dualchain.core import config_from_json

    os.makedirs(run.SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.SCRATCH)
    try:
        reference = {"simulate": record_simulate(cli, workdir),
                     "zones": record_zones(cli, workdir), "chain": {}, "fleet": {}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for scale in ("toy", "full"):
        reference["chain"].update(record_sims(cli, "sim_oracle", scale, config_from_json))
        reference["fleet"].update(record_sims(cli, "sim_fleet", scale, config_from_json))
        print(f"recorded {scale}", file=sys.stderr)
    path = os.path.join(run.BENCH, "reference.json")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
