"""Command-line front-end: every module as a subcommand with JSON/CSV I/O.

Exit codes: 0 success, 2 validation error (machine-readable JSON on
stderr with {code, message, field?}), 1 internal error.  Unless --quiet,
each run echoes its fully resolved parameters to stderr for
reproducibility; stdout carries data only.  DUALCHAIN_LOG
(error|warn|debug) controls diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import stat
import sys
import time
from itertools import islice
from typing import TYPE_CHECKING

from .core import (ZONE_TOL, DualchainError, InvalidValue, MiningState, Schedule, Strategy, Zone,
                   check_count, check_range, config_from_json, number, read_json)

if TYPE_CHECKING:
    # Annotations only: each command imports the modules it runs.
    from . import chainsim

_POLICIES = {s.value: s for s in Strategy}
# CSV cells of the enum columns.  Enum.value is a Python-level property;
# this lookup measured ~1.4x faster per cell.
_LABELS = {m: m.value for m in Zone}
# The same labels as JSON strings, for the JSON rows writer.
_JSON_LABELS = {m: json.dumps(m.value) for m in Zone}
# Rows the JSON rows writer joins into one write.
_JSON_CHUNK = 256


class _UsageError(DualchainError):
    code = "usage"


class _NonFiniteOutput(DualchainError):
    code = "non_finite_output"


class _HelpShown(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so errors map to exit 2."""

    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):
        # Only -h/--help gets here, after printing the help: error() raises first.
        raise _HelpShown


# The rank of each DUALCHAIN_LOG name (lower case) and line level (upper case).
_RANKS = {"debug": 0, "warn": 1, "error": 2, "DEBUG": 0, "WARNING": 1, "ERROR": 2}


def _logs(level: str) -> bool:
    """Whether `level` ranks at least DUALCHAIN_LOG (unset or unknown: warn)."""
    return _RANKS[level] >= _RANKS.get(os.environ.get("DUALCHAIN_LOG", "warn").lower(), 1)


def _log(level: str, message: str):
    """Write "`level` dualchain: `message`" to the stderr of the moment, if allowed."""
    if _logs(level):
        sys.stderr.write(f"{level} dualchain: {message}\n")
        sys.stderr.flush()


def _finite(value) -> bool:
    """Whether JSON can carry `value`: no NaN or infinity anywhere in it."""
    try:
        return bool(json.dumps(value, allow_nan=False))
    except ValueError:
        return False


def _json(obj: dict) -> str:
    """One JSON line.  A NaN or infinity anywhere raises _NonFiniteOutput
    naming the first top-level key that holds one (exit 2)."""
    try:
        return json.dumps(obj, allow_nan=False) + "\n"
    except ValueError:
        field = next(key for key, value in obj.items() if not _finite(value))
        raise _NonFiniteOutput(f"{field} is not finite: JSON cannot carry it",
                               field=field) from None


@contextlib.contextmanager
def _output(out: str | None, newline: str | None = None):
    """The --out file opened for writing, or stdout without it."""
    if out:
        with open(out, "w", newline=newline) as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, out: str | None):
    with _output(out) as fh:
        fh.write(text)


def _emit_csv(fields, lines, out: str | None):
    """Write the header line of `fields`, then `lines`, each ending in CRLF.

    Cells are ints, floats, "" or enum labels.  csv.writer writes each of
    them as str() of the cell, unquoted, so a line is its cells' str()
    joined by commas: "%s" or an f-string field per cell gives its bytes.
    Callers with row tuples pass map("%s,...,%s\\r\\n".__mod__, rows).
    """
    with _output(out, newline="") as fh:
        fh.write(",".join(fields) + "\r\n")
        fh.writelines(lines)


def _texts(column):
    """f"{cell}" of each cell, formatted again only when the cell is a
    different object from the one before: a column that holds one float
    for many rows formats it once."""
    last, text = object(), ""
    for cell in column:
        if cell is not last:
            last, text = cell, f"{cell}"
        yield text


def _emit_json_rows(head: str, fields, rows, tail: str, out: str | None, floats=None):
    """Write head, the JSON array of one object per row tuple, keyed by
    `fields`, and tail as one line, with the bytes `_json` gives the same
    object.

    Cells are ints, finite floats or JSON strings (`_JSON_LABELS`); "%s"
    of each is its JSON text.  Rows are joined a chunk at a time, so
    neither an object per row nor the text of the whole array is built.
    `floats` maps each float field, in field order, to its column.  They
    are checked before anything is written: a NaN or infinity raises
    _NonFiniteOutput naming the first such field (exit 2), and no output.
    """
    for field, column in (floats or {}).items():
        if not all(map(math.isfinite, column)):
            raise _NonFiniteOutput(f"{field} is not finite: JSON cannot carry it", field=field)
    line = "{" + ", ".join(json.dumps(f) + ": %s" for f in fields) + "}"
    rows = iter(rows)
    with _output(out) as fh:
        fh.write(head + "[")
        sep = ""
        while chunk := [line % row for row in islice(rows, _JSON_CHUNK)]:
            fh.write(sep)
            fh.write(", ".join(chunk))
            sep = ", "
        fh.write("]" + tail + "\n")


def _echo(args, config, **fields):
    """Unless --quiet, echo the command, `fields` and the game config's, if
    any, to stderr."""
    if not args.quiet:
        fields["command"] = args.command
        if config is not None:
            fields.update(dataclasses.asdict(config))
        print(f"# config: {json.dumps(fields, sort_keys=True)}", file=sys.stderr)


def _parse_state(text: str, field: str) -> MiningState:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"state must be 'rF,rB', got {text!r}")
    try:
        return MiningState(float(parts[0]), float(parts[1]))
    except ValueError as exc:  # not two numbers, or not a point of the simplex
        raise InvalidValue(str(exc), field=field) from None


def _schedule(path: str | None) -> Schedule | None:
    return Schedule.from_file(path) if path else None


def _regime(spec: str) -> chainsim.DifficultyRegime:
    """A regime from its spec; each given number fills the regime's next field."""
    from . import chainsim

    kind, *values = spec.split(":")
    regime = {"epoch": chainsim.EpochFixed, "eda": chainsim.EpochWithEda,
              "perblock": chainsim.PerBlockWindow}.get(kind)
    fields = dataclasses.fields(regime) if regime else ()
    if regime is None or len(values) > len(fields):
        raise _UsageError(f"unknown regime {spec!r} (epoch:N | eda:N:W:T:F | perblock:W)")
    knobs = {}
    for knob, text in zip(fields, values):
        convert = type(knob.default)  # int or float
        try:
            knobs[knob.name] = convert(text)
        except ValueError:
            raise InvalidValue(f"{knob.name} must be {'an int' if convert is int else 'a number'}"
                               f", got {text!r}", field=knob.name) from None
    return regime(**knobs)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_payoff(args):
    from .payoff import payoff_triple

    config = config_from_json(args.config)
    state = _parse_state(args.state, "state")
    triple = payoff_triple(state, config)
    _echo(args, config, state=[state.r_f, state.r_b])
    row = {"r_f": state.r_f, "r_b": state.r_b}
    # u_f, u_a and u_b, each null where it diverges.
    row.update((name, None if math.isinf(u) else u)
               for name, u in dataclasses.asdict(triple).items())
    if args.format == "csv":
        _emit_csv(tuple(row), ["%s,%s,%s,%s,%s\r\n" % tuple("" if v is None else v
                                                           for v in row.values())], args.out)
    else:
        _emit(_json(row), args.out)


def _cmd_zones(args):
    from . import equilibrium

    config = config_from_json(args.config)
    n = check_count(args.grid, "grid")
    check_range(args.tol, "tol", 0.0, hi_open=True)
    _echo(args, config, grid=n, tol=args.tol)
    zone_at, tol = equilibrium.zone_at, args.tol
    k, n_in, n_de = config.k, config.n_in, config.n_de

    def cells(labels, csv):  # the grid's row tuples, or with `csv` its CSV lines
        for i in range(n):
            r_f = (i + 0.5) / n
            cell = f"{r_f}"  # a grid row formats its r_f once
            for j in range(n):
                r_b = (j + 0.5) / n * (1.0 - r_f)
                zone = labels[zone_at(r_f, r_b, k, n_in, n_de, tol)]
                yield f"{cell},{r_b},{zone}\r\n" if csv else (cell, r_b, zone)

    fields = ("r_f", "r_b", "zone")
    if args.format == "json":
        # Every grid point is finite, so no float column needs a check.
        _emit_json_rows("", fields, cells(_JSON_LABELS, False), "", args.out)
    else:
        _emit_csv(fields, cells(_LABELS, True), args.out)


def _cmd_equilibria(args):
    from . import equilibrium

    config = config_from_json(args.config)
    _echo(args, config)
    _emit(_json(equilibrium.equilibria(config).to_dict()), args.out)


def _cmd_threshold(args):
    from . import dynamics

    config = config_from_json(args.config)
    _echo(args, config)
    _emit(_json({"automatic_threshold": dynamics.automatic_threshold(config)}), args.out)


def _cmd_simulate(args):
    from . import dynamics

    config = config_from_json(args.config)
    initial = _parse_state(args.initial, "initial")
    flow = dynamics.FlowConfig(
        migration_rate=args.rate,
        max_steps=args.max_steps,
        convergence_eps=args.eps,
        k_schedule=_schedule(args.k_schedule),
        c_stick_schedule=_schedule(args.c_stick_schedule),
    )
    _echo(args, config, initial=[initial.r_f, initial.r_b], rate=args.rate,
          max_steps=args.max_steps, eps=args.eps)
    traj = dynamics.simulate_flow(initial, flow, config)
    fields = ("step", "r_f", "r_b", "zone", "k", "c_stick")
    json_out = args.format == "json"
    rows = zip(range(len(traj.zones)), traj.r_f, traj.r_b,
               map((_JSON_LABELS if json_out else _LABELS).__getitem__, traj.zones),
               _texts(traj.ks), _texts(traj.c_sticks))
    if json_out:
        head = '{"outcome": %s, "steps_used": %s, "trajectory": ' % (
            json.dumps(traj.outcome.value), traj.steps_used)
        _emit_json_rows(head, fields, rows, "}", args.out,
                        floats={"r_f": traj.r_f, "r_b": traj.r_b, "k": traj.ks,
                                "c_stick": traj.c_sticks})
    else:
        _emit_csv(fields, map("%s,%s,%s,%s,%s,%s\r\n".__mod__, rows), args.out)
        if not args.quiet:
            print(f"# outcome: {traj.outcome.value} steps_used: {traj.steps_used}",
                  file=sys.stderr)


def _cmd_best_response(args):
    import random  # only this command draws

    from . import dynamics, equilibrium

    config = config_from_json(args.config)
    names = read_json(args.assignment, list, str,
                      "--assignment must be a JSON list of strategy names", "assignment")
    try:
        assignment = [_POLICIES[n] for n in names]
    except KeyError as exc:
        raise InvalidValue(f"unknown strategy {exc.args[0]!r}", field="assignment") from None
    check_range(args.steps, "steps", 0)
    _echo(args, config, steps=args.steps, seed=args.seed)
    rng = random.Random(args.seed)
    history = 0
    for _ in range(args.steps):
        updated = dynamics.step_best_response(assignment, config, rng)
        if updated != assignment:
            history += 1
        assignment = updated
    state = dynamics.assignment_state(assignment, config)
    gains = [
        equilibrium.finite_deviation(state, c_i, s, config).payoff_gain
        for s, c_i in zip(assignment, config.powers)
    ]
    _emit(_json({
        "assignment": [s.value for s in assignment],
        "r_f": state.r_f, "r_b": state.r_b,
        "changes": history,
        "max_gain": max(gains) if gains else 0.0,
        "converged": all(g <= 0.0 for g in gains),
    }), args.out)


def _load_agents(path: str) -> list[chainsim.MinerAgent]:
    from . import chainsim

    raw = read_json(path, list, dict, "agents file must contain a JSON list of objects", "agents")
    agents = []
    for entry in raw:
        name, policy = entry.get("id"), entry.get("policy")
        if not isinstance(name, str):
            raise InvalidValue(f"agent id must be a string, got {name!r}" if "id" in entry
                               else "an agent has no id", field="id")
        if not (isinstance(policy, str) and policy in _POLICIES):
            raise InvalidValue(f"agent {name!r}: unknown policy {policy!r}", field="policy")
        agents.append(chainsim.MinerAgent(name,
                                          number(entry.get("power"), "power",
                                                 f"agent {name!r}: power"),
                                          _POLICIES[policy]))
    return agents


def _report_dict(report: chainsim.SimReport) -> dict:
    from . import chainsim

    try:
        densities = {s.value: d for s, d in chainsim.empirical_payoffs(report).items()}
    except chainsim.InsufficientCycles:
        densities = None
    return {
        "duration": report.duration,
        "mode": report.mode,
        "seed": report.seed,
        "blocks": report.blocks,
        "mean_interval": report.mean_interval,
        "final_difficulty": report.final_difficulty,
        "fickle_cycles": report.fickle_cycles,
        "agent_rewards": report.agent_rewards,
        "policy_density": densities,
    }


@contextlib.contextmanager
def _debug_line(args, **fields):
    """Yield the debug line's fields (the command, `fields` and `refused`,
    which a DualchainError sets to its code) and `lap(stage)`, which adds the
    seconds since the last lap to the stage's and returns them.  The line,
    with `seconds`, is formatted and logged on exit only when debug is on."""
    line = {"command": args.command, **fields, "refused": None}
    seconds: dict[str, float] = {}
    last = time.perf_counter()

    def lap(stage: str) -> float:
        nonlocal last
        begun, last = last, time.perf_counter()
        seconds[stage] = seconds.get(stage, 0.0) + (last - begun)
        return last - begun

    try:
        yield line, lap
    except DualchainError as exc:
        line["refused"] = exc.code
        raise
    finally:
        if _logs("DEBUG"):
            _log("DEBUG", json.dumps({**line, "seconds": seconds}))


def _merge_replicas(reports: list[dict]) -> dict:
    """The --replicas JSON: every report, then each policy's mean density and
    its sample stdev over the replicas that have a density (stdev null when
    fewer than two do)."""
    merged: dict = {"replicas": reports}
    densities = [r["policy_density"] for r in reports if r["policy_density"]]
    n = len(densities)
    if densities:
        means = {k: sum(d[k] for d in densities) / n for k in densities[0]}
        merged["mean_policy_density"] = means
    merged["stdev_policy_density"] = None
    if n > 1:
        # Plain float arithmetic: a non-finite density gives NaN here and
        # exit 2 at the JSON emit, as it does for the mean.
        merged["stdev_policy_density"] = {
            k: math.sqrt(sum((d[k] - m) * (d[k] - m) for d in densities) / (n - 1))
            for k, m in means.items()
        }
    return merged


def _cmd_chain_sim(args):
    from . import chainsim

    check_count(args.replicas, "replicas")
    if args.replicas > 1 and (args.events or args.series):
        raise _UsageError("--events and --series write one run; they cannot be "
                          "combined with --replicas > 1")
    if args.series_step is not None and not args.series:
        raise _UsageError("--series-step applies only with --series")
    raw = read_json(args.config)
    d_b = "difficulty_b" if "difficulty_b" in raw else "k"  # coin_B's difficulty defaults to k
    world = chainsim.ChainWorld(
        difficulty_a=number(raw["difficulty_a"], "difficulty_a") if "difficulty_a" in raw else 1.0,
        difficulty_b=number(raw.get(d_b), d_b),
        k=number(raw.get("k"), "k"),
        k_schedule=_schedule(args.k_schedule),
    )
    agents = _load_agents(args.agents)
    regime_a = _regime(args.regime_a)
    regime_b = _regime(args.regime_b)
    step = 1.0 if args.series_step is None else args.series_step
    if args.series:
        chainsim.check_series_step(step)  # before any output file is opened
    _echo(args, None, duration=args.duration, seed=args.seed, mode=args.mode,
          regime_a=args.regime_a, regime_b=args.regime_b, replicas=args.replicas, k=world.k,
          difficulty_a=world.difficulty_a, difficulty_b=world.difficulty_b)

    def one(seed: int, **outputs) -> tuple[dict, dict]:
        report = chainsim.run(world, agents, regime_a, regime_b, args.duration, seed,
                              mode=args.mode, **outputs)
        return _report_dict(report), report.stats

    opened = []  # the files this run writes, which a refused run removes
    with _debug_line(args, replicas=args.replicas, workers=1, runs=[]) as (line, lap):
        try:
            if args.replicas > 1:
                from . import replicas  # loaded only for runs with more than one replica

                line["workers"] = workers = replicas.workers(args.replicas)
                seeds = list(range(args.seed, args.seed + args.replicas))
                runs = replicas.run(one, seeds, workers)  # [(report dict, stats), seconds] each
                lap("run")
            else:
                # The event log and the series stream to their files as the run goes.
                with contextlib.ExitStack() as files:
                    def create(path):
                        fh = files.enter_context(open(path, "w", newline=""))
                        opened.append(path)
                        return fh

                    on_block, on_event = chainsim.write_events_csv(create(args.events)) \
                        if args.events else (None, None)
                    sinks = [chainsim.sample_series(chainsim.write_series_csv(
                        create(args.series)), step=step)] if args.series else []
                    result = one(args.seed, on_block=on_block, on_event=on_event, sinks=sinks)
                runs = [(result, lap("run"))]
            line["runs"] = [{"seed": r["seed"], "blocks": r["blocks"], "stats": stats,
                             "seconds": s} for (r, stats), s in runs]
            reports = [report for (report, _), _ in runs]
            _emit(_json(_merge_replicas(reports) if args.replicas > 1 else reports[0]), args.out)
            lap("emit")
        except BaseException:
            # A command that fails leaves no partial output file.  Devices, pipes
            # and symlinks given as --events or --series are left alone.
            for path in opened:
                if stat.S_ISREG(os.lstat(path).st_mode):
                    os.remove(path)
            raise


def _estimate_lines(ts, share, r_f):
    """The estimates CSV lines: a record with an r_f is gray, with r_b =
    max(0, share - r_f); any other has r_b = share.  A period's rows hold
    one r_f object, so each text is made once."""
    last_rf, rf_text = None, ""
    for t, sh, rf in zip(ts, share, r_f):
        if rf is None:
            sh_text = f"{sh}"
            yield f"{t},non_gray,{sh_text},,{sh_text}\r\n"
        else:
            if rf is not last_rf:
                last_rf, rf_text = rf, f"{rf}"
            yield f"{t},gray_period,{sh},{rf_text},{sh - rf if sh > rf else 0.0}\r\n"


def _cmd_analyze(args):
    from . import ingest

    config = config_from_json(args.config)
    _echo(args, config, input=args.input, hysteresis=args.hysteresis)
    with _debug_line(args, rows=None, out_of_order=None, periods=None) as (seen, lap):
        loaded = ingest.load_series(args.input)
        seen.update(rows=len(loaded), out_of_order=loaded.out_of_order_count)
        lap("load")
        if loaded.out_of_order_count:
            _log("WARNING", f"sorted {loaded.out_of_order_count} out-of-order records")
        periods = ingest.detect_fickle_periods(loaded, hysteresis=args.hysteresis)
        seen["periods"] = len(periods)
        lap("detect")
        estimates, period_rf = ingest.estimate_state_path(loaded, periods)
        ts, share, r_f, k = estimates.columns.values()
        lap("estimate")
        if args.out_periods:
            with open(args.out_periods, "w") as fh:
                json.dump([
                    {"start_index": p.start_index, "end_index": p.end_index,
                     "trigger_ratio": p.trigger_ratio, "r_f_estimate": rf}
                    for p, rf in zip(periods, period_rf)
                ], fh, allow_nan=False)
        if args.out_estimates:
            _emit_csv(("timestamp", "basis", "share", "r_f_est", "r_b_est"),
                      _estimate_lines(ts, share, r_f),
                      args.out_estimates)
        lap("emit")
        if args.out_zones:
            # zone_path runs to the end before the file opens, so a refusal
            # leaves no zones file behind.
            zones, _ = ingest.zone_path(estimates, config)
            lap("zones")
            _emit_csv(("timestamp", "zone", "k"),
                      map("%s,%s,%s\r\n".__mod__, zip(ts, map(_LABELS.__getitem__, zones), k)),
                      args.out_zones)
        _emit(_json({"records": len(loaded), "periods": len(periods),
                     "out_of_order": loaded.out_of_order_count}), args.out)
        lap("emit")


# What --config holds: chain-sim reads a world config, the others a game config.
_GAME_CONFIG = "game config JSON {k, n_in, n_de, c_stick, powers}"
_WORLD_CONFIG = "world config JSON {k, difficulty_a, difficulty_b}"
# --format, for the commands that can write both JSON and CSV.
_FORMAT = ("--format", dict(choices=("json", "csv"), default=None))

# name -> (help, the command's own arguments as (flag, add_argument keywords),
# handler), in help order.  Every command also has --config, --out and --quiet.
_COMMANDS = {
    "payoff": ("profit densities at one state", (
        ("--state", dict(required=True, help="rF,rB")),
        _FORMAT,
    ), _cmd_payoff),
    "zones": ("zone classification grid (CSV)", (
        ("--grid", dict(type=int, required=True)),
        ("--tol", dict(type=float, default=ZONE_TOL)),
        _FORMAT,
    ), _cmd_zones),
    "equilibria": ("equilibrium set (JSON)", (), _cmd_equilibria),
    "threshold": ("automatic-mining power threshold", (), _cmd_threshold),
    "simulate": ("zone-flow trajectory (CSV)", (
        ("--initial", dict(required=True, help="rF,rB")),
        ("--rate", dict(type=float, default=0.001)),
        ("--max-steps", dict(type=int, default=1_000_000)),
        ("--eps", dict(type=float, default=0.005)),
        ("--k-schedule", {}),
        ("--c-stick-schedule", {}),
        _FORMAT,
    ), _cmd_simulate),
    "best-response": ("iterated best-response updates", (
        ("--assignment", dict(required=True, help="JSON list of per-player strategies")),
        ("--steps", dict(type=int, default=1000)),
        ("--seed", dict(type=int, default=0)),
    ), _cmd_best_response),
    "chain-sim": ("block-level twin-chain simulation", (
        ("--agents", dict(required=True, help="JSON roster [{id,power,policy}]")),
        ("--regime-a", dict(default="epoch:2016")),
        ("--regime-b", dict(default="epoch:2016")),
        ("--duration", dict(type=float, required=True, help="horizon in P_ag")),
        ("--mode", dict(choices=("exponential", "deterministic"), default="exponential")),
        ("--events", dict(help="write event log CSV here")),
        ("--series", dict(help="write sampled series CSV here")),
        ("--series-step", dict(type=float, default=None)),
        ("--k-schedule", {}),
        ("--replicas", dict(type=int, default=1)),
        ("--seed", dict(type=int, default=0)),
    ), _cmd_chain_sim),
    "analyze": ("series ingestion and reconstruction", (
        ("--input", dict(required=True, help="series CSV")),
        ("--hysteresis", dict(type=float, default=0.02)),
        ("--out-periods", {}),
        ("--out-estimates", {}),
        ("--out-zones", {}),
    ), _cmd_analyze),
}


@functools.cache
def build_parser(only: str | None = None) -> _Parser:
    """The CLI parser; with `only`, just that command's subparser.

    A command's arguments, usage and errors do not depend on which other
    commands the parser holds.  Each is built once per process: a parse
    keeps no state on it, and help takes the terminal's width when printed.
    """
    parser = _Parser(prog="dualchain", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, handler) in _COMMANDS.items():
        if only is None or name == only:
            p = subs.add_parser(name, help=help_text)
            p.add_argument("--config", required=True,
                           help=_WORLD_CONFIG if name == "chain-sim" else _GAME_CONFIG)
            p.add_argument("--out", help="output file (default stdout)")
            p.add_argument("--quiet", action="store_true")
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=handler)
    return parser


# The input and the output file flags, as argparse dests.  Inputs may share a
# file.  An output may name the file of another flag only if it exists and is
# not regular (/dev/null): else its write would spoil that output or input.
_INPUTS = ("config", "agents", "assignment", "input", "k_schedule", "c_stick_schedule")
_OUTPUTS = ("out", "events", "series", "out_periods", "out_estimates", "out_zones")


def dispatch(argv: list[str]) -> int:
    """Parse and run; returns the process exit code."""
    # Only the named command's subparser.  No command, -h or an unknown
    # name gets the full parser, which lists every command.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        named = {}  # the real path of each file flag -> the flag
        for dest in _INPUTS + _OUTPUTS:
            if path := getattr(args, dest, None):
                real, flag = os.path.realpath(path), "--" + dest.replace("_", "-")
                if real in named and dest in _OUTPUTS and (
                        os.path.isfile(real) or not os.path.exists(real)):
                    raise _UsageError(f"{named[real]} and {flag} name the same file")
                named[real] = flag
        args.func(args)
        return 0
    except _HelpShown:
        return 0
    except DualchainError as exc:  # a usage error too
        payload = {"code": exc.code, "message": str(exc)}
        if getattr(exc, "field", None):
            payload["field"] = exc.field
        print(json.dumps(payload), file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # a JSONDecodeError too
        print(json.dumps({"code": "invalid_input", "message": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 2
    except Exception as exc:  # internal bug surface
        import traceback  # only an internal error prints one

        _log("ERROR", "internal error\n" + traceback.format_exc().removesuffix("\n"))
        print(json.dumps({"code": "internal", "message": f"{type(exc).__name__}: {exc}"}),
              file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":  # python -m dualchain.cli: the tests run it in subprocesses
    main()
