"""Spans around the calls the CLI makes into each dualchain module.

The tracer replaces module attributes with timing wrappers, so no program
file changes: the CLI looks functions up on their module (``chainsim.run``)
or on names it imported (``cli.config_from_json``), and both are patched.
Spans stay in memory, each linked to its parent span and to the task that
caused it, and are written out when the run ends.  Per-point calls such as
``zone_of`` are aggregated into a count and a total, charged to the
innermost open span so that self times stay exact.  A wrapper whose target
no longer exists is skipped and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import threading
from time import perf_counter_ns, thread_time_ns


class Span:
    __slots__ = ("id", "parent", "task", "round", "name", "start", "end", "agg_ns", "attrs")

    def __init__(self, sid, parent, task, rnd, name, start):
        self.id, self.parent, self.task, self.round = sid, parent, task, rnd
        self.name, self.start, self.end = name, start, start
        self.agg_ns = 0  # time of aggregated calls made directly inside this span
        self.attrs: dict = {}

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "task": self.task, "round": self.round,
                "name": self.name, "start_ns": self.start, "end_ns": self.end,
                "agg_ns": self.agg_ns, **self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.aggregates: dict[tuple[int, str], list[int]] = {}  # (round, name) -> [calls, ns]
        self.round = 0
        self.task: str | None = None
        self.root: Span | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        # Worker threads (the --replicas pool) start with an empty stack;
        # their spans belong to the dispatch that started them.
        parent = stack[-1] if stack else self.root
        with self._lock:
            span = Span(len(self.spans), parent.id if parent else None, self.task,
                        self.round, name, perf_counter_ns())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span):
        span.end = perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def begin_task(self, task: str):
        self.task = task
        self.root = self.open("cli.dispatch")

    def end_task(self, code: int):
        self.root.attrs["exit"] = code
        self.close(self.root)
        self.root = None

    def _charge(self, name: str, ns: int):
        stack = self._stack()
        owner = stack[-1] if stack else self.root
        with self._lock:
            slot = self.aggregates.setdefault((self.round, name), [0, 0])
            slot[0] += 1
            slot[1] += ns
            if owner is not None:
                owner.agg_ns += ns

    # -- patching -----------------------------------------------------------

    def wrap_span(self, module, attr: str, name: str, after=None, on_error=None):
        """Time every call of module.attr as its own span.

        Spans also record the calling thread's CPU time (cpu_ns), which
        leaves out time spent waiting for the interpreter lock.
        after(span, result) and on_error(span, exc) record counters.
        """
        target = getattr(module, attr, None)
        if target is None:
            return

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            cpu0 = thread_time_ns()
            try:
                result = target(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(span, exc)
                raise
            finally:
                span.attrs["cpu_ns"] = thread_time_ns() - cpu0
                self.close(span)
            if after is not None:
                after(span, result)
            return result

        self._patch(module, attr, wrapper)

    def wrap_aggregate(self, module, attr: str, name: str):
        """Count calls of module.attr and total their time, without spans."""
        target = getattr(module, attr, None)
        if target is None:
            return

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return target(*args, **kwargs)
            finally:
                self._charge(name, perf_counter_ns() - t0)

        self._patch(module, attr, wrapper)

    def _patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def self_ns(self, span: Span, children: list[Span]) -> int:
        """Span duration minus the part its child spans and aggregated calls cover."""
        covered = 0
        cur_start = cur_end = None
        for child in sorted(children, key=lambda s: s.start):
            if cur_end is None or child.start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = child.start, child.end
            else:
                cur_end = max(cur_end, child.end)
        if cur_end is not None:
            covered += cur_end - cur_start
        return span.end - span.start - covered - span.agg_ns

    def write(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
            for (rnd, name), (calls, ns) in sorted(self.aggregates.items()):
                fh.write(json.dumps({"aggregate": name, "round": rnd,
                                     "calls": calls, "ns": ns}) + "\n")


def install(tracer: Tracer):
    """Wrap the public functions the CLI calls in each module."""
    from dualchain import chainsim, cli, dynamics, equilibrium, ingest

    def after_run(span, report):
        history = getattr(report, "difficulty_history", {}) or {}
        events = getattr(report, "events", None)
        span.attrs.update(
            blocks=sum(getattr(report, "blocks", {}).values()),
            retargets=sum(max(len(h) - 1, 0) for h in history.values()),
            switches=max(len(getattr(report, "occupancy", ()) or ()) - 1, 0),
            events=len(events) if events is not None else 0,
        )

    def after_flow(span, traj):
        span.attrs["steps"] = len(getattr(traj, "zones", ()) or ())

    def after_load(span, loaded):
        span.attrs["rows"] = len(loaded)

    def after_rows(span, result):
        # estimate_state_path and zone_path return (per-record list, extra)
        span.attrs["rows"] = len(result[0])

    def refused(span, exc):
        span.attrs["refused"] = getattr(exc, "code", None) == "unresolvable_state"

    tracer.wrap_span(chainsim, "run", "chainsim.run", after=after_run)
    tracer.wrap_span(chainsim, "empirical_payoffs", "chainsim.empirical_payoffs")
    for attr in ("sample_series", "write_series_csv", "write_events_csv"):
        tracer.wrap_span(chainsim, attr, f"chainsim.{attr}")
    tracer.wrap_span(cli, "config_from_json", "core.config_from_json")
    tracer.wrap_span(equilibrium, "equilibria", "equilibrium.equilibria")
    # zone_of is reached from the zones grid (via the module), from the
    # flow and from zone_path (via names imported at module load).
    for module in (equilibrium, dynamics, ingest):
        tracer.wrap_aggregate(module, "zone_of", "equilibrium.zone_of")
    tracer.wrap_span(dynamics, "simulate_flow", "dynamics.simulate_flow", after=after_flow)
    tracer.wrap_aggregate(dynamics, "step_best_response", "dynamics.step_best_response")
    tracer.wrap_span(ingest, "load_series", "ingest.load_series", after=after_load)
    # detect_fickle_periods scans the rows its task's load_series returned.
    tracer.wrap_span(ingest, "detect_fickle_periods", "ingest.detect_fickle_periods")
    tracer.wrap_span(ingest, "estimate_state_path", "ingest.estimate_state_path",
                     after=after_rows)
    tracer.wrap_span(ingest, "zone_path", "ingest.zone_path", after=after_rows,
                     on_error=refused)
