"""One job per seed, spread over forked worker processes.

`chain-sim --replicas` runs its seeds through `run`.  The seeds are dealt
round-robin over `workers(len(seeds))` processes: this one and children
made with os.fork.  A child runs its share, writes the results back as one
JSON text on a pipe and leaves through os._exit, so it never flushes the
parent's stdio buffers or runs its atexit handlers.  JSON carries floats
exactly (repr out, float() in), so the results equal a plain loop's.

Forked, not spawned: a child shares the loaded program and its inputs, and
the CLI starts no thread that a fork could cut short.  No multiprocessing
and no pickle: importing pickle alone raises the process's peak RSS.  The
CLI imports this module only for runs with more than one replica.
"""

from __future__ import annotations

import json
import os
import signal
import time


def cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def workers(jobs: int) -> int:
    """Processes to spread `jobs` over: one per CPU this process may use, at
    most one per job, and just this one where the platform cannot fork."""
    return min(jobs, cpus()) if hasattr(os, "fork") else 1


def _timed(job, seed: int) -> tuple:
    """job(seed), and the seconds it took."""
    begun = time.perf_counter()
    result = job(seed)
    return result, time.perf_counter() - begun


def _worker(job, seeds, write_end: int, read_ends: list[int]):
    """Body of a forked worker; never returns.

    Closes its copies of the pipes' read ends, so a write fails rather than
    blocks once the parent is gone.  Runs `seeds` in order up to the first
    that fails and writes their [result, seconds] pairs to `write_end` as
    one JSON list.
    """
    code = 1
    try:
        for fd in read_ends:
            os.close(fd)
        done = []
        for seed in seeds:
            try:
                done.append(_timed(job, seed))
            except Exception:
                break  # the parent runs this seed again and raises its error
        with open(write_end, "w") as fh:
            fh.write(json.dumps(done))
        code = 0
    finally:
        os._exit(code)


def run(job, seeds: list[int], n: int) -> list:
    """[job(seed), seconds] for each seed, in seed order, over n processes.

    This process runs seeds[0::n]; worker w runs seeds[w::n].  A seed that
    failed, or that no worker delivered, runs again here in seed order, so
    the first failing seed raises as it would in a plain loop.  Every
    worker is reaped before this returns or raises; one whose pipe was not
    read to the end is killed first.
    """
    done: list = [None] * len(seeds)
    children = []  # (pid, read end of its pipe, w) per forked worker
    try:
        for w in range(1, n):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: this one runs the rest
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                _worker(job, seeds[w::n], write_end,
                        [read_end, *(fh.fileno() for _, fh, _ in children)])
            os.close(write_end)
            children.append((pid, open(read_end), w))
        for i in range(0, len(seeds), n):
            try:
                done[i] = _timed(job, seeds[i])
            except Exception:
                break  # run again below, after any earlier seed
        for _, fh, w in children:
            with fh:
                text = fh.read()
            try:
                delivered = json.loads(text)
            except ValueError:  # the worker died before it finished writing
                delivered = []
            for i, pair in zip(range(w, len(seeds), n), delivered):
                done[i] = pair
        return [pair or _timed(job, seed) for pair, seed in zip(done, seeds)]
    finally:
        for pid, fh, _ in children:
            if not fh.closed:  # the worker may be blocked on a full pipe
                fh.close()
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
