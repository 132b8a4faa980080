"""Closed-loop driving, host-speed scaling, percentiles, process facts.

A workload supplies its ops and a function that runs one; the closed
loop here times each op, lets the workload check the result outside
the timed interval, and stops after the run length (and not before
:data:`MIN_OPS` ops, so that the 90th percentile has ten samples
beyond it).

Host-speed scaling.  On a shared host the interpreter's speed changes
by up to half within minutes, and every timing moves with it.  So the
times of the in-process workloads are divided by a speed factor: the
time of a fixed calibration burst measured while the program is idle,
over :data:`REFERENCE_BURST_MS`.  The factor does not depend on the
program, so a change to the program moves the scaled times as much as
the raw ones.  Raw values go to the report line too.
"""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
import threading
from dataclasses import dataclass, field

from tracing import Tracer, clock

#: Fewest ops a pass completes: with 100 samples, 10 lie beyond p90.
MIN_OPS = 100
#: Samples that must lie beyond a reported percentile.
MIN_TAIL = 10
#: Time in ms of one calibration burst at the reference speed (the
#: fast state of the 2-CPU host the benchmark was sized on).
REFERENCE_BURST_MS = 0.8


@dataclass
class Pass:
    """Outcome of one timed pass of a workload."""

    #: (op index, class label, latency in seconds, speed factor) per
    #: completed op
    samples: list = field(default_factory=list)
    #: indices of ops that raised or failed a check
    failed: set = field(default_factory=set)
    attempted: int = 0
    #: timed wall time: loop time minus the benchmark's own
    #: between-op bookkeeping (result checks, recording)
    wall: float = 0.0
    #: per-op facts a workload records for its checks
    records: dict = field(default_factory=dict)
    #: peak RSS of the process(es) under test, MB
    rss: float = 0.0
    #: set-up seconds measured by the pass itself (service start)
    setup: float | None = None
    #: simulated firings of the completed ops
    firings: int = 0
    #: service counters at the pass's start and end
    stats: tuple = ()
    lock: threading.Lock = field(default_factory=threading.Lock)

    def fail(self, index: int) -> None:
        with self.lock:
            self.failed.add(index)

    def speed(self) -> float:
        """The pass's speed factor, weighted by op latency."""
        raw = sum(lat for _i, _c, lat, _f in self.samples)
        scaled = sum(lat / f for _i, _c, lat, f in self.samples)
        return raw / scaled if scaled else 1.0


def burst_ms() -> float:
    """Time of one calibration burst, in ms: a fixed arithmetic loop and
    a fixed loop that builds and drops small containers.  On that host
    the analysis code slowed down more than the first and less than the
    second when the host did; their sum followed it."""
    start = clock()
    total = 0
    for i in range(4_000):
        total += i * i % 7
    table: dict = {}
    for i in range(1_300):
        key = i % 97
        table[key] = (i, [key, i], {"a": i})
        if len(table) > 50:
            table.pop(next(iter(table)))
    return (clock() - start) * 1000.0


def speed_factor(bursts: int = 3) -> float:
    """How many times slower than the reference the interpreter runs
    now: the median of ``bursts`` calibration bursts over
    :data:`REFERENCE_BURST_MS`.  Measure it only while the program
    under test is idle."""
    times = sorted(burst_ms() for _ in range(bursts))
    return times[len(times) // 2] / REFERENCE_BURST_MS


def percentile(values: list[float], q: float) -> tuple[float | None, int]:
    """Linear-interpolated ``q``-percentile and the sample count.

    The value is ``None`` unless at least :data:`MIN_TAIL` samples lie
    strictly beyond it, so a reported tail percentile always rests on
    ten or more observations.
    """
    n = len(values)
    if n == 0:
        return None, 0
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    beyond = sum(1 for v in ordered if v > value)
    if q > 50 and beyond < MIN_TAIL:
        return None, n
    return value, n


def run_loop(ops, seconds: float, run_one, check, result: Pass,
             tracer: Tracer | None = None, deadline: float | None = None,
             min_ops: int = MIN_OPS, calibrate: bool = True) -> None:
    """Drive ``ops`` (``(index, op)`` pairs, ``op[0]`` the op's class)
    in a closed loop on the calling thread.

    ``run_one(op)`` is the timed call; ``check(index, op, value)``
    runs after the clock stops and returns False for a wrong result.
    Ops that raise count as failed.  With ``calibrate`` a speed factor
    is measured between ops, and each op gets the mean of the factors
    just before and just after it; otherwise its factor is ``None`` for
    the caller to fill in.  Several threads may share one ``result``
    (the service clients); each passes the same deadline.
    """
    start = clock()
    deadline = start + seconds if deadline is None else deadline
    paused = 0.0
    done = 0
    before = speed_factor() if calibrate else None
    for index, op in ops:
        now = clock()
        if now >= deadline and done >= min_ops:
            break
        with result.lock:
            result.attempted += 1
        root = tracer.begin("op", op=index) if tracer else None
        t0 = clock()
        try:
            value, error = run_one(op), None
        except Exception as exc:  # counted and reported; the loop goes on
            value, error = None, exc
        t1 = clock()
        if tracer:
            tracer.end(root)
        after = speed_factor() if calibrate else None
        if error is not None:
            print(f"op {index} raised {type(error).__name__}: {error}",
                  file=sys.stderr)
            result.fail(index)
        else:
            done += 1
            factor = (before + after) / 2 if calibrate else None
            with result.lock:
                result.samples.append((index, op[0], t1 - t0, factor))
            if not check(index, op, value):
                result.fail(index)
        before = after
        paused += clock() - t1
    with result.lock:
        result.wall = max(result.wall, clock() - start - paused)


def latencies(result: Pass, classes=None, raw: bool = False) -> list[float]:
    """Latencies of the pass's passed ops (scaled unless ``raw``)."""
    return [lat if raw else lat / factor
            for index, cls, lat, factor in result.samples
            if index not in result.failed
            and (classes is None or cls in classes)]


def end_to_end(result: Pass, raw: bool = False) -> dict:
    """The latency and rate metrics of one pass, with sample counts."""
    values = latencies(result, raw=raw)
    p50, n = percentile(values, 50)
    p90, _ = percentile(values, 90)
    done = len(result.samples)
    wall = result.wall if raw else result.wall / result.speed()
    metrics = {
        "ops_per_s": (done / wall if wall else 0.0, "1/s", done),
        "latency_p50_ms": (_ms(p50), "ms", n),
        "failed_ratio": (len(result.failed) / max(result.attempted, 1),
                         "fraction", result.attempted),
    }
    if p90 is not None:
        metrics["latency_p90_ms"] = (p90 * 1000.0, "ms", n)
    return metrics


def class_p50(result: Pass, classes, name: str) -> dict:
    value, n = percentile(latencies(result, classes), 50)
    return {name: (_ms(value), "ms", n)} if value is not None else {}


def _ms(seconds: float | None) -> float:
    return 0.0 if seconds is None else seconds * 1000.0


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def provenance(root: str, seed: int) -> dict:
    """Host and build facts recorded with every result."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    import numpy

    return {
        "seed": seed,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m_before": os.getloadavg()[0],
        "speed_factor_before": speed_factor(9),
    }
