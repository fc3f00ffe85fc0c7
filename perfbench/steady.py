"""Timing on a shared host: every time is adjusted to one host speed.

The benchmark runs on a few virtual CPUs of a shared machine. Other
tenants slow those CPUs down, by 10% up to 100%, in spells that last from
a second to minutes. A raw time follows how much of a run fell into such
spells, and that share differs between runs, and between a parent's runs
and a change's runs, by more than a change worth measuring. Picking the
fast stretches of a run does not help either: some runs have none.

So every op loop runs a small fixed probe, pure Python that calls nothing
in ``portsec``, every ``PROBE_EVERY_S`` seconds between ops and outside
the loop time. How long the probe takes tells how fast the host is at that
moment: per second of loop, op time follows probe time with correlation
0.7 to 0.9 and grows about in proportion to it (log-log slope 0.7 on
``ledger_lifecycles``, 1.0 on the other two workloads). Each probe stands for the loop from its start to the next
probe's start, and the host level there is the median of ``SMOOTH``
neighbouring probes. Every op latency, verify sample and stretch of loop
time is multiplied by ``REFERENCE_PROBE_S`` over that level: it is the
time the same work would have taken on a host where the probe takes
``REFERENCE_PROBE_S``. Set-up is adjusted the same way, from probes run
just before and after it.

The adjustment depends only on the probe, never on the program's own
times, so a program that slows down as its stores grow still shows it, and
it uses one fixed reference, so parent and change are put on the same
scale. The raw times go on the side line next to the adjusted ones.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

PROBE_EVERY_S = 0.1
PROBE_ROUNDS = 15_000
#: The probe's time on a 2 GHz Xeon vCPU with no other tenant busy.
REFERENCE_PROBE_S = 1.4e-3
SMOOTH = 9
BAND = 0.05  # op_ms_p50 is the mean of ops ranked 45-55%, op_ms_p90 of 85-95%


def probe() -> float:
    """Run the fixed probe once; returns its seconds."""
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_ROUNDS):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - t0


def host_factor(probe_seconds: list[float]) -> float:
    """Reference over the median of some probe times."""
    return REFERENCE_PROBE_S / statistics.median(probe_seconds)


@dataclass
class Result:
    """The timed samples of one workload run."""

    latencies: list[float] = field(default_factory=list)  # seconds per op
    starts: list[float] = field(default_factory=list)  # perf_counter at each op's start
    #: (key, start, seconds) per verify sample
    verify_live: list[tuple[object, float, float]] = field(default_factory=list)
    verify_offline: list[tuple[object, float, float]] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)  # (start, seconds)
    checks: list[tuple[float, float]] = field(default_factory=list)  # (start, seconds)
    loop_start: float = 0.0
    loop_end: float = 0.0
    loop_s: float = 0.0  # loop wall time less the checks and probes inside it


class LoopClock:
    """Records an op loop into a ``Result``: op latencies, the checks run
    inside the loop (excluded from its time) and the host probes."""

    def __init__(self, tracer, result: Result):
        self.tracer = tracer
        self.result = result
        self.check_s = 0.0
        self.next_probe = 0.0
        result.loop_start = perf_counter()

    @contextmanager
    def check(self, op):
        t0 = perf_counter()
        self.tracer.phase, self.tracer.op = "check", op
        try:
            yield
        finally:
            self.tracer.phase = "loop"
            seconds = perf_counter() - t0
            self.check_s += seconds
            self.result.checks.append((t0, seconds))

    def op(self, t0: float) -> None:
        """Record one op that started at ``t0`` and ends now, then probe
        the host if a probe is due."""
        self.result.latencies.append(perf_counter() - t0)
        self.result.starts.append(t0)
        if perf_counter() >= self.next_probe:
            with self.check("probe"):
                self.result.probes.append((perf_counter(), probe()))
            self.next_probe = perf_counter() + PROBE_EVERY_S

    def finish(self) -> Result:
        self.result.loop_end = perf_counter()
        self.result.loop_s = self.result.loop_end - self.result.loop_start - self.check_s
        return self.result


def band_quantile(values: list[float], q: float, width: float = BAND) -> float:
    """Mean of the values ranked within ``width`` of the ``q`` quantile.

    Op costs cluster by kind: half the p2p bookings are imports, all
    cheaper than any export, so the plain median is the dearest import and
    jumps to the cheapest export on a slight shift between them. The mean
    of the band around the quantile moves smoothly instead."""
    ordered = sorted(values)
    n = len(ordered)
    lo = max(0, math.floor((q - width) * n))
    hi = min(n, max(lo + 1, math.ceil((q + width) * n)))
    return statistics.fmean(ordered[lo:hi])


def trimmed_mean(values: list[float]) -> float:
    """Mean without the outer tenth on each side (collector pauses)."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


class HostSpeed:
    """The adjustment factor along one run's loop, from its probes."""

    def __init__(self, result: Result, adjust: bool = True):
        self.result = result
        seconds = [s for _, s in result.probes]
        half = SMOOTH // 2
        self.level = [statistics.median(seconds[max(0, i - half):i + half + 1])
                      for i in range(len(seconds))]
        self.factors = [REFERENCE_PROBE_S / level if adjust else 1.0 for level in self.level]
        #: stretch i runs from edges[i] to edges[i + 1]
        self.edges = [result.loop_start] + [t for t, _ in result.probes[1:]] + [result.loop_end]

    def factor_at(self, t: float) -> float:
        if not self.factors:
            return 1.0
        return self.factors[min(len(self.factors), max(1, bisect_right(self.edges, t))) - 1]

    def loop_s(self) -> float:
        """Adjusted loop time, less the checks inside the loop."""
        if not self.factors:
            return self.result.loop_s
        wall = sum((self.edges[i + 1] - self.edges[i]) * factor
                   for i, factor in enumerate(self.factors))
        return wall - sum(s * self.factor_at(t) for t, s in self.result.checks)

    def keyed_mean(self, samples: list[tuple[object, float, float]]) -> float:
        """Trimmed mean per key of the adjusted samples, then the mean over
        keys. Keys (chain lengths, scenarios) differ widely in cost and each
        run has a fixed set of them, so averaging per key keeps the mix out
        of the figure."""
        by_key: dict[object, list[float]] = defaultdict(list)
        for key, start, seconds in samples:
            by_key[key].append(seconds * self.factor_at(start))
        return statistics.fmean(trimmed_mean(values) for values in by_key.values())

    def timings(self) -> dict[str, float]:
        r = self.result
        ops = [lat * self.factor_at(start) for start, lat in zip(r.starts, r.latencies)]
        return {
            "op_ms_p50": band_quantile(ops, 0.5) * 1e3,
            "op_ms_p90": band_quantile(ops, 0.9) * 1e3,
            "ops_per_s": len(ops) / self.loop_s(),
            "live_verify_ms": self.keyed_mean(r.verify_live) * 1e3,
            "offline_verify_ms": self.keyed_mean(r.verify_offline) * 1e3,
        }


def timings(result: Result, adjust: bool = True) -> dict[str, float]:
    """The end-to-end timing metrics of one run, adjusted to the reference
    host speed (or raw, with ``adjust=False``)."""
    return HostSpeed(result, adjust).timings()


def probe_levels_ms(result: Result) -> list[float]:
    """The lowest, median and highest host level of a run, in probe ms."""
    levels = sorted(HostSpeed(result).level) or [math.nan]
    return [levels[0] * 1e3, statistics.median(levels) * 1e3, levels[-1] * 1e3]
