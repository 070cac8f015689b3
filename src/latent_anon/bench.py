"""Per-stage latency measurement and the real-time budget check.

A new embedding arrives every stride/rate seconds, which is the whole budget
the pipeline has per embedding. Timing uses the monotonic performance
counter; the p99 of the per-embedding total gates the real-time verdict,
deliberately stricter than comparing averages.
"""

import json
import os
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from .pipeline import STAGES, StageTimings, anonymize_embedding


def time_budget_ms(sampling_rate_hz, stride):
    """Milliseconds between consecutive embeddings: 1000 * stride / rate."""
    if sampling_rate_hz <= 0:
        raise ValueError("sampling rate must be positive")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return 1000.0 * stride / sampling_rate_hz


@dataclass
class StageStats:
    count: int
    total_s: float
    mean_s: float
    p50_s: float
    p99_s: float

    @staticmethod
    def from_samples(samples):
        arr = np.asarray(samples, dtype=float)
        return StageStats(
            count=arr.size,
            total_s=float(arr.sum()),
            mean_s=float(arr.mean()),
            p50_s=float(np.percentile(arr, 50)),
            p99_s=float(np.percentile(arr, 99)),
        )


@dataclass
class TimingReport:
    """Stage and total statistics of a benchmark run. residual_s holds, per
    timed call, its total minus the sum of its own stage samples; it feeds
    decomposition_gap and is left out of to_json."""

    stages: dict
    total: StageStats
    n_embeddings: int
    repetitions: int
    residual_s: list = field(default_factory=list, repr=False)

    def decomposition_gap(self):
        """The median per-call residual over the median total: the share of
        a call's time that falls outside every stage window.

        Each call's total is paired with its own stage samples, so a host
        that changes speed mid-run moves both sides of a pair together,
        while untimed work between the stage windows lands in every pair.
        """
        if not self.residual_s:
            raise ValueError("the report holds no per-call residuals")
        return abs(float(np.median(self.residual_s))) / self.total.p50_s

    def to_json(self):
        payload = asdict(self)
        del payload["residual_s"]
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_table(self):
        header = f"{'Model':<24}{'Batch':>6}  {'Type':<6}{'nb. Embeddings':>15}{'Time (s)':>12}{'Time/Embedding (s)':>21}"
        lines = [header, "-" * len(header)]
        for name, s in [*self.stages.items(), ("total", self.total)]:
            lines.append(
                f"{'pipeline:' + name:<24}{1:>6}  {'MLP':<6}{s.count:>15}{s.total_s:>12.4f}{s.mean_s:>21.8f}"
            )
        return "\n".join(lines)


@contextmanager
def _pinned_to_one_core():
    """Pin to a single logical core for stable numbers, if the platform allows.

    Pins to the core the process is already running on; core 0 is often the
    busiest on shared machines.
    """
    try:
        original = os.sched_getaffinity(0)
        current = os.sched_getcpu() if hasattr(os, "sched_getcpu") else min(original)
        os.sched_setaffinity(0, {current if current in original else min(original)})
    except (AttributeError, OSError):
        original = None
    try:
        yield
    finally:
        if original is not None:
            try:
                os.sched_setaffinity(0, original)
            except OSError:
                pass


def benchmark_pipeline(
    registry,
    embeddings,
    warmup=100,
    repetitions=3,
    seed=0,
    pin_core=True,
):
    """Time every pipeline stage over `repetitions` passes of the embeddings.

    Warmup iterations are excluded. Stage samples come from clocks inside the
    pipeline; the per-embedding total is clocked around the whole call, so it
    additionally contains record assembly and the timing overhead itself.
    What each call spends outside its stage windows is kept as residual_s.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    xs = [e.x if hasattr(e, "x") else np.asarray(e, dtype=float) for e in embeddings]
    if not xs:
        raise ValueError("need at least one embedding")
    noise_rng = np.random.default_rng(seed)
    timings = StageTimings()
    totals = []
    with _pinned_to_one_core() if pin_core else nullcontext():
        for k in range(warmup):
            anonymize_embedding(xs[k % len(xs)], registry, noise_rng=noise_rng)
        for _ in range(repetitions):
            for x in xs:
                t0 = perf_counter()
                anonymize_embedding(x, registry, noise_rng=noise_rng, timings=timings)
                totals.append(perf_counter() - t0)

    residuals = np.asarray(totals) - sum(np.asarray(timings.samples[name]) for name in STAGES)
    return TimingReport(
        stages={name: StageStats.from_samples(timings.samples[name]) for name in STAGES},
        total=StageStats.from_samples(totals),
        n_embeddings=len(xs),
        repetitions=repetitions,
        residual_s=residuals.tolist(),
    )


@dataclass
class RealtimeCheck:
    passed: bool
    budget_ms: float
    p99_ms: float
    margin_ms: float

    def describe(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict}: p99 {self.p99_ms:.3f} ms vs budget {self.budget_ms:.3f} ms "
            f"(margin {self.margin_ms:.3f} ms)"
        )


def check_realtime(report, budget_ms):
    """Pass iff the p99 per-embedding total beats the budget."""
    p99_ms = report.total.p99_s * 1000.0
    return RealtimeCheck(
        passed=p99_ms < budget_ms,
        budget_ms=budget_ms,
        p99_ms=p99_ms,
        margin_ms=budget_ms - p99_ms,
    )
