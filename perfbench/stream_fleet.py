"""stream_fleet: an open loop of independent 50 Hz sensor streams.

Each stream owns an ``anonymize_stream`` generator in probabilistic mode with
the default secure coin. One thread serves the whole fleet on a fixed
schedule: stream k's windows fall due every stride/rate = 200 ms, offset by
k/N of that period, so arrivals are spread evenly and never slow down when
the system does. A window's latency runs from the moment its last row is due
until the generator hands back its anonymized embedding, so a stall also
charges every window queued behind it.

Rows that complete no window are handed over lazily: the generator pulls
them from the stream's row iterator when the next window-completing row is
due. Their work therefore lands in that window's latency and in the fleet's
busy time, exactly once, but one scheduled event per window keeps the
generator's own overhead out of the way at large fleets.

An untraced run alternates reference-fleet segments with saturated segments
(the fleet served back to back, timed in blocks of BLOCK windows), so both
sample the machine at several moments, then bisects the fleet-size ladder
around the capacity the saturated service rate predicts. The service rate is
taken at the uncontended (1st-percentile) block time: about ten thousand
blocks of about a millisecond spread over most of the run, so the moments a
busy host leaves the CPU alone are found even when they are short and few.
"""

from time import perf_counter

import numpy as np

import fixtures as fx
import measure
from latent_anon import pipeline

RATE_HZ = fx.STREAM_SHAPE["sampling_rate_hz"]
WINDOW, STRIDE = fx.STREAM_WINDOW, fx.STREAM_STRIDE
PERIOD_S = STRIDE / RATE_HZ
BUDGET_S = PERIOD_S  # the paper's real-time budget: one window per stride
REFERENCE_STREAMS = 100  # about a tenth of capacity on a 2-core x86 VM
REFERENCE_SHARE = 0.20  # of the run, in SEGMENTS pieces
SATURATION_STREAMS = 400
SATURATION_SHARE = 0.50  # of the run, in SEGMENTS pieces; the ladder gets the rest
SEGMENTS = 6
BLOCK = 10  # windows per timed sample of a saturated fleet, about 1 ms
# On a host that slows this process 1.5-1.8x for most of a run, fewer than 5%
# of the blocks may be uncontended; the 1st percentile of so many blocks
# still has about a hundred below it.
SERVICE_PERCENTILE = 1
# Geometric ladder, 5% apart, spanning 40 to ~19,500 streams. Only the rungs
# within LADDER_SPAN of the capacity the saturated service rate predicts are
# probed: 4-5 bisection probes, each long enough to show a growing backlog.
LADDER = sorted({int(round(40 * 1.05**k)) for k in range(128)})
LADDER_SPAN = 1.5
# A probe whose lateness grows by more than this from its first to its last
# quarter has a growing backlog.
BACKLOG_GROWTH_S = 0.010
APPLIED_Z = 4.5


def _traced_rows(rows, gaps):
    """Row iterator that times each row the generator processes without
    emitting a window (the gap until it asks for the next row)."""
    emits_after = lambda r: r >= WINDOW - 1 and (r - WINDOW + 1) % STRIDE == 0
    for r, row in enumerate(rows):
        handed = perf_counter()
        yield row
        if not emits_after(r):
            gaps.append(perf_counter() - handed)


class Phase:
    """One fleet of streams, each replaying a slice of a source recording."""

    def __init__(self, fixture, registry, n_streams, windows, rng, tracer=None, keep_outputs=True):
        self.n = n_streams
        self.windows = max(2, windows)  # the first one is emitted before timing
        self.tracer = tracer
        self.keep_outputs = keep_outputs
        self.row_gaps = []
        self.source = rng.integers(len(fixture.sources), size=n_streams)
        # trailing rows that complete no window, so the count check is not trivial
        self.n_rows = WINDOW + (self.windows - 1) * STRIDE + rng.integers(0, STRIDE, size=n_streams)
        self.start = np.empty(n_streams, dtype=int)
        self.gens = []
        noise_rng = np.random.default_rng(rng.integers(2**63))
        for k in range(n_streams):
            src = fixture.sources[self.source[k]]
            slots = (len(src) - self.n_rows[k]) // STRIDE + 1
            self.start[k] = STRIDE * rng.integers(slots)  # keeps the training phase alignment
            rows = src[self.start[k] : self.start[k] + self.n_rows[k]]
            feed = _traced_rows(rows, self.row_gaps) if tracer else iter(rows)
            self.gens.append(pipeline.anonymize_stream(feed, WINDOW, STRIDE, registry, noise_rng=noise_rng))
        self.offsets = (np.arange(n_streams) + rng.random(n_streams)) / n_streams * PERIOD_S
        self.records = [[] for _ in range(n_streams)]
        self.outputs = [[] for _ in range(n_streams)]
        self.failures = 0
        self.aborted = False
        self.timed = 0
        self.busy_s = 0.0
        self.block_s = []

    def _emit(self, k):
        gen = self.gens[k]
        try:
            if self.tracer is not None and self.tracer.active:
                x_hat, record = self.tracer.span("stream.next", next, gen)
            else:
                x_hat, record = next(gen)
        except Exception:  # a failed window; the fleet keeps running
            self.failures += 1
            return
        self._keep(k, x_hat, record)

    def _keep(self, k, x_hat, record):
        # the record holds x_hat too: keep only its fields unless outputs are checked
        self.records[k].append(
            (record.index, record.predicted_public, record.predicted_private, record.target_private, record.applied)
        )
        if self.keep_outputs:
            self.outputs[k].append(x_hat)

    def _drain(self):
        for k in range(self.n):  # the trailing rows complete no window
            for x_hat, record in self.gens[k]:
                self._keep(k, x_hat, record)

    def run(self, abort_lag_s=None):
        """Serve the schedule; stops early when a window starts more than
        abort_lag_s late."""
        for k in range(self.n):  # connected streams: first window untimed
            self._emit(k)
        timed = self.n * (self.windows - 1)
        self.due = np.empty(timed)
        self.started = np.empty(timed)
        self.done = np.empty(timed)
        clock = perf_counter
        t0 = clock() + 0.02
        j = 0
        for m in range(self.windows - 1):
            base = t0 + m * PERIOD_S
            for k in range(self.n):
                due = base + self.offsets[k]
                now = clock()
                if now < due:
                    measure.wait_until(due)
                    now = clock()
                if abort_lag_s is not None and now - due > abort_lag_s:
                    self.aborted = True
                    break
                self._emit(k)
                self.due[j], self.started[j], self.done[j] = due, now, clock()
                j += 1
            if self.aborted:
                break
        self.timed = j
        self.due, self.started, self.done = self.due[:j], self.started[:j], self.done[:j]
        self.busy_s = float(np.sum(self.done - self.started))
        self.wall_s = (self.done[-1] - t0) if j else 0.0
        if not self.aborted:
            self._drain()

    def run_saturated(self, duration_s):
        """Closed loop: serve the streams round-robin, no schedule, for
        duration_s or until the rows run out, timing each BLOCK windows."""
        for k in range(self.n):
            self._emit(k)
        order = np.tile(np.arange(self.n), self.windows - 1).tolist()
        deadline = perf_counter() + duration_s
        for b in range(0, len(order), BLOCK):
            block = order[b : b + BLOCK]
            t0 = perf_counter()
            for k in block:
                self._emit(k)
            self.block_s.append((perf_counter() - t0) / len(block))
            self.timed += len(block)
            if perf_counter() >= deadline:
                self.aborted = b + BLOCK < len(order)
                break
        if not self.aborted:
            self._drain()

    # -- measurements ------------------------------------------------------------

    def latencies(self):
        return self.done - self.due

    def lags(self):
        return self.started - self.due

    def backlog_max(self):
        """Windows due but not yet started, at the start of each window."""
        if not self.timed:
            return 0
        due_by = np.searchsorted(self.due, self.started, side="right")
        return int(np.max(due_by - np.arange(self.timed)))

    def backlog_growth_s(self):
        lags = self.lags()
        q = max(1, len(lags) // 4)
        return float(np.median(lags[-q:]) - np.median(lags[:q]))

    def busy_frac(self):
        return self.busy_s / self.wall_s if self.wall_s else 0.0

    def meets_budget(self):
        t = measure.tail(self.latencies())
        return (
            not self.aborted
            and t is not None
            and t[0] <= BUDGET_S
            and self.backlog_growth_s() <= BACKLOG_GROWTH_S
        )

    # -- output checks ----------------------------------------------------------------

    def check(self, fixture, registry):
        """Window count and order per stream, each record against the
        classifiers' own predictions on the rows that formed its window (which
        checks the ring buffer) and against the Modify mapping; with outputs
        kept, finite outputs and public accuracy on them. Returns (attempted,
        failed, public correct, outputs judged); one stream at a time, so the
        check adds little to peak memory."""
        expected = (self.n_rows - WINDOW) // STRIDE + 1
        attempted = self.n + self.timed if self.aborted else int(expected.sum())
        failed = self.failures
        mapping = registry.policy.mapping
        self.emitted = self.applied = 0
        public_ok = judged = 0
        for k in range(self.n):
            records = self.records[k]
            if not self.aborted and len(records) != expected[k]:
                failed += abs(int(expected[k]) - len(records))
            if not records:
                continue
            rows = fixture.sources[self.source[k]][self.start[k] : self.start[k] + self.n_rows[k]]
            x = np.stack([rows[m * STRIDE : m * STRIDE + WINDOW].reshape(-1) for m in range(len(records))])
            pred_public = registry.public_classifier.predict(x)
            pred_private = registry.private_classifier.predict(x)
            finite = np.ones(len(records), dtype=bool)
            if self.keep_outputs:
                outputs = np.stack(self.outputs[k])
                finite = np.all(np.isfinite(outputs), axis=1)
                truth = fixture.source_public[self.source[k]]
                public_ok += int(np.sum(registry.public_classifier.predict(outputs) == truth))
                judged += len(records)
            for m, (index, public, private, target, applied) in enumerate(records):
                ok = (
                    index == m
                    and public == pred_public[m]
                    and private == pred_private[m]
                    and target == (mapping[private] if applied else private)
                    and finite[m]
                )
                failed += not ok
                self.applied += applied
            self.emitted += len(records)
        return attempted, failed, public_ok, judged

    def applied_within_bound(self):
        n = self.emitted
        return n > 0 and abs(self.applied / n - 0.5) <= APPLIED_Z * np.sqrt(0.25 / n)


def wrapper_overhead_us(tracer, calls=2000):
    """What a wrapped call costs beyond its span: the time around a wrapped
    no-op method minus the span it records."""

    class Probe:
        attribute = "probe"

    x = np.zeros(1)
    wrapped = tracer.wrapper(lambda obj, x: x, lambda obj: f"calibrate.{obj.attribute}", lambda a, r: 1, method=True)
    probe = Probe()
    first = len(tracer.spans)
    outside = []
    tracer.active = True
    try:
        for _ in range(calls):
            t0 = perf_counter()
            wrapped(probe, x)
            outside.append(perf_counter() - t0)
    finally:
        tracer.active = False
    inside = [s[2] - s[1] for s in tracer.spans[first:]]
    del tracer.spans[first:]
    return (measure.median(outside) - measure.median(inside)) * 1e6


def cross_check(fixture, registry, tracer, rng, tol_frac=0.10, tol_us=2.0):
    """Compare outside-in spans with the pipeline's own StageTimings on the
    three stages whose boundaries match. Returns one row per stage.

    The pipeline's clock brackets the wrapped call, so it should read the
    span plus the wrapper's own cost, measured on a no-op; the two agree when
    what is left differs by at most max(tol_us, tol_frac of the stage)."""
    from latent_anon import bench

    overhead = wrapper_overhead_us(tracer)
    src = fixture.sources[0]
    xs = [src[o : o + WINDOW].reshape(-1) for o in range(0, 200 * STRIDE, STRIDE)]
    first = len(tracer.spans)
    tracer.active = True
    try:
        report = bench.benchmark_pipeline(
            registry, xs, warmup=50, repetitions=3, seed=int(rng.integers(2**31)), pin_core=False
        )
    finally:
        tracer.active = False
    spans = tracer.spans[first:]
    del tracer.spans[first:]  # keep the cross-check out of the workload's layer metrics
    rows = []
    for stage, span_name in (
        ("classify_public", "models.classify_public"),
        ("classify_private", "models.classify_private"),
        ("decode", "models.decode"),
    ):
        outside = measure.median([s[2] - s[1] for s in spans if s[0] == span_name]) * 1e6
        inside = report.stages[stage].p50_s * 1e6
        gap = inside - outside - overhead
        rows.append(
            {
                "stage": stage,
                "stage_timings_p50_us": inside,
                "span_p50_us": outside,
                "wrapper_us": overhead,
                "gap_us": gap,
                "agree": abs(gap) <= max(tol_us, tol_frac * inside),
            }
        )
    return rows


def bracket(estimate):
    """Ladder rungs within a factor LADDER_SPAN of the estimated capacity."""
    rungs = [n for n in LADDER if estimate / LADDER_SPAN <= n <= estimate * LADDER_SPAN]
    return rungs or [min(LADDER, key=lambda n: abs(n - estimate))]


def _windows(seconds):
    return int(round(seconds / PERIOD_S)) + 1


def _reference(ctx, fixture, registry, seconds, rng, tracer=None):
    phase = Phase(fixture, registry, REFERENCE_STREAMS, _windows(seconds), rng, tracer)
    if tracer is not None:
        tracer.active = True
    try:
        phase.run()
    finally:
        if tracer is not None:
            tracer.active = False
    ctx.count(*phase.check(fixture, registry))
    if not phase.applied_within_bound():
        ctx.fail(f"applied fraction {phase.applied}/{phase.emitted} outside the binomial bound around 1/2")
    phase.outputs = None
    return phase


def _report_reference(ctx, segments):
    lat = np.concatenate([p.latencies() for p in segments])
    t_value, t_pct, t_n = measure.tail(lat)
    ctx.named["stream_p50_ms"] = (measure.median(lat) * 1e3, "ms")
    ctx.named["stream_tail_ms"] = (t_value * 1e3, "ms")
    ctx.notes["stream_tail"] = f"p{t_pct:.2f} of {t_n} windows at {REFERENCE_STREAMS} streams"
    ctx.layer["stream.generator_lag_ms"] = max(float(np.max(p.lags())) for p in segments) * 1e3
    ctx.layer["stream.backlog_max"] = max(p.backlog_max() for p in segments)
    ctx.layer["stream.busy_frac"] = sum(p.busy_s for p in segments) / sum(p.wall_s for p in segments)
    return ctx.named["stream_p50_ms"][0]


def run(ctx):
    fixture = ctx.fixture
    registry = fixture.models.registry("probabilistic")
    rng = np.random.default_rng(fx.derive_seed(ctx.seed, 10))
    if ctx.tracer is not None:
        return run_traced(ctx, fixture, registry, rng)

    references, window_s = [], []
    for _ in range(SEGMENTS):
        references.append(_reference(ctx, fixture, registry, REFERENCE_SHARE * ctx.seconds / SEGMENTS, rng))
        seconds = SATURATION_SHARE * ctx.seconds / SEGMENTS
        # rows for far more windows than the loop can serve in its time
        saturated = Phase(fixture, registry, SATURATION_STREAMS, 200, rng, keep_outputs=False)
        saturated.run_saturated(seconds)
        attempted, failed, _, _ = saturated.check(fixture, registry)
        ctx.count(attempted, failed)
        window_s.extend(saturated.block_s)
        del saturated
    _report_reference(ctx, references)
    # windows per second of the fastest blocks: the uncontended service rate
    saturated_rate = 1.0 / measure.uncontended(window_s, SERVICE_PERCENTILE)

    rungs = bracket(saturated_rate * STRIDE / RATE_HZ)
    probes = max(1, int(np.ceil(np.log2(len(rungs) + 1))))
    probe_s = (1.0 - REFERENCE_SHARE - SATURATION_SHARE) * ctx.seconds / probes
    lo, hi = -1, len(rungs)
    ladder_rows = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        phase = Phase(fixture, registry, rungs[mid], _windows(probe_s), rng, keep_outputs=False)
        phase.run(abort_lag_s=BUDGET_S)
        ok = phase.meets_budget()
        attempted, failed, _, _ = phase.check(fixture, registry)
        ctx.count(attempted, failed)
        lat = phase.latencies()
        t = measure.tail(lat)
        ladder_rows.append(
            {
                "streams": rungs[mid],
                "meets_budget": ok,
                "aborted": phase.aborted,
                "p50_ms": measure.median(lat) * 1e3 if len(lat) else None,
                "tail_ms": t[0] * 1e3 if t else None,
                "backlog_growth_ms": phase.backlog_growth_s() * 1e3 if len(lat) else None,
                "backlog_max": phase.backlog_max(),
                "busy_frac": phase.busy_frac(),
            }
        )
        lo, hi = (mid, hi) if ok else (lo, mid)
        del phase
    ctx.notes["ladder"] = ladder_rows
    # below the bracket: the rung under it, which the saturated rate says would pass
    below = max((n for n in LADDER if n < rungs[0]), default=0)
    ctx.named["stream_max_streams"] = (rungs[lo] if lo >= 0 else below, "streams")
    ctx.throughput = saturated_rate
    ctx.named["stream_service_rate"] = (saturated_rate, "windows/s")
    ctx.notes["saturated_window_s"] = window_s


def run_traced(ctx, fixture, registry, rng):
    """The reference fleet untraced, then traced, then the cross-check."""
    base = _reference(ctx, fixture, registry, 0.5 * ctx.seconds, rng)
    traced = _reference(ctx, fixture, registry, 0.5 * ctx.seconds, rng, ctx.tracer)
    ctx.overhead_frac = _report_reference(ctx, [traced]) / (measure.median(base.latencies()) * 1e3) - 1.0
    ctx.layer["pipeline.stream_row_us"] = measure.median(traced.row_gaps) * 1e6
    ctx.cross_check = cross_check(fixture, registry, ctx.tracer, rng)
