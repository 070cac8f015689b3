#!/usr/bin/env python3
"""The repository benchmark: three workloads over the latent_anon package.

    python3 perfbench/run.py --workload batch_archive --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The workload's inputs come from --seed;
set-up (data, archive, models) is repeated and its median reported as
setup_s; the workload is then measured for --seconds and its outputs are
checked. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, holding the end-to-end
metrics of BENCHMARK.json with --trace 0 and its per-layer metrics with
--trace 1. A full result file, and with --trace 1 the spans, go to
--results (default .bench_build/perfbench/results). A failed check prints
the result with correct false and exits 1; anything that keeps a metric
from being measured exits 2 without a result.
"""

import os

# One BLAS thread: the benchmark is one process, and its attack threads
# (at most nproc) are the only parallelism it allows itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up runs at least this many times and for at least this long; setup_s
# is the median, so a set-up of a few milliseconds is still resolved.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 400


class Context:
    """What a workload run measures and counts."""

    def __init__(self, workload, seed, seconds, tracer, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.fixture = None
        self.attempted = 0
        self.failed = 0
        self.public_ok = 0
        self.public_n = 0
        self.problems = []
        self.named = {}
        self.layer = {}
        self.notes = {}
        self.throughput = None
        self.overhead_frac = None
        self.cross_check = None

    def count(self, attempted, failed, public_ok=0, public_n=0):
        self.attempted += int(attempted)
        self.failed += int(failed)
        self.public_ok += int(public_ok)
        self.public_n += int(public_n)

    def fail(self, problem):
        self.problems.append(problem)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def import_package():
    """Import the checkout's own latent_anon, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import latent_anon

    if src.resolve() not in Path(latent_anon.__file__).resolve().parents:
        raise ImportError(f"latent_anon imported from {latent_anon.__file__}, not from {src}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(".bench_build", "perfbench", "results"))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        benchmark = load_spec()
        import_package()
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2

    import batch_archive
    import fixtures as fx
    import catalog
    import measure
    import stream_fleet
    import train_reid
    import tracing

    workloads = {w["name"]: w["why"] for w in benchmark["workloads"]}
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2

    results_dir = Path(args.results)
    workdir = results_dir.parent
    results_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    ctx = Context(args.workload, args.seed, args.seconds, tracer, str(workdir))
    archive_path = str(workdir / f"archive-{os.getpid()}.emba")
    build = {
        "batch_archive": lambda: fx.build_archive(args.seed, archive_path),
        "stream_fleet": lambda: fx.build_stream(args.seed),
        "train_reid": lambda: fx.build_reid(args.seed),
    }[args.workload]
    module = {"batch_archive": batch_archive, "stream_fleet": stream_fleet, "train_reid": train_reid}[args.workload]

    try:
        if tracer is not None:
            tracer.install()
        setup_s = []
        while len(setup_s) < SETUP_REPEATS or (
            sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPEATS
        ):
            if tracer is not None:
                tracer.active = True
            t0 = perf_counter()
            ctx.fixture = build()
            setup_s.append(perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
        module.run(ctx)
    except Exception:
        traceback.print_exc()
        print("perfbench: the workload raised; no result", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.uninstall()
        if os.path.exists(archive_path):
            os.remove(archive_path)

    public_acc = ctx.public_ok / ctx.public_n if ctx.public_n else None
    failed_frac = ctx.failed / ctx.attempted if ctx.attempted else 1.0
    named = {
        "setup_s": (measure.median(setup_s), "s"),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
        "failed_frac": (failed_frac, "ratio"),
        "public_acc_after": (public_acc, "ratio"),
        **ctx.named,
    }
    if args.trace:
        table = tracing.SpanTable(tracer.spans)
        layer = tracing.layer_metrics(table, len(setup_s))
        if args.workload == "batch_archive":
            layer.update(batch_archive.layer_extras(table))
        if args.workload == "train_reid":
            layer.update(train_reid.layer_extras(table, ctx.layer["attack.workers"]))
        layer.update(ctx.layer)
        layer["trace.overhead_frac"] = ctx.overhead_frac
        wanted = benchmark["per_layer"]
        values = {m["name"]: layer.get(m["name"]) for m in wanted}
    else:
        layer = ctx.layer
        generic = {
            "setup_s": named["setup_s"][0],
            "peak_rss_mb": named["peak_rss_mb"][0],
            "throughput_per_s": ctx.throughput,
            "public_acc_after": public_acc,
        }
        wanted = benchmark["end_to_end"]
        values = {m["name"]: generic.get(m["name"]) for m in wanted}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  why: {workloads[args.workload]}")
    prov = measure.provenance()
    print("  provenance: " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    print("end-to-end:")
    for name, (value, unit) in named.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<22} {shown:>14} {unit}")
    for generic, meaning in catalog.ALIASES[args.workload].items():
        print(f"  ({generic} here is {meaning})")
    for key, note in ctx.notes.items():
        if isinstance(note, str):
            print(f"  ({key}: {note})")
    for row in ctx.notes.get("ladder", []):
        print("  ladder " + "  ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()))
    if layer:
        print("per-layer:")
        for name in sorted(layer):
            value = layer[name]
            shown = "n/a" if value is None else f"{value:.6g}"
            moves, where = catalog.LAYER_TARGETS.get(name, ("", ""))
            print(f"  {name:<30} {shown:>14}   -> {moves} on {where}" if moves else f"  {name:<30} {shown:>14}")
    for row in ctx.cross_check or ():
        verdict = "agree" if row["agree"] else "DISAGREE"
        print(
            f"  StageTimings {row['stage']:<17} pipeline p50 {row['stage_timings_p50_us']:.2f} us  "
            f"span p50 {row['span_p50_us']:.2f} us  wrapper {row['wrapper_us']:.2f} us  "
            f"gap {row['gap_us']:+.2f} us  {verdict}"
        )
    print("checks: " + ("all passed" if not ctx.problems and not ctx.failed else f"{ctx.failed} failed"))
    for problem in ctx.problems:
        print(f"  FAILED: {problem}")

    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {
        "workload": args.workload,
        "why": workloads[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": prov,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "problems": ctx.problems,
        "metrics": values,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "layer": layer,
        "notes": ctx.notes,
        "cross_check": ctx.cross_check,
    }
    base = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    with open(results_dir / f"{base}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2, default=float)
    if tracer is not None:
        tracer.write(str(workdir / f"spans-{base}.jsonl"))

    missing = [name for name, value in values.items() if value is None]
    if missing:
        print(f"perfbench: not measured: {missing}", file=sys.stderr)
        return 2
    correct = not ctx.problems and ctx.failed == 0 and ctx.attempted > 0
    units = {m["name"]: m["unit"] for m in wanted}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, ctx.attempted),
                "failed": ctx.failed,
                "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
