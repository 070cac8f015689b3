"""train_reid: training cost and the re-identification attack, closed loop.

Each cycle trains both classifiers and one VAE per public class on the
synthetic training split, builds the mean table, then runs the attack in
deterministic and probabilistic mode. Backward passes and optimizer steps
dominate here and nowhere else.
"""

import threading
from time import perf_counter

import numpy as np

import fixtures as fx
import measure
from latent_anon import attack, models, pipeline

EPOCHS = 40
ATTACK_RUNS = 3  # per mode and cycle
ATTACKER = models.TrainConfig(epochs=100)
DET_REID_MIN = 0.85  # the attacker inverts deterministic Modify
PROB_REID_MAX_OVER_CHANCE = 0.15  # probabilistic Modify keeps it near chance


class RunClock:
    """Anonymizer factory that times each attack run from the outside.

    ``run_reid_attack`` calls the factory when a run starts and the returned
    anonymizer twice: on the attacker's sample, then on the test split after
    the attacker trained. The run's time ends with that second call; only the
    attacker's final prediction follows it.
    """

    def __init__(self, registry, tracer=None):
        self.registry = registry
        self.tracer = tracer
        self.run_s = []
        self.test_outputs = []
        self._lock = threading.Lock()

    def __call__(self, run_seed):
        anonymize = pipeline.make_anonymizer(self.registry, seed=run_seed)
        tracer = self.tracer if self.tracer is not None and self.tracer.active else None
        run_span = tracer.begin("attack.run") if tracer else None
        start = perf_counter()
        calls = []

        def timed(embeddings):
            name = "attack.sample_anonymize" if not calls else "attack.test_anonymize"
            out = tracer.span(name, anonymize, embeddings) if tracer else anonymize(embeddings)
            calls.append(1)
            if len(calls) == 2:
                with self._lock:
                    self.run_s.append(perf_counter() - start)
                    self.test_outputs.append(out)
                if tracer:
                    tracer.end(run_span)
            return out

        return timed


def cycle(fixture, cycle_seed, workers, tracer=None):
    split = fixture.split
    config = models.TrainConfig(epochs=EPOCHS, seed=fx.derive_seed(cycle_seed, 1))
    if tracer is not None:
        tracer.active = True
    timings = []
    try:
        model_set = fx.train_model_set(split.train, fixture.n_public, fixture.n_private, config, timings)
        reports, clocks = {}, {}
        for mode in ("deterministic", "probabilistic"):
            clocks[mode] = RunClock(model_set.registry(mode), tracer)
            reports[mode] = attack.run_reid_attack(
                clocks[mode],
                split.train,
                split.test,
                fixture.n_private,
                attack.AttackConfig(
                    sample_fraction=0.2, n_runs=ATTACK_RUNS, seed=fx.derive_seed(cycle_seed, 2), attacker=ATTACKER
                ),
                mode=mode,
                n_workers=workers,
            )
    finally:
        if tracer is not None:
            tracer.active = False
    return model_set, timings, reports, clocks


def run(ctx):
    fixture = ctx.fixture
    workers = max(1, min(2, measure.cpu_count()))
    ctx.layer["attack.workers"] = workers
    rng = np.random.default_rng(fx.derive_seed(ctx.seed, 10))
    truth_private = np.array([e.true_private for e in fixture.split.test])
    truth_public = np.array([e.true_public for e in fixture.split.test])
    chance = max(np.mean(truth_private == c) for c in range(fixture.n_private))
    # operations per cycle: two classifiers, the VAEs, the mean table, the attack runs
    ops = 3 + fixture.n_public + 2 * ATTACK_RUNS
    traced = ctx.tracer is not None
    phases = [(None, 0.5), (ctx.tracer, 0.5)] if traced else [(None, 1.0)]
    run_medians = []
    for tracer, share in phases:
        trainings, run_s = [], []
        deadline = perf_counter() + share * ctx.seconds
        while not run_s or perf_counter() < deadline:
            try:
                model_set, timings, reports, clocks = cycle(fixture, int(rng.integers(2**63)), workers, tracer)
            except Exception as exc:  # the cycle's models and runs all count as failed
                ctx.count(ops, ops)
                ctx.fail(f"cycle raised {exc!r}")
                break
            trainings.extend(timings)
            det, prob = reports["deterministic"], reports["probabilistic"]
            failed = 0
            if det.mean < DET_REID_MIN:
                ctx.fail(f"deterministic re-identification {det.mean:.3f} < {DET_REID_MIN}")
                failed += ATTACK_RUNS
            if prob.mean > chance + PROB_REID_MAX_OVER_CHANCE:
                ctx.fail(f"probabilistic re-identification {prob.mean:.3f} not near chance {chance:.3f}")
                failed += ATTACK_RUNS
            test_out = clocks["deterministic"].test_outputs
            public_ok = sum(int(np.sum(model_set.public_clf.predict(o) == truth_public)) for o in test_out)
            ctx.count(ops, failed, public_ok, len(test_out) * len(truth_public))
            ctx.notes.setdefault("reid", []).append(
                {"deterministic": det.mean, "probabilistic": prob.mean, "chance": chance}
            )
            for clock in clocks.values():
                run_s.extend(clock.run_s)
        if not run_s:
            continue
        run_medians.append(measure.median(run_s))
        ctx.notes.setdefault("trainings", []).append(trainings)
        ctx.notes.setdefault("attack_run_s", []).append(run_s)
        if tracer is None:
            ctx.throughput = train_throughput(trainings)
            ctx.named["train_rows_per_s"] = (ctx.throughput, "rows/s")
            ctx.named["attack_run_s"] = (run_medians[-1], "s")
    if traced and len(run_medians) == 2:
        ctx.overhead_frac = run_medians[1] / run_medians[0] - 1.0


def train_throughput(trainings):
    """Rows x epochs per second over one full model set, each model's
    training taken at its uncontended (5th-percentile) time over the cycles."""
    per_model = {}
    for name, rows, seconds in trainings:
        per_model.setdefault(name, (rows, []))[1].append(seconds)
    rows = sum(r for r, _ in per_model.values())
    return rows / sum(measure.uncontended(times) for _, times in per_model.values())


def layer_extras(table, workers):
    runs = table.select("attack.run")
    reid = table.select("attack.reid")
    attacker = table.select("models.train_classifier", lambda k: table.in_attack_run[k])
    return {
        "attack.sample_anonymize_s": table.mean(table.select("attack.sample_anonymize")),
        "attack.attacker_train_s": table.mean(attacker),
        "attack.test_anonymize_s": table.mean(table.select("attack.test_anonymize")),
        "attack.busy_frac": table.total(runs) / (table.total(reid) * workers) if reid else None,
    }
