"""Outside-in spans around the package's public functions and methods.

The tracer swaps wrappers onto class methods and module attributes for the
length of a traced run and restores the originals afterwards; nothing under
``src/`` changes. A span is ``[name, start, end, parent, request, info]``:
the parent is the index of the enclosing span on the same thread (-1 for a
root), every span of one root shares the root's request id, and ``info``
holds a count the wrapper read from the call (rows, or the applied flag).
Spans stay in memory and are written out once, when the run ends.
"""

import functools
import json
import sys
import threading
from time import perf_counter

from latent_anon import attack, data, models, nn, pipeline, transform

# Spans whose descendants are inference inside the anonymizer.
PIPELINE_SPANS = ("pipeline.batch", "pipeline.embedding", "stream.next")


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) <= 1 else shape[0]


class Tracer:
    def __init__(self):
        self.spans = []
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests = 0
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
                request = self.spans[parent][4]
            else:
                parent = -1
                request = self._requests
                self._requests += 1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, request, None])
        stack.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def end(self, index):
        self.spans[index][2] = perf_counter()
        self._stack().pop()

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span when tracing is on."""
        if not self.active:
            return fn(*args, **kwargs)
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    # -- installation -------------------------------------------------------------

    def wrapper(self, fn, name, info=None, method=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_name = name(args[0]) if callable(name) else name
            index = tracer.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if info is not None:
                tracer.spans[index][5] = info(args[1:] if method else args, result)
            return result

        return wrapper

    def wrap_method(self, cls, attr, name, info=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrapper(original, name, info, method=True))
        self._patches.append((cls, attr, original))

    def wrap_function(self, fn, name, info=None):
        """Replace fn in every loaded latent_anon module that binds it."""
        wrapper = self.wrapper(fn, name, info)
        for module_name, module in list(sys.modules.items()):
            if module_name != "latent_anon" and not module_name.startswith("latent_anon."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, fn))

    def install(self):
        """Wrap the public calls each layer exposes; tracing starts inactive."""
        rows = lambda args, result: _rows(args[0])
        self.wrap_function(pipeline.anonymize_batch, "pipeline.batch", rows)
        self.wrap_function(pipeline.anonymize_embedding, "pipeline.embedding")
        self.wrap_method(
            models.Classifier, "predict", lambda clf: f"models.classify_{clf.attribute}", rows
        )
        self.wrap_method(models.VaeModel, "encode", "models.encode", rows)
        self.wrap_method(models.VaeModel, "decode", "models.decode", rows)
        self.wrap_method(models.Classifier, "loss_and_gradients", "models.loss_and_gradients")
        self.wrap_function(models.loss_and_gradients, "models.loss_and_gradients")
        self.wrap_function(models.train_classifier, "models.train_classifier")
        self.wrap_function(models.train_vae, "models.train_vae")
        self.wrap_method(nn.Adam, "step", "nn.optim_step")
        self.wrap_method(
            transform.ModifyPolicy, "modify", "transform.modify", lambda args, result: int(result[1])
        )
        self.wrap_method(transform.SecureCoin, "flip", "transform.coin_flip")
        self.wrap_function(transform.compute_mean_table, "transform.mean_table")
        self.wrap_function(data.synth_generate, "data.synth")
        self.wrap_function(data.window_embeddings, "data.window")
        self.wrap_function(data.load_embeddings, "data.archive_load")
        self.wrap_function(data.save_embeddings, "data.archive_save")
        self.wrap_function(attack.run_reid_attack, "attack.reid")

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class SpanTable:
    """Durations, self times and ancestry flags computed from recorded spans."""

    def __init__(self, spans):
        n = len(spans)
        self.spans = spans
        self.duration = [s[2] - s[1] for s in spans]
        child_total = [0.0] * n
        self.in_pipeline = [False] * n
        self.in_attack_run = [False] * n
        for k, (name, _, _, parent, _, _) in enumerate(spans):
            if parent < 0:
                continue
            child_total[parent] += self.duration[k]
            parent_name = spans[parent][0]
            self.in_pipeline[k] = self.in_pipeline[parent] or parent_name in PIPELINE_SPANS
            self.in_attack_run[k] = self.in_attack_run[parent] or parent_name == "attack.run"
        self.self_time = [d - c for d, c in zip(self.duration, child_total)]

    def select(self, name, where=None):
        return [
            k for k, s in enumerate(self.spans) if s[0] == name and (where is None or where(k))
        ]

    def mean(self, indices, values=None, scale=1.0):
        values = self.duration if values is None else values
        if not indices:
            return None
        return scale * sum(values[k] for k in indices) / len(indices)

    def total(self, indices):
        return sum(self.duration[k] for k in indices)


def layer_metrics(table, setups):
    """The per-layer metrics every workload produces, from its spans."""
    us, s = 1e6, 1.0
    inference = lambda k: table.in_pipeline[k]
    training = lambda k: not table.in_attack_run[k]
    embedding = table.select("pipeline.embedding")
    model_calls = [
        k
        for name in ("models.classify_public", "models.classify_private", "models.encode", "models.decode")
        for k in table.select(name, inference)
    ]
    modify = table.select("transform.modify")
    rows = sum(table.spans[k][5] for k in model_calls)
    return {
        "pipeline.embedding_us": table.mean(embedding, scale=us),
        "pipeline.self_us": table.mean(embedding, table.self_time, scale=us),
        "models.classify_public_us": table.mean(table.select("models.classify_public", inference), scale=us),
        "models.classify_private_us": table.mean(table.select("models.classify_private", inference), scale=us),
        "models.encode_us": table.mean(table.select("models.encode", inference), scale=us),
        "models.decode_us": table.mean(table.select("models.decode", inference), scale=us),
        "models.calls": len(model_calls),
        "models.rows_per_call": rows / len(model_calls) if model_calls else None,
        "models.train_classifier_s": table.mean(table.select("models.train_classifier", training), scale=s),
        "models.train_vae_s": table.mean(table.select("models.train_vae"), scale=s),
        "models.loss_and_gradients_us": table.mean(table.select("models.loss_and_gradients"), scale=us),
        "nn.optim_step_us": table.mean(table.select("nn.optim_step"), scale=us),
        "nn.steps": len(table.select("nn.optim_step")),
        "transform.modify_us": table.mean(modify, scale=us),
        "transform.coin_flips": len(table.select("transform.coin_flip")),
        "transform.applied_frac": (
            sum(table.spans[k][5] for k in modify) / len(modify) if modify else None
        ),
        "transform.mean_table_s": table.mean(table.select("transform.mean_table"), scale=s),
        "data.synth_s": table.mean(table.select("data.synth"), scale=s),
        "data.window_s": table.total(table.select("data.window")) / setups,
    }
