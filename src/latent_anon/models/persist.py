"""Model files: a JSON metadata header followed by the LANN1 tensor container.

Layout: 8-byte little-endian length of the JSON blob, the JSON (utf-8), then
the tensor container. Round trips are bit-exact because tensors are stored as
raw float64.
"""

import json
import struct

from ..nn.serialize import ContainerError, read_tensors, write_tensors
from .classifier import Classifier
from .vae import VaeModel


def _meta_for(model, training_seed):
    if isinstance(model, VaeModel):
        return {
            "kind": "vae",
            "public_class": int(model.public_class),
            "input_dim": int(model.input_dim),
            "latent_dim": int(model.latent_dim),
            "n_private": int(model.n_private),
            "hidden": [int(h) for h in model.hidden],
            "alpha": float(model.alpha),
            "beta": float(model.beta),
            "seed": training_seed,
        }
    if isinstance(model, Classifier):
        return {
            "kind": "classifier",
            "attribute": model.attribute,
            "input_dim": int(model.input_dim),
            "n_classes": int(model.n_classes),
            "hidden": [int(h) for h in model.hidden],
            "seed": training_seed,
        }
    raise TypeError(f"cannot persist {type(model).__name__}")


def save_model(path, model, training_seed=None):
    meta = _meta_for(model, training_seed)
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        write_tensors(f, model.named_tensors())


def load_model(path):
    """Rebuild a model from disk. Returns (model, metadata dict)."""
    with open(path, "rb") as f:
        head = f.read(8)
        if len(head) != 8:
            raise ContainerError("truncated model file")
        (meta_len,) = struct.unpack("<Q", head)
        blob = f.read(meta_len)
        if len(blob) != meta_len:
            raise ContainerError("truncated model metadata")
        meta = json.loads(blob.decode("utf-8"))
        tensors = read_tensors(f)

    if not isinstance(meta, dict):
        raise ContainerError("model metadata is not a JSON object")
    try:
        if meta["kind"] == "vae":
            model = VaeModel(
                input_dim=meta["input_dim"],
                latent_dim=meta["latent_dim"],
                n_private=meta["n_private"],
                public_class=meta["public_class"],
                hidden=tuple(meta["hidden"]),
                alpha=meta["alpha"],
                beta=meta["beta"],
            )
        elif meta["kind"] == "classifier":
            model = Classifier(
                input_dim=meta["input_dim"],
                n_classes=meta["n_classes"],
                attribute=meta["attribute"],
                hidden=tuple(meta["hidden"]),
            )
        else:
            raise ContainerError(f"unknown model kind {meta['kind']!r}")
    except KeyError as exc:
        raise ContainerError(f"model metadata lacks key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ContainerError(f"model metadata {meta} has a wrongly typed value: {exc}") from None

    slots = model.named_tensors()
    if set(slots) != set(tensors):
        raise ContainerError("tensor names do not match the model architecture")
    for name, slot in slots.items():
        value = tensors[name]
        if value.shape != slot.shape:
            raise ContainerError(f"tensor {name!r} has shape {value.shape}, expected {slot.shape}")
        slot[...] = value
    return model, meta
