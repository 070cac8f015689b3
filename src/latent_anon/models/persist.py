"""Model files in the shared checked frame (`latent_anon.container`): magic
"LAMF1", version byte, the u64 length of the JSON metadata, the JSON (utf-8),
the LANN1 tensor container, then the CRC32. A file without the magic, such
as the bare payload (length, JSON, tensors) from before the frame, is
rejected. Tensors are raw float64, so round trips are bit-exact.
"""

import io
import json
import struct
from pathlib import Path

from .. import container
from ..nn.serialize import ContainerError, read_tensors, write_tensors
from .classifier import Classifier
from .vae import VaeModel

MAGIC = b"LAMF1"
VERSION = 1
_HEADER = struct.Struct("<Q")  # length of the JSON blob


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
    tensors = io.BytesIO()
    write_tensors(tensors, model.named_tensors())
    container.write_framed(path, MAGIC, VERSION, _HEADER.pack(len(blob)), blob, tensors.getbuffer())


def load_model(path):
    """Rebuild a model from disk. Returns (model, metadata dict)."""
    raw = Path(path).read_bytes()
    (meta_len,), body = container.unframe(raw, MAGIC, VERSION, _HEADER, ContainerError)
    if len(body) < meta_len:
        raise ContainerError("truncated model metadata")
    try:
        meta = json.loads(bytes(body[:meta_len]).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ContainerError(f"model metadata is not utf-8 JSON: {exc}") from None
    tensors = read_tensors(io.BytesIO(body[meta_len:]))

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
            model = None
    except KeyError as exc:
        raise ContainerError(f"model metadata lacks key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ContainerError(f"model metadata {meta} has a wrongly typed value: {exc}") from None
    except ValueError as exc:
        raise ContainerError(f"model metadata {meta} has an invalid value: {exc}") from None
    if model is None:
        raise ContainerError(f"unknown model kind {meta['kind']!r}")

    slots = model.named_tensors()
    if set(slots) != set(tensors):
        raise ContainerError("tensor names do not match the model architecture")
    for name, slot in slots.items():
        value = tensors[name]
        if value.shape != slot.shape:
            raise ContainerError(f"tensor {name!r} has shape {value.shape}, expected {slot.shape}")
        slot[...] = value
    return model, meta
