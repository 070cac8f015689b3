"""Model files in the shared checked frame (`latent_anon.container`): magic
"LAMF1", version byte, the u64 length of the JSON metadata, the JSON (utf-8),
the model's parameter_vector as float64 little-endian in parameters() order,
then the CRC32. The JSON (kind, dims, hidden sizes) fixes every tensor's
shape and offset in the vector, so the body holds no tensor names. Files of
version 1 and files without the magic, such as the bare payload from before
the frame, are rejected. Parameters are raw float64, so round trips are
bit-exact.

A models directory holds one trained model set under the names model_file
gives: public_classifier.lann, private_classifier.lann and vae_u<u>.lann for
each public class u. load_model_dir reads it back.
"""

import json
import operator
import struct
from pathlib import Path

import numpy as np

from .. import container
from .classifier import Classifier
from .vae import VaeModel

MAGIC = b"LAMF1"
VERSION = 2
_HEADER = struct.Struct("<Q")  # length of the JSON blob
_PARAMETER = np.dtype("<f8")


class ContainerError(ValueError):
    """Malformed, truncated or mismatched model file."""


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
    params = model.parameter_vector.astype(_PARAMETER, copy=False)
    container.write_framed(path, MAGIC, VERSION, _HEADER.pack(len(blob)), blob, params)


def load_model(path):
    """Rebuild a model from disk. Returns (model, metadata dict). The body's
    size is checked against the parameter count the metadata's dims imply
    before the model is built, so no dims allocate more than the file holds."""
    return container.unframe(Path(path).read_bytes(), MAGIC, VERSION, _HEADER, ContainerError, _parse)


def _parse(header, body):
    (meta_len,) = header
    if len(body) < meta_len:
        raise ContainerError("truncated model metadata")
    try:
        meta = json.loads(bytes(body[:meta_len]).decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ContainerError(f"model metadata is not utf-8 JSON: {exc}") from None

    if not isinstance(meta, dict):
        raise ContainerError("model metadata is not a JSON object")
    try:
        if meta["kind"] == "vae":
            model_type, dims = VaeModel, (meta["input_dim"], meta["latent_dim"], meta["n_private"])
            options = dict(public_class=meta["public_class"], alpha=meta["alpha"], beta=meta["beta"])
        elif meta["kind"] == "classifier":
            model_type, dims = Classifier, (meta["input_dim"], meta["n_classes"])
            options = dict(attribute=meta["attribute"])
        else:
            raise ContainerError(f"unknown model kind {meta['kind']!r}")
        hidden = tuple(meta["hidden"])
        count = sum(
            (operator.index(n_in) + 1) * operator.index(n_out)
            for widths in model_type.layer_sizes(*dims, hidden)
            for n_in, n_out in zip(widths, widths[1:])
        )
        params = container.records(body[meta_len:], _PARAMETER, count, ContainerError)
        model = model_type(*dims, hidden=hidden, **options)
    except ContainerError:
        raise
    except KeyError as exc:
        raise ContainerError(f"model metadata lacks key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ContainerError(f"model metadata {meta} has a wrongly typed value: {exc}") from None
    except ValueError as exc:
        raise ContainerError(f"model metadata {meta} has an invalid value: {exc}") from None
    model.parameter_vector[:] = params
    return model, meta


def model_file(kind, label):
    """The file name of a model in a models directory: the VAE of public
    class label, or the classifier of attribute label."""
    return f"vae_u{label}.lann" if kind == "vae" else f"{label}_classifier.lann"


def _describe(kind, label):
    return f"the VAE of public class {label!r}" if kind == "vae" else f"the {label} classifier"


def _load_named(path, kind, label):
    """The model in path, which must be the one its file name says. A file
    that fails to load is named in the error."""
    try:
        model, meta = load_model(path)
    except ContainerError as exc:
        raise ContainerError(f"{path}: {exc}") from exc
    held = (meta["kind"], meta["public_class"] if meta["kind"] == "vae" else meta["attribute"])
    if held != (kind, label):
        raise ContainerError(f"{path} holds {_describe(*held)}, expected {_describe(kind, label)}")
    return model


def load_model_dir(models_dir):
    """The model set of a models directory: (VAEs by public class, public
    classifier, private classifier). Each file must hold the model its name
    says, and at least one VAE must be there."""
    models_dir = Path(models_dir)
    public = _load_named(models_dir / model_file("classifier", "public"), "classifier", "public")
    private = _load_named(models_dir / model_file("classifier", "private"), "classifier", "private")
    pattern = model_file("vae", "*")
    vaes = {}
    for path in sorted(models_dir.glob(pattern)):
        label = path.stem.removeprefix("vae_u")
        u = int(label) if label.isdecimal() else label
        vaes[u] = _load_named(path, "vae", u)
    if not vaes:
        raise ContainerError(f"no {pattern} files in {models_dir}")
    return vaes, public, private
