"""The checked frame shared by EMBA archives, ZBAR1 tables and model files:
corruption and truncation fail with each format's named error, and files
written before the frame existed, which carry no checksum, are rejected.
An archive above the overlap size, whose CRC runs on another core beside
the I/O, fails and writes the same way."""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_anon import container, cores
from latent_anon.container import write_framed
from latent_anon.data import ArchiveError, ArchiveMeta, Embedding, load_embeddings, save_embeddings
from latent_anon.models import Classifier, ContainerError, load_model, save_model
from latent_anon.transform import MeanLatentTable, TableError, load_table, save_table

META = ArchiveMeta(window=3, stride=1, n_channels=2, n_public=3, n_private=2)
# 60 records of 6,148 bytes: a frame above container._OVERLAP_BYTES
LARGE_META = ArchiveMeta(window=64, stride=16, n_channels=12, n_public=3, n_private=2)
LARGE_COUNT = 60


def archive_embeddings(seed=0, n=6, meta=META):
    rng = np.random.default_rng(seed)
    return [
        Embedding(x=rng.standard_normal(meta.dim), true_public=int(rng.integers(3)),
                  true_private=int(rng.integers(2)))
        for _ in range(n)
    ]


def small_table():
    rng = np.random.default_rng(1)
    cells = {(u, i): (rng.standard_normal(3), int(rng.integers(1, 50)))
             for u in range(2) for i in range(2) if (u, i) != (1, 0)}
    return MeanLatentTable(2, 2, 3, cells)


def small_classifier():
    return Classifier(4, 2, "private", hidden=(3,), rng=np.random.default_rng(2))


# format -> (writer, loader, named error)
FORMATS = {
    "emba": (lambda path: save_embeddings(path, archive_embeddings(), META), load_embeddings,
             ArchiveError),
    "emba-large": (
        lambda path: save_embeddings(path, archive_embeddings(n=LARGE_COUNT, meta=LARGE_META), LARGE_META),
        load_embeddings, ArchiveError,
    ),
    "zbar": (lambda path: save_table(small_table(), path), load_table, TableError),
    "model": (lambda path: save_model(path, small_classifier(), training_seed=4), load_model,
              ContainerError),
}


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """A scratch directory and the framed bytes of each format."""
    directory = tmp_path_factory.mktemp("artefacts")
    framed = {}
    for fmt, (write, _, _) in FORMATS.items():
        write(directory / fmt)
        framed[fmt] = (directory / fmt).read_bytes()
    return directory, framed


@pytest.mark.parametrize("fmt", sorted(FORMATS))
class TestCorruption:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_flipped_byte_raises_named_error(self, artefacts, fmt, data):
        directory, framed = artefacts
        raw = bytearray(framed[fmt])
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        raw[pos] ^= data.draw(st.integers(1, 255), label="mask")
        path = directory / f"flipped.{fmt}"
        path.write_bytes(bytes(raw))
        with pytest.raises(FORMATS[fmt][2]):
            FORMATS[fmt][1](path)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_truncation_raises_named_error(self, artefacts, fmt, data):
        directory, framed = artefacts
        raw = framed[fmt]
        cut = data.draw(st.integers(0, len(raw) - 1), label="length")
        path = directory / f"truncated.{fmt}"
        path.write_bytes(raw[:cut])
        with pytest.raises(FORMATS[fmt][2]):
            FORMATS[fmt][1](path)


def v1_archive_bytes(embeddings, meta):
    """An EMBA version 1 file as written before the CRC trailer."""
    out = b"EMBA1" + struct.pack("<B", 1)
    out += struct.pack("<IIIIIQ", meta.window, meta.stride, meta.n_channels,
                       meta.n_public, meta.n_private, len(embeddings))
    for e in embeddings:
        out += struct.pack("<HH", e.true_public, e.true_private) + e.x.astype("<f8").tobytes()
    return out


class TestLegacyFiles:
    def test_v1_archive_rejected(self, tmp_path):
        path = tmp_path / "v1.emba"
        path.write_bytes(v1_archive_bytes(archive_embeddings(seed=7, n=9), META))
        with pytest.raises(ArchiveError, match="^unsupported EMBA1 version 1$"):
            load_embeddings(path)

    def test_v1_archive_truncation_still_detected(self, tmp_path):
        path = tmp_path / "v1.emba"
        path.write_bytes(v1_archive_bytes(archive_embeddings(), META)[:-3])
        with pytest.raises(ArchiveError):
            load_embeddings(path)

    def test_v2_relabelled_as_v1_rejected(self, tmp_path):
        path = tmp_path / "data.emba"
        save_embeddings(path, archive_embeddings(), META)
        raw = bytearray(path.read_bytes())
        assert raw[5] == 2
        raw[5] = 1  # the trailer now reads as 4 stray body bytes
        path.write_bytes(bytes(raw))
        with pytest.raises(ArchiveError):
            load_embeddings(path)

    def test_bare_model_file_rejected(self, tmp_path):
        # the payload of a model file as written before the frame
        meta = {"kind": "classifier", "attribute": "private", "input_dim": 4, "n_classes": 2,
                "hidden": [3], "seed": 4}
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        params = small_classifier().parameter_vector.astype("<f8").tobytes()
        path = tmp_path / "bare.lann"
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + params)
        with pytest.raises(ContainerError, match=r"^bad magic .*, expected b'LAMF1'$"):
            load_model(path)

    def test_short_bare_model_file_rejected(self, tmp_path):
        path = tmp_path / "bare.lann"
        path.write_bytes(b"\x05\x00\x00")
        with pytest.raises(ContainerError, match="bad magic"):
            load_model(path)


class TestArchiveRecords:
    def test_loaded_values_are_aligned_writable_and_separate(self, tmp_path):
        embeddings = archive_embeddings(seed=3, n=5)
        path = tmp_path / "data.emba"
        save_embeddings(path, embeddings, META)
        loaded, _ = load_embeddings(path)
        for a, b in zip(embeddings, loaded):
            assert b.x.dtype == np.float64 and b.x.shape == (META.dim,)
            assert b.x.flags.aligned and b.x.flags.writeable and b.x.flags.c_contiguous
            assert b.x.tobytes() == a.x.tobytes()
        loaded[0].x[:] = 0.0
        assert loaded[1].x.tobytes() == embeddings[1].x.tobytes()

    def test_label_outside_declared_counts_rejected(self, tmp_path):
        # a valid frame around a body that save_embeddings would not write
        embeddings = archive_embeddings()
        embeddings[4] = Embedding(x=embeddings[4].x, true_public=2, true_private=5)
        v1 = v1_archive_bytes(embeddings, META)
        start = 6 + struct.calcsize("<IIIIIQ")  # magic, version, header
        path = tmp_path / "data.emba"
        write_framed(path, b"EMBA1", 2, v1[6:start], v1[start:])
        with pytest.raises(ArchiveError, match="embedding 4"):
            load_embeddings(path)


class TestOverlappedChecksum:
    def test_large_archive_is_above_the_overlap_size(self, artefacts):
        _, framed = artefacts
        assert len(framed["emba-large"]) > container._OVERLAP_BYTES > len(framed["emba"])

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_flipped_label_reports_the_checksum_first(self, artefacts, n_cores, monkeypatch):
        # the flip puts record 37's private label out of range, which the
        # body's parse would name, but the CRC has not matched
        monkeypatch.setattr(cores, "CORES", n_cores)
        directory, framed = artefacts
        raw = bytearray(framed["emba-large"])
        start = 6 + struct.calcsize("<IIIIIQ")  # magic, version, header
        raw[start + 37 * (4 + 8 * LARGE_META.dim) + 2] = 9
        path = directory / "label.emba"
        path.write_bytes(bytes(raw))
        with pytest.raises(ArchiveError, match="checksum mismatch"):
            load_embeddings(path)
        # reframed with a valid CRC, the same body fails on the label
        write_framed(path, b"EMBA1", 2, raw[6:start], raw[start:-4])
        with pytest.raises(ArchiveError, match="embedding 37 has labels outside"):
            load_embeddings(path)

    @pytest.mark.parametrize("size", [10, 400_000])
    def test_write_framed_bytes_do_not_depend_on_the_overlap(self, tmp_path, size, monkeypatch):
        body = np.random.default_rng(size).bytes(size)
        files = []
        for n_cores, overlap in ((1, 2**62), (2, 2**62), (2, 0), (3, 0)):
            monkeypatch.setattr(cores, "CORES", n_cores)
            monkeypatch.setattr(container, "_OVERLAP_BYTES", overlap)
            path = tmp_path / f"{n_cores}-{overlap}"
            write_framed(path, b"TEST1", 1, b"head", body[:7], memoryview(body)[7:])
            files.append(path.read_bytes())
        assert files[0][-4:] == struct.pack("<I", zlib.crc32(b"TEST1\x01head" + body))
        assert all(f == files[0] for f in files)
