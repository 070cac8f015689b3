"""Dataset machinery: windowing, label binning, splits, CSV ingestion, the
synthetic oracle generator, normalization and the embedding archive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_anon.data import (
    ArchiveError,
    ArchiveMeta,
    CsvFormatError,
    CsvSchema,
    Embedding,
    LabelSpace,
    SensorSeries,
    SynthConfig,
    bin_weight,
    compute_norm_stats,
    denormalize,
    load_csv_dir,
    load_embeddings,
    normalize,
    oracle_accuracy,
    save_embeddings,
    subject_split,
    synth_generate,
    trial_split,
    window_embeddings,
    window_offsets,
)


def make_series(t, c=2, subject="s0", rate=50.0, public=0, private=0, trial=None):
    samples = np.arange(t * c, dtype=float).reshape(t, c)
    attributes = {"public": public, "private": private}
    if trial is not None:
        attributes["trial"] = trial
    return SensorSeries(subject, samples, rate, attributes)


class TestWindowing:
    def test_exact_window(self):
        assert len(window_embeddings(make_series(128), 128, 10)) == 1

    def test_three_windows(self):
        embeddings = window_embeddings(make_series(148), 128, 10)
        assert [e.origin for e in embeddings] == [0, 10, 20]

    def test_short_series_empty(self):
        assert window_embeddings(make_series(127), 128, 10) == []

    def test_time_major_flattening(self):
        embeddings = window_embeddings(make_series(4, c=3), 2, 1)
        # rows [0 1 2], [3 4 5] flatten to channel-within-sample order
        assert np.array_equal(embeddings[0].x, [0, 1, 2, 3, 4, 5])
        assert np.array_equal(embeddings[1].x, [3, 4, 5, 6, 7, 8])

    def test_labels_and_provenance_carried(self):
        series = make_series(40, subject="s7", public=3, private=1, trial=12)
        e = window_embeddings(series, 32, 4)[1]
        assert (e.true_public, e.true_private, e.subject_id, e.origin, e.trial) == (3, 1, "s7", 4, 12)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            window_offsets(10, 0, 1)
        with pytest.raises(ValueError):
            window_offsets(10, 2, 0)

    @given(
        t=st.integers(0, 10_000),
        w=st.integers(1, 10_000),
        s=st.integers(1, 10_000),
    )
    @settings(max_examples=1000, deadline=None)
    def test_count_matches_naive_enumeration(self, t, w, s):
        naive = [k for k in range(0, max(t, 1)) if k % s == 0 and k + w <= t]
        offsets = window_offsets(t, w, s)
        assert offsets == naive
        expected = (t - w) // s + 1 if t >= w else 0
        assert len(offsets) == expected


class TestBinWeight:
    def test_boundary_seventy(self):
        assert bin_weight(70.0) == 0

    def test_boundary_ninety(self):
        assert bin_weight(90.0) == 1

    def test_heavy(self):
        assert bin_weight(95.0) == 2

    def test_nonpositive_rejected(self):
        for bad in (0.0, -5.0):
            with pytest.raises(ValueError):
                bin_weight(bad)

    @given(a=st.floats(0.01, 500), b=st.floats(0.01, 500))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_total(self, a, b):
        lo, hi = sorted((a, b))
        assert bin_weight(lo) <= bin_weight(hi)
        assert bin_weight(a) in (0, 1, 2)


class TestSubjectSplit:
    def embeddings_for(self, sizes):
        out = []
        for sid, n in sizes.items():
            out += [Embedding(x=np.zeros(2), subject_id=sid, true_public=0, true_private=0)] * n
        return out

    def test_two_equal_subjects_half(self):
        split = subject_split(self.embeddings_for({"a": 10, "b": 10}), 0.5, seed=0)
        assert len(split.train_subjects) == 1 and len(split.test_subjects) == 1

    def test_eighty_twenty_over_ten_equal_subjects(self):
        sizes = {f"s{k}": 5 for k in range(10)}
        split = subject_split(self.embeddings_for(sizes), 0.8, seed=3)
        assert len(split.train_subjects) == 8 and len(split.test_subjects) == 2

    def test_no_subject_on_both_sides(self):
        rng = np.random.default_rng(1)
        sizes = {f"s{k}": int(rng.integers(1, 30)) for k in range(12)}
        split = subject_split(self.embeddings_for(sizes), 0.7, seed=5)
        assert not set(split.train_subjects) & set(split.test_subjects)
        assert {e.subject_id for e in split.train} == set(split.train_subjects)

    @given(seed=st.integers(0, 1000), fraction=st.floats(0.1, 0.9))
    @settings(max_examples=100, deadline=None)
    def test_greedy_achieves_target_within_one_subject(self, seed, fraction):
        rng = np.random.default_rng(seed)
        sizes = {f"s{k}": int(rng.integers(1, 40)) for k in range(8)}
        embeddings = self.embeddings_for(sizes)
        split = subject_split(embeddings, fraction, seed=seed)
        total = len(embeddings)
        target = fraction * total
        achieved = len(split.train)
        largest = max(sizes.values())
        assert abs(achieved - target) <= largest
        assert split.train and split.test

    def test_single_subject_rejected(self):
        with pytest.raises(ValueError):
            subject_split(self.embeddings_for({"only": 10}), 0.5)

    def test_deterministic_given_seed(self):
        embeddings = self.embeddings_for({f"s{k}": k + 1 for k in range(6)})
        a = subject_split(embeddings, 0.6, seed=9)
        b = subject_split(embeddings, 0.6, seed=9)
        assert a.train_subjects == b.train_subjects


class TestTrialSplit:
    def test_holds_out_trials(self):
        embeddings = [
            e
            for trial in (1, 2, 11, 12)
            for e in window_embeddings(make_series(64, trial=trial), 32, 32)
        ]
        split = trial_split(embeddings, {11, 12})
        assert all(e.trial in (1, 2) for e in split.train)
        assert all(e.trial in (11, 12) for e in split.test)

    def test_missing_trial_numbers_rejected(self):
        with pytest.raises(ValueError):
            trial_split([Embedding(x=np.zeros(2))], {1})

    @pytest.mark.parametrize("test_trials, side", [({11, 12}, "test"), ({1, 2}, "train")])
    def test_empty_side_rejected(self, test_trials, side):
        embeddings = [Embedding(x=np.zeros(2), trial=t) for t in (1, 2)]
        with pytest.raises(ValueError, match=rf"leave the {side} side of the trial-based split empty; "
                                             r"the embeddings' trials are \[1, 2\]"):
            trial_split(embeddings, test_trials)


class TestLabelSpace:
    def test_validates_counts(self):
        LabelSpace(n_public=1, n_private=2)
        with pytest.raises(ValueError):
            LabelSpace(n_public=0, n_private=2)
        with pytest.raises(ValueError):
            LabelSpace(n_public=1, n_private=1)


class TestSynthGenerator:
    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(n_subjects=2, trials_per_class=1, samples_per_trial=64)
        a = synth_generate(cfg)
        b = synth_generate(cfg)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert sa.samples.tobytes() == sb.samples.tobytes()
            assert sa.attributes == sb.attributes

    def test_zero_noise_same_class_same_phase_identical(self):
        cfg = SynthConfig(
            n_public=2, n_private=2, n_subjects=4, trials_per_class=1,
            samples_per_trial=96, noise_std=0.0,
        )
        series = synth_generate(cfg)
        embeddings = [e for s in series for e in window_embeddings(s, 32, 16)]
        by_key = {}
        for e in embeddings:
            by_key.setdefault((e.true_public, e.true_private, e.origin), []).append(e)
        checked = 0
        for group in by_key.values():
            for other in group[1:]:
                assert np.allclose(group[0].x, other.x, atol=1e-12)
                checked += 1
        assert checked > 0

    def test_oracle_classifier_near_perfect_at_low_noise(self):
        cfg = SynthConfig(
            n_public=3, n_private=2, n_subjects=4, trials_per_class=1,
            samples_per_trial=128, noise_std=0.01, seed=2,
        )
        series = synth_generate(cfg)
        embeddings = [e for s in series for e in window_embeddings(s, 32, 16)]
        public_acc, private_acc = oracle_accuracy(embeddings, cfg, window=32)
        assert public_acc > 0.99 and private_acc > 0.99

    def test_degenerate_config_rejected(self):
        with pytest.raises(ValueError):
            synth_generate(SynthConfig(n_public=0))
        with pytest.raises(ValueError):
            synth_generate(SynthConfig(separation=0.0))


class TestNormalize:
    def make_embeddings(self, n=8, w=4, c=2, seed=0):
        rng = np.random.default_rng(seed)
        return [
            Embedding(x=rng.standard_normal(w * c) * 3 + 1, true_public=0, true_private=0)
            for _ in range(n)
        ]

    def test_constant_channel_maps_to_zero_with_warning(self):
        w, c = 4, 2
        embeddings = [Embedding(x=np.ones(w * c) * 5) for _ in range(4)]
        with pytest.warns(UserWarning):
            stats = compute_norm_stats(embeddings, w, c)
        scaled = normalize(embeddings, stats)
        assert np.all(scaled[0].x == 0.0)
        # denormalize restores the constant exactly
        assert np.allclose(denormalize(scaled[0].x, stats), embeddings[0].x)

    def test_standard_data_roughly_unchanged(self):
        rng = np.random.default_rng(3)
        w, c = 50, 2
        embeddings = [Embedding(x=rng.standard_normal(w * c)) for _ in range(200)]
        stats = compute_norm_stats(embeddings, w, c)
        scaled = normalize(embeddings, stats)
        assert np.allclose(scaled[0].x, embeddings[0].x, atol=0.1)

    def test_round_trip_identity(self):
        w, c = 4, 2
        embeddings = self.make_embeddings(w=w, c=c)
        stats = compute_norm_stats(embeddings, w, c)
        scaled = normalize(embeddings, stats)
        for raw, z in zip(embeddings, scaled):
            assert np.allclose(denormalize(z.x, stats), raw.x, atol=1e-10)

    def test_stats_are_pure_function_of_train(self):
        w, c = 4, 2
        embeddings = self.make_embeddings(w=w, c=c, seed=4)
        s1 = compute_norm_stats(embeddings, w, c)
        s2 = compute_norm_stats(embeddings, w, c)
        assert np.array_equal(s1.mean, s2.mean) and np.array_equal(s1.std, s2.std)
        # serialization round trip for the manifest
        from latent_anon.data.normalize import NormStats

        back = NormStats.from_dict(s1.to_dict())
        assert np.allclose(back.mean, s1.mean) and np.allclose(back.std, s1.std)


class TestArchive:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        meta = ArchiveMeta(window=4, stride=2, n_channels=3, n_public=2, n_private=2)
        embeddings = [
            Embedding(x=rng.standard_normal(12), true_public=int(rng.integers(2)),
                      true_private=int(rng.integers(2)))
            for _ in range(10)
        ]
        path = tmp_path / "data.emba"
        save_embeddings(path, embeddings, meta)
        loaded, meta2 = load_embeddings(path)
        assert meta2 == meta
        for a, b in zip(embeddings, loaded):
            assert a.x.tobytes() == b.x.tobytes()
            assert (a.true_public, a.true_private) == (b.true_public, b.true_private)

    def test_labels_required_and_in_range(self, tmp_path):
        meta = ArchiveMeta(window=2, stride=1, n_channels=1, n_public=2, n_private=2)
        with pytest.raises(ArchiveError):
            save_embeddings(tmp_path / "x.emba", [Embedding(x=np.zeros(2))], meta)
        bad = [Embedding(x=np.zeros(2), true_public=5, true_private=0)]
        with pytest.raises(ArchiveError):
            save_embeddings(tmp_path / "y.emba", bad, meta)

    def test_truncation_detected(self, tmp_path):
        meta = ArchiveMeta(window=2, stride=1, n_channels=1, n_public=1, n_private=2)
        path = tmp_path / "data.emba"
        save_embeddings(
            path,
            [Embedding(x=np.zeros(2), true_public=0, true_private=1)] * 3,
            meta,
        )
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ArchiveError):
            load_embeddings(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "data.emba"
        path.write_bytes(b"WRONG" + b"\x00" * 40)
        with pytest.raises(ArchiveError):
            load_embeddings(path)


MOTION_COLUMNS = "attitude.roll,attitude.pitch,attitude.yaw,gravity.x,gravity.y,gravity.z,rotationRate.x,rotationRate.y,rotationRate.z,userAcceleration.x,userAcceleration.y,userAcceleration.z"


def simple_schema():
    return CsvSchema(
        channels=["a", "b", "c"],
        sampling_rate_hz=10.0,
        path_pattern=r"(?P<public>[a-z]+)_(?P<trial>\d+)/sub_(?P<subject>\d+)\.csv$",
        public_classes=["walk", "jog"],
        private_classes=["0", "1"],
        subjects_table="subjects.csv",
        subjects_key="code",
        private_column="gender",
    )


def write_simple_tree(root, cell="1.5"):
    (root / "walk_1").mkdir(parents=True)
    (root / "subjects.csv").write_text("code,gender\n1,0\n2,1\n")
    (root / "walk_1" / "sub_1.csv").write_text(f"a,b,c\n1,2,3\n4,5,6\n7,8,{cell}\n")


class TestCsvLoader:
    def test_basic_load(self, tmp_path):
        write_simple_tree(tmp_path)
        series = load_csv_dir(tmp_path, simple_schema())
        assert len(series) == 1
        s = series[0]
        assert s.samples.shape == (3, 3)
        assert s.subject_id == "1"
        assert s.attributes == {"trial": 1, "public": 0, "private": 0}

    def test_empty_file_warns(self, tmp_path):
        write_simple_tree(tmp_path)
        (tmp_path / "walk_1" / "sub_2.csv").write_text("")
        with pytest.warns(UserWarning):
            series = load_csv_dir(tmp_path, simple_schema())
        # the empty file contributes a zero-length series
        lengths = sorted(s.n_samples for s in series)
        assert lengths == [0, 3]

    def test_missing_column_named(self, tmp_path):
        write_simple_tree(tmp_path)
        (tmp_path / "walk_1" / "sub_2.csv").write_text("a,b\n1,2\n")
        with pytest.raises(CsvFormatError, match=r"\['c'\]"):
            load_csv_dir(tmp_path, simple_schema())

    def test_non_numeric_cell_reports_row(self, tmp_path):
        write_simple_tree(tmp_path, cell="oops")
        with pytest.raises(CsvFormatError, match="row 4"):
            load_csv_dir(tmp_path, simple_schema())

    def test_mixed_schema_directory_lists_all_offenders(self, tmp_path):
        write_simple_tree(tmp_path)
        (tmp_path / "jog_2").mkdir()
        (tmp_path / "jog_2" / "sub_1.csv").write_text("a,b\n1,2\n")
        (tmp_path / "walk_1" / "sub_2.csv").write_text("x,y,z\n1,2,3\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv_dir(tmp_path, simple_schema())
        message = str(err.value)
        assert "jog_2" in message and "sub_2.csv" in message

    def test_motionsense_preset_layout(self, tmp_path):
        from latent_anon.data import motionsense_schema

        schema = motionsense_schema()
        header = MOTION_COLUMNS
        row = ",".join(["0.1"] * 12)
        (tmp_path / "dws_11").mkdir()
        (tmp_path / "dws_11" / "sub_3.csv").write_text(f"{header}\n{row}\n{row}\n")
        # sitting/standing recordings are present on disk but not usable classes
        (tmp_path / "sit_5").mkdir()
        (tmp_path / "sit_5" / "sub_3.csv").write_text(f"{header}\n{row}\n")
        (tmp_path / "data_subjects_info.csv").write_text("code,weight,height,age,gender\n3,70,170,30,1\n")
        series = load_csv_dir(tmp_path, schema)
        assert len(series) == 1
        assert series[0].attributes == {"trial": 11, "public": 0, "private": 1}
        assert series[0].sampling_rate_hz == 50.0
        assert schema.test_trials == [11, 12, 13, 14, 15, 16]

    def test_schema_json_round_trip(self, tmp_path):
        import json
        from dataclasses import asdict

        schema = simple_schema()
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(asdict(schema)))
        loaded = CsvSchema.from_json(path)
        assert loaded == schema

    def test_schema_json_removed_key_is_named(self, tmp_path):
        # the subjects table alone decides where the private label comes from
        import json
        from dataclasses import asdict

        path = tmp_path / "schema.json"
        path.write_text(json.dumps({**asdict(simple_schema()), "private_from": "table"}))
        with pytest.raises(CsvFormatError, match=r"unknown keys in schema .*\['private_from'\]"):
            CsvSchema.from_json(path)

    def test_private_label_from_the_path_without_a_table(self, tmp_path):
        write_simple_tree(tmp_path)
        (tmp_path / "walk_1" / "sub_1.csv").rename(tmp_path / "walk_1" / "sub_1_p1.csv")
        schema = simple_schema()
        schema.path_pattern = r"(?P<public>[a-z]+)_(?P<trial>\d+)/sub_(?P<subject>\d+)_p(?P<private>\d)\.csv$"
        schema.subjects_table = None
        series = load_csv_dir(tmp_path, schema)
        assert [s.attributes for s in series] == [{"trial": 1, "public": 0, "private": 1}]

    @pytest.mark.parametrize("raw", [5, [], ["channels"]])
    def test_schema_json_not_an_object(self, tmp_path, raw):
        import json

        path = tmp_path / "schema.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(CsvFormatError, match="not a JSON object"):
            CsvSchema.from_json(path)
