"""Mean latent tables, transfer vectors, the Modify function and the table
file format."""

import hashlib
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_anon.transform import (
    ConstantCoin,
    MeanLatentTable,
    ModifyPolicy,
    SecureCoin,
    SequenceCoin,
    TableError,
    apply_transfer,
    compute_mean_table,
    cyclic_mapping,
    load_table,
    save_table,
    transfer_vector,
)


def random_table(rng, n_public=2, n_private=3, latent_dim=4):
    cells = {
        (u, i): (rng.standard_normal(latent_dim), int(rng.integers(1, 50)))
        for u in range(n_public)
        for i in range(n_private)
    }
    return MeanLatentTable(n_public, n_private, latent_dim, cells)


class TestComputeMeanTable:
    def test_single_latent_per_cell(self):
        z = np.array([1.0, -2.0])
        table = compute_mean_table([(z, 0, 0)], 1, 1)
        assert np.array_equal(table.mean(0, 0), z)
        assert table.counts[0, 0] == 1

    def test_two_latents_average(self):
        table = compute_mean_table(
            [(np.array([0.0, 0.0]), 0, 0), (np.array([2.0, 4.0]), 0, 0)], 1, 1
        )
        assert np.allclose(table.mean(0, 0), [1.0, 2.0])
        assert table.counts[0, 0] == 2

    def test_matches_brute_force_accumulate_and_divide(self):
        rng = np.random.default_rng(0)
        latents = [
            (rng.standard_normal(6), int(rng.integers(4)), int(rng.integers(2)))
            for _ in range(1000)
        ]
        table = compute_mean_table(latents, 4, 2)
        sums, counts = {}, {}
        for z, u, i in latents:
            key = (u, i)
            acc = sums.setdefault(key, [0.0] * 6)
            for j in range(6):
                acc[j] += float(z[j])
            counts[key] = counts.get(key, 0) + 1
        for key, acc in sums.items():
            expected = np.array(acc) / counts[key]
            assert np.allclose(table.mean(*key), expected, atol=1e-12)
            assert table.counts[key] == counts[key]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        latents = [
            (rng.standard_normal(5), int(rng.integers(2)), int(rng.integers(2)))
            for _ in range(400)
        ]
        t1 = compute_mean_table(latents, 2, 2)
        order = rng.permutation(len(latents))
        t2 = compute_mean_table([latents[k] for k in order], 2, 2)
        for u in range(2):
            for i in range(2):
                assert np.allclose(t1.mean(u, i), t2.mean(u, i), atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_mean_table([], 1, 1)

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(ValueError):
            compute_mean_table([(np.zeros(3), 0, 0), (np.zeros(4), 0, 0)], 1, 1)

    def test_absent_cell_is_an_error_not_zero(self):
        table = compute_mean_table([(np.ones(2), 0, 0)], 2, 2)
        assert table.has(0, 0) and not table.has(1, 1)
        with pytest.raises(TableError, match=r"\(u=1, i=1\)"):
            table.mean(1, 1)


class TestTransferVector:
    def test_same_class_is_zero(self):
        table = random_table(np.random.default_rng(2))
        assert np.allclose(transfer_vector(table, 0, 1, 1), 0.0)

    def test_antisymmetry(self):
        table = random_table(np.random.default_rng(3))
        forward = transfer_vector(table, 1, 0, 2)
        backward = transfer_vector(table, 1, 2, 0)
        assert np.allclose(forward, -backward, atol=1e-15)

    def test_matches_elementwise_subtraction(self):
        rng = np.random.default_rng(4)
        latents = [
            (rng.standard_normal(3), 0, int(rng.integers(2)))
            for _ in range(100)
        ]
        table = compute_mean_table(latents, 1, 2)
        tv = transfer_vector(table, 0, 0, 1)
        expected = [table.mean(0, 1)[j] - table.mean(0, 0)[j] for j in range(3)]
        assert np.allclose(tv, expected, atol=1e-15)

    def test_absent_cell(self):
        table = compute_mean_table([(np.zeros(2), 0, 0)], 1, 2)
        with pytest.raises(TableError):
            transfer_vector(table, 0, 0, 1)


class TestModifyDeterministic:
    def test_binary_flip(self):
        policy = ModifyPolicy("deterministic", 2)
        assert policy.modify(0) == (1, True)
        assert policy.modify(1) == (0, True)

    def test_three_class_default_cycle(self):
        policy = ModifyPolicy("deterministic", 3)
        assert [policy.modify(i)[0] for i in range(3)] == [1, 2, 0]

    def test_binary_involution(self):
        policy = ModifyPolicy("deterministic", 2)
        for i in range(2):
            assert policy.modify(policy.modify(i)[0])[0] == i

    def test_never_identity(self):
        for m in range(2, 6):
            policy = ModifyPolicy("deterministic", m)
            for i in range(m):
                assert policy.modify(i)[0] != i


class TestModifyProbabilistic:
    def test_always_apply_behaves_deterministically(self):
        policy = ModifyPolicy("probabilistic", 3)
        for i in range(3):
            result, applied = policy.modify(i, ConstantCoin(True))
            assert applied and result == cyclic_mapping(3)[i]

    def test_never_apply_is_identity(self):
        policy = ModifyPolicy("probabilistic", 3)
        for i in range(3):
            result, applied = policy.modify(i, ConstantCoin(False))
            assert not applied and result == i

    def test_injected_sequence(self):
        policy = ModifyPolicy("probabilistic", 2)
        coin = SequenceCoin(flips=[True, False, True])
        results = [policy.modify(0, coin) for _ in range(3)]
        assert results == [(1, True), (0, False), (1, True)]

    def test_exhausted_source_raises(self):
        policy = ModifyPolicy("probabilistic", 2)
        coin = SequenceCoin(flips=[True])
        policy.modify(0, coin)
        with pytest.raises(RuntimeError):
            policy.modify(0, coin)


class TestModifyPolicy:
    def test_identity_mode(self):
        policy = ModifyPolicy(mode="identity", n_classes=2)
        assert policy.modify(1) == (1, False)

    def test_deterministic_mode(self):
        policy = ModifyPolicy(mode="deterministic", n_classes=2)
        assert policy.modify(0) == (1, True)

    def test_probabilistic_without_coin_flips_secure_coin(self, monkeypatch):
        flips = []

        def counted_flip(coin):
            flips.append(coin)
            return True

        monkeypatch.setattr(SecureCoin, "flip", counted_flip)
        assert ModifyPolicy(mode="probabilistic", n_classes=2).modify(0) == (1, True)
        assert len(flips) == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ModifyPolicy(mode="sometimes", n_classes=2)

    def test_identity_mode_checks_range(self):
        with pytest.raises(ValueError, match=r"class 7 outside \[0, 2\)"):
            ModifyPolicy(mode="identity", n_classes=2).modify(7)


class TestBayesCeiling:
    """The best accuracy at recovering the true private class i from the
    released target t, for an attacker who knows the mapping, with i uniform
    on [0, M) and a fair coin: the sum over t of max over i of P(i, t)."""

    M = 3

    def ceiling(self, mode):
        policy = ModifyPolicy(mode=mode, n_classes=self.M)
        joint = defaultdict(Fraction)
        for i in range(self.M):
            for coin in (ConstantCoin(True), ConstantCoin(False)):
                target, _ = policy.modify(i, coin)
                joint[target, i] += Fraction(1, 2 * self.M)
        best = defaultdict(Fraction)
        for (target, _), p in joint.items():
            best[target] = max(best[target], p)
        return sum(best.values())

    def test_deterministic_mode_hides_nothing(self):
        assert self.ceiling("deterministic") == 1

    def test_probabilistic_mode_leaks_above_chance(self):
        # Pins today's leak: the cyclic shift releases i or i + 1, so t names
        # i with probability 1/2 while chance is 1/M = 1/3. A uniform random
        # shift (i + s) mod M lowers the ceiling to 1/M; this test must then
        # assert Fraction(1, self.M).
        assert self.ceiling("probabilistic") == Fraction(1, 2)


class TestApplyTransfer:
    def test_identity_when_same_class(self):
        table = random_table(np.random.default_rng(5))
        z = np.random.default_rng(6).standard_normal(4)
        assert np.array_equal(apply_transfer(z, table, 0, 1, 1), z)

    def test_round_trip_cancels(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            table = random_table(rng, n_private=2)
            z = rng.standard_normal(4)
            back = apply_transfer(apply_transfer(z, table, 1, 0, 1), table, 1, 1, 0)
            assert np.allclose(back, z, atol=1e-12)

    def test_centroid_maps_to_centroid(self):
        table = random_table(np.random.default_rng(8))
        z = table.mean(1, 0).copy()
        moved = apply_transfer(z, table, 1, 0, 2)
        assert np.allclose(moved, table.mean(1, 2), atol=1e-15)

    def test_cycle_telescopes_back(self):
        rng = np.random.default_rng(9)
        for m in (3, 4, 5):
            mapping = cyclic_mapping(m)
            for _ in range(333):
                table = random_table(rng, n_public=1, n_private=m)
                z = rng.standard_normal(4)
                current = z
                i = 0
                for _ in range(m):
                    current = apply_transfer(current, table, 0, i, mapping[i])
                    i = mapping[i]
                assert i == 0
                assert np.allclose(current, z, atol=1e-12)

    def test_dimension_mismatch(self):
        table = random_table(np.random.default_rng(10))
        with pytest.raises(ValueError):
            apply_transfer(np.zeros(3), table, 0, 0, 1)


class TestTableFile:
    def test_round_trip_bit_exact(self, tmp_path):
        table = random_table(np.random.default_rng(11))
        path = tmp_path / "table.zbar"
        save_table(table, path)
        assert load_table(path) == table

    def test_partial_table_round_trip(self, tmp_path):
        table = compute_mean_table([(np.array([1.0, 2.0]), 0, 0)], 2, 2)
        path = tmp_path / "partial.zbar"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.has(0, 0) and not loaded.has(1, 1)

    def test_save_is_deterministic(self, tmp_path):
        table = random_table(np.random.default_rng(12))
        p1, p2 = tmp_path / "a.zbar", tmp_path / "b.zbar"
        save_table(table, p1)
        save_table(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncation_detected(self, tmp_path):
        table = random_table(np.random.default_rng(13))
        path = tmp_path / "table.zbar"
        save_table(table, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(TableError):
            load_table(path)

    def test_unknown_version_rejected(self, tmp_path):
        table = random_table(np.random.default_rng(14))
        path = tmp_path / "table.zbar"
        save_table(table, path)
        raw = bytearray(path.read_bytes())
        raw[5] = 99  # version byte follows the 5-byte magic
        path.write_bytes(bytes(raw))
        with pytest.raises(TableError, match="version"):
            load_table(path)

    def test_corruption_fails_checksum(self, tmp_path):
        table = random_table(np.random.default_rng(15))
        path = tmp_path / "table.zbar"
        save_table(table, path)
        raw = bytearray(path.read_bytes())
        raw[20] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(TableError, match="checksum"):
            load_table(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "table.zbar"
        path.write_bytes(b"WRONG" + b"\x00" * 30)
        with pytest.raises(TableError):
            load_table(path)


# SHA-256 of the ZBAR1 bytes for two fixed tables, as written by the
# cell-by-cell struct encoder this format started with
FULL_TABLE_SHA256 = "78eaf6bca95f88e2f07d378b47f9b2f2a61f81ebc2041b826f930ba25a7f2151"
PARTIAL_TABLE_SHA256 = "7b2a4fc2fc66d4910ba73bb80bca05b67f460fdf92de239f9704f4b999d6d8fa"


class TestTableFileBytes:
    def test_full_table_golden_hash(self, tmp_path):
        path = tmp_path / "full.zbar"
        save_table(random_table(np.random.default_rng(11), latent_dim=4), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FULL_TABLE_SHA256

    def test_partial_table_golden_hash(self, tmp_path):
        latents = [
            (np.array([1.0, -2.0, 0.5]), 0, 1),
            (np.array([3.0, 0.25, -1.0]), 0, 1),
            (np.array([-0.5, 4.0, 2.0]), 1, 0),
        ]
        path = tmp_path / "partial.zbar"
        save_table(compute_mean_table(latents, 2, 2), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PARTIAL_TABLE_SHA256

    @given(
        n_public=st.integers(1, 6),
        n_private=st.integers(1, 4),
        latent_dim=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_with_absent_cells(self, tmp_path_factory, n_public, n_private, latent_dim, seed):
        rng = np.random.default_rng(seed)
        cells = {
            (u, i): (rng.standard_normal(latent_dim), int(rng.integers(1, 2**40)))
            for u in range(n_public)
            for i in range(n_private)
            if rng.random() < 0.6
        }
        table = MeanLatentTable(n_public, n_private, latent_dim, cells)
        path = tmp_path_factory.mktemp("zbar") / "table.zbar"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded == table
        got = loaded.cells()
        assert set(got) == set(cells)
        for key, (mean, count) in cells.items():
            assert np.array_equal(got[key][0], mean) and got[key][1] == count
            assert type(got[key][1]) is int and all(type(k) is int for k in key)
        for u, i in [(-1, 0), (n_public, 0), (0, -1), (0, n_private)]:
            assert not loaded.has(u, i)
            with pytest.raises(TableError, match=rf"\(u={u}, i={i}\)"):
                loaded.mean(u, i)
