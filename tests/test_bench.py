"""Latency measurement and the real-time budget."""

import json
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latent_anon.bench import (
    StageStats,
    TimingReport,
    benchmark_pipeline,
    check_realtime,
    time_budget_ms,
)
from latent_anon.models import VaeModel
from latent_anon.models.classifier import Classifier
from latent_anon.pipeline import STAGES, ModelRegistry
from latent_anon.transform import MeanLatentTable, ModifyPolicy


def untrained_registry(dim=48, latent=8, n_public=2, n_private=2, seed=0):
    rng = np.random.default_rng(seed)
    vaes = {
        u: VaeModel(input_dim=dim, latent_dim=latent, n_private=n_private, public_class=u, rng=rng)
        for u in range(n_public)
    }
    table = MeanLatentTable(
        n_public, n_private, latent,
        {(u, i): (rng.standard_normal(latent), 1) for u in range(n_public) for i in range(n_private)},
    )
    return ModelRegistry(
        vaes=vaes,
        public_classifier=Classifier(dim, n_public, "public", rng=rng),
        private_classifier=Classifier(dim, n_private, "private", rng=rng),
        mean_table=table,
        policy=ModifyPolicy(mode="deterministic", n_classes=n_private),
    )


class TestTimeBudget:
    def test_fifty_hertz_stride_ten(self):
        assert time_budget_ms(50.0, 10) == pytest.approx(200.0)

    def test_twenty_hertz_stride_ten(self):
        assert time_budget_ms(20.0, 10) == pytest.approx(500.0)

    def test_one_hertz_stride_one(self):
        assert time_budget_ms(1.0, 1) == pytest.approx(1000.0)

    @given(
        num=st.integers(1, 10_000), den=st.integers(1, 1000), stride=st.integers(1, 10_000)
    )
    @settings(max_examples=200, deadline=None)
    def test_formula_exact_for_positive_rationals(self, num, den, stride):
        rate = num / den
        assert time_budget_ms(rate, stride) == 1000.0 * stride / rate

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            time_budget_ms(0.0, 10)
        with pytest.raises(ValueError):
            time_budget_ms(50.0, 0)


class TestBenchmarkPipeline:
    def test_single_embedding_single_rep(self):
        registry = untrained_registry()
        rng = np.random.default_rng(1)
        report = benchmark_pipeline(
            registry, [rng.standard_normal(48)], warmup=0, repetitions=1, pin_core=False
        )
        assert report.total.count == 1
        assert all(report.stages[name].count == 1 for name in STAGES)

    def test_counts_equal_across_stages(self):
        registry = untrained_registry()
        rng = np.random.default_rng(2)
        embeddings = list(rng.standard_normal((10, 48)))
        report = benchmark_pipeline(registry, embeddings, warmup=2, repetitions=3, pin_core=False)
        counts = {report.stages[name].count for name in STAGES}
        assert counts == {30}
        assert report.total.count == 30

    def test_doubling_embeddings_roughly_doubles_totals(self):
        registry = untrained_registry()
        rng = np.random.default_rng(3)
        small = list(rng.standard_normal((150, 48)))
        large = list(rng.standard_normal((300, 48)))
        # a shared machine can switch speed every few milliseconds, so one run of
        # each size may see different speeds; alternating three runs per size and
        # pooling their totals gives both sizes the same mix
        def total_s(embeddings):
            report = benchmark_pipeline(registry, embeddings, warmup=50, repetitions=2, pin_core=False)
            return report.total.total_s

        small_s = large_s = 0.0
        for _ in range(3):
            small_s += total_s(small)
            large_s += total_s(large)
        assert 1.4 <= large_s / small_s <= 2.6

    def test_nonnegative_and_ordered_percentiles(self):
        registry = untrained_registry()
        rng = np.random.default_rng(4)
        embeddings = list(rng.standard_normal((30, 48)))
        report = benchmark_pipeline(registry, embeddings, warmup=5, repetitions=2, pin_core=False)
        for stats in list(report.stages.values()) + [report.total]:
            assert stats.total_s >= 0.0
            assert stats.p50_s <= stats.p99_s

    def test_stage_sum_close_to_total(self):
        # decomposition_gap pairs each call's total with its own stage times:
        # a host that changes speed mid-run moves the median total and the
        # summed stage medians apart, but not one call's total and its stages,
        # which are timed together; untimed work between the stage windows
        # still lands in every pair.
        registry = untrained_registry(dim=384)
        rng = np.random.default_rng(5)
        embeddings = list(rng.standard_normal((200, 384)))
        report = benchmark_pipeline(registry, embeddings, warmup=100, repetitions=3, pin_core=False)
        assert len(report.residual_s) == report.total.count == 600
        assert report.decomposition_gap() < 0.10

    def test_decomposition_gap_is_the_paired_median(self):
        stats = StageStats(3, 3.0, 1.0, 1.0, 1.5)
        report = TimingReport(
            stages={"encode": StageStats(3, 2.0, 0.5, 0.25, 1.0)},
            total=stats,
            n_embeddings=3,
            repetitions=1,
            residual_s=[0.5, -0.25, 0.125],
        )
        assert report.decomposition_gap() == 0.125
        report.residual_s = [-0.5, -0.25, 0.125]
        assert report.decomposition_gap() == 0.25
        with pytest.raises(ValueError, match="residuals"):
            TimingReport(stages={}, total=stats, n_embeddings=3, repetitions=1).decomposition_gap()

    def test_residuals_stay_out_of_the_json(self):
        registry = untrained_registry()
        rng = np.random.default_rng(8)
        report = benchmark_pipeline(
            registry, list(rng.standard_normal((4, 48))), warmup=0, repetitions=2, pin_core=False
        )
        assert len(report.residual_s) == 8
        assert "residual_s" not in json.loads(report.to_json())

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            benchmark_pipeline(untrained_registry(), [], pin_core=False)

    @pytest.mark.parametrize("name, value", [("repetitions", 0), ("repetitions", -1), ("warmup", -1)])
    def test_counts_out_of_range_rejected(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            benchmark_pipeline(untrained_registry(), [np.zeros(48)], pin_core=False, **{name: value})

    def test_json_and_table_outputs(self):
        registry = untrained_registry()
        rng = np.random.default_rng(6)
        report = benchmark_pipeline(
            registry, list(rng.standard_normal((5, 48))), warmup=0, repetitions=1, pin_core=False
        )
        payload = json.loads(report.to_json())
        assert set(payload["stages"]) == set(STAGES)
        table = report.to_table()
        assert "Time/Embedding (s)" in table and "nb. Embeddings" in table

    def test_report_json_pinned(self):
        report = TimingReport(
            stages={
                "encode": StageStats(2, 0.5, 0.25, 0.25, 0.375),
                "decode": StageStats(2, 0.125, 0.0625, 0.0625, 0.1),
            },
            total=StageStats(2, 1.0, 0.5, 0.5, 0.75),
            n_embeddings=2,
            repetitions=1,
        )
        assert report.to_json() == """{
  "n_embeddings": 2,
  "repetitions": 1,
  "stages": {
    "decode": {
      "count": 2,
      "mean_s": 0.0625,
      "p50_s": 0.0625,
      "p99_s": 0.1,
      "total_s": 0.125
    },
    "encode": {
      "count": 2,
      "mean_s": 0.25,
      "p50_s": 0.25,
      "p99_s": 0.375,
      "total_s": 0.5
    }
  },
  "total": {
    "count": 2,
    "mean_s": 0.5,
    "p50_s": 0.5,
    "p99_s": 0.75,
    "total_s": 1.0
  }
}"""


class TestCheckRealtime:
    def fake_report(self, total_ms):
        stats = StageStats(count=1, total_s=total_ms / 1000, mean_s=total_ms / 1000,
                           p50_s=total_ms / 1000, p99_s=total_ms / 1000)
        from latent_anon.bench import TimingReport

        return TimingReport(stages={}, total=stats, n_embeddings=1, repetitions=1)

    def test_pass_with_margin(self):
        verdict = check_realtime(self.fake_report(5.0), 200.0)
        assert verdict.passed
        assert verdict.margin_ms == pytest.approx(195.0)

    def test_fail_over_budget(self):
        verdict = check_realtime(self.fake_report(600.0), 500.0)
        assert not verdict.passed
        assert "FAIL" in verdict.describe()

    def test_desk_scale_pipeline_beats_200ms(self):
        registry = untrained_registry(dim=384)
        rng = np.random.default_rng(7)
        embeddings = list(rng.standard_normal((100, 384)))
        report = benchmark_pipeline(registry, embeddings, warmup=50, repetitions=2, pin_core=False)
        verdict = check_realtime(report, time_budget_ms(50.0, 10))
        assert verdict.passed
