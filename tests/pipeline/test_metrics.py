"""RunMetrics: the one store of a run's samples, checked before use."""

import pytest

from repro.pipeline import PipelineRunner
from repro.pipeline import metrics as run_metrics
from repro.pipeline.metrics import RunMetrics


def test_record_reuses_the_accumulator_of_a_key():
    metrics = RunMetrics()
    metrics.record_idle("blur", 0.5)
    acc = metrics.idle["blur"]
    metrics.record_idle("blur", 0.25)
    metrics.record_busy("blur", 1.0)
    assert metrics.idle["blur"] is acc
    assert acc.samples == [0.5, 0.25]
    assert metrics.busy_means() == {"blur": 1.0}
    assert metrics.idle_quartiles() == {"blur": (0.3125, 0.375, 0.4375)}


@pytest.mark.parametrize("table", ["idle", "busy"])
def test_negative_samples_are_rejected_before_summaries(table):
    metrics = RunMetrics()
    getattr(metrics, f"{table}_of")("sepia").samples.extend([0.5, -1e-12])
    with pytest.raises(ValueError, match=f"{table} time must be >= 0"):
        metrics.idle_quartiles()
    with pytest.raises(ValueError, match=f"{table} time must be >= 0"):
        metrics.busy_means()


@pytest.mark.parametrize("engine", ["event", "batched"])
def test_run_rejects_a_negative_idle_sample(monkeypatch, engine):
    # Both engines take their idle samples from the one shared helper.
    monkeypatch.setattr(run_metrics, "idle_sample", lambda t, seconds: -1.0)
    runner = PipelineRunner(config="one_renderer", pipelines=1, frames=6,
                            image_side=64, engine=engine)
    with pytest.raises(ValueError, match="idle time must be >= 0"):
        runner.run()


def test_idle_sample_is_the_width_of_the_wait_window():
    # t - (t - seconds), not seconds: the two differ in the last bit here.
    t, seconds = 13.436424411240122, 0.8474337369372327
    assert run_metrics.idle_sample(t, seconds) == t - (t - seconds)
    assert run_metrics.idle_sample(t, seconds) != seconds
