"""Batched inference: parity contracts across nn, segmenter, pipeline,
and serving layers, plus the single serving code path."""

import numpy as np
import pytest

from repro.core.pipeline import (
    PIPELINE_STAGES,
    BatchAnalysisItem,
    DefenseConfig,
    DefensePipeline,
)
from repro.core.segmentation import PhonemeSegmenter
from repro.errors import ModelError
from repro.eval.reporting import format_service_metrics
from repro.nn.model import SequenceClassifier
from repro.serve.metrics import MetricsCollector
from repro.serve.request import VerificationRequest
from repro.serve.workers import PipelineSpec, execute_batch

RATE = 16_000.0


@pytest.fixture(scope="module")
def trained_segmenter(corpus):
    segmenter = PhonemeSegmenter(rng=5)
    segmenter.train_on_phoneme_segments(
        corpus, n_per_phoneme=4, epochs=6, rng=6
    )
    return segmenter


@pytest.fixture(scope="module")
def utterance_audios(corpus):
    """Ragged-length recordings: three utterances plus plain noise."""
    sequences = [
        ["aa", "s", "iy"],
        ["m", "ow", "z", "eh", "n"],
        ["sh", "ah"],
    ]
    audios = [
        corpus.utterance(sequence, rng=40 + index).waveform
        for index, sequence in enumerate(sequences)
    ]
    audios.append(np.random.default_rng(9).normal(0.0, 0.05, 5_000))
    return audios


class TestInferenceForward:
    @pytest.fixture(scope="class")
    def model(self):
        return SequenceClassifier(input_dim=6, hidden_dim=8, rng=0)

    @pytest.fixture(scope="class")
    def inputs(self):
        return np.random.default_rng(3).normal(size=(3, 12, 6))

    def test_matches_training_forward_bitwise(self, model, inputs):
        expected = model.forward(inputs)  # training path
        actual = model.forward(inputs, training=False)
        np.testing.assert_array_equal(actual, expected)

    def test_singleton_batch_close_to_training(self, model, inputs):
        # Batch 1 is mirrored onto the multi-row BLAS kernel, so it can
        # differ from the training forward's single-row kernel in the
        # last ulp — but no more.
        expected = model.forward(inputs[:1])
        actual = model.forward(inputs[:1], training=False)
        np.testing.assert_allclose(actual, expected, rtol=1e-10)

    def test_batch_size_independence_bitwise(self, model, inputs):
        # The contract the segmenter's batched path relies on: a
        # sequence scored alone equals the same sequence inside a
        # larger batch, bitwise.
        batched = model.forward(inputs, training=False)
        for index in range(inputs.shape[0]):
            alone = model.forward(
                inputs[index : index + 1], training=False
            )
            np.testing.assert_array_equal(alone[0], batched[index])

    def test_float32_within_tolerance(self, model, inputs):
        expected = model.forward(inputs, training=False)
        actual = model.forward(inputs, training=False, dtype=np.float32)
        assert actual.dtype == np.float32
        np.testing.assert_allclose(actual, expected, atol=1e-4)

    def test_inference_writes_no_caches(self, model, inputs):
        model.brnn.forward_layer._cache = None
        model.brnn.backward_layer._cache = None
        model.head._cache = None
        model.forward(inputs, training=False)
        assert model.brnn.forward_layer._cache is None
        assert model.brnn.backward_layer._cache is None
        assert model.head._cache is None

    def test_mask_rejected_on_training_path(self, model, inputs):
        mask = np.ones(inputs.shape[:2], dtype=bool)
        with pytest.raises(ModelError):
            model.forward(inputs, training=True, mask=mask)
        with pytest.raises(ModelError):
            model.forward(inputs, training=True, dtype=np.float32)

    def test_masked_padding_is_inert(self, model, inputs):
        # Right-padding a sequence with garbage frames must not change
        # its valid frames when the mask marks them invalid.
        short = inputs[:, :7, :]
        padded = np.concatenate(
            [short, np.full((3, 5, 6), 123.0)], axis=1
        )
        mask = np.zeros((3, 12), dtype=bool)
        mask[:, :7] = True
        expected = model.forward(short, training=False)
        actual = model.forward(padded, training=False, mask=mask)
        np.testing.assert_array_equal(actual[:, :7], expected)


class TestSegmenterBatchParity:
    def test_batch_matches_single_bitwise(
        self, trained_segmenter, utterance_audios
    ):
        batched = trained_segmenter.frame_probabilities_batch(
            utterance_audios
        )
        assert len(batched) == len(utterance_audios)
        for audio, probabilities in zip(utterance_audios, batched):
            single = trained_segmenter.frame_probabilities(audio)
            np.testing.assert_array_equal(probabilities, single)

    def test_batch_of_one_matches_single_bitwise(
        self, trained_segmenter, utterance_audios
    ):
        audio = utterance_audios[0]
        batched = trained_segmenter.frame_probabilities_batch([audio])
        single = trained_segmenter.frame_probabilities(audio)
        np.testing.assert_array_equal(batched[0], single)

    def test_float32_within_tolerance(
        self, trained_segmenter, utterance_audios
    ):
        batched64 = trained_segmenter.frame_probabilities_batch(
            utterance_audios
        )
        batched32 = trained_segmenter.frame_probabilities_batch(
            utterance_audios, dtype=np.float32
        )
        for p64, p32 in zip(batched64, batched32):
            np.testing.assert_allclose(p32, p64, atol=1e-3)

    def test_segments_batch_matches_single(
        self, trained_segmenter, utterance_audios
    ):
        batched = trained_segmenter.segments_batch(utterance_audios)
        singles = [
            trained_segmenter.segments(audio)
            for audio in utterance_audios
        ]
        assert batched == singles

    def test_empty_batch(self, trained_segmenter):
        assert trained_segmenter.frame_probabilities_batch([]) == []
        assert trained_segmenter.segments_batch([]) == []

    def test_silence_yields_no_segments(self, trained_segmenter):
        silence = np.zeros(4_000)
        batched = trained_segmenter.segments_batch(
            [silence, np.zeros(2_000)]
        )
        singles = [
            trained_segmenter.segments(silence),
            trained_segmenter.segments(np.zeros(2_000)),
        ]
        assert batched == singles

    def test_untrained_raises(self):
        with pytest.raises(ModelError):
            PhonemeSegmenter(rng=1).frame_probabilities_batch(
                [np.zeros(4_000)]
            )


def make_pair(seed, n_samples=8_000):
    rng = np.random.default_rng(seed)
    va = rng.normal(0.0, 0.1, n_samples)
    wearable = 0.8 * va + rng.normal(0.0, 0.02, n_samples)
    return va, wearable


class TestAnalyzeBatch:
    @pytest.fixture(scope="class")
    def pipeline(self, trained_segmenter):
        return DefensePipeline(
            segmenter=trained_segmenter,
            config=DefenseConfig(audio_rate=RATE),
        )

    def test_verdicts_match_sequential_bitwise(self, pipeline):
        items = []
        for seed in (11, 22, 33, 44):
            va, wearable = make_pair(seed, n_samples=6_000 + 700 * seed)
            items.append(
                BatchAnalysisItem(
                    va_audio=va, wearable_audio=wearable, rng=seed
                )
            )
        outcomes = pipeline.analyze_batch(items)
        assert all(outcome.ok for outcome in outcomes)
        for item, outcome in zip(items, outcomes):
            expected, _ = pipeline.analyze_timed(
                item.va_audio, item.wearable_audio, rng=item.rng
            )
            assert outcome.verdict == expected
            assert set(outcome.timings) == set(PIPELINE_STAGES)

    def test_error_isolation(self, pipeline):
        va, wearable = make_pair(7)
        items = [
            BatchAnalysisItem(
                va_audio=va, wearable_audio=wearable, rng=7
            ),
            BatchAnalysisItem(
                va_audio=np.zeros(0), wearable_audio=wearable, rng=8
            ),
            BatchAnalysisItem(
                va_audio=va, wearable_audio=wearable, rng=9
            ),
        ]
        outcomes = pipeline.analyze_batch(items)
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert outcomes[1].error is not None
        assert outcomes[0].verdict == pipeline.analyze(
            va, wearable, rng=7
        )
        assert outcomes[2].verdict == pipeline.analyze(
            va, wearable, rng=9
        )

    def test_skip_segmentation_matches_sequential(self, pipeline):
        va, wearable = make_pair(17)
        items = [
            BatchAnalysisItem(
                va_audio=va,
                wearable_audio=wearable,
                rng=17,
                skip_segmentation=True,
            ),
            BatchAnalysisItem(
                va_audio=va, wearable_audio=wearable, rng=18
            ),
        ]
        outcomes = pipeline.analyze_batch(items)
        assert outcomes[0].verdict == pipeline.analyze(
            va, wearable, rng=17, skip_segmentation=True
        )
        assert outcomes[0].verdict.n_segments == 0


def make_request(seed, n_samples=8_000, **kwargs):
    va, wearable = make_pair(seed, n_samples=n_samples)
    kwargs.setdefault("request_id", f"req-{seed}")
    return VerificationRequest(
        va_audio=va, wearable_audio=wearable, seed=seed, **kwargs
    )


class TestExecuteBatchParity:
    """The serving contract: batched verdicts equal sequential ones."""

    KEY = (RATE, False)

    def _verdicts(self, spec, requests):
        batched = execute_batch(
            (spec, self.KEY, [(request, 0.0) for request in requests])
        )
        singles = [
            execute_batch((spec, self.KEY, [(request, 0.0)]))[0]
            for request in requests
        ]
        return batched, singles

    def test_fast_spec_parity(self):
        spec = PipelineSpec(use_segmenter=False)
        requests = [make_request(seed) for seed in (1, 2, 3, 4)]
        batched, singles = self._verdicts(spec, requests)
        for together, alone in zip(batched, singles):
            assert together.error is None and alone.error is None
            assert together.verdict == alone.verdict
            assert set(together.stage_timings_s) == set(PIPELINE_STAGES)

    def test_segmenter_spec_parity(self):
        spec = PipelineSpec(
            segmenter_seed=7, n_speakers=2, n_per_phoneme=3, epochs=3
        )
        requests = [make_request(seed) for seed in (5, 6, 7)]
        batched, singles = self._verdicts(spec, requests)
        for together, alone in zip(batched, singles):
            assert together.verdict == alone.verdict

    def test_poisoned_request_degrades_only_itself(self):
        spec = PipelineSpec(use_segmenter=False)
        good = [make_request(seed) for seed in (10, 11)]
        bad = VerificationRequest(
            va_audio=np.zeros(0),
            wearable_audio=np.zeros(8_000),
            seed=12,
            request_id="req-bad",
        )
        results = execute_batch(
            (
                spec,
                self.KEY,
                [(good[0], 0.0), (bad, 0.0), (good[1], 0.0)],
            )
        )
        assert results[1].error is not None
        for index, request in ((0, good[0]), (2, good[1])):
            assert results[index].error is None
            alone = execute_batch(
                (spec, self.KEY, [(request, 0.0)])
            )[0]
            assert results[index].verdict == alone.verdict


class TestSingleCodePath:
    """Every serving batch, one request or many, is one
    ``analyze_batch`` call; the sequential loop is only its fallback."""

    KEY = (RATE, False)

    def test_single_request_emits_no_batch_events(self):
        spec = PipelineSpec(use_segmenter=False)
        (result,) = execute_batch(
            (spec, self.KEY, [(make_request(21), 0.0)])
        )
        assert result.error is None
        assert [e.scope for e in result.events] == ["pipeline"] * len(
            PIPELINE_STAGES
        )

    def test_failed_batch_falls_back_to_sequential(self, monkeypatch):
        spec = PipelineSpec(use_segmenter=False)
        requests = [make_request(seed) for seed in (22, 23, 24)]
        expected = [
            execute_batch((spec, self.KEY, [(request, 0.0)]))[0].verdict
            for request in requests
        ]
        original = DefensePipeline.analyze_batch
        calls = []

        def fail_once(self, items, dtype=None):
            calls.append(len(items))
            if len(calls) == 1:
                raise RuntimeError("injected batch failure")
            return original(self, items, dtype=dtype)

        monkeypatch.setattr(DefensePipeline, "analyze_batch", fail_once)
        results = execute_batch(
            (spec, self.KEY, [(request, 0.0) for request in requests])
        )
        assert calls == [3, 1, 1, 1]
        assert [r.verdict for r in results] == expected
        collector = MetricsCollector()
        for result in results:
            assert result.error is None
            collector.record_stage_events(result.events)
        fallbacks = collector.snapshot().stage_fallbacks
        assert fallbacks == {"execute_batch:sequential": 1}
        assert "execute_batch:sequential x1" in format_service_metrics(
            collector.snapshot()
        )
