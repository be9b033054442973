"""Golden bitwise-parity tests for the composable channel layer.

The refactor moved the hardwired loudspeaker → barrier and speaker →
conduction → accelerometer chains behind :class:`PropagationChannel`.
These tests pin the contract that made the move safe: composing the
same pieces through the channel produces **bitwise identical** arrays
to the pre-refactor inline chains, for both the sequential and the
batched paths, including the exact per-stage RNG stream derivation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acoustics.barrier import Barrier
from repro.acoustics.loudspeaker import (
    Loudspeaker,
    SOUND_BAR,
    WEARABLE_SPEAKER,
)
from repro.acoustics.materials import GLASS_WINDOW, WOODEN_DOOR
from repro.acoustics.propagation import propagate
from repro.acoustics.spl import scale_to_spl
from repro.attacks.scenario import ThruBarrierChannel
from repro.channels import (
    AccelerometerStage,
    AirPropagationStage,
    BarrierStage,
    ChannelStage,
    ConductionStage,
    InjectionChannel,
    LoudspeakerStage,
    NonlinearDemodulationStage,
    PropagationChannel,
    SolidConductionStage,
    StageBase,
    UltrasoundCarrierStage,
)
from repro.errors import ConfigurationError
from repro.sensing.accelerometer import Accelerometer, AccelerometerSpec
from repro.sensing.body_motion import body_motion_interference
from repro.sensing.conduction import ConductionPath
from repro.sensing.cross_domain import CrossDomainSensor
from repro.utils.rng import as_generator, child_rng

RATE = 16_000.0


def _speech_like(n: int, seed: int) -> np.ndarray:
    """Deterministic wideband test signal with speech-ish envelope."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    tone = 0.4 * np.sin(2 * np.pi * 210.0 * t)
    tone += 0.2 * np.sin(2 * np.pi * 1450.0 * t + 0.3)
    noise = 0.05 * rng.standard_normal(n)
    envelope = 0.5 + 0.5 * np.sin(2 * np.pi * 2.5 * t) ** 2
    return (tone + noise) * envelope


class TestSensingChainParity:
    """CrossDomainSensor.convert == the pre-refactor inline chain."""

    def _manual_convert(self, audio, seed, include_body_motion):
        generator = as_generator(seed)
        played = Loudspeaker(WEARABLE_SPEAKER).play(audio, RATE)
        strap = ConductionPath().apply(
            played, RATE, rng=child_rng(generator, "strap")
        )
        vibration = Accelerometer(AccelerometerSpec()).sense(
            strap, RATE, audio, rng=child_rng(generator, "sense")
        )
        if include_body_motion:
            vibration = vibration + body_motion_interference(
                vibration.size,
                AccelerometerSpec().sample_rate,
                intensity=0.02,
                rng=child_rng(generator, "body"),
            )
        return vibration

    @pytest.mark.parametrize("include_body_motion", [False, True])
    def test_convert_bitwise(self, include_body_motion):
        audio = _speech_like(16_000, seed=0)
        sensor = CrossDomainSensor()
        got = sensor.convert(
            audio, RATE, rng=7, include_body_motion=include_body_motion
        )
        want = self._manual_convert(audio, 7, include_body_motion)
        np.testing.assert_array_equal(got, want)

    def test_convert_batch_bitwise(self):
        audios = [
            _speech_like(16_000, seed=1),
            _speech_like(8_000, seed=2),
            _speech_like(16_000, seed=3),
        ]
        sensor = CrossDomainSensor()
        batched = sensor.convert_batch(
            audios, RATE, rngs=[100, 101, 102], include_body_motion=True
        )
        for audio, seed, got in zip(audios, (100, 101, 102), batched):
            want = self._manual_convert(audio, seed, True)
            np.testing.assert_array_equal(got, want)

    def test_batch_composition_invariance(self):
        """Mixed-length batches match per-item sequential conversion."""
        audios = [
            _speech_like(n, seed=n)
            for n in (4_000, 16_000, 4_000, 12_000, 16_000)
        ]
        sensor = CrossDomainSensor()
        batched = sensor.convert_batch(
            audios, RATE, rngs=list(range(10, 15))
        )
        sequential = [
            sensor.convert(audio, RATE, rng=seed)
            for audio, seed in zip(audios, range(10, 15))
        ]
        for got, want in zip(batched, sequential):
            np.testing.assert_array_equal(got, want)


    def test_batch_composition_invariance_fft_hostile_lengths(self):
        """Lengths that are not 5-smooth take the zero-padded path."""
        audios = [
            _speech_like(n, seed=n)
            for n in (39_566, 38_571, 39_566, 12_345)
        ]
        sensor = CrossDomainSensor()
        batched = sensor.convert_batch(
            audios, RATE, rngs=list(range(20, 24)), include_body_motion=True
        )
        sequential = [
            sensor.convert(audio, RATE, rng=seed, include_body_motion=True)
            for audio, seed in zip(audios, range(20, 24))
        ]
        for got, want in zip(batched, sequential):
            np.testing.assert_array_equal(got, want)


class TestThruBarrierParity:
    """ThruBarrierChannel.transmit == the pre-refactor inline chain."""

    def test_transmit_bitwise(self):
        waveform = _speech_like(12_000, seed=4)
        barrier = Barrier(GLASS_WINDOW)
        channel = ThruBarrierChannel(barrier=barrier)
        got = channel.transmit(
            waveform, RATE, spl_db=75.0, rng=as_generator(5)
        )
        calibrated = scale_to_spl(waveform, 75.0)
        played = Loudspeaker(SOUND_BAR).play(calibrated, RATE)
        want = Barrier(GLASS_WINDOW).transmit(
            played, RATE, rng=as_generator(5)
        )
        np.testing.assert_array_equal(got, want)

    def test_barrier_stage_thickness_scale(self):
        waveform = _speech_like(8_000, seed=5)
        stage = BarrierStage(material=WOODEN_DOOR, thickness_scale=2.0)
        got = stage.apply(waveform, RATE, rng=as_generator(9))
        want = Barrier(WOODEN_DOOR, thickness_scale=2.0).transmit(
            waveform, RATE, rng=as_generator(9)
        )
        np.testing.assert_array_equal(got, want)


class TestStageProtocol:
    def test_all_stages_satisfy_protocol(self):
        stages = [
            LoudspeakerStage(SOUND_BAR),
            BarrierStage(material=GLASS_WINDOW),
            AirPropagationStage(2.0),
            ConductionStage(),
            AccelerometerStage(),
            UltrasoundCarrierStage(),
            SolidConductionStage(),
            NonlinearDemodulationStage(),
        ]
        for stage in stages:
            assert isinstance(stage, ChannelStage)

    def test_air_propagation_matches_propagate(self):
        signal = _speech_like(6_000, seed=6)
        stage = AirPropagationStage(3.0)
        np.testing.assert_array_equal(
            stage.apply(signal, RATE), propagate(signal, RATE, 3.0)
        )

    def test_empty_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            PropagationChannel(stages=())

    def test_non_stage_rejected(self):
        with pytest.raises(ConfigurationError):
            PropagationChannel(stages=(object(),))

    def test_stage_without_a_transform_raises(self):
        # Each form is derived from the other; a stage that overrides
        # neither must fail clearly instead of recursing.
        class Bare(StageBase):
            pass

        with pytest.raises(NotImplementedError, match="Bare must override"):
            Bare().apply(np.ones(8), RATE)
        with pytest.raises(NotImplementedError, match="Bare must override"):
            Bare().apply_batch(np.ones((2, 8)), RATE)


class TestOutputRateFolding:
    def test_identity_for_audio_chain(self):
        channel = PropagationChannel(
            (LoudspeakerStage(SOUND_BAR), BarrierStage(material=GLASS_WINDOW))
        )
        assert channel.output_rate(RATE) == RATE

    def test_accelerometer_chain_ends_at_sensor_rate(self):
        sensor = CrossDomainSensor()
        assert sensor.vibration_rate == AccelerometerSpec().sample_rate
        assert sensor.channel.output_rate(RATE) == (
            AccelerometerSpec().sample_rate
        )

    def test_ultrasound_round_trip_rate(self):
        channel = PropagationChannel(
            (
                UltrasoundCarrierStage(),
                SolidConductionStage(),
                NonlinearDemodulationStage(),
            )
        )
        assert channel.output_rate(RATE) == RATE

    def test_carrier_above_nyquist_rejected(self):
        from repro.errors import SignalError

        stage = UltrasoundCarrierStage(carrier_hz=21_000.0, oversample=3)
        signal = _speech_like(4_000, seed=7)
        with pytest.raises(SignalError):
            stage.apply(signal, 8_000.0)  # 21 kHz >= 12 kHz Nyquist


class TestUltrasoundChain:
    def test_round_trip_preserves_length(self):
        channel = PropagationChannel(
            (
                UltrasoundCarrierStage(),
                SolidConductionStage(),
                NonlinearDemodulationStage(),
            )
        )
        for n in (4_000, 4_001, 12_345):
            out = channel.apply(_speech_like(n, seed=n), RATE)
            assert out.size == n

    def test_demodulation_recovers_message_band(self):
        """Square-law demodulation puts the message back in baseband."""
        channel = PropagationChannel(
            (
                UltrasoundCarrierStage(),
                SolidConductionStage(),
                NonlinearDemodulationStage(),
            )
        )
        t = np.arange(16_000) / RATE
        message = np.sin(2 * np.pi * 400.0 * t)
        out = channel.apply(message, RATE)
        spectrum = np.abs(np.fft.rfft(out))
        freqs = np.fft.rfftfreq(out.size, d=1.0 / RATE)
        peak_hz = freqs[int(np.argmax(spectrum[1:])) + 1]
        assert abs(peak_hz - 400.0) < 30.0

    def test_stage_batch_matches_sequential(self):
        stages = (
            UltrasoundCarrierStage(),
            SolidConductionStage(),
            NonlinearDemodulationStage(),
        )
        channel = PropagationChannel(stages)
        signals = [_speech_like(8_000, seed=s) for s in (20, 21, 22)]
        batched = channel.apply_batch(signals, RATE, rngs=[1, 2, 3])
        for signal, seed, got in zip(signals, (1, 2, 3), batched):
            want = channel.apply(signal, RATE, rng=seed)
            np.testing.assert_array_equal(got, want)


class TestInjectionChannel:
    def test_transmit_is_calibrate_then_apply(self):
        waveform = _speech_like(8_000, seed=8)
        channel = PropagationChannel(
            (UltrasoundCarrierStage(), NonlinearDemodulationStage())
        )
        injection = InjectionChannel(channel=channel)
        got = injection.transmit(waveform, RATE, spl_db=75.0, rng=3)
        want = channel.apply(scale_to_spl(waveform, 75.0), RATE, rng=3)
        np.testing.assert_array_equal(got, want)
