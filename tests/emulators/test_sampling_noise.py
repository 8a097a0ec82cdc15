"""Unit + property tests for sampling utilities and the noise model."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmulatorError
from repro.emulators import NoiseModel
from repro.emulators.sampling import (
    bits_to_strings,
    counts_from_samples,
    counts_from_states,
    sample_bitstrings,
)


class TestSampleBitstrings:
    def test_shape_and_dtype(self):
        p = np.array([0.25, 0.25, 0.25, 0.25])
        samples = sample_bitstrings(p, 100, np.random.default_rng(0), num_qubits=2)
        assert samples.shape == (100, 2)
        assert samples.dtype == np.uint8

    def test_deterministic_distribution(self):
        p = np.array([0.0, 1.0, 0.0, 0.0])  # always |01>
        samples = sample_bitstrings(p, 50, np.random.default_rng(0), num_qubits=2)
        assert np.all(samples[:, 0] == 0)
        assert np.all(samples[:, 1] == 1)

    def test_unnormalized_input_normalized(self):
        p = np.array([2.0, 2.0])
        samples = sample_bitstrings(p, 1000, np.random.default_rng(0), num_qubits=1)
        frac = samples.mean()
        assert 0.4 < frac < 0.6

    def test_wrong_length_rejected(self):
        with pytest.raises(EmulatorError):
            sample_bitstrings(np.ones(3), 10, np.random.default_rng(0), num_qubits=2)

    def test_zero_distribution_rejected(self):
        with pytest.raises(EmulatorError):
            sample_bitstrings(np.zeros(4), 10, np.random.default_rng(0), num_qubits=2)

    def test_negative_shots_rejected(self):
        with pytest.raises(EmulatorError):
            sample_bitstrings(np.ones(4), -1, np.random.default_rng(0), num_qubits=2)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_counts_always_sum_to_shots(self, n, shots, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(1 << n) + 1e-9
        samples = sample_bitstrings(p, shots, rng, num_qubits=n)
        counts = counts_from_samples(samples)
        assert sum(counts.values()) == shots


class TestBitsToStrings:
    def test_basic(self):
        samples = np.array([[0, 1], [1, 1]], dtype=np.uint8)
        assert bits_to_strings(samples) == ["01", "11"]

    def test_empty(self):
        assert bits_to_strings(np.zeros((0, 3), dtype=np.uint8)) == []

    def test_bad_shape(self):
        with pytest.raises(EmulatorError):
            bits_to_strings(np.zeros(4, dtype=np.uint8))

    def test_consistency_with_counts(self):
        rng = np.random.default_rng(0)
        samples = (rng.random((50, 4)) < 0.5).astype(np.uint8)
        strings = bits_to_strings(samples)
        counts = counts_from_samples(samples)
        assert sum(counts.values()) == 50
        for s in strings:
            assert s in counts


def _reference_spam(noise: NoiseModel, samples: np.ndarray, rng) -> np.ndarray:
    """SPAM on bit rows written out draw by draw: lost, then false
    positive, then false negative, one ``rng.random((shots, n))`` each
    and only for a nonzero rate."""
    out = samples.copy()
    if noise.state_prep_error > 0:
        out[rng.random(out.shape) < noise.state_prep_error] = 0
    if noise.detection_epsilon > 0:
        up = (out == 0) & (rng.random(out.shape) < noise.detection_epsilon)
        out[up] = 1
    if noise.detection_epsilon_prime > 0:
        down = (out == 1) & (rng.random(out.shape) < noise.detection_epsilon_prime)
        out[down] = 0
    return out


_RATES = st.one_of(st.just(0.0), st.floats(0.01, 0.6))


class TestSpamDrawOrder:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 14),
        st.integers(1, 300),
        _RATES,
        _RATES,
        _RATES,
        st.integers(0, 2**32 - 1),
    )
    def test_packed_states_match_bit_rows(self, n, shots, eta, eps, eps_prime, seed):
        """From one seed, SPAM on packed states, on bit rows and the
        written-out reference give the same counts and leave the RNG at
        the same point, so no draw is reordered or skipped."""
        noise = NoiseModel(
            state_prep_error=eta, detection_epsilon=eps, detection_epsilon_prime=eps_prime
        )
        states = np.random.default_rng(seed ^ 0x5EED).integers(0, 1 << n, shots)
        bits = ((states[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        packed = counts_from_states(noise.apply_spam_packed(states, n, rngs[0]), n)
        assert np.array_equal(states, bits @ (1 << np.arange(n - 1, -1, -1)))  # input kept
        rows = counts_from_samples(noise.apply_spam(bits, rngs[1]))
        reference = counts_from_samples(_reference_spam(noise, bits, rngs[2]))
        assert list(packed.items()) == list(rows.items()) == list(reference.items())
        tails = [rng.random(4).tolist() for rng in rngs]
        assert tails[0] == tails[1] == tails[2]

    @pytest.mark.parametrize("live", list(itertools.product((False, True), repeat=3)))
    def test_block_equals_sequential_draws(self, live):
        """``spam_masks`` draws the k nonzero rates' masks as one
        (k, shots, n) block: the values of k sequential ``(shots, n)``
        draws in the order lost, up, down, and the same RNG tail."""
        rates = [rate if on else 0.0 for rate, on in zip((0.1, 0.25, 0.4), live, strict=True)]
        noise = NoiseModel(
            state_prep_error=rates[0], detection_epsilon=rates[1], detection_epsilon_prime=rates[2]
        )
        shots, n = 37, 5
        block_rng, sequential_rng = np.random.default_rng(11), np.random.default_rng(11)
        masks, bits = noise.spam_masks(block_rng, shots, n)
        expected = [
            (sequential_rng.random((shots, n)) < rate, bit)
            for rate, bit in zip(rates, (0, 1, 0), strict=True)
            if rate > 0
        ]
        assert masks.shape == (len(expected), shots, n)
        assert bits == tuple(bit for _, bit in expected)
        for mask, (want, _) in zip(masks, expected, strict=True):
            assert np.array_equal(mask, want)
        assert block_rng.random(4).tolist() == sequential_rng.random(4).tolist()


class TestNoiseModel:
    def test_trivial_detection(self):
        assert NoiseModel().is_trivial
        assert not NoiseModel(detection_epsilon=0.1).is_trivial

    def test_coherent_flag(self):
        assert not NoiseModel(detection_epsilon=0.1).has_coherent_noise
        assert NoiseModel(amplitude_rel_std=0.1).has_coherent_noise
        assert NoiseModel(detuning_std=0.1).has_coherent_noise

    def test_probability_validation(self):
        with pytest.raises(EmulatorError):
            NoiseModel(detection_epsilon=1.5)
        with pytest.raises(EmulatorError):
            NoiseModel(amplitude_rel_std=-0.1)
        with pytest.raises(EmulatorError):
            NoiseModel(noise_realizations=0)

    def test_spam_false_positive_rate(self):
        noise = NoiseModel(detection_epsilon=0.3)
        rng = np.random.default_rng(0)
        samples = np.zeros((5000, 2), dtype=np.uint8)
        flipped = noise.apply_spam(samples, rng)
        assert flipped.mean() == pytest.approx(0.3, abs=0.02)

    def test_spam_false_negative_rate(self):
        noise = NoiseModel(detection_epsilon_prime=0.2)
        rng = np.random.default_rng(0)
        samples = np.ones((5000, 2), dtype=np.uint8)
        flipped = noise.apply_spam(samples, rng)
        assert flipped.mean() == pytest.approx(0.8, abs=0.02)

    def test_state_prep_error_resets_to_ground(self):
        noise = NoiseModel(state_prep_error=1.0)
        rng = np.random.default_rng(0)
        samples = np.ones((100, 3), dtype=np.uint8)
        assert noise.apply_spam(samples, rng).sum() == 0

    def test_spam_does_not_mutate_input(self):
        noise = NoiseModel(detection_epsilon=0.5)
        samples = np.zeros((10, 2), dtype=np.uint8)
        noise.apply_spam(samples, np.random.default_rng(0))
        assert samples.sum() == 0

    def test_draw_realization_statistics(self):
        noise = NoiseModel(amplitude_rel_std=0.1, detuning_std=0.5)
        rng = np.random.default_rng(0)
        scales, offsets = zip(*(noise.draw_realization(rng) for _ in range(2000)), strict=True)
        assert np.mean(scales) == pytest.approx(1.0, abs=0.02)
        assert np.std(offsets) == pytest.approx(0.5, abs=0.05)

    def test_scale_never_negative(self):
        noise = NoiseModel(amplitude_rel_std=5.0)  # absurdly noisy
        rng = np.random.default_rng(0)
        assert all(noise.draw_realization(rng)[0] >= 0.0 for _ in range(500))

    def test_scaled_degradation(self):
        base = NoiseModel(detection_epsilon=0.01, amplitude_rel_std=0.02)
        worse = base.scaled(3.0)
        assert worse.detection_epsilon == pytest.approx(0.03)
        assert worse.amplitude_rel_std == pytest.approx(0.06)
        capped = base.scaled(1000.0)
        assert capped.detection_epsilon == 1.0


class TestWaveformProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_ramp_integral_analytic(self, duration, start, stop):
        from repro.qpu import RampWaveform

        wf = RampWaveform(duration, start, stop)
        assert wf.integral() == pytest.approx(0.5 * (start + stop) * duration, rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.2, max_value=4.0), st.floats(min_value=0.1, max_value=10.0))
    def test_blackman_area_invariant_under_dt(self, duration, area):
        from repro.qpu import BlackmanWaveform

        wf = BlackmanWaveform(duration, area)
        for dt in (duration / 37, duration / 113):
            n = max(1, round(duration / dt))
            step = duration / n
            discrete = wf.samples(step).sum() * step
            assert discrete == pytest.approx(area, rel=1e-9)
