"""Pinned counts: the exact results of seeded emu-sv runs.

The kernel may be restructured freely, but its results must stay the
same bit for bit for a seed: the same RNG draws in the same order, and
probabilities equal to well below the resolution of a multinomial draw.
The pinned dicts also fix the key order of the returned counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulators import NoiseModel, StateVectorEmulator
from repro.emulators.sampling import counts_from_samples
from repro.qpu import (
    CompositeWaveform,
    ConstantWaveform,
    DriveSegment,
    QPUDevice,
    RampWaveform,
    Register,
    RydbergHamiltonian,
)

#: (atoms, spacing um, peak omega rad/us, detuning sweep rad/us, shots):
#: the shared-QPU catalog shape, 2-5 atoms cycling
_CATALOG = [
    (2, 6.1, 7.3, 4.4, 50),
    (3, 5.6, 9.2, 2.7, 100),
    (4, 7.2, 4.8, 5.1, 150),
    (5, 6.6, 6.0, 3.3, 200),
    (2, 7.4, 5.5, 2.2, 200),
    (3, 6.9, 8.1, 5.8, 150),
    (4, 5.8, 9.7, 3.9, 100),
    (5, 7.0, 4.2, 4.6, 50),
]


def _sweep(n: int, spacing: float, omega: float, delta: float, duration: float = 0.32):
    """Drive ramps up, holds, ramps down while detuning sweeps -delta ->
    +delta; at dt = 0.01 us a 0.32 us program is 32 Strang steps."""
    quarter = duration / 4.0
    amplitude = CompositeWaveform(
        RampWaveform(quarter, 0.0, omega),
        ConstantWaveform(2 * quarter, omega),
        RampWaveform(quarter, omega, 0.0),
    )
    detuning = CompositeWaveform(
        ConstantWaveform(quarter, -delta),
        RampWaveform(2 * quarter, -delta, delta),
        ConstantWaveform(quarter, delta),
    )
    return Register.chain(n, spacing=spacing), [DriveSegment(amplitude, detuning)]


def catalog_counts() -> list[dict[str, int]]:
    """Every catalog program run once, in order, on one seeded device
    under its calibration noise (coherent noise plus SPAM)."""
    device = QPUDevice(rng=np.random.default_rng(3))
    results = []
    for n, spacing, omega, delta, shots in _CATALOG:
        register, segments = _sweep(n, spacing, omega, delta)
        results.append(device.run_now(register, segments, shots).counts)
    return results


def noiseless_counts() -> dict[str, int]:
    """One noiseless 10-qubit emu-sv job (three drive groups)."""
    register, segments = _sweep(10, 7.5, 6.0, 5.0, duration=0.4)
    ham = RydbergHamiltonian(register, segments, dt=0.01)
    return StateVectorEmulator().run(ham, 300, np.random.default_rng(11)).counts


#: coherent noise plus SPAM, for the phased programs
_PHASED_NOISE = NoiseModel(
    state_prep_error=0.02,
    detection_epsilon=0.03,
    detection_epsilon_prime=0.05,
    amplitude_rel_std=0.05,
    detuning_std=0.4,
)


def _phased(n: int, spacing: float, omega: float, delta: float):
    """Three segments whose drive phases switch 0.4 -> -0.8 -> 1.1 rad:
    ramp up at -delta, hold while the detuning sweeps, ramp down at
    +delta; 8 + 16 + 8 = 32 Strang steps at dt = 0.01 us."""
    return Register.chain(n, spacing=spacing), [
        DriveSegment(RampWaveform(0.08, 0.0, omega), ConstantWaveform(0.08, -delta), phase=0.4),
        DriveSegment(ConstantWaveform(0.16, omega), RampWaveform(0.16, -delta, delta), phase=-0.8),
        DriveSegment(RampWaveform(0.08, omega, 0.0), ConstantWaveform(0.08, delta), phase=1.1),
    ]


def phased_counts(n: int, spacing: float, omega: float, delta: float, seed: int) -> dict[str, int]:
    """One 200-shot phased job under coherent noise plus SPAM."""
    ham = RydbergHamiltonian(*_phased(n, spacing, omega, delta), dt=0.01)
    return StateVectorEmulator().run(ham, 200, np.random.default_rng(seed), noise=_PHASED_NOISE).counts


def spam_counts() -> dict[str, int]:
    """One SPAM-only 4-atom job: one evolution, then bit flips."""
    register, segments = _sweep(4, 6.0, 8.0, 4.0)
    ham = RydbergHamiltonian(register, segments, dt=0.01)
    noise = NoiseModel(state_prep_error=0.02, detection_epsilon=0.03, detection_epsilon_prime=0.05)
    return StateVectorEmulator().run(ham, 250, np.random.default_rng(5), noise=noise).counts


GOLDEN_CATALOG = [
    [
        ("00", 9), ("01", 22), ("10", 18), ("11", 1),
    ],
    [
        ("000", 4), ("001", 11), ("010", 27), ("100", 9), ("101", 48), ("110", 1),
    ],
    [
        ("0000", 35), ("0001", 15), ("0010", 25), ("0011", 1), ("0100", 26), ("0101", 6),
        ("0110", 1), ("1000", 17), ("1001", 7), ("1010", 15), ("1011", 1), ("1100", 1),
    ],
    [
        ("00000", 9), ("00001", 11), ("00010", 18), ("00011", 1), ("00100", 24), ("00101", 19),
        ("01000", 18), ("01001", 14), ("01010", 19), ("01011", 1), ("01101", 3), ("10000", 7),
        ("10001", 3), ("10010", 21), ("10011", 1), ("10100", 15), ("10101", 13), ("10110", 2),
        ("10111", 1),
    ],
    [
        ("00", 75), ("01", 56), ("10", 66), ("11", 3),
    ],
    [
        ("000", 5), ("001", 30), ("010", 49), ("100", 26), ("101", 38), ("110", 1), ("111", 1),
    ],
    [
        ("0000", 5), ("0001", 1), ("0010", 6), ("0100", 6), ("0101", 34), ("1000", 2), ("1001", 24),
        ("1010", 21), ("1011", 1),
    ],
    [
        ("00000", 13), ("00001", 4), ("00010", 3), ("00100", 9), ("00101", 2), ("01000", 7),
        ("01010", 2), ("01100", 1), ("10000", 5), ("10001", 2), ("10101", 2),
    ],
]
GOLDEN_NOISELESS = [
    ("0000010100", 1), ("0000110001", 1), ("0001000100", 1), ("0001001010", 1), ("0001010001", 3),
    ("0001010010", 4), ("0001010100", 1), ("0001010101", 1), ("0010000010", 1), ("0010000101", 1),
    ("0010001000", 1), ("0010001010", 3), ("0010010001", 3), ("0010010010", 5), ("0010010100", 3),
    ("0010010101", 3), ("0010100001", 1), ("0010100010", 2), ("0010100100", 3), ("0010100101", 4),
    ("0010101001", 3), ("0010101010", 5), ("0100000101", 1), ("0100001000", 1), ("0100001001", 2),
    ("0100001010", 4), ("0100010001", 1), ("0100010010", 4), ("0100010100", 2), ("0100010101", 8),
    ("0100011001", 1), ("0100100001", 1), ("0100100010", 4), ("0100100100", 6), ("0100100101", 11),
    ("0100100110", 1), ("0100101000", 1), ("0100101001", 7), ("0100101010", 7), ("0100101101", 1),
    ("0101000010", 1), ("0101000100", 2), ("0101000101", 6), ("0101001000", 1), ("0101001001", 1),
    ("0101001010", 7), ("0101010000", 1), ("0101010001", 7), ("0101010010", 7), ("0101010100", 4),
    ("0101010101", 7), ("0101010110", 1), ("0101011001", 1), ("0101011010", 1), ("0110101001", 1),
    ("1000001001", 2), ("1000010010", 2), ("1000010100", 1), ("1000010101", 3), ("1000100010", 3),
    ("1000100101", 2), ("1000100110", 1), ("1000101001", 5), ("1000101010", 3), ("1000110001", 1),
    ("1000110010", 1), ("1000110101", 1), ("1001000001", 1), ("1001000010", 2), ("1001000100", 2),
    ("1001000101", 4), ("1001001001", 7), ("1001001010", 4), ("1001001011", 1), ("1001010001", 2),
    ("1001010010", 5), ("1001010100", 5), ("1001010101", 5), ("1001101001", 1), ("1010001000", 1),
    ("1010001001", 2), ("1010001010", 3), ("1010010001", 4), ("1010010010", 5), ("1010010100", 2),
    ("1010010101", 9), ("1010100001", 2), ("1010100010", 7), ("1010100100", 3), ("1010100101", 10),
    ("1010101000", 1), ("1010101001", 10), ("1010101010", 8), ("1010110101", 1), ("1011001001", 1),
    ("1100001001", 1), ("1101000100", 1), ("1101000101", 1), ("1101001001", 2),
]
GOLDEN_SPAM = [
    ("0000", 5), ("0001", 18), ("0010", 24), ("0011", 2), ("0100", 19), ("0101", 59), ("0111", 2),
    ("1000", 24), ("1001", 38), ("1010", 53), ("1011", 2), ("1100", 1), ("1101", 2), ("1110", 1),
]

#: 3 atoms (one drive group) and 5 atoms (groups of 3 + 2)
GOLDEN_PHASED = {
    (3, 5.8, 8.5, 3.6, 17): [
        ("000", 35), ("001", 39), ("010", 56), ("011", 3), ("100", 42), ("101", 25),
    ],
    (5, 6.4, 7.0, 4.2, 19): [
        ("00000", 40), ("00001", 14), ("00010", 20), ("00011", 2), ("00100", 21), ("00101", 8),
        ("01000", 24), ("01001", 11), ("01010", 10), ("01011", 1), ("01100", 1), ("10000", 12),
        ("10001", 6), ("10010", 12), ("10100", 6), ("10101", 3), ("11000", 3), ("11001", 2),
        ("11100", 4),
    ],
}


@pytest.fixture(scope="module")
def catalog():
    return catalog_counts()


class TestGoldenCounts:
    @pytest.mark.parametrize("index", range(len(_CATALOG)))
    def test_shared_qpu_catalog(self, catalog, index):
        # the programs share one device RNG, so each case depends on
        # every draw of the cases before it
        assert list(catalog[index].items()) == GOLDEN_CATALOG[index]

    def test_noiseless_ten_qubits(self):
        assert list(noiseless_counts().items()) == GOLDEN_NOISELESS

    def test_spam_only(self):
        assert list(spam_counts().items()) == GOLDEN_SPAM

    @pytest.mark.parametrize("case", list(GOLDEN_PHASED))
    def test_switching_drive_phase(self, case):
        # every catalog program has phase 0; these pin the drive phase
        assert list(phased_counts(*case).items()) == GOLDEN_PHASED[case]


def _unique_reference(samples: np.ndarray) -> dict[str, int]:
    """The generic histogram: pack rows to integers, ``np.unique``,
    format each key."""
    n = samples.shape[1]
    if samples.shape[0] == 0:
        return {}
    weights = np.uint64(1) << np.arange(n - 1, -1, -1, dtype=np.uint64)
    keys, counts = np.unique(samples.astype(np.uint64) @ weights, return_counts=True)
    return {format(int(k), f"0{n}b"): int(c) for k, c in zip(keys, counts, strict=True)}


class TestHistogram:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 500), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_matches_unique_reference(self, n, shots, density, seed):
        rng = np.random.default_rng(seed)
        samples = (rng.random((shots, n)) < density).astype(np.uint8)
        got = counts_from_samples(samples)
        expected = _unique_reference(samples)
        assert got == expected
        assert list(got) == list(expected)
