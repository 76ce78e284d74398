import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from chordfuse.audio import (
    _BLOCK_FRAMES,
    _median_filter,
    C2_HZ,
    SAMPLE_RATE,
    Spectrogram,
    Waveform,
    beat_track,
    chroma_from_cqt,
    cqt,
    hpss,
    load_wav,
    read_beat_grid,
    stft,
    write_wav,
)
from chordfuse.errors import (
    IncompatibleBinLayout,
    NyquistExceeded,
    SignalTooShort,
    TooSmall,
    UnsupportedEncoding,
)
from conftest import chord_tone_audio, click_track, sine_wave


def _cqt_reference(w, f_min=C2_HZ, bins_per_octave=12, n_bins=60, hop=1024, filter_scale=2.0):
    """One complex kernel per bin over a frames x longest-window view."""
    x = np.asarray(w.samples, dtype=np.float64)
    sr = w.sample_rate
    freqs = f_min * 2.0 ** (np.arange(n_bins) / bins_per_octave)
    q = filter_scale / (2.0 ** (1.0 / bins_per_octave) - 1.0)
    lengths = np.ceil(q * sr / freqs).astype(int)
    n_max = int(lengths[0])
    if len(x) < n_max:
        x = np.concatenate([x, np.zeros(n_max - len(x))])
    frames = sliding_window_view(x, n_max)[::hop]
    mags = np.empty((frames.shape[0], n_bins))
    for k in range(n_bins):
        n_k = int(lengths[k])
        n = np.arange(n_k)
        cycles = freqs[k] * n_k / sr
        kernel = np.hanning(n_k) * np.exp(-2j * np.pi * cycles * n / n_k) / n_k
        mags[:, k] = np.abs(frames[:, :n_k] @ kernel)
    return mags


def _median_filter_reference(x, size, axis):
    pad = size // 2
    widths = [(0, 0), (0, 0)]
    widths[axis] = (pad, pad)
    padded = np.pad(x, widths, mode="edge")
    return np.median(sliding_window_view(padded, size, axis=axis), axis=-1)


def _hpss_reference(mags, kernel=17, power=2.0):
    h_pow = _median_filter_reference(mags, kernel, 0) ** power
    p_pow = _median_filter_reference(mags, kernel, 1) ** power
    total = h_pow + p_pow
    h_mask = np.full_like(mags, 0.5)
    p_mask = np.full_like(mags, 0.5)
    np.divide(h_pow, total, out=h_mask, where=total > 0)
    np.divide(p_pow, total, out=p_mask, where=total > 0)
    return mags * h_mask, mags * p_mask


def _noisy_chord(n_samples, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / SAMPLE_RATE
    tone = sum(np.sin(2 * np.pi * f * t) for f in (130.81, 164.81, 196.0))
    return Waveform(0.2 * tone + 0.1 * rng.standard_normal(n_samples), SAMPLE_RATE)


def _longest_window(bins_per_octave=12, f_min=C2_HZ):
    q = 2.0 / (2.0 ** (1.0 / bins_per_octave) - 1.0)
    return int(np.ceil(q * SAMPLE_RATE / f_min))


class TestLoadWav:
    def test_resamples_to_22050(self, tmp_path):
        wav = sine_wave(440.0, 1.0, sr=44100)
        path = tmp_path / "a4.wav"
        write_wav(wav, path)
        loaded = load_wav(path)
        assert loaded.sample_rate == SAMPLE_RATE
        assert len(loaded.samples) == 22050

    def test_silence(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(Waveform(np.zeros(1000), SAMPLE_RATE), path)
        assert np.all(load_wav(path).samples == 0)

    def test_16_bit_scaling(self, tmp_path):
        import wave

        path = tmp_path / "max.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(2)
            handle.setframerate(SAMPLE_RATE)
            handle.writeframes(np.array([32767, -32768], dtype="<i2").tobytes())
        loaded = load_wav(path)
        assert loaded.samples[0] == pytest.approx(32767 / 32768, abs=1e-9)
        assert loaded.samples[1] == pytest.approx(-1.0, abs=1e-9)

    def test_stereo_averaged(self, tmp_path):
        import wave

        path = tmp_path / "stereo.wav"
        left = np.full(100, 8000, dtype="<i2")
        right = np.full(100, -8000, dtype="<i2")
        inter = np.empty(200, dtype="<i2")
        inter[0::2], inter[1::2] = left, right
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(2)
            handle.setsampwidth(2)
            handle.setframerate(SAMPLE_RATE)
            handle.writeframes(inter.tobytes())
        assert np.allclose(load_wav(path).samples, 0.0)

    def test_rejects_8_bit(self, tmp_path):
        import wave

        path = tmp_path / "byte.wav"
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(1)
            handle.setframerate(SAMPLE_RATE)
            handle.writeframes(bytes(100))
        with pytest.raises(UnsupportedEncoding):
            load_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_wav(tmp_path / "nope.wav")


class TestStft:
    def test_peak_at_signal_frequency(self):
        spec = stft(sine_wave(440.0, 1.0), 2048, 512)
        peaks = spec.bin_frequencies[np.argmax(spec.magnitudes, axis=1)]
        assert np.all(np.abs(peaks - 440.0) < SAMPLE_RATE / 2048 + 1e-9)

    def test_zero_signal_zero_magnitudes(self):
        spec = stft(Waveform(np.zeros(8192), SAMPLE_RATE), 2048, 512)
        assert np.all(spec.magnitudes == 0)

    def test_frame_count(self):
        spec = stft(Waveform(np.zeros(10000), SAMPLE_RATE), 2048, 512)
        assert spec.n_frames == (10000 - 2048) // 512 + 1

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            stft(Waveform(np.zeros(100), SAMPLE_RATE), 2048, 512)

    def test_two_tone_halves(self):
        # 3 Hz for the first five seconds, then 9 Hz, at a 100 Hz rate.
        sr = 100
        t = np.arange(500) / sr
        first = np.sin(2 * np.pi * 3 * t)
        second = np.sin(2 * np.pi * 9 * t)
        spec = stft(Waveform(np.concatenate([first, second]), sr), 200, 200)
        bin3 = int(round(3 * 200 / sr))
        bin9 = int(round(9 * 200 / sr))
        early = spec.magnitudes[0]
        late = spec.magnitudes[-1]
        assert early[bin3] > 10 * early[bin9]
        assert late[bin9] > 10 * late[bin3]

    def test_energy_sanity(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(4096) * 0.2
        spec = stft(Waveform(x, SAMPLE_RATE), 1024, 1024)
        window = np.hanning(1024)
        for i in range(spec.n_frames):
            frame = x[i * 1024 : i * 1024 + 1024] * window
            expected = np.sum(frame**2)
            full = np.abs(np.fft.fft(frame)) ** 2
            assert np.sum(full) / 1024 == pytest.approx(expected, rel=0.01)


class TestCqt:
    def test_octave_doubling(self):
        spec = cqt(sine_wave(130.8, 2.0), f_min=65.4, bins_per_octave=12, n_bins=24)
        assert spec.bin_frequencies[12] == pytest.approx(130.8)

    def test_bin_ratio_exact(self):
        spec = cqt(sine_wave(100.0, 1.0), n_bins=36)
        ratios = spec.bin_frequencies[1:] / spec.bin_frequencies[:-1]
        assert np.allclose(ratios, 2 ** (1 / 12), rtol=0, atol=1e-12)

    def test_a4_peak(self):
        spec = cqt(sine_wave(440.0, 2.0))
        target = np.argmin(np.abs(spec.bin_frequencies - 440.0))
        assert np.all(np.argmax(spec.magnitudes, axis=1) == target)

    def test_zero_signal(self):
        spec = cqt(Waveform(np.zeros(SAMPLE_RATE), SAMPLE_RATE))
        assert np.allclose(spec.magnitudes, 0.0)

    def test_nyquist_guard(self):
        with pytest.raises(NyquistExceeded):
            cqt(sine_wave(440.0, 1.0), f_min=4000.0, n_bins=24)

    @pytest.mark.parametrize("hop", [256, 1024, 333])
    def test_matches_per_bin_reference_by_hop(self, hop):
        w = _noisy_chord(3 * SAMPLE_RATE)
        np.testing.assert_allclose(
            cqt(w, hop=hop).magnitudes, _cqt_reference(w, hop=hop), rtol=1e-9, atol=0
        )

    @pytest.mark.parametrize("bins_per_octave", [12, 24])
    @pytest.mark.parametrize("n_bins", [60, 24, 37])
    def test_matches_per_bin_reference_by_layout(self, n_bins, bins_per_octave):
        w = _noisy_chord(2 * SAMPLE_RATE, seed=1)
        kw = dict(n_bins=n_bins, bins_per_octave=bins_per_octave, hop=512)
        np.testing.assert_allclose(
            cqt(w, **kw).magnitudes, _cqt_reference(w, **kw), rtol=1e-9, atol=0
        )

    def test_matches_reference_shorter_than_longest_window(self):
        w = _noisy_chord(_longest_window() // 3, seed=2)
        spec = cqt(w, hop=256)
        assert spec.n_frames == 1
        np.testing.assert_allclose(spec.magnitudes, _cqt_reference(w, hop=256), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n_frames", [_BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1])
    def test_matches_reference_around_block_size(self, n_frames):
        w = _noisy_chord(_longest_window() + (n_frames - 1) * 256, seed=3)
        spec = cqt(w, hop=256)
        assert spec.n_frames == n_frames
        np.testing.assert_allclose(spec.magnitudes, _cqt_reference(w, hop=256), rtol=1e-9, atol=0)


class TestChroma:
    def test_pure_tone_concentrates(self):
        spec = cqt(sine_wave(C2_HZ, 2.0))
        chroma = chroma_from_cqt(spec)
        assert np.all(np.argmax(chroma.vectors, axis=1) == 0)

    def test_triad_mass(self):
        wav = chord_tone_audio([[48, 52, 55]], 2.0)  # C3, E3, G3
        chroma = chroma_from_cqt(cqt(wav))
        mean = chroma.vectors.mean(axis=0)
        assert set(np.argsort(mean)[-3:]) == {0, 4, 7}
        assert mean[[0, 4, 7]].sum() > 0.4

    def test_zero_spectrogram_zero_chroma(self):
        chroma = chroma_from_cqt(cqt(Waveform(np.zeros(SAMPLE_RATE), SAMPLE_RATE)))
        assert np.allclose(chroma.vectors, 0.0)

    def test_rows_normalized_or_zero(self):
        wav = chord_tone_audio([[48, 52, 55], []], 1.0)
        chroma = chroma_from_cqt(cqt(wav))
        sums = chroma.vectors.sum(axis=1)
        assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))

    def test_semitone_shift_rotates_chroma(self):
        for k in (1, 3, 7):
            base = chroma_from_cqt(cqt(chord_tone_audio([[48, 52, 55]], 2.0)))
            shifted = chroma_from_cqt(
                cqt(chord_tone_audio([[48 + k, 52 + k, 55 + k]], 2.0))
            )
            rotated = np.roll(base.vectors, k, axis=1)
            n = min(len(rotated), len(shifted.vectors))
            for a, b in zip(rotated[:n], shifted.vectors[:n]):
                na, nb = np.linalg.norm(a), np.linalg.norm(b)
                if na > 1e-9 and nb > 1e-9:
                    assert 1 - np.dot(a, b) / (na * nb) < 0.1

    def test_incompatible_layout(self):
        spec = Spectrogram(np.zeros((4, 3)), 512, np.array([100.0, 150.0, 190.0]))
        with pytest.raises(IncompatibleBinLayout):
            chroma_from_cqt(spec)


class TestHpss:
    def test_steady_tone_is_harmonic(self):
        spec = stft(sine_wave(440.0, 3.0), 2048, 512)
        harmonic, percussive = hpss(spec)
        total = spec.magnitudes.sum()
        assert harmonic.magnitudes.sum() / total > 0.9

    def test_click_is_percussive(self):
        samples = np.zeros(SAMPLE_RATE)
        samples[SAMPLE_RATE // 2 : SAMPLE_RATE // 2 + 64] = 0.9
        spec = stft(Waveform(samples, SAMPLE_RATE), 2048, 512)
        harmonic, percussive = hpss(spec)
        assert percussive.magnitudes.sum() / spec.magnitudes.sum() > 0.9

    def test_zero_input(self):
        spec = stft(Waveform(np.zeros(8192), SAMPLE_RATE), 2048, 512)
        harmonic, percussive = hpss(spec)
        assert np.all(harmonic.magnitudes == 0)
        assert np.all(percussive.magnitudes == 0)

    def test_masks_partition_energy(self):
        wav = chord_tone_audio([[48, 52, 55]], 1.0, click_period=0.25)
        spec = stft(wav, 2048, 512)
        harmonic, percussive = hpss(spec)
        assert np.allclose(
            harmonic.magnitudes + percussive.magnitudes, spec.magnitudes, atol=1e-9
        )

    def test_too_small(self):
        with pytest.raises(TooSmall):
            hpss(Spectrogram(np.zeros((2, 5)), 512, np.arange(5) + 1.0))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            hpss(Spectrogram(np.ones((20, 5)), 512, np.arange(5) + 1.0), kernel=16)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("size", [1, 5, 17])
    @pytest.mark.parametrize("n_rows", [3, 16, _BLOCK_FRAMES, _BLOCK_FRAMES + 9, 600])
    def test_median_filter_matches_np_median(self, n_rows, size, axis):
        # Few distinct values, so windows hold ties.
        x = np.random.default_rng(n_rows).integers(0, 6, size=(n_rows, 23)) / 4.0
        expected = _median_filter_reference(x, size, axis)
        assert np.array_equal(_median_filter(x, size, axis, 0, n_rows), expected)
        for r0 in range(0, n_rows, _BLOCK_FRAMES):
            r1 = min(r0 + _BLOCK_FRAMES, n_rows)
            assert np.array_equal(_median_filter(x, size, axis, r0, r1), expected[r0:r1])

    @pytest.mark.parametrize("n_frames", [3, 10, _BLOCK_FRAMES + 1, 700])
    def test_matches_unblocked_reference(self, n_frames):
        rng = np.random.default_rng(n_frames)
        mags = rng.exponential(size=(n_frames, 40))
        mags[rng.random(mags.shape) < 0.3] = 0.0
        harmonic, percussive = hpss(Spectrogram(mags, 512, np.arange(40) + 1.0))
        h_ref, p_ref = _hpss_reference(mags)
        assert np.array_equal(harmonic.magnitudes, h_ref)
        assert np.array_equal(percussive.magnitudes, p_ref)

    def test_matches_unblocked_reference_on_stft(self):
        spec = stft(chord_tone_audio([[48, 52, 55], [53, 57, 60]], 4.0, click_period=0.25))
        harmonic, percussive = hpss(spec)
        h_ref, p_ref = _hpss_reference(spec.magnitudes)
        assert np.array_equal(harmonic.magnitudes, h_ref)
        assert np.array_equal(percussive.magnitudes, p_ref)


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_front_end_memory_is_bounded_on_a_minute_of_audio():
    # Unblocked, these took 889 MB and 747 MB: frames x window and
    # frames x bins x kernel copies.
    w = Waveform(np.random.default_rng(0).standard_normal(60 * SAMPLE_RATE) * 0.2)
    assert _traced_peak_mb(lambda: cqt(w, hop=256)) < 64
    spec = stft(w)
    assert _traced_peak_mb(lambda: hpss(spec)) < 128


class TestBeatTrack:
    def test_120_bpm_clicks(self):
        grid = beat_track(click_track(120.0, 10.0))
        intervals = np.diff(grid.times)
        assert len(intervals) > 5
        assert abs(np.median(intervals) - 0.5) / 0.5 < 0.03

    def test_90_bpm_tempo(self):
        grid = beat_track(click_track(90.0, 10.0))
        tempo = 60.0 / np.median(np.diff(grid.times))
        assert 87.0 <= tempo <= 93.0

    def test_silence_fallback(self):
        grid = beat_track(Waveform(np.zeros(6 * SAMPLE_RATE), SAMPLE_RATE))
        intervals = np.diff(grid.times)
        assert np.allclose(intervals, 0.5)

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            beat_track(Waveform(np.zeros(SAMPLE_RATE), SAMPLE_RATE))

    def test_deterministic(self):
        wav = click_track(100.0, 8.0)
        assert beat_track(wav).times == beat_track(wav).times


class TestBeatGridFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "beats.txt"
        path.write_text("0.0\n0.5\n1.0\n\n1.5\n")
        grid = read_beat_grid(path)
        assert grid.times == (0.0, 0.5, 1.0, 1.5)
