"""Waveform ingestion and the audio feature stack.

Covers 16-bit PCM WAV loading, short-time Fourier and constant-Q
transforms, pitch-class (chroma) folding, harmonic/percussive separation
by median filtering, and a deterministic dynamic-programming beat tracker.
All analysis runs at a fixed 22050 Hz sample rate.
"""

from __future__ import annotations

import math
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .annotations import BeatGrid
from .errors import (
    IncompatibleBinLayout,
    NyquistExceeded,
    SignalTooShort,
    TooSmall,
    UnsupportedEncoding,
)

SAMPLE_RATE = 22050

# Default constant-Q layout: five octaves upward from C2, one bin per semitone.
C2_HZ = 440.0 * 2.0 ** ((36 - 69) / 12)
DEFAULT_BINS_PER_OCTAVE = 12
DEFAULT_N_BINS = 60

_C0_HZ = 440.0 * 2.0 ** ((12 - 69) / 12)

# Frames per block in ``cqt`` and ``hpss``: bounds their working memory
# independently of the signal's length.
_BLOCK_FRAMES = 256


@dataclass(frozen=True)
class Waveform:
    """A mono signal in [-1, 1] at a known sample rate."""

    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class Spectrogram:
    """Non-negative magnitudes per (frame, bin), with the analysis geometry."""

    magnitudes: np.ndarray
    hop: int
    bin_frequencies: np.ndarray
    sample_rate: int = SAMPLE_RATE

    @property
    def frame_period(self) -> float:
        return self.hop / self.sample_rate

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[0]


@dataclass(frozen=True)
class ChromaSequence:
    """Per-frame 12-dimensional pitch-class energy, L1-normalized or zero."""

    vectors: np.ndarray
    frame_period: float


def load_wav(path) -> Waveform:
    """Load a RIFF/WAVE PCM16 file as mono at 22050 Hz.

    Stereo channels are averaged; other sample rates are resampled by
    linear interpolation.

    Raises
    ------
    UnsupportedEncoding
        For non-PCM data, sample widths other than 16 bits, or more than
        two channels.
    OSError
        If the file cannot be read.
    """
    try:
        with wave.open(str(path), "rb") as handle:
            n_channels = handle.getnchannels()
            width = handle.getsampwidth()
            rate = handle.getframerate()
            n_frames = handle.getnframes()
            if n_channels not in (1, 2):
                raise UnsupportedEncoding(f"expected 1 or 2 channels, got {n_channels}")
            if width != 2:
                raise UnsupportedEncoding(f"expected 16-bit samples, got {8 * width}-bit")
            raw = handle.readframes(n_frames)
    except wave.Error as exc:
        raise UnsupportedEncoding(str(exc)) from exc
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if n_channels == 2:
        data = data.reshape(-1, 2).mean(axis=1)
    if rate != SAMPLE_RATE and len(data) > 0:
        n_out = round(len(data) * SAMPLE_RATE / rate)
        src_t = np.arange(len(data)) / rate
        dst_t = np.arange(n_out) / SAMPLE_RATE
        data = np.interp(dst_t, src_t, data)
    return Waveform(data, SAMPLE_RATE)


def write_wav(w: Waveform, path) -> None:
    """Write a waveform as 16-bit PCM (test fixtures and demos)."""
    clipped = np.clip(w.samples, -1.0, 1.0)
    ints = (clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(w.sample_rate)
        handle.writeframes(ints.tobytes())


def stft(w: Waveform, window_size: int = 2048, hop: int = 512) -> Spectrogram:
    """Hann-windowed short-time Fourier magnitudes.

    Frames are anchored at multiples of ``hop``; the frame count is
    ``floor((len - window_size) / hop) + 1``.
    """
    if window_size <= 0 or hop <= 0:
        raise ValueError("window_size and hop must be positive")
    x = np.asarray(w.samples, dtype=np.float64)
    if len(x) < window_size:
        raise SignalTooShort(f"signal of {len(x)} samples is shorter than the window")
    frames = sliding_window_view(x, window_size)[::hop]
    window = np.hanning(window_size)
    mags = np.abs(np.fft.rfft(frames * window, axis=1))
    freqs = np.fft.rfftfreq(window_size, d=1.0 / w.sample_rate)
    return Spectrogram(mags, hop, freqs, w.sample_rate)


def cqt(
    w: Waveform,
    f_min: float = C2_HZ,
    bins_per_octave: int = DEFAULT_BINS_PER_OCTAVE,
    n_bins: int = DEFAULT_N_BINS,
    hop: int = 1024,
    filter_scale: float = 2.0,
) -> Spectrogram:
    """Constant-Q magnitudes with log-spaced bins.

    Bin ``k`` is centered at ``f_min * 2**(k / bins_per_octave)`` and
    analyzed with a Hann window whose length shrinks in inverse proportion
    to frequency; each coefficient is normalized by its window length.
    ``filter_scale`` multiplies the classic ``Q * sr / f_k`` window length;
    the default of 2 keeps adjacent-semitone leakage out of the Hann main
    lobe, which tonal cosine distances downstream rely on.

    Every window starts at its frame's first sample.  Each octave's
    complex kernels become one real matrix: the real and imaginary parts
    of every kernel, zero-padded to the octave's longest window, one
    column each.  Blocks of ``_BLOCK_FRAMES`` frames are copied out of the
    signal into one reused buffer and multiplied by each octave's matrix
    in one matmul, and the magnitudes come from ``np.hypot``.  Working
    memory is one block of frames times the longest window, whatever the
    signal's length.
    """
    if f_min <= 0 or bins_per_octave < 1 or n_bins < 1 or hop <= 0 or filter_scale <= 0:
        raise ValueError("bad constant-Q parameters")
    x = np.asarray(w.samples, dtype=np.float64)
    sr = w.sample_rate
    freqs = f_min * 2.0 ** (np.arange(n_bins) / bins_per_octave)
    if freqs[-1] >= sr / 2:
        raise NyquistExceeded(
            f"highest filter at {freqs[-1]:.1f} Hz exceeds Nyquist {sr / 2:.1f} Hz"
        )
    q = filter_scale / (2.0 ** (1.0 / bins_per_octave) - 1.0)
    lengths = np.ceil(q * sr / freqs).astype(int)
    n_max = int(lengths[0])
    if len(x) < n_max:
        x = np.concatenate([x, np.zeros(n_max - len(x))])
    octaves = []
    for lo in range(0, n_bins, bins_per_octave):
        hi = min(lo + bins_per_octave, n_bins)
        kernels = np.zeros((int(lengths[lo]), 2 * (hi - lo)))
        for j, k in enumerate(range(lo, hi)):
            n_k = int(lengths[k])
            n = np.arange(n_k)
            cycles = freqs[k] * n_k / sr
            kernel = np.hanning(n_k) * np.exp(-2j * np.pi * cycles * n / n_k) / n_k
            kernels[:n_k, j] = kernel.real
            kernels[:n_k, hi - lo + j] = kernel.imag
        octaves.append((lo, hi, kernels))
    frames = sliding_window_view(x, n_max)[::hop]
    mags = np.empty((frames.shape[0], n_bins))
    buffer = np.empty((min(_BLOCK_FRAMES, frames.shape[0]), n_max))
    for start in range(0, frames.shape[0], _BLOCK_FRAMES):
        out = mags[start : start + _BLOCK_FRAMES]
        block = buffer[: len(out)]
        block[:] = frames[start : start + len(out)]
        for lo, hi, kernels in octaves:
            parts = block[:, : kernels.shape[0]] @ kernels
            out[:, lo:hi] = np.hypot(parts[:, : hi - lo], parts[:, hi - lo :])
    return Spectrogram(mags, hop, freqs, sr)


def chroma_from_cqt(s: Spectrogram) -> ChromaSequence:
    """Fold constant-Q bins onto the 12 pitch classes and L1-normalize.

    Raises
    ------
    IncompatibleBinLayout
        If the bins are not log-spaced with a multiple of 12 per octave.
    """
    freqs = np.asarray(s.bin_frequencies, dtype=np.float64)
    if len(freqs) < 2:
        raise IncompatibleBinLayout("need at least two bins to infer the layout")
    steps = 12.0 * np.log2(freqs[1:] / freqs[:-1])
    if not np.allclose(steps, steps[0], atol=1e-6):
        raise IncompatibleBinLayout("bins are not uniformly log-spaced")
    per_semitone = 1.0 / steps[0]
    if abs(per_semitone - round(per_semitone)) > 1e-6 or round(per_semitone) < 1:
        raise IncompatibleBinLayout(
            f"{1 / per_semitone:.4f} semitones per bin cannot fold onto pitch classes"
        )
    per_semitone = int(round(per_semitone))
    base_pc = int(round(12.0 * math.log2(freqs[0] / _C0_HZ))) % 12
    pcs = (base_pc + np.arange(len(freqs)) // per_semitone) % 12
    vectors = np.zeros((s.n_frames, 12))
    for pc in range(12):
        cols = np.flatnonzero(pcs == pc)
        if len(cols):
            vectors[:, pc] = s.magnitudes[:, cols].sum(axis=1)
    norms = vectors.sum(axis=1, keepdims=True)
    np.divide(vectors, norms, out=vectors, where=norms > 0)
    return ChromaSequence(vectors, s.frame_period)


def _median_filter(x: np.ndarray, size: int, axis: int, r0: int, r1: int) -> np.ndarray:
    """Rows ``r0:r1`` of the edge-padded median filter of a 2-D array.

    The filter spans ``size`` (odd) cells along ``axis``.  Along the time
    axis (0) the rows read a ``size // 2`` halo on each side, clamped to
    the edge rows, so a block of rows needs memory for that block times
    ``size`` windows only.  The median is the one middle element that
    ``np.partition`` selects, the same value ``np.median`` returns.
    """
    half = size // 2
    if axis == 0:
        rows = np.clip(np.arange(r0 - half, r1 + half), 0, len(x) - 1)
        windows = sliding_window_view(x[rows], size, axis=0)
    else:
        padded = np.pad(x[r0:r1], ((0, 0), (half, half)), mode="edge")
        windows = sliding_window_view(padded, size, axis=1)
    return np.partition(windows, half, axis=-1)[..., half]


def hpss(s: Spectrogram, kernel: int = 17, power: float = 2.0) -> tuple[Spectrogram, Spectrogram]:
    """Split a spectrogram into harmonic and percussive parts.

    Harmonic content is enhanced by median filtering across time,
    percussive content across frequency; soft masks raise the enhanced
    magnitudes to ``power`` and sum to one per cell.  Both filters and
    both masks are computed per block of ``_BLOCK_FRAMES`` frames, so
    beyond the two outputs memory is one block times ``kernel`` windows.

    Raises
    ------
    TooSmall
        With fewer than 3 frames or 3 bins.
    ValueError
        If ``kernel`` is not a positive odd number.
    """
    mags = s.magnitudes
    if mags.shape[0] < 3 or mags.shape[1] < 3:
        raise TooSmall("need at least 3 frames and 3 bins")
    if kernel < 1 or kernel % 2 == 0:
        raise ValueError(f"median kernel must be a positive odd number, got {kernel}")
    harmonic = np.empty_like(mags)
    percussive = np.empty_like(mags)
    for r0 in range(0, len(mags), _BLOCK_FRAMES):
        r1 = min(r0 + _BLOCK_FRAMES, len(mags))
        rows = mags[r0:r1]
        h_pow = _median_filter(mags, kernel, 0, r0, r1) ** power
        p_pow = _median_filter(mags, kernel, 1, r0, r1) ** power
        total = h_pow + p_pow
        h_mask = np.full_like(rows, 0.5)
        p_mask = np.full_like(rows, 0.5)
        np.divide(h_pow, total, out=h_mask, where=total > 0)
        np.divide(p_pow, total, out=p_mask, where=total > 0)
        np.multiply(rows, h_mask, out=harmonic[r0:r1])
        np.multiply(rows, p_mask, out=percussive[r0:r1])
    make = lambda m: Spectrogram(m, s.hop, s.bin_frequencies, s.sample_rate)
    return make(harmonic), make(percussive)


def onset_envelope(s: Spectrogram) -> np.ndarray:
    """Half-wave-rectified spectral flux, one value per frame."""
    flux = np.diff(s.magnitudes, axis=0)
    env = np.maximum(flux, 0.0).sum(axis=1)
    return np.concatenate([[0.0], env])


def _estimate_tempo_lag(env: np.ndarray, frame_rate: float) -> int:
    """Autocorrelation peak of the onset envelope in the 60..200 BPM window.

    A log-Gaussian weighting centered at 120 BPM breaks octave ambiguities
    toward the mid-tempo interpretation.
    """
    lo = max(1, int(round(frame_rate * 60.0 / 200.0)))
    hi = min(len(env) - 1, int(round(frame_rate * 60.0 / 60.0)))
    if hi <= lo:
        return max(1, int(round(frame_rate * 0.5)))
    lags = np.arange(lo, hi + 1)
    ac = np.array([np.dot(env[lag:], env[:-lag]) for lag in lags])
    bpm = 60.0 * frame_rate / lags
    prior = np.exp(-0.5 * (np.log2(bpm / 120.0)) ** 2)
    return lo + int(np.argmax(ac * prior))


def _uniform_grid(duration: float, bpm: float = 120.0) -> BeatGrid:
    period = 60.0 / bpm
    n = max(2, int(duration / period))
    return BeatGrid(tuple(i * period for i in range(n)))


def beat_track(
    w: Waveform, window_size: int = 2048, hop: int = 512, tightness: float = 100.0
) -> BeatGrid:
    """Place beats on the percussive part by dynamic programming.

    The global tempo comes from the autocorrelation peak of the onset
    envelope between 60 and 200 BPM; beats then maximize onset strength
    plus a regularity reward around that tempo.  Silence falls back to a
    uniform 120 BPM grid.  Deterministic for a given input.
    """
    if w.duration < 5.0:
        raise SignalTooShort(f"need at least 5 s of audio, got {w.duration:.2f} s")
    spec = stft(w, window_size, hop)
    _, perc = hpss(spec)
    env = onset_envelope(perc)
    peak = env.max()
    if peak <= 1e-10:
        return _uniform_grid(w.duration)
    env = env / peak
    # Light smoothing so one-frame onset jitter cannot defeat the
    # autocorrelation at the true beat period.
    smooth = np.hanning(5)
    env = np.convolve(env, smooth / smooth.sum(), mode="same")
    frame_rate = w.sample_rate / hop
    period = _estimate_tempo_lag(env, frame_rate)

    n = len(env)
    score = env.copy()
    backlink = np.full(n, -1, dtype=int)
    window_lo = max(1, int(round(period / 2)))
    window_hi = int(round(period * 2))
    for m in range(window_lo, n):
        lo = max(0, m - window_hi)
        hi = m - window_lo + 1
        if hi <= lo:
            continue
        prev = np.arange(lo, hi)
        penalty = tightness * np.log((m - prev) / period) ** 2
        candidates = score[lo:hi] - penalty
        best = int(np.argmax(candidates))
        if candidates[best] > 0:
            score[m] = env[m] + candidates[best]
            backlink[m] = lo + best
    tail_lo = max(0, n - 2 * period)
    end = tail_lo + int(np.argmax(score[tail_lo:]))
    beats = [end]
    while backlink[beats[-1]] >= 0:
        beats.append(backlink[beats[-1]])
    beats.reverse()
    times = (np.array(beats) * hop + window_size / 2) / w.sample_rate
    if len(times) < 2:
        return _uniform_grid(w.duration)
    return BeatGrid(tuple(float(t) for t in times))


def read_beat_grid(path) -> BeatGrid:
    """Read an override beat grid: one beat time in seconds per line."""
    times = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if line:
                times.append(float(line))
    return BeatGrid(tuple(times))
