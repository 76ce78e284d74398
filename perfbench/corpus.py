"""Seeded synthetic song corpus for the benchmark.

Each song is a chord progression of whole 4/4 bars at 120 BPM, rendered
as tones with overtones plus a percussive click on every beat.  Beside
the audio it gets a reference ``.lab``, a degraded audio-system ``.lab``
(a contiguous window of ``corrupt_fraction`` of the duration moved up a
semitone), a correct MIDI transcription and optionally a tritone-shifted
wrong one, a correct tab and optionally wrong tabs.  This is the song
shape of the test suite's corpus fixtures, written again here with no
import of test code or of the package, so the inputs change only when
this file does.

One difference from the fixtures: a bar never repeats the previous bar's
chord.  A repeat puts a reference boundary where the audio does not
change, and the number of repeats a seed draws would otherwise swing the
segmentation score from seed to seed by more than any code change.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

SAMPLE_RATE = 22050
SECONDS_PER_BAR = 2.0
BEATS_PER_BAR = 4
PITCH_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
# (root pitch class, is_minor): C, F, G, Am, Dm, E.
PALETTE = ((0, False), (5, False), (7, False), (9, True), (2, True), (4, False))
PARTIALS = ((1, 1.0), (2, 0.5), (3, 0.33), (4, 0.25))


def _transpose(chord, k: int):
    root, is_minor = chord
    return ((root + k) % 12, is_minor)


def _harte(chord) -> str:
    root, is_minor = chord
    return f"{PITCH_NAMES[root]}:{'min' if is_minor else 'maj'}"


def _tab_token(chord) -> str:
    root, is_minor = chord
    return PITCH_NAMES[root] + ("m" if is_minor else "")


def _triad(chord, octave_root: int = 48) -> list[int]:
    root, is_minor = chord
    base = octave_root + root
    return [base, base + (3 if is_minor else 4), base + 7]


def _progression(rng, n_bars: int) -> list:
    """One chord per bar; a bar never repeats the chord before it."""
    chords = [PALETTE[int(rng.integers(0, len(PALETTE)))]]
    while len(chords) < n_bars:
        others = [c for c in PALETTE if c != chords[-1]]
        chords.append(others[int(rng.integers(0, len(others)))])
    return chords


def _lab_text(segments) -> str:
    return "".join(f"{a:.6f} {b:.6f} {_harte(c)}\n" for a, b, c in segments)


def _truth_segments(progression) -> list:
    return [
        (i * SECONDS_PER_BAR, (i + 1) * SECONDS_PER_BAR, chord)
        for i, chord in enumerate(progression)
    ]


def _degraded_segments(truth, fraction: float, rng) -> list:
    """Move a contiguous window covering ``fraction`` of the song up a semitone."""
    total = truth[-1][1] - truth[0][0]
    span = fraction * total
    start_bar = int(rng.integers(0, max(1, len(truth) - int(span / SECONDS_PER_BAR) - 1)))
    lo = truth[0][0] + start_bar * SECONDS_PER_BAR
    hi = lo + span
    out = []
    for a, b, chord in truth:
        cut_lo, cut_hi = max(a, lo), min(b, hi)
        if cut_lo >= cut_hi:
            out.append((a, b, chord))
            continue
        if a < cut_lo:
            out.append((a, cut_lo, chord))
        out.append((cut_lo, cut_hi, _transpose(chord, 1)))
        if cut_hi < b:
            out.append((cut_hi, b, chord))
    return out


def _midi_hz(pitch: int) -> float:
    return 440.0 * 2.0 ** ((pitch - 69) / 12.0)


def _audio(progression, amp: float = 0.18) -> np.ndarray:
    sr = SAMPLE_RATE
    total = SECONDS_PER_BAR * len(progression)
    samples = np.zeros(int(round(total * sr)))
    for i, chord in enumerate(progression):
        lo = int(round(i * SECONDS_PER_BAR * sr))
        hi = int(round((i + 1) * SECONDS_PER_BAR * sr))
        t = np.arange(hi - lo) / sr
        block = np.zeros(hi - lo)
        pitches = _triad(chord)
        for pitch in pitches:
            for mult, weight in PARTIALS:
                block += weight * np.sin(2 * np.pi * _midi_hz(pitch) * mult * t)
        samples[lo:hi] = amp * block / len(pitches) * len(pitches) ** 0.5
    click_rng = np.random.default_rng(4242)
    click_len = int(0.012 * sr)
    burst = click_rng.standard_normal(click_len) * np.hanning(click_len)
    period = SECONDS_PER_BAR / BEATS_PER_BAR
    t0 = 0.0
    while t0 < total - 0.02:
        lo = int(round(t0 * sr))
        samples[lo : lo + click_len] += 0.6 * burst
        t0 += period
    peak = np.abs(samples).max()
    if peak > 0.99:
        samples = samples * 0.99 / peak
    return samples


def _wav_bytes(samples: np.ndarray) -> bytes:
    ints = (np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(ints), b"WAVE", b"fmt ", 16, 1, 1,
        SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16, b"data", len(ints),
    )
    return header + ints


def _varlen(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def _smf_bytes(progression, tpq: int = 480, us_per_quarter: int = 500000) -> bytes:
    """Format-0 MIDI file holding one sustained triad per bar."""
    events = [
        (0, 0, bytes([0xFF, 0x58, 0x04, 4, 2, 24, 8])),
        (0, 0, bytes([0xFF, 0x51, 0x03]) + us_per_quarter.to_bytes(3, "big")),
    ]
    for i, chord in enumerate(progression):
        on_tick = i * BEATS_PER_BAR * tpq
        off_tick = (i + 1) * BEATS_PER_BAR * tpq
        for pitch in _triad(chord):
            events.append((on_tick, 1, bytes([0x90, pitch, 96])))
            events.append((off_tick, 2, bytes([0x80, pitch, 0])))
    events.sort(key=lambda e: (e[0], e[1]))
    track = bytearray()
    last = 0
    for tick, _, payload in events:
        track += _varlen(tick - last) + payload
        last = tick
    track += _varlen(0) + bytes([0xFF, 0x2F, 0x00])
    header = struct.pack(">4sIHHH", b"MThd", 6, 0, 1, tpq)
    return header + struct.pack(">4sI", b"MTrk", len(track)) + bytes(track)


def _tab_text(progression, bars_per_line: int = 2) -> str:
    lines = ["[Verse]"]
    for i in range(0, len(progression), bars_per_line):
        lines.append("   ".join(_tab_token(c) for c in progression[i : i + bars_per_line]))
        lines.append("la dee dah doo dum dee")
        if i + bars_per_line < len(progression) and (i // bars_per_line) % 2 == 1:
            lines.append("")
    return "\n".join(lines) + "\n"


def _song_files(song_id: str, rng, n_bars: int, corrupt_fraction: float,
                with_bad_midi: bool, n_bad_tabs: int) -> tuple[dict, dict]:
    """Return ``(files, entry)``: relative path -> bytes, and the manifest entry."""
    progression = _progression(rng, n_bars)
    truth = _truth_segments(progression)
    d = song_id + "/"
    files = {
        d + "audio.wav": _wav_bytes(_audio(progression)),
        d + "truth.lab": _lab_text(truth).encode(),
        d + "ace.lab": _lab_text(_degraded_segments(truth, corrupt_fraction, rng)).encode(),
        d + "good.mid": _smf_bytes(progression),
    }
    entry = {
        "id": song_id,
        "audio": d + "audio.wav",
        "ground_truth": d + "truth.lab",
        "ace_labs": [d + "ace.lab"],
        "midis": [d + "good.mid"],
        "tabs": [d + "good.tab"],
    }
    if with_bad_midi:
        files[d + "bad.mid"] = _smf_bytes([_transpose(c, 6) for c in progression])
        entry["midis"].append(d + "bad.mid")
    files[d + "good.tab"] = _tab_text(progression).encode()
    for j in range(n_bad_tabs):
        wrong = _progression(rng, n_bars)
        shift = int(rng.integers(1, 12))
        files[d + f"bad{j}.tab"] = _tab_text([_transpose(c, shift) for c in wrong]).encode()
        entry["tabs"].append(d + f"bad{j}.tab")
    return files, entry


def corpus_files(seed: int, n_songs: int, n_bars: int, corrupt_fraction: float = 0.25,
                 with_bad_midi: bool = False, n_bad_tabs: int = 0) -> dict[str, bytes]:
    """Every file of a corpus, keyed by path relative to the corpus root.

    The manifest is ``manifest.json`` and names files relative to itself,
    so the bytes do not depend on where the corpus is written.
    """
    rng = np.random.default_rng(seed)
    files: dict[str, bytes] = {}
    entries = []
    for i in range(n_songs):
        song, entry = _song_files(f"song{i:02d}", rng, n_bars, corrupt_fraction,
                                  with_bad_midi, n_bad_tabs)
        files.update(song)
        entries.append(entry)
    files["manifest.json"] = json.dumps({"songs": entries}, indent=2).encode()
    return files


def write_corpus(root: Path, files: dict[str, bytes]) -> Path:
    """Write ``files`` under ``root``; returns the manifest path."""
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root / "manifest.json"


def digest(files: dict[str, bytes]) -> str:
    """sha256 over every (path, bytes) pair in path order."""
    h = hashlib.sha256()
    for rel in sorted(files):
        for chunk in (rel.encode(), files[rel]):
            h.update(len(chunk).to_bytes(8, "big"))
            h.update(chunk)
    return h.hexdigest()


def audio_seconds(files: dict[str, bytes]) -> float:
    """Total duration of the corpus's WAV files."""
    total = 0.0
    for rel, data in files.items():
        if rel.endswith(".wav"):
            total += (len(data) - 44) / 2 / SAMPLE_RATE
    return total
