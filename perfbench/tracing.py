"""Spans around the package's public functions, recorded from outside.

The package modules bind imported names at import time, so each function
is wrapped in the namespace of the module that calls it (for example
``chordfuse.pipeline.load_wav`` and ``chordfuse.dtw.cqt``), not where it
is defined.  Spans live in memory and are written once, as JSONL, when
the traced pass ends.  The pipeline runs with one worker, so the open
spans form a stack on one thread.
"""

from __future__ import annotations

import ctypes
import importlib
import json
import os
import threading
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

MB = 1024.0 * 1024.0


class Tracer:
    """Records spans ``{run, id, parent, name, start, end, attrs}``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, count=None, peak=None) -> None:
        """Replace ``module.attr`` by a spanned call.

        ``count(args, result)`` returns counts to store on the span.  ``peak``
        is ``"tracemalloc"`` or ``"rss"``: how the call's peak memory above
        its starting point is taken, in MB, as the ``peak_mb`` attribute.
        """
        original = getattr(module, attr)
        measure = {"tracemalloc": _tracemalloc_peak, "rss": _rss_peak, None: None}[peak]

        def spanned(*args, **kwargs):
            with self.span(name) as attrs:
                if measure is None:
                    result = original(*args, **kwargs)
                else:
                    result, attrs["peak_mb"] = measure(original, args, kwargs)
                if count is not None:
                    attrs.update(count(args, result))
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, spanned)

    def unwrap(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write_jsonl(self, path: Path) -> None:
        path.write_text("".join(json.dumps(s, sort_keys=True) + "\n" for s in self.spans),
                        encoding="utf-8")


def _tracemalloc_peak(fn, args, kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / MB


def _rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * _PAGE


_PAGE = os.sysconf("SC_PAGE_SIZE")
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
if _malloc_trim is not None:
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int


def _rss_peak(fn, args, kwargs):
    """Peak resident-set growth during the call, sampled every millisecond.

    Used for pure-Python loops, where tracemalloc would trace every numpy
    scalar the loop creates and slow the call down about 25 times.  Freed
    heap memory is first handed back to the system (glibc ``malloc_trim``),
    or the call's arrays could reuse pages that are already resident and
    not show up.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)
    base = _rss_bytes()
    peak = [base]
    done = threading.Event()

    def sample():
        while not done.wait(0.001):
            peak[0] = max(peak[0], _rss_bytes())

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        result = fn(*args, **kwargs)
        peak[0] = max(peak[0], _rss_bytes())
    finally:
        done.set()
        sampler.join()
    return result, (peak[0] - base) / MB


def install(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports on."""
    audio = importlib.import_module("chordfuse.audio")
    cli = importlib.import_module("chordfuse.cli")
    dtw = importlib.import_module("chordfuse.dtw")
    fusion = importlib.import_module("chordfuse.fusion")
    # ``chordfuse.jump_align`` as an attribute is the re-exported function.
    jump = importlib.import_module("chordfuse.jump_align")
    pipeline = importlib.import_module("chordfuse.pipeline")

    w = tracer.wrap
    w(cli, "run_pipeline", "pipeline.run_pipeline")

    w(pipeline, "load_wav", "audio.load_wav")
    w(dtw, "cqt", "audio.cqt", peak="tracemalloc")
    w(jump, "cqt", "audio.cqt", peak="tracemalloc")
    w(jump, "hpss", "audio.hpss", peak="tracemalloc")
    w(jump, "beat_track", "audio.beat_track")
    w(audio, "stft", "audio.stft")
    w(audio, "hpss", "audio.hpss", peak="tracemalloc")

    w(pipeline, "preprocess_audio", "jump_align.preprocess_audio")
    w(pipeline, "jump_align", "jump_align.jump_align",
      count=lambda args, r: {"beats": len(args[2]), "tab_states": len(args[0].entries)})

    w(pipeline, "align_midi_to_audio", "dtw.align_midi_to_audio")
    w(dtw, "cost_matrix", "dtw.cost_matrix")
    w(dtw, "dtw_subsequence", "dtw.dtw_subsequence", peak="rss",
      count=lambda args, r: {"cells": int(args[0].shape[0] * args[0].shape[1])})

    w(pipeline, "parse_midi", "midi.parse_midi")
    w(pipeline, "remap_times", "midi.remap_times")
    w(dtw, "midi_alignment_features", "midi.midi_alignment_features")

    w(pipeline, "estimate", "midi_chords.estimate")
    w(pipeline, "parse_tab", "tabs.parse_tab",
      count=lambda args, r: {"chords": len(r.entries)})

    w(pipeline, "fuse", "fusion.fuse",
      count=lambda args, r: {"candidates": len(args[0])})
    for fn in ("select_sources_all", "select_sources_best"):
        w(fusion, fn, "fusion.select", count=lambda args, r: {"selected": len(r)})
    for fn in ("fuse_rnd", "fuse_mv", "fuse_df"):
        w(fusion, fn, "fusion.integrate",
          count=lambda args, r: {"samples": len(args[0].sampled[0])})

    w(pipeline, "read_lab", "annotations.read_lab")
    w(pipeline, "write_lab", "annotations.write_lab")
    w(fusion, "sample", "annotations.sample")
    w(fusion, "merge_samples", "annotations.merge_samples")
    w(pipeline, "evaluate", "evaluation.evaluate")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, cursor), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced pass: seconds, self seconds, counts, peaks."""
    selfs = self_times(spans)
    secs: dict[str, float] = defaultdict(float)
    self_secs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    peaks: dict[str, float] = defaultdict(float)
    for s in spans:
        name = s["name"]
        secs[name] += s["end"] - s["start"]
        self_secs[name] += selfs[s["id"]]
        calls[name] += 1
        for key, value in s["attrs"].items():
            if key == "peak_mb":
                peaks[name] = max(peaks[name], value)
            else:
                sums[f"{name}.{key}"] += value
    candidates = sums["fusion.fuse.candidates"]
    return {
        "audio.load_wav_s": secs["audio.load_wav"],
        "audio.cqt_s": secs["audio.cqt"],
        "audio.cqt_calls": calls["audio.cqt"],
        "audio.cqt_peak_mb": peaks["audio.cqt"],
        "audio.stft_s": secs["audio.stft"],
        "audio.hpss_s": secs["audio.hpss"],
        "audio.hpss_peak_mb": peaks["audio.hpss"],
        "audio.beat_track_self_s": self_secs["audio.beat_track"],
        "jump_align.preprocess_audio_self_s": self_secs["jump_align.preprocess_audio"],
        "jump_align.jump_align_s": secs["jump_align.jump_align"],
        "jump_align.calls": calls["jump_align.jump_align"],
        "jump_align.beats": sums["jump_align.jump_align.beats"],
        "jump_align.tab_states": sums["jump_align.jump_align.tab_states"],
        "dtw.align_midi_to_audio_self_s": self_secs["dtw.align_midi_to_audio"],
        "dtw.cost_matrix_s": secs["dtw.cost_matrix"],
        "dtw.dtw_subsequence_s": secs["dtw.dtw_subsequence"],
        "dtw.cells": sums["dtw.dtw_subsequence.cells"],
        "dtw.dtw_subsequence_peak_mb": peaks["dtw.dtw_subsequence"],
        "midi.parse_midi_s": secs["midi.parse_midi"],
        "midi.remap_times_s": secs["midi.remap_times"],
        "midi.midi_alignment_features_s": secs["midi.midi_alignment_features"],
        "midi_chords.estimate_s": secs["midi_chords.estimate"],
        "midi_chords.calls": calls["midi_chords.estimate"],
        "tabs.parse_tab_s": secs["tabs.parse_tab"],
        "tabs.chords": sums["tabs.parse_tab.chords"],
        "fusion.fuse_s": secs["fusion.fuse"],
        "fusion.integrate_s": secs["fusion.integrate"],
        "fusion.samples": sums["fusion.integrate.samples"],
        "fusion.selected_frac": sums["fusion.select.selected"] / candidates if candidates else 0.0,
        "annotations.read_lab_s": secs["annotations.read_lab"],
        "annotations.write_lab_s": secs["annotations.write_lab"],
        "annotations.sample_s": secs["annotations.sample"],
        "annotations.merge_samples_s": secs["annotations.merge_samples"],
        "evaluation.evaluate_s": secs["evaluation.evaluate"],
        "pipeline.run_pipeline_s": secs["pipeline.run_pipeline"],
        "pipeline.self_s": self_secs["pipeline.run_pipeline"],
    }
