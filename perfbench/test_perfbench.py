"""Tests of the benchmark itself: inputs, span arithmetic, metric names, smoke runs."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

import corpus
import run
import tracing

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(name: str, seed: int) -> dict:
    w = run.WORKLOADS[name]
    return corpus.corpus_files(seed, w.n_songs, w.n_bars, with_bad_midi=w.with_bad_midi,
                               n_bad_tabs=w.n_bad_tabs)


def test_generator_same_seed_same_bytes():
    first = corpus.corpus_files(7, 2, 4, with_bad_midi=True, n_bad_tabs=2)
    again = corpus.corpus_files(7, 2, 4, with_bad_midi=True, n_bad_tabs=2)
    other = corpus.corpus_files(8, 2, 4, with_bad_midi=True, n_bad_tabs=2)
    assert first == again
    assert corpus.digest(first) != corpus.digest(other)


def test_generated_inputs_match_recorded_digests():
    recorded = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    for name in run.WORKLOADS:
        assert corpus.digest(_files(name, 0)) == recorded["inputs_sha256_seed0"][name], name


def test_written_corpus_loads_as_manifest(tmp_path):
    from chordfuse.pipeline import load_manifest

    files = corpus.corpus_files(3, 2, 3, with_bad_midi=True, n_bad_tabs=1)
    bundles = load_manifest(corpus.write_corpus(tmp_path, files))
    assert [b.song_id for b in bundles] == ["song00", "song01"]
    assert [len(b.midis) for b in bundles] == [2, 2]
    assert corpus.audio_seconds(files) == pytest.approx(12.0)


def test_self_time_subtracts_covered_child_intervals():
    def span(i, parent, start, end):
        return {"run": "r", "id": i, "parent": parent, "name": f"n{i}", "start": start,
                "end": end, "attrs": {}}

    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 3.0, 6.0),  # overlaps span 1; the overlap counts once
        span(3, 1, 2.0, 3.0),
        span(4, 0, 9.5, 11.0),  # runs past its parent; only the inside counts
    ]
    assert tracing.self_times(spans) == pytest.approx({0: 4.5, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.5})


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_exits_non_zero_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "corpus_cold", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_at_reduced_size(name, trace, tmp_path):
    small = dataclasses.replace(run.WORKLOADS[name], n_songs=1, n_bars=3)
    info, result = run.run(name, small, 0, 0.0, trace, REPO / "src", tmp_path / name)
    assert info["errors"] == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[key]}
    for metric in BENCHMARK[key]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        if small.warm:
            assert layers["pipeline.cache_computes"] == 0
            assert layers["audio.cqt_calls"] == 0 and layers["dtw.cells"] == 0
        else:
            assert layers["jump_align.calls"] == 1 + small.n_bad_tabs
        spans = tracing.read_jsonl(tmp_path / name / "pass1" / "spans.jsonl")
        assert {s["run"] for s in spans} == {f"{name}-s0-p1"}
