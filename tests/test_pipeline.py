import json
from pathlib import Path

import numpy as np
import pytest

from chordfuse import pipeline
from chordfuse.annotations import read_lab, sample
from chordfuse.errors import MissingFile, SchemaError
from chordfuse.fusion import Method, Strategy
from chordfuse.pipeline import (
    RunConfig,
    load_manifest,
    plot_data_csv,
    read_meta,
    run_pipeline,
)
from conftest import build_corpus, build_song_assets, train_corpus_hmm


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = build_corpus(root, n_songs=2, seed=7, n_bars=4, n_bad_tabs=1)
    hmm = train_corpus_hmm(manifest)
    hmm_path = root / "hmm.json"
    hmm.save(hmm_path)
    return {"root": root, "manifest": manifest, "hmm": hmm_path}


def run_config(out_dir, corpus, **kw) -> RunConfig:
    defaults = dict(
        output_dir=Path(out_dir),
        method=Method.DF,
        strategy=Strategy.BEST,
        seed=0,
        hmm_path=corpus["hmm"],
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestLoadManifest:
    def test_minimal_bundle(self, tmp_path):
        (tmp_path / "a.wav").write_bytes(b"")
        (tmp_path / "a.lab").write_text("0 1 C\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps({"songs": [{"id": "a", "audio": "a.wav", "ace_labs": ["a.lab"]}]})
        )
        bundles = load_manifest(manifest)
        assert len(bundles) == 1
        assert bundles[0].song_id == "a"
        assert bundles[0].ground_truth is None
        assert bundles[0].midis == ()

    def test_duplicate_id(self, tmp_path):
        (tmp_path / "a.wav").write_bytes(b"")
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {"songs": [{"id": "a", "audio": "a.wav"}, {"id": "a", "audio": "a.wav"}]}
            )
        )
        with pytest.raises(SchemaError) as err:
            load_manifest(manifest)
        assert err.value.pointer == "/songs/1/id"

    def test_missing_file(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"songs": [{"id": "a", "audio": "nope.wav"}]}))
        with pytest.raises(MissingFile):
            load_manifest(manifest)

    def test_bad_schema_pointer(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"songs": [{"audio": "x"}]}))
        with pytest.raises(SchemaError) as err:
            load_manifest(manifest)
        assert err.value.pointer == "/songs/0/id"

    def test_typical_bundle_density(self, tmp_path):
        files = {}
        for name in ["a.wav", "gt.lab", "ace.lab"] + [f"m{i}.mid" for i in range(4)] + [
            f"t{i}.txt" for i in range(7)
        ]:
            (tmp_path / name).write_bytes(b"")
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {
                    "songs": [
                        {
                            "id": "s",
                            "audio": "a.wav",
                            "ground_truth": "gt.lab",
                            "ace_labs": ["ace.lab"],
                            "midis": [f"m{i}.mid" for i in range(4)],
                            "tabs": [f"t{i}.txt" for i in range(7)],
                        }
                    ]
                }
            )
        )
        bundle = load_manifest(manifest)[0]
        assert len(bundle.midis) == 4
        assert len(bundle.tabs) == 7


class TestRunPipeline:
    def test_end_to_end_outputs(self, corpus, tmp_path):
        bundles = load_manifest(corpus["manifest"])
        cfg = run_config(tmp_path / "out", corpus)
        report = run_pipeline(bundles, cfg)
        assert set(report.songs) == {"song00", "song01"}
        for song_id, result in report.songs.items():
            song_dir = cfg.output_dir / "songs" / song_id
            assert (song_dir / "fused.lab").is_file()
            assert (song_dir / "fusion_report.json").is_file()
            assert (song_dir / "plot_data.csv").is_file()
            metas = list((song_dir / "sources").glob("*.meta"))
            assert metas
            fused_eval = dict(result.evaluations)["fused"]
            assert fused_eval.csr > 0.5
        eval_csv = (cfg.output_dir / "evaluation.csv").read_text()
        lines = eval_csv.strip().splitlines()
        assert lines[0] == "song_id,csr,overseg,underseg,seg,duration"
        assert lines[-1].startswith("corpus,")
        assert len(lines) == 1 + 2 + 1

    def test_sidecar_metrics_present(self, corpus, tmp_path):
        bundles = load_manifest(corpus["manifest"])
        cfg = run_config(tmp_path / "out", corpus)
        run_pipeline(bundles, cfg)
        sources = cfg.output_dir / "songs" / "song00" / "sources"
        midi_meta = read_meta(sources / "midi_good.bar.meta")
        assert midi_meta["origin"] == "midi-bar"
        assert "ats" in midi_meta and "confidence" in midi_meta
        tab_meta = read_meta(sources / "tab_good.meta")
        assert tab_meta["origin"] == "tab"
        assert "loglik" in tab_meta and "transposition" in tab_meta
        assert tab_meta["transposition"] == "0"

    def test_fused_improves_on_degraded_audio(self, corpus, tmp_path):
        bundles = load_manifest(corpus["manifest"])
        cfg = run_config(tmp_path / "out", corpus)
        report = run_pipeline(bundles, cfg)
        for song_id, result in report.songs.items():
            evals = dict(result.evaluations)
            audio_csr = evals["ace_ace"].csr
            assert evals["fused"].csr > audio_csr

    def test_warm_cache_no_recompute_and_identical_bytes(self, corpus, tmp_path, monkeypatch):
        bundles = load_manifest(corpus["manifest"])
        cfg = run_config(tmp_path / "out", corpus)
        first = run_pipeline(bundles, cfg)
        assert first.stage_computes.get("align", 0) > 0
        fused_before = {
            song_id: (cfg.output_dir / "songs" / song_id / "fused.lab").read_bytes()
            for song_id in first.songs
        }
        decoded = []
        load_wav = pipeline.load_wav
        monkeypatch.setattr(pipeline, "load_wav", lambda path: decoded.append(path) or load_wav(path))
        second = run_pipeline(bundles, cfg)
        assert decoded == []
        assert second.stage_computes == {}
        assert sum(second.stage_hits.values()) > 0
        for song_id, payload in fused_before.items():
            assert (cfg.output_dir / "songs" / song_id / "fused.lab").read_bytes() == payload

    def test_deterministic_across_directories(self, corpus, tmp_path):
        bundles = load_manifest(corpus["manifest"])
        cfg_a = run_config(tmp_path / "a", corpus, method=Method.RND, strategy=Strategy.ALL)
        cfg_b = run_config(tmp_path / "b", corpus, method=Method.RND, strategy=Strategy.ALL)
        run_pipeline(bundles, cfg_a)
        run_pipeline(bundles, cfg_b)
        for song_id in ("song00", "song01"):
            a = (cfg_a.output_dir / "songs" / song_id / "fused.lab").read_bytes()
            b = (cfg_b.output_dir / "songs" / song_id / "fused.lab").read_bytes()
            assert a == b

    def test_worker_pool_matches_sequential(self, corpus, tmp_path):
        bundles = load_manifest(corpus["manifest"])
        cfg_seq = run_config(tmp_path / "seq", corpus)
        cfg_par = run_config(tmp_path / "par", corpus, workers=2)
        run_pipeline(bundles, cfg_seq)
        run_pipeline(bundles, cfg_par)
        for song_id in ("song00", "song01"):
            a = (cfg_seq.output_dir / "songs" / song_id / "fused.lab").read_bytes()
            b = (cfg_par.output_dir / "songs" / song_id / "fused.lab").read_bytes()
            assert a == b

    def test_corrupt_midi_isolated(self, corpus, tmp_path):
        root = tmp_path / "corpus"
        rng = np.random.default_rng(3)
        entry = build_song_assets(root, "songx", rng, n_bars=4)
        bad = root / "songx" / "broken.mid"
        bad.write_bytes(b"MThd\x00\x00\x00\x06\x00\x01\x00\x01")
        entry["midis"].append(str(bad))
        manifest = root / "m.json"
        manifest.write_text(json.dumps({"songs": [entry]}))
        cfg = run_config(tmp_path / "out", corpus)
        report = run_pipeline(load_manifest(manifest), cfg)
        result = report.songs["songx"]
        assert any("broken.mid" in f for f in result.failures)
        assert result.fused_lab is not None

    def test_zero_symbolic_sources_passthrough(self, corpus, tmp_path):
        root = tmp_path / "corpus"
        rng = np.random.default_rng(5)
        entry = build_song_assets(root, "songy", rng, n_bars=4)
        entry["midis"] = []
        entry["tabs"] = []
        manifest = root / "m.json"
        manifest.write_text(json.dumps({"songs": [entry]}))
        cfg = run_config(tmp_path / "out", corpus)
        report = run_pipeline(load_manifest(manifest), cfg)
        fused = read_lab(report.songs["songy"].fused_lab)
        source = read_lab(root / "songy" / "ace.lab")
        duration = source.span_end
        assert (
            sample(fused, 0.01, duration).labels == sample(source, 0.01, duration).labels
        )


class TestPlotData:
    def test_lanes(self, corpus, tmp_path):
        bundles = load_manifest(corpus["manifest"])
        cfg = run_config(tmp_path / "out", corpus)
        run_pipeline(bundles, cfg)
        csv_text = (cfg.output_dir / "songs" / "song00" / "plot_data.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "source_id,start,end,label"
        lanes = {row.split(",")[0] for row in lines[1:]}
        assert "fused" in lanes
        assert any(l.startswith("midi_") for l in lanes)
        assert any(l.startswith("tab_") for l in lanes)

    def test_empty_outputs_header_only(self):
        assert plot_data_csv([]) == "source_id,start,end,label\n"
