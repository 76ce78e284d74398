"""Corpus manifest, per-song orchestration, caching and report emission.

A manifest lists songs with an audio file, optional reference annotation,
and any number of external audio-system ``.lab`` files, MIDI files and
tabs.  The pipeline turns every symbolic source into an audio-timed
``.lab`` with a metrics sidecar, fuses the per-song sources into one
output sequence, and evaluates everything against the reference when one
exists.  Heavy stages are cached by content hash, and one bad file only
shrinks that song's source set.
"""

from __future__ import annotations

import hashlib
import json
import logging
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .annotations import BeatGrid, ChordSequence, read_lab, write_lab
from .audio import Waveform, load_wav
from .dtw import AlignmentPath, DtwConfig, align_midi_to_audio
from .errors import MissingFile, SchemaError
from .evaluation import EvalReport, evaluate
from .fusion import CandidateSource, Method, Origin, Strategy, fuse
from .jump_align import HmmParameters, JumpConfig, jump_align, preprocess_audio
from .midi import parse_midi, remap_times
from .midi_chords import SegmentationLevel, estimate
from .tabs import parse_tab, ucs_to_jsonl

log = logging.getLogger(__name__)

EVAL_HEADER = "song_id,csr,overseg,underseg,seg,duration"
PLOT_HEADER = "source_id,start,end,label"


@dataclass(frozen=True)
class SongBundle:
    song_id: str
    audio: Path
    ground_truth: Optional[Path] = None
    ace_labs: tuple[Path, ...] = ()
    midis: tuple[Path, ...] = ()
    tabs: tuple[Path, ...] = ()


@dataclass
class RunConfig:
    output_dir: Path
    method: Method = Method.DF
    strategy: Strategy = Strategy.BEST
    seed: int = 0
    dtw: DtwConfig = field(default_factory=DtwConfig)
    jump: JumpConfig = field(default_factory=JumpConfig)
    hmm_path: Optional[Path] = None
    sample_period: float = 0.01
    workers: int = 1
    use_cache: bool = True


@dataclass
class SongResult:
    song_id: str
    sources: list[dict] = field(default_factory=list)
    fused_lab: Optional[Path] = None
    evaluations: list[tuple[str, EvalReport]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


@dataclass
class RunReport:
    songs: dict[str, SongResult] = field(default_factory=dict)
    stage_computes: dict[str, int] = field(default_factory=dict)
    stage_hits: dict[str, int] = field(default_factory=dict)

    @property
    def any_failures(self) -> bool:
        return any(s.failures for s in self.songs.values())


def load_manifest(path) -> list[SongBundle]:
    """Load and validate a manifest, checking every referenced file exists.

    Raises
    ------
    SchemaError
        With a JSON pointer to the offending element.
    MissingFile
        If a referenced file does not exist.
    """
    base = Path(path).parent
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError("", f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or "songs" not in payload:
        raise SchemaError("", "manifest must be an object with a 'songs' list")
    songs = payload["songs"]
    if not isinstance(songs, list):
        raise SchemaError("/songs", "must be a list")

    def resolve(pointer: str, value) -> Path:
        if not isinstance(value, str) or not value:
            raise SchemaError(pointer, "must be a non-empty string path")
        resolved = (base / value).resolve() if not Path(value).is_absolute() else Path(value)
        if not resolved.is_file():
            raise MissingFile(f"{pointer}: no such file: {resolved}")
        return resolved

    bundles = []
    seen = set()
    for i, song in enumerate(songs):
        pointer = f"/songs/{i}"
        if not isinstance(song, dict):
            raise SchemaError(pointer, "must be an object")
        song_id = song.get("id")
        if not isinstance(song_id, str) or not song_id:
            raise SchemaError(f"{pointer}/id", "must be a non-empty string")
        if song_id in seen:
            raise SchemaError(f"{pointer}/id", f"duplicate song id {song_id!r}")
        seen.add(song_id)
        if "audio" not in song:
            raise SchemaError(f"{pointer}/audio", "is required")
        audio = resolve(f"{pointer}/audio", song["audio"])
        ground_truth = None
        if song.get("ground_truth") is not None:
            ground_truth = resolve(f"{pointer}/ground_truth", song["ground_truth"])

        def path_list(key: str) -> tuple[Path, ...]:
            values = song.get(key, [])
            if not isinstance(values, list):
                raise SchemaError(f"{pointer}/{key}", "must be a list")
            return tuple(
                resolve(f"{pointer}/{key}/{j}", value) for j, value in enumerate(values)
            )

        bundles.append(
            SongBundle(
                song_id=song_id,
                audio=audio,
                ground_truth=ground_truth,
                ace_labs=path_list("ace_labs"),
                midis=path_list("midis"),
                tabs=path_list("tabs"),
            )
        )
    return bundles


class _Cache:
    """Content-addressed text cache with per-stage hit/compute counters."""

    def __init__(self, root: Optional[Path]):
        self.root = root
        self.hits: dict[str, int] = {}
        self.computes: dict[str, int] = {}

    @staticmethod
    def key(*chunks: bytes) -> str:
        digest = hashlib.sha256()
        for chunk in chunks:
            digest.update(len(chunk).to_bytes(8, "big"))
            digest.update(chunk)
        return digest.hexdigest()

    def fetch(self, stage: str, key: str, compute):
        if self.root is None:
            self.computes[stage] = self.computes.get(stage, 0) + 1
            return compute()
        path = self.root / stage / f"{key}.txt"
        if path.is_file():
            self.hits[stage] = self.hits.get(stage, 0) + 1
            return path.read_text(encoding="utf-8")
        value = compute()
        self.computes[stage] = self.computes.get(stage, 0) + 1
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(value, encoding="utf-8")
        return value


def _default_hmm() -> HmmParameters:
    text = resources.files("chordfuse").joinpath("data/hmm_default.json").read_text("utf-8")
    return HmmParameters.from_json(text)


def load_hmm(path: Optional[Path]) -> HmmParameters:
    if path is None:
        return _default_hmm()
    return HmmParameters.load(path)


def _song_seed(base_seed: int, song_id: str) -> int:
    return (base_seed + zlib.crc32(song_id.encode("utf-8"))) % 2**32


def _sequence_to_lab_text(seq: ChordSequence) -> str:
    from .chords import format_harte

    return "".join(
        f"{s.start:.6f} {s.end:.6f} {format_harte(s.label)}\n" for s in seq.segments
    )


def _lab_text_to_sequence(text: str) -> ChordSequence:
    from .annotations import ChordSegment
    from .chords import parse_harte

    segments = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        start, end, label = line.split(None, 2)
        segments.append(ChordSegment(float(start), float(end), parse_harte(label)))
    return ChordSequence(segments)


def _write_meta(path: Path, entries: dict) -> None:
    lines = []
    for key, value in entries.items():
        if value is None:
            continue
        if isinstance(value, float):
            lines.append(f"{key}={value:.9f}")
        else:
            lines.append(f"{key}={value}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_meta(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


def _align_stage(cache: _Cache, cfg: RunConfig, midi_path: Path, audio_path: Path,
                 get_waveform: Callable[[], Waveform]) -> AlignmentPath:
    midi_bytes = midi_path.read_bytes()
    audio_bytes = audio_path.read_bytes()
    params = f"hop={cfg.dtw.hop};gully={cfg.dtw.gully};penalty={cfg.dtw.penalty}".encode()
    key = cache.key(midi_bytes, audio_bytes, params)

    def compute() -> str:
        song = parse_midi(midi_path)
        path_obj = align_midi_to_audio(song, get_waveform(), cfg.dtw)
        lines = [f"confidence={path_obj.confidence:.9f}"]
        lines += [f"{a:.6f} {b:.6f}" for a, b in zip(path_obj.p, path_obj.q)]
        return "\n".join(lines) + "\n"

    text = cache.fetch("align", key, compute)
    header, *rows = text.strip().splitlines()
    confidence = float(header.split("=", 1)[1])
    pairs = [tuple(map(float, row.split())) for row in rows]
    ps = np.array([a for a, _ in pairs])
    qs = np.array([b for _, b in pairs])
    return AlignmentPath(ps, qs, float("nan"), confidence)


def _audio_prep_stage(cache: _Cache, audio_path: Path,
                      get_waveform: Callable[[], Waveform]) -> tuple[np.ndarray, BeatGrid]:
    key = cache.key(audio_path.read_bytes(), b"hop=256")

    def compute() -> str:
        chroma, beats = preprocess_audio(get_waveform())
        payload = {
            "chroma": np.round(chroma, 9).tolist(),
            "beats": [round(t, 9) for t in beats.times],
            "downbeats": list(beats.downbeat_flags) if beats.downbeat_flags else None,
        }
        return json.dumps(payload, separators=(",", ":"))

    payload = json.loads(cache.fetch("audio_prep", key, compute))
    flags = payload.get("downbeats")
    beats = BeatGrid(tuple(payload["beats"]), tuple(flags) if flags else None)
    return np.array(payload["chroma"], dtype=np.float64), beats


def _process_song(
    bundle: SongBundle, cfg: RunConfig, hmm: HmmParameters, cache: _Cache
) -> SongResult:
    result = SongResult(bundle.song_id)
    song_dir = cfg.output_dir / "songs" / bundle.song_id
    sources_dir = song_dir / "sources"
    sources_dir.mkdir(parents=True, exist_ok=True)
    candidates: list[CandidateSource] = []

    def add_source(source_id: str, origin: Origin, seq: ChordSequence, **metrics) -> None:
        lab_path = sources_dir / f"{source_id}.lab"
        write_lab(seq, lab_path)
        meta = {"origin": origin.value, **metrics}
        _write_meta(sources_dir / f"{source_id}.meta", meta)
        candidates.append(
            CandidateSource(
                source_id,
                origin,
                seq,
                confidence=metrics.get("confidence"),
                ats=metrics.get("ats"),
                loglik=metrics.get("loglik"),
                midi_id=metrics.get("midi_id"),
            )
        )
        result.sources.append({"source_id": source_id, **meta})

    for lab in bundle.ace_labs:
        try:
            add_source(f"ace_{lab.stem}", Origin.AUDIO, read_lab(lab))
        except Exception as exc:
            result.failures.append(f"ace {lab.name}: {exc}")

    # Decoded on the first cache miss that needs it, never on a warm run.
    waveform: Optional[Waveform] = None

    def get_waveform() -> Waveform:
        nonlocal waveform
        if waveform is None:
            waveform = load_wav(bundle.audio)
        return waveform

    for midi_path in bundle.midis:
        try:
            alignment = _align_stage(cache, cfg, midi_path, bundle.audio, get_waveform)
            aligned = remap_times(parse_midi(midi_path), alignment.p, alignment.q)
            midi_id = midi_path.stem
            for level in (SegmentationLevel.BAR, SegmentationLevel.BEAT):
                estimated = estimate(aligned, level)
                add_source(
                    f"midi_{midi_id}.{level.value}",
                    Origin.MIDI_BAR if level is SegmentationLevel.BAR else Origin.MIDI_BEAT,
                    estimated.sequence,
                    confidence=alignment.confidence,
                    ats=estimated.ats,
                    midi_id=midi_id,
                )
        except Exception as exc:
            result.failures.append(f"midi {midi_path.name}: {exc}")

    if bundle.tabs:
        prep: Optional[tuple[np.ndarray, BeatGrid]] = None
        try:
            prep = _audio_prep_stage(cache, bundle.audio, get_waveform)
        except Exception as exc:
            result.failures.append(f"audio preprocessing: {exc}")
        if prep is not None:
            chroma, beats = prep
            for tab_path in bundle.tabs:
                try:
                    ucs = parse_tab(tab_path)
                    (sources_dir / f"tab_{tab_path.stem}.jsonl").write_text(
                        ucs_to_jsonl(ucs), encoding="utf-8"
                    )
                    if not ucs.entries:
                        result.failures.append(f"tab {tab_path.name}: no chords found")
                        continue
                    seq, loglik, transposition = _jump_stage(
                        cache, cfg, hmm, tab_path, ucs, chroma, beats
                    )
                    add_source(
                        f"tab_{tab_path.stem}",
                        Origin.TAB,
                        seq,
                        loglik=loglik,
                        transposition=transposition,
                    )
                except Exception as exc:
                    result.failures.append(f"tab {tab_path.name}: {exc}")

    fused = None
    try:
        fused, report = fuse(
            candidates,
            cfg.method,
            cfg.strategy,
            seed=_song_seed(cfg.seed, bundle.song_id),
            period=cfg.sample_period,
        )
        fused_path = song_dir / "fused.lab"
        write_lab(fused, fused_path)
        result.fused_lab = fused_path
        (song_dir / "fusion_report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except Exception as exc:
        result.failures.append(f"fusion: {exc}")
        fused = None

    plot_rows = [(c.source_id, c.sequence) for c in candidates]
    if fused is not None:
        plot_rows.append(("fused", fused))
    (song_dir / "plot_data.csv").write_text(plot_data_csv(plot_rows), encoding="utf-8")

    if bundle.ground_truth is not None:
        try:
            gt = read_lab(bundle.ground_truth)
            for c in candidates:
                result.evaluations.append((c.source_id, evaluate(c.sequence, gt)))
            if fused is not None:
                result.evaluations.append(("fused", evaluate(fused, gt)))
        except Exception as exc:
            result.failures.append(f"evaluation: {exc}")
    return result


def _jump_stage(cache, cfg: RunConfig, hmm, tab_path: Path, ucs, chroma, beats):
    params = f"pf={cfg.jump.p_f};pb={cfg.jump.p_b}".encode()
    prep_bytes = json.dumps(
        [np.round(chroma, 9).tolist(), [round(t, 9) for t in beats.times]]
    ).encode()
    key = cache.key(tab_path.read_bytes(), prep_bytes, hmm.to_json().encode(), params)

    def compute() -> str:
        seq, loglik, transposition = jump_align(ucs, chroma, beats, hmm, cfg.jump)
        payload = {
            "loglik": loglik,
            "transposition": transposition,
            "lab": _sequence_to_lab_text(seq),
        }
        return json.dumps(payload, separators=(",", ":"))

    payload = json.loads(cache.fetch("jump_align", key, compute))
    return (
        _lab_text_to_sequence(payload["lab"]),
        float(payload["loglik"]),
        int(payload["transposition"]),
    )


def run_pipeline(bundles: list[SongBundle], cfg: RunConfig) -> RunReport:
    """Process every song, isolating per-song failures, and write all outputs."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    cache = _Cache(cfg.output_dir / "cache" if cfg.use_cache else None)
    hmm = load_hmm(cfg.hmm_path)
    report = RunReport()

    def safe_process(bundle: SongBundle) -> SongResult:
        try:
            return _process_song(bundle, cfg, hmm, cache)
        except Exception as exc:  # per-song isolation, never corpus-fatal
            log.exception("song %s failed", bundle.song_id)
            result = SongResult(bundle.song_id)
            result.failures.append(f"song failed: {exc}")
            return result

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(safe_process, bundles))
    else:
        results = [safe_process(b) for b in bundles]
    for result in results:
        report.songs[result.song_id] = result
    report.stage_computes = dict(cache.computes)
    report.stage_hits = dict(cache.hits)

    eval_text = evaluation_csv(report)
    if eval_text is not None:
        (cfg.output_dir / "evaluation.csv").write_text(eval_text, encoding="utf-8")
    (cfg.output_dir / "run_report.json").write_text(
        json.dumps(_report_payload(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return report


def _report_payload(report: RunReport) -> dict:
    return {
        "songs": {
            song_id: {
                "sources": result.sources,
                "failures": result.failures,
                "fused": str(result.fused_lab) if result.fused_lab else None,
            }
            for song_id, result in report.songs.items()
        },
        "stage_computes": report.stage_computes,
        "stage_hits": report.stage_hits,
    }


def evaluation_csv(report: RunReport) -> Optional[str]:
    """Per-song rows for the fused output plus a duration-weighted corpus row."""
    rows = []
    weighted = np.zeros(4)
    total_duration = 0.0
    for song_id in sorted(report.songs):
        for source_id, ev in report.songs[song_id].evaluations:
            if source_id != "fused":
                continue
            rows.append(
                f"{song_id},{ev.csr:.6f},{ev.overseg:.6f},{ev.underseg:.6f},"
                f"{ev.seg:.6f},{ev.duration:.6f}"
            )
            weighted += ev.duration * np.array([ev.csr, ev.overseg, ev.underseg, ev.seg])
            total_duration += ev.duration
    if not rows:
        return None
    w = weighted / total_duration
    rows.append(
        f"corpus,{w[0]:.6f},{w[1]:.6f},{w[2]:.6f},{w[3]:.6f},{total_duration:.6f}"
    )
    return EVAL_HEADER + "\n" + "\n".join(rows) + "\n"


def plot_data_csv(lanes: list[tuple[str, ChordSequence]]) -> str:
    """One row per (source, segment), enough to draw per-source chord lanes."""
    from .chords import format_harte

    rows = [PLOT_HEADER]
    for source_id, seq in lanes:
        for seg in seq:
            rows.append(f"{source_id},{seg.start:.6f},{seg.end:.6f},{format_harte(seg.label)}")
    return "\n".join(rows) + "\n"
