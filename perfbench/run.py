"""Benchmark of ``chordfuse run`` on seeded synthetic corpora.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus_cold --seed 1 --seconds 20 --trace 0

The pipeline is a batch job, so it is measured as work done per second at
a stated input size, in a closed loop: one pass starts when the previous
one has ended, until ``--seconds`` have passed.  Each pass is a fresh
child process that calls ``chordfuse.cli.main(["run", ...])`` in-process
with ``--workers 1`` and the BLAS thread pools pinned to one thread, so
its peak resident set belongs to that pass alone.  Workloads run one at a
time; passes never overlap.

Workloads (why each exists):

* ``corpus_cold``: 3 songs of 12 s, each with a degraded audio ``.lab``,
  a good and a tritone-shifted MIDI file, a good and two wrong tabs, and
  an empty cache.  The per-song fixed cost dominates: the spectral front
  end, 6 MIDI alignments, 9 jump alignments and every cache write.
* ``long_song_cold``: one 60 s song with the degraded ``.lab``, one good
  MIDI file and one good tab, and an empty cache.  Length-dependent costs
  show here: the quadratic subsequence DTW and the constant-Q transform's
  frames x window memory.
* ``fusion_sweep_warm``: set-up runs ``corpus_cold``'s corpus once cold;
  each pass then runs all six ``--method`` x ``--strategy`` combinations
  on that warm cache.  It bypasses the front end, DTW and jump alignment,
  so a change to those should leave it unchanged, while cache decoding,
  template matching, fusion and evaluation dominate.

The sizes keep one cold pass between 5 and 15 s on a 2-core machine, so
that every run of every workload, set-up included, stays well under a
minute and several passes fit in one run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics taken from
the spans of the traced passes (see ``tracing.py``).  The last line of
standard output is one JSON object; the line before it describes the
inputs and the environment.  The exit code is 0 only when every output
check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpus
import tracing

HERE = Path(__file__).resolve().parent
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMBOS = tuple((m, s) for m in ("rnd", "mv", "df") for s in ("all", "best"))
# Set-up runs at least this many times, and until this many seconds of it
# have been timed, so the cheap set-ups of the cold workloads get a median
# of more samples than the warm workload's expensive one.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
PASS_TIMEOUT_S = 150
WORK_DIR = ".perfbench-work"


@dataclass(frozen=True)
class Workload:
    n_songs: int
    n_bars: int
    with_bad_midi: bool
    n_bad_tabs: int
    warm: bool = False


CORPUS = dict(n_songs=3, n_bars=6, with_bad_midi=True, n_bad_tabs=2)
WORKLOADS = {
    "corpus_cold": Workload(**CORPUS),
    "long_song_cold": Workload(n_songs=1, n_bars=30, with_bad_midi=False, n_bad_tabs=0),
    "fusion_sweep_warm": Workload(**CORPUS, warm=True),
}


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "threads": PINNED_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def _run_argv(manifest: Path, out: Path, method: str, strategy: str, seed: int) -> list[str]:
    return ["run", str(manifest), "-o", str(out), "--method", method, "--strategy", strategy,
            "--seed", str(seed), "--workers", "1"]


def _child(src: Path, pass_dir: Path, argvs: list, trace: bool, run_id: str) -> dict:
    """Run one pass in a fresh process; returns its result record."""
    pass_dir.mkdir(parents=True, exist_ok=True)
    spec = {
        "src": str(src),
        "argvs": argvs,
        "trace": trace,
        "run_id": run_id,
        "spans": str(pass_dir / "spans.jsonl"),
        "result": str(pass_dir / "result.json"),
    }
    spec_path = pass_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {**os.environ, **PINNED_THREADS}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                          env=env, timeout=PASS_TIMEOUT_S, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"pass process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def _dir_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / (1024.0 * 1024.0)


def _evaluation(out: Path) -> dict:
    """Corpus WCSR and segmentation quality, and each song's recall."""
    header, *lines = (out / "evaluation.csv").read_text(encoding="utf-8").splitlines()
    rows = {r["song_id"]: r for r in (dict(zip(header.split(","), line.split(",")))
                                      for line in lines)}
    corpus_row = rows.pop("corpus")
    return {"wcsr": float(corpus_row["csr"]), "seg": float(corpus_row["seg"]),
            "song_csr": {song: float(r["csr"]) for song, r in rows.items()}}


class Bench:
    """One workload at one seed, in a work directory inside the checkout."""

    def __init__(self, name: str, workload: Workload, seed: int, src: Path, work: Path):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.src = src
        self.work = work
        self.errors: list[str] = []

    # -- set-up ---------------------------------------------------------

    def setup(self, min_repeats: int, min_seconds: float) -> list[float]:
        """Generate (and for the warm workload, populate) the inputs, at least
        ``min_repeats`` times and until ``min_seconds`` have been spent."""
        times: list[float] = []
        while len(times) < min_repeats or sum(times) < min_seconds:
            shutil.rmtree(self.work, ignore_errors=True)
            start = time.perf_counter()
            w = self.workload
            self.files = corpus.corpus_files(self.seed, w.n_songs, w.n_bars,
                                             with_bad_midi=w.with_bad_midi,
                                             n_bad_tabs=w.n_bad_tabs)
            self.manifest = corpus.write_corpus(self.work / "corpus", self.files)
            if w.warm:
                self.populated = self.work / "populate"
                argv = _run_argv(self.manifest, self.populated, "df", "best", self.seed)
                result = _child(self.src, self.work / "populate_pass", [argv], False,
                                f"{self.name}-s{self.seed}-setup{len(times)}")
                if result["exit_codes"] != [0]:
                    raise RuntimeError(f"cold populate exited with {result['exit_codes']}")
            times.append(time.perf_counter() - start)
        self.digest = corpus.digest(self.files)
        self.audio_s = corpus.audio_seconds(self.files)
        self.songs = json.loads(self.files["manifest.json"])["songs"]
        self.degraded_wcsr = self._degraded_wcsr()
        return times

    def _degraded_wcsr(self) -> float:
        """Duration-weighted recall of the songs' audio-system ``.lab`` files."""
        # Imported here: ``main`` puts the checkout's sources on the path.
        from chordfuse.annotations import read_lab
        from chordfuse.evaluation import evaluate

        base = self.manifest.parent
        num = den = 0.0
        for song in self.songs:
            ev = evaluate(read_lab(base / song["ace_labs"][0]), read_lab(base / song["ground_truth"]))
            num += ev.csr * ev.duration
            den += ev.duration
        return num / den

    # -- one pass ---------------------------------------------------------

    def run_pass(self, index: int, trace: bool) -> dict:
        pass_dir = self.work / f"pass{index}"
        if self.workload.warm:
            outs = {}
            for method, strategy in COMBOS:
                out = pass_dir / f"{method}_{strategy}"
                out.mkdir(parents=True)
                (out / "cache").symlink_to(self.populated / "cache", target_is_directory=True)
                outs[(method, strategy)] = out
        else:
            outs = {("df", "best"): pass_dir / "out"}
        argvs = [_run_argv(self.manifest, out, m, s, self.seed) for (m, s), out in outs.items()]
        result = _child(self.src, pass_dir, argvs, trace, f"{self.name}-s{self.seed}-p{index}")
        record = {"wall_s": result["wall_s"], "peak_rss_mb": result["peak_rss_mb"],
                  "traced": trace, "spans": pass_dir / "spans.jsonl",
                  "attempted": 0, "failed": 0, "hits": 0, "computes": 0}
        if any(code != 0 for code in result["exit_codes"]):
            self.errors.append(f"pass {index}: exit codes {result['exit_codes']}")
        for out in outs.values():
            self._read_outputs(out, record)
        df_best = outs[("df", "best")]
        record.update(_evaluation(df_best))
        record["cache_mb"] = _dir_mb((df_best / "cache").resolve())
        if self.workload.warm:
            self._check_same_as_populate(df_best, index)
            if record["computes"]:
                self.errors.append(f"pass {index}: {record['computes']} cache misses on a warm cache")
        return record

    def _read_outputs(self, out: Path, record: dict) -> None:
        report = json.loads((out / "run_report.json").read_text(encoding="utf-8"))
        for song in self.songs:
            record["attempted"] += (len(song["ace_labs"]) + len(song["midis"])
                                    + len(song["tabs"]) + 1)
            failures = report["songs"][song["id"]]["failures"]
            record["failed"] += len(failures)
            for failure in failures:
                self.errors.append(f"{out.name}/{song['id']}: {failure}")
            if not (out / "songs" / song["id"] / "fused.lab").is_file():
                self.errors.append(f"{out.name}/{song['id']}: no fused.lab")
        record["hits"] += sum(report["stage_hits"].values())
        record["computes"] += sum(report["stage_computes"].values())

    def _check_same_as_populate(self, out: Path, index: int) -> None:
        for song in self.songs:
            rel = Path("songs") / song["id"] / "fused.lab"
            warm, cold = out / rel, self.populated / rel
            if warm.is_file() and warm.read_bytes() != cold.read_bytes():
                self.errors.append(f"pass {index}: {rel} differs from the cold populate's")

    # -- metrics ----------------------------------------------------------

    def quality(self, passes: list[dict]) -> dict:
        """``wcsr``, ``seg`` and ``wcsr_margin``; records a failed check if the
        passes disagree or fusion does not beat the degraded audio source."""
        first = passes[0]
        for p in passes[1:]:
            if (p["wcsr"], p["seg"]) != (first["wcsr"], first["seg"]):
                self.errors.append("wcsr or seg differs between passes of one seed")
        margin = first["wcsr"] - self.degraded_wcsr
        if margin <= 0:
            worst = ", ".join(f"{song} {csr:.3f}" for song, csr in first["song_csr"].items()
                              if csr < self.degraded_wcsr)
            self.errors.append(f"fused wcsr {first['wcsr']:.6f} does not beat the degraded "
                               f"audio source's {self.degraded_wcsr:.6f}; songs below it: "
                               f"{worst} (see songs/*/fusion_report.json in {self.work})")
        return {"wcsr": first["wcsr"], "seg": first["seg"], "wcsr_margin": margin}

    def end_to_end(self, passes: list[dict], setup_times: list[float]) -> dict:
        runs = len(COMBOS) if self.workload.warm else 1
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "audio_s_per_s": (statistics.median(self.audio_s * runs / p["wall_s"] for p in passes),
                              "s/s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
            **{k: (v, "ratio") for k, v in self.quality(passes).items()},
            "setup_s": (statistics.median(setup_times), "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def per_layer(self, passes: list[dict]) -> dict:
        traced = [p for p in passes if p["traced"]]
        plain = [p for p in passes if not p["traced"]]
        rows = []
        for p in traced:
            row = tracing.layer_metrics(tracing.read_jsonl(p["spans"]))
            looked_up = p["hits"] + p["computes"]
            row.update({
                "pipeline.cache_hits": p["hits"],
                "pipeline.cache_computes": p["computes"],
                "pipeline.cache_hit_frac": p["hits"] / looked_up if looked_up else 0.0,
                "pipeline.cache_mb": p["cache_mb"],
                "pipeline.failed_frac": p["failed"] / p["attempted"],
                "trace.wall_s": p["wall_s"],
            })
            rows.append(row)
        self.quality(passes)
        metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
            p["wall_s"] for p in plain)
        return {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def run(name: str, workload: Workload, seed: int, seconds: float, trace: bool,
        src: Path, work: Path) -> tuple[dict, dict]:
    """Set up in ``work``, measure for ``seconds`` and check; returns ``(info, result)``."""
    bench = Bench(name, workload, seed, src, work)
    # A traced run does not report set-up time, so it sets up once.
    setup_times = bench.setup(1, 0.0) if trace else bench.setup(SETUP_MIN_REPEATS,
                                                                 SETUP_MIN_SECONDS)
    passes = []
    start = time.perf_counter()
    # A traced run alternates untraced and traced passes and needs one of each.
    while not passes or time.perf_counter() - start < seconds or (trace and len(passes) < 2):
        passes.append(bench.run_pass(len(passes), trace and len(passes) % 2 == 1))
    metrics = bench.per_layer(passes) if trace else bench.end_to_end(passes, setup_times)
    info = {
        "workload": name,
        "seed": seed,
        "inputs_sha256": bench.digest,
        "audio_s": bench.audio_s,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_s": setup_times,
        "env": environment(),
        "errors": bench.errors,
    }
    result = {
        "correct": not bench.errors,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chordfuse" / "__init__.py").is_file():
        sys.stderr.write(f"error: no chordfuse sources under {root / 'src'}; "
                         "run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    info, result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace), root / "src", root / WORK_DIR / args.workload)
    for error in info["errors"]:
        sys.stderr.write(f"check failed: {error}\n")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
