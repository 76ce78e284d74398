"""Combining per-song chord sequences from many sources into one output.

Sources (audio systems, bar- and beat-level MIDI estimates, aligned tabs)
are resampled onto a common 10 ms grid and integrated per sample by
random picking, majority voting, or an iterative accuracy-weighted vote
in which sources that agree with the emerging consensus gain influence.
Selection happens first: either every source participates or only the
expected best MIDI and tab survive.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .annotations import ChordSequence, SampledSequence, merge_samples, sample
from .chords import VOCABULARY, ChordVocabulary
from .errors import NoAudioSource

SAMPLE_PERIOD = 0.01
DF_ITERATIONS = 5
ACCURACY_CLAMP = 1e-6
CONFIDENCE_THRESHOLD = 0.85


class Origin(str, enum.Enum):
    AUDIO = "audio"
    MIDI_BAR = "midi-bar"
    MIDI_BEAT = "midi-beat"
    TAB = "tab"


class Method(str, enum.Enum):
    RND = "rnd"
    MV = "mv"
    DF = "df"


class Strategy(str, enum.Enum):
    ALL = "all"
    BEST = "best"


@dataclass(frozen=True)
class CandidateSource:
    """One estimated chord sequence plus the metrics selection relies on."""

    source_id: str
    origin: Origin
    sequence: ChordSequence
    confidence: Optional[float] = None  # MIDI alignment score, lower is better
    ats: Optional[float] = None  # template similarity of a MIDI estimate
    loglik: Optional[float] = None  # jump alignment likelihood of a tab
    midi_id: Optional[str] = None  # groups the two levels of one MIDI file


@dataclass(frozen=True)
class SourceSet:
    """Sources sampled onto one shared grid, ready for integration."""

    ids: tuple[str, ...]
    origins: tuple[Origin, ...]
    sampled: tuple[SampledSequence, ...]

    def __post_init__(self):
        lengths = {len(s) for s in self.sampled}
        periods = {s.sample_period for s in self.sampled}
        if len(lengths) > 1 or len(periods) > 1:
            raise ValueError("sources must share sample period and length")

    def __len__(self) -> int:
        return len(self.sampled)


def select_sources_all(candidates: Sequence[CandidateSource]) -> list[CandidateSource]:
    """Every available sequence, unfiltered."""
    if not any(c.origin is Origin.AUDIO for c in candidates):
        raise NoAudioSource("bundle has no audio-based sequence")
    return list(candidates)


def _midi_groups(candidates: Sequence[CandidateSource]) -> dict[str, list[CandidateSource]]:
    """MIDI candidates grouped by file, both segmentation levels together."""
    groups: dict[str, list[CandidateSource]] = {}
    for c in candidates:
        if c.origin in (Origin.MIDI_BAR, Origin.MIDI_BEAT):
            groups.setdefault(c.midi_id or c.source_id, []).append(c)
    return groups


def _group_ats(group: Sequence[CandidateSource]) -> Optional[float]:
    return max((c.ats for c in group if c.ats is not None), default=None)


def _group_confidence(group: Sequence[CandidateSource]) -> Optional[float]:
    return max((c.confidence for c in group if c.confidence is not None), default=None)


def select_sources_best(candidates: Sequence[CandidateSource]) -> list[CandidateSource]:
    """Audio plus the expected best MIDI (both levels) and best tab.

    MIDI files whose alignment confidence exceeds 0.85 are discarded; of
    the survivors the one with the highest template-similarity figure is
    kept.  A tie in that figure means exact float equality, as when both
    files of a song match their triad templates perfectly; it goes to the
    lower (better) alignment confidence, a file without one losing, and
    then to the alphabetically first MIDI id.  The tab with the highest
    alignment log likelihood is kept.  If no MIDI survives, the selection
    is audio and tab only.
    """
    audio = [c for c in candidates if c.origin is Origin.AUDIO]
    if not audio:
        raise NoAudioSource("bundle has no audio-based sequence")
    selected = list(audio)

    survivors = {
        key: group
        for key, group in _midi_groups(candidates).items()
        if all(
            c.confidence is None or c.confidence <= CONFIDENCE_THRESHOLD for c in group
        )
    }
    if survivors:

        def rank(key: str) -> tuple[float, float]:
            ats = _group_ats(survivors[key])
            confidence = _group_confidence(survivors[key])
            return (
                -math.inf if ats is None else ats,
                -math.inf if confidence is None else -confidence,
            )

        best_key = max(sorted(survivors), key=rank)
        selected.extend(sorted(survivors[best_key], key=lambda c: c.source_id))

    tabs = [c for c in candidates if c.origin is Origin.TAB]
    if tabs:
        best_tab = max(
            tabs, key=lambda c: c.loglik if c.loglik is not None else -math.inf
        )
        selected.append(best_tab)
    return selected


def build_source_set(
    candidates: Sequence[CandidateSource], period: float = SAMPLE_PERIOD
) -> SourceSet:
    """Sample every candidate onto a shared grid spanning the longest source."""
    duration = max((c.sequence.span_end for c in candidates), default=0.0)
    sampled = tuple(sample(c.sequence, period, duration) for c in candidates)
    return SourceSet(
        tuple(c.source_id for c in candidates),
        tuple(c.origin for c in candidates),
        sampled,
    )


def _label_matrix(source_set: SourceSet, vocab: ChordVocabulary) -> np.ndarray:
    """Vocabulary indices per (source, sample)."""
    return np.array(
        [[vocab.index(lbl) for lbl in s.labels] for s in source_set.sampled], dtype=int
    )


def _to_sampled(indices: np.ndarray, vocab: ChordVocabulary, period: float) -> SampledSequence:
    return SampledSequence(tuple(vocab.label(int(i)) for i in indices), period)


def fuse_rnd(source_set: SourceSet, seed: int = 0, vocab: ChordVocabulary = VOCABULARY) -> SampledSequence:
    """Per sample, the label of a uniformly random source (seeded)."""
    labels = _label_matrix(source_set, vocab)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, labels.shape[0], size=labels.shape[1])
    chosen = labels[picks, np.arange(labels.shape[1])]
    return _to_sampled(chosen, vocab, source_set.sampled[0].sample_period)


def fuse_mv(source_set: SourceSet, seed: int = 0, vocab: ChordVocabulary = VOCABULARY) -> SampledSequence:
    """Per sample, the most frequent label; ties resolve uniformly at random."""
    labels = _label_matrix(source_set, vocab)
    n_sources, n_samples = labels.shape
    rng = np.random.default_rng(seed)
    out = np.empty(n_samples, dtype=int)
    counts = np.zeros((n_samples, len(vocab)), dtype=int)
    for s in range(n_sources):
        np.add.at(counts, (np.arange(n_samples), labels[s]), 1)
    top = counts.max(axis=1)
    for x in range(n_samples):
        tied = np.flatnonzero(counts[x] == top[x])
        out[x] = tied[0] if len(tied) == 1 else rng.choice(tied)
    return _to_sampled(out, vocab, source_set.sampled[0].sample_period)


def fuse_df(
    source_set: SourceSet, vocab: ChordVocabulary = VOCABULARY
) -> tuple[SampledSequence, np.ndarray]:
    """Accuracy-weighted iterative vote, run for a fixed five iterations.

    Label probabilities start from plain frequencies.  Each iteration
    scores every source by the mean probability of the labels it emits,
    converts that accuracy into a log-odds vote weight, accumulates
    weighted votes per label and renormalizes with a softmax.  Returns the
    fused samples and the final per-source accuracies.
    """
    labels = _label_matrix(source_set, vocab)
    n_sources, n_samples = labels.shape
    n_labels = len(vocab)
    cols = np.arange(n_samples)

    counts = np.zeros((n_samples, n_labels))
    for s in range(n_sources):
        np.add.at(counts, (cols, labels[s]), 1.0)
    prob = counts / n_sources

    accuracy = np.zeros(n_sources)
    for _ in range(DF_ITERATIONS):
        for s in range(n_sources):
            accuracy[s] = prob[cols, labels[s]].mean()
        accuracy = np.clip(accuracy, ACCURACY_CLAMP, 1.0 - ACCURACY_CLAMP)
        weights = np.log((n_labels - 1) * accuracy / (1.0 - accuracy))
        vote_counts = np.zeros((n_samples, n_labels))
        for s in range(n_sources):
            np.add.at(vote_counts, (cols, labels[s]), weights[s])
        shifted = vote_counts - vote_counts.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        prob = expd / expd.sum(axis=1, keepdims=True)

    fused = np.argmax(prob, axis=1)
    period = source_set.sampled[0].sample_period
    return _to_sampled(fused, vocab, period), accuracy


def fuse(
    candidates: Sequence[CandidateSource],
    method: Method = Method.DF,
    strategy: Strategy = Strategy.BEST,
    seed: int = 0,
    period: float = SAMPLE_PERIOD,
    vocab: ChordVocabulary = VOCABULARY,
) -> tuple[ChordSequence, dict]:
    """Select, sample, integrate and merge back into a chord sequence.

    Returns the fused sequence and a report with the participating source
    ids, each MIDI file's selection figures (template similarity, alignment
    confidence) and whether it was kept, and the final accuracies for the
    accuracy-weighted method.
    """
    selector = select_sources_all if strategy is Strategy.ALL else select_sources_best
    selected = selector(candidates)
    source_set = build_source_set(selected, period)
    kept = set(source_set.ids)
    report: dict = {
        "method": method.value,
        "strategy": strategy.value,
        "sources": list(source_set.ids),
        "midi": {
            midi_id: {
                "kept": any(c.source_id in kept for c in group),
                "ats": _group_ats(group),
                "confidence": _group_confidence(group),
            }
            for midi_id, group in _midi_groups(candidates).items()
        },
    }
    if method is Method.RND:
        fused = fuse_rnd(source_set, seed, vocab)
    elif method is Method.MV:
        fused = fuse_mv(source_set, seed, vocab)
    else:
        fused, accuracy = fuse_df(source_set, vocab)
        report["source_accuracy"] = {
            sid: float(a) for sid, a in zip(source_set.ids, accuracy)
        }
    return merge_samples(fused), report
