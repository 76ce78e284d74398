import math

import numpy as np
import pytest

from chordfuse.annotations import ChordSegment, ChordSequence, SampledSequence, sample
from chordfuse.chords import NO_CHORD, VOCABULARY, major, minor
from chordfuse.errors import NoAudioSource
from chordfuse.evaluation import csr
from chordfuse.fusion import (
    CandidateSource,
    Method,
    Origin,
    SourceSet,
    Strategy,
    fuse,
    fuse_df,
    fuse_mv,
    fuse_rnd,
    select_sources_all,
    select_sources_best,
)

C, F, G = major(0), major(5), major(7)
Am = minor(9)


def seq(*triples):
    return ChordSequence(ChordSegment(a, b, lbl) for a, b, lbl in triples)


def sampled(labels, period=0.01):
    return SampledSequence(tuple(labels), period)


def source_set(*label_rows):
    return SourceSet(
        ids=tuple(f"s{i}" for i in range(len(label_rows))),
        origins=tuple(Origin.AUDIO for _ in label_rows),
        sampled=tuple(sampled(row) for row in label_rows),
    )


def candidate(source_id, origin, sequence, **kw):
    return CandidateSource(source_id, origin, sequence, **kw)


def df_oracle(label_rows, n_labels=25, iterations=5):
    """Plain-loop evaluation of the accuracy-weighted fusion equations."""
    s_count = len(label_rows)
    x_count = len(label_rows[0])
    indices = [[VOCABULARY.index(l) for l in row] for row in label_rows]
    prob = [[0.0] * n_labels for _ in range(x_count)]
    for x in range(x_count):
        for s in range(s_count):
            prob[x][indices[s][x]] += 1.0 / s_count
    acc = [0.0] * s_count
    for _ in range(iterations):
        for s in range(s_count):
            acc[s] = sum(prob[x][indices[s][x]] for x in range(x_count)) / x_count
            acc[s] = min(max(acc[s], 1e-6), 1 - 1e-6)
        vote = [[0.0] * n_labels for _ in range(x_count)]
        for x in range(x_count):
            for s in range(s_count):
                vote[x][indices[s][x]] += math.log((n_labels - 1) * acc[s] / (1 - acc[s]))
        for x in range(x_count):
            exps = [math.exp(v) for v in vote[x]]
            total = sum(exps)
            prob[x] = [e / total for e in exps]
    labels = []
    for x in range(x_count):
        best = max(range(n_labels), key=lambda v: (prob[x][v], -v))
        labels.append(VOCABULARY.label(best))
    return labels, acc, prob


class TestSelectAll:
    def test_counts_every_source(self):
        cands = (
            [candidate("audio", Origin.AUDIO, seq((0, 1, C)))]
            + [
                candidate(f"m{i}.{lvl}", orig, seq((0, 1, F)), midi_id=f"m{i}")
                for i in range(3)
                for lvl, orig in (("bar", Origin.MIDI_BAR), ("beat", Origin.MIDI_BEAT))
            ]
            + [candidate(f"t{i}", Origin.TAB, seq((0, 1, G))) for i in range(8)]
        )
        assert len(select_sources_all(cands)) == 15

    def test_audio_only(self):
        cands = [candidate("audio", Origin.AUDIO, seq((0, 1, C)))]
        assert len(select_sources_all(cands)) == 1

    def test_empty_bundle(self):
        with pytest.raises(NoAudioSource):
            select_sources_all([])


class TestSelectBest:
    def make_bundle(self, midi_confidences, midi_ats, tab_logliks):
        cands = [candidate("audio", Origin.AUDIO, seq((0, 1, C)))]
        for i, (conf, ats) in enumerate(zip(midi_confidences, midi_ats)):
            for lvl, orig in (("bar", Origin.MIDI_BAR), ("beat", Origin.MIDI_BEAT)):
                cands.append(
                    candidate(
                        f"m{i}.{lvl}", orig, seq((0, 1, F)),
                        confidence=conf, ats=ats, midi_id=f"m{i}",
                    )
                )
        for i, ll in enumerate(tab_logliks):
            cands.append(candidate(f"t{i}", Origin.TAB, seq((0, 1, G)), loglik=ll))
        return cands

    def test_badly_aligned_midis_all_dropped(self):
        cands = self.make_bundle([0.9, 0.95], [1.0, 0.9], [-100.0])
        picked = select_sources_best(cands)
        ids = {c.source_id for c in picked}
        assert ids == {"audio", "t0"}

    def test_single_confident_midi_included(self):
        cands = self.make_bundle([0.5], [-1.0], [])
        ids = {c.source_id for c in select_sources_best(cands)}
        assert ids == {"audio", "m0.bar", "m0.beat"}

    def test_max_ats_midi_wins(self):
        cands = self.make_bundle([0.5, 0.4], [0.2, 0.7], [])
        ids = {c.source_id for c in select_sources_best(cands)}
        assert ids == {"audio", "m1.bar", "m1.beat"}

    def test_ats_tie_goes_to_lower_confidence(self):
        # Both files match their templates perfectly; the alphabetically
        # first one is the worse-aligned.
        cands = self.make_bundle([0.8, 0.1], [1.0, 1.0], [])
        ids = {c.source_id for c in select_sources_best(cands)}
        assert ids == {"audio", "m1.bar", "m1.beat"}
        cands = self.make_bundle([0.1, 0.8], [1.0, 1.0], [])
        ids = {c.source_id for c in select_sources_best(cands)}
        assert ids == {"audio", "m0.bar", "m0.beat"}

    def test_full_tie_goes_to_first_midi_id(self):
        cands = self.make_bundle([0.3, 0.3], [1.0, 1.0], [])
        ids = {c.source_id for c in select_sources_best(cands)}
        assert ids == {"audio", "m0.bar", "m0.beat"}

    def test_report_records_midi_decision(self):
        cands = self.make_bundle([0.8, 0.1, 0.9], [1.0, 1.0, 0.5], [-3.0])
        _, report = fuse(cands, Method.DF, Strategy.BEST)
        assert report["midi"] == {
            "m0": {"kept": False, "ats": 1.0, "confidence": 0.8},
            "m1": {"kept": True, "ats": 1.0, "confidence": 0.1},
            "m2": {"kept": False, "ats": 0.5, "confidence": 0.9},
        }
        _, report = fuse(cands, Method.DF, Strategy.ALL)
        assert all(entry["kept"] for entry in report["midi"].values())

    def test_max_loglik_tab_wins(self):
        cands = self.make_bundle([], [], [-100.0, -90.0])
        picked = select_sources_best(cands)
        assert {c.source_id for c in picked} == {"audio", "t1"}


class TestFuseRnd:
    def test_single_source_identity(self):
        s = source_set([C, F, G])
        assert fuse_rnd(s, seed=1).labels == (C, F, G)

    def test_identical_sources(self):
        s = source_set([C, F], [C, F], [C, F])
        assert fuse_rnd(s, seed=3).labels == (C, F)

    def test_seed_reproducible(self):
        s = source_set([C, F, G, Am], [F, G, Am, C], [G, Am, C, F])
        assert fuse_rnd(s, seed=11).labels == fuse_rnd(s, seed=11).labels


class TestFuseMv:
    def test_majority(self):
        s = source_set([C], [C], [F])
        assert fuse_mv(s, seed=0).labels == (C,)

    def test_tie_resolved_among_tied(self):
        s = source_set([C, C], [C, C], [F, F], [F, F])
        out = fuse_mv(s, seed=5)
        assert all(lbl in (C, F) for lbl in out.labels)

    def test_single_source_identity(self):
        s = source_set([G, Am])
        assert fuse_mv(s, seed=9).labels == (G, Am)


class TestFuseDf:
    def test_single_source_fixed_point(self):
        s = source_set([C, F, G, NO_CHORD])
        fused, accuracy = fuse_df(s)
        assert fused.labels == (C, F, G, NO_CHORD)
        assert accuracy[0] == pytest.approx(1 - 1e-6)

    def test_identical_sources(self):
        s = source_set([C, F], [C, F], [C, F])
        fused, _ = fuse_df(s)
        assert fused.labels == (C, F)

    def test_matches_hand_iteration(self):
        rows = [
            [C, F, G, C],
            [C, F, G, C],
            [F, G, C, Am],  # disagrees everywhere
        ]
        s = source_set(*rows)
        fused, accuracy = fuse_df(s)
        ref_labels, ref_acc, ref_prob = df_oracle(rows)
        assert list(fused.labels) == ref_labels
        assert accuracy == pytest.approx(ref_acc, abs=1e-9)
        # The dissenting source ends with the strictly smallest accuracy.
        assert accuracy[2] < accuracy[0]
        assert accuracy[2] < accuracy[1]
        assert list(fused.labels) == [C, F, G, C]

    def test_oracle_on_random_instances(self):
        rng = np.random.default_rng(1313)
        labels = [C, F, G, Am, NO_CHORD]
        for _ in range(20):
            n_sources = int(rng.integers(1, 6))
            n_samples = int(rng.integers(1, 12))
            rows = [
                [labels[int(rng.integers(0, len(labels)))] for _ in range(n_samples)]
                for _ in range(n_sources)
            ]
            fused, accuracy = fuse_df(source_set(*rows))
            ref_labels, ref_acc, ref_prob = df_oracle(rows)
            assert list(fused.labels) == ref_labels
            assert accuracy == pytest.approx(ref_acc, abs=1e-9)

    def test_probabilities_rows_sum_to_one(self):
        rows = [[C, F, G], [C, G, G], [F, F, G]]
        _, _, prob = df_oracle(rows)
        for row in prob:
            assert sum(row) == pytest.approx(1.0, abs=1e-9)

    def test_source_order_invariance(self):
        rows = [[C, F, G, C], [C, F, G, C], [F, G, C, Am]]
        a, _ = fuse_df(source_set(*rows))
        b, _ = fuse_df(source_set(*rows[::-1]))
        assert a.labels == b.labels


class TestFuse:
    def test_all_sources_equal_truth(self):
        truth = seq((0, 0.5, C), (0.5, 1.0, F), (1.0, 2.0, G))
        cands = [
            candidate("audio", Origin.AUDIO, truth),
            candidate("tab", Origin.TAB, truth, loglik=-3.0),
        ]
        fused, report = fuse(cands, Method.DF, Strategy.BEST, seed=0)
        assert csr(fused, truth) == pytest.approx(1.0)
        assert set(report["sources"]) == {"audio", "tab"}

    def test_output_tiles_duration(self):
        cands = [
            candidate("audio", Origin.AUDIO, seq((0, 1.0, C), (1.0, 2.0, F))),
            candidate("tab", Origin.TAB, seq((0, 2.0, C)), loglik=-1.0),
        ]
        fused, _ = fuse(cands, Method.MV, Strategy.ALL, seed=4)
        assert fused.span_start == pytest.approx(0.0)
        assert fused.span_end == pytest.approx(2.0)
        for a, b in zip(fused.segments, fused.segments[1:]):
            assert b.start == pytest.approx(a.end)

    def test_rnd_all_bounded_by_best_source(self):
        truth = seq((0, 4, C), (4, 8, F))
        good = truth
        bad = seq((0, 8, Am))
        cands = [
            candidate("audio", Origin.AUDIO, good),
            candidate("tab1", Origin.TAB, bad, loglik=-10.0),
            candidate("tab2", Origin.TAB, bad, loglik=-12.0),
        ]
        scores = []
        for seed in range(10):
            fused, _ = fuse(cands, Method.RND, Strategy.ALL, seed=seed)
            scores.append(csr(fused, truth))
        best_single = max(csr(good, truth), csr(bad, truth))
        assert np.mean(scores) <= best_single + 1e-9

    def test_mv_matches_per_sample_enumeration(self):
        truth = seq((0, 4, C))
        rows = [
            seq((0, 2, C), (2, 4, F)),
            seq((0, 3, C), (3, 4, G)),
            seq((0, 1, F), (1, 4, C)),
        ]
        cands = [
            candidate("audio", Origin.AUDIO, rows[0]),
            candidate("t0", Origin.TAB, rows[1], loglik=-1.0),
            candidate("t1", Origin.TAB, rows[2], loglik=-2.0),
        ]
        fused, _ = fuse(cands, Method.MV, Strategy.ALL, seed=0)
        fused_samples = sample(fused, 0.01, 4.0)
        for i in range(len(fused_samples)):
            t = (i + 0.5) * 0.01
            votes = [r.label_at(t) for r in rows]
            counts = {lbl: votes.count(lbl) for lbl in set(votes)}
            top = max(counts.values())
            assert counts.get(fused_samples.labels[i], 0) == top
