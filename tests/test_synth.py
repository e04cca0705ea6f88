import numpy as np
import pytest

from framepick.synth import (DatasetSpec, PatternBank, decode_sample,
                             expected_uniform_keyframe_hits, generate,
                             oracle_accuracy, uniform_frame_indices)


def small_spec(**kw):
    base = dict(num_train=64, num_val=32, frames=16, patches=4, raw_dim=24,
                num_choices=4, num_keyframes=4, num_attributes=4, seed=5)
    base.update(kw)
    return DatasetSpec(**base)


@pytest.fixture(scope="module")
def dataset():
    spec = small_spec()
    train, val = generate(spec)
    return spec, train, val, PatternBank(spec)


class TestSpecValidation:
    def test_k_must_not_exceed_t(self):
        with pytest.raises(ValueError, match="K must not exceed T"):
            small_spec(num_keyframes=20)

    def test_counts_positive(self):
        with pytest.raises(ValueError):
            small_spec(num_train=0)

    def test_k_must_divide_t(self):
        with pytest.raises(ValueError, match="K to divide T"):
            small_spec(frames=18)


class TestGeneration:
    def test_same_spec_is_bitwise_identical(self):
        a_train, a_val = generate(small_spec())
        b_train, b_val = generate(small_spec())
        for a, b in zip(a_train + a_val, b_train + b_val):
            assert np.array_equal(a.raw_video, b.raw_video)
            assert np.array_equal(a.question, b.question)
            assert a.answer_idx == b.answer_idx
            assert a.keyframes == b.keyframes

    def test_self_decoder_recovers_every_answer(self, dataset):
        spec, train, val, bank = dataset
        for s in train + val:
            assert decode_sample(s, bank) == s.answer_idx

    def test_train_val_streams_differ(self, dataset):
        spec, train, val, _ = dataset
        assert not np.array_equal(train[0].raw_video, val[0].raw_video)
        assert {s.seed for s in train}.isdisjoint({s.seed for s in val})

    def test_keyframe_structure(self, dataset):
        spec, train, _, _ = dataset
        seg = spec.frames // spec.num_keyframes
        for s in train:
            assert len(s.keyframes) == spec.num_keyframes
            assert len(set(s.keyframes)) == spec.num_keyframes
            for i, f in enumerate(s.keyframes):
                assert i * seg <= f < (i + 1) * seg

    def test_answers_uniformly_cover_choices(self):
        spec = small_spec(num_train=400)
        train, _ = generate(spec)
        counts = np.bincount([s.answer_idx for s in train], minlength=4)
        assert counts.min() > 50  # roughly uniform across the 4 slots


class TestInformationLocality:
    def test_zeroing_keyframes_drops_decoder_to_chance(self):
        spec = small_spec(num_train=5000, num_val=1)
        train, _ = generate(spec)
        bank = PatternBank(spec)
        hits = 0
        for s in train:
            blanked = SynthSample_with_video(s, zero_frames(s, s.keyframes))
            hits += decode_sample(blanked, bank) == s.answer_idx
        rate = hits / len(train)
        assert abs(rate - 1.0 / spec.num_choices) <= 0.02, rate

    def test_zeroing_non_keyframes_never_changes_the_answer(self, dataset):
        spec, train, _, bank = dataset
        rng = np.random.default_rng(0)
        for s in train:
            others = [f for f in range(spec.frames) if f not in s.keyframes]
            drop = rng.choice(others, size=rng.integers(1, len(others) + 1), replace=False)
            blanked = SynthSample_with_video(s, zero_frames(s, drop))
            assert decode_sample(blanked, bank, range(spec.frames)) == s.answer_idx

    def test_decoys_mislead_when_no_keyframe_is_readable(self, dataset):
        # reading only non-keyframes must not beat chance by much
        spec, train, _, bank = dataset
        hits = 0
        for s in train:
            others = [f for f in range(spec.frames) if f not in s.keyframes]
            hits += decode_sample(s, bank, others) == s.answer_idx
        assert hits / len(train) < 0.45


def zero_frames(sample, frames):
    video = sample.raw_video.copy()
    video[list(frames)] = 0.0
    return video


def SynthSample_with_video(sample, video):
    from dataclasses import replace
    return replace(sample, raw_video=video)


class TestOracles:
    def test_keyframe_oracle_is_perfect(self, dataset):
        spec, train, _, bank = dataset
        assert oracle_accuracy("keyframe_oracle", train, spec, spec.num_keyframes, bank) == 1.0

    def test_uniform_enumeration_matches_closed_form(self):
        # K=1, k=4, T=32, one keyframe anywhere in the single segment:
        # picks cover 4 of 32 positions -> expected hit rate 4/32 = 1/8
        spec = DatasetSpec(num_train=1, num_val=1, frames=32, patches=4, raw_dim=24,
                           num_choices=4, num_keyframes=1, num_attributes=3, seed=0)
        assert expected_uniform_keyframe_hits(spec, 4) == pytest.approx(4 / 32)
        # canonical T=32, K=4 spec: one pick lands in each 8-frame segment
        spec4 = DatasetSpec(frames=32, num_keyframes=4, seed=0)
        assert expected_uniform_keyframe_hits(spec4, 4) == pytest.approx(1 / 8)

    def test_uniform_oracle_accuracy_tracks_hit_rate(self):
        spec = small_spec(num_train=2000, frames=32, num_keyframes=4)
        train, _ = generate(spec)
        bank = PatternBank(spec)
        acc = oracle_accuracy("uniform_k", train, spec, 4, bank)
        # only the keyframe carrying the queried attribute answers; uniform
        # picks hit it 1/8 of the time, the rest decodes at chance
        expected = 1 / 8 + (1 - 1 / 8) * 0.25
        assert abs(acc - expected) < 0.05, (acc, expected)

    def test_random_never_beats_keyframe_oracle(self, dataset):
        spec, train, _, bank = dataset
        for k in (1, 2, 4, 8):
            rand = oracle_accuracy("random_k", train, spec, k, bank, seed=3)
            assert rand <= oracle_accuracy("keyframe_oracle", train, spec, spec.num_keyframes, bank)

    def test_degenerate_full_information_case(self):
        # noise-free: the single keyframe carrying the queried attribute
        # suffices on its own, and the full keyframe set decodes exactly
        spec = small_spec(num_train=50, noise_std=0.0)
        train, _ = generate(spec)
        bank = PatternBank(spec)
        assert oracle_accuracy("keyframe_oracle", train, spec, spec.num_keyframes, bank) == 1.0
        for s in train:
            informative = s.keyframes[s.keyframe_attrs.index(s.attribute)]
            assert decode_sample(s, bank, [informative]) == s.answer_idx

    def test_k_larger_than_t_rejected(self, dataset):
        spec, train, _, bank = dataset
        with pytest.raises(ValueError):
            oracle_accuracy("uniform_k", train, spec, spec.frames + 1, bank)


def test_uniform_frame_indices_spread():
    assert uniform_frame_indices(32, 4) == (4, 12, 20, 28)
    assert uniform_frame_indices(8, 8) == tuple(range(8))
