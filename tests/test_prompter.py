import math
from dataclasses import replace

import numpy as np
import pytest

from framepick import nn, prompter, synth
from framepick import tensor as T
from framepick.prompter import (FramePrompterConfig, FramePrompterParams, SelectionMask,
                                frame_keys, pool_and_embed, sample_frames, segment_logits,
                                select_frames, tau_schedule, uniform_mask)
from framepick.tensor import Tensor, backward, grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def small_cfg(**kw):
    base = dict(frames=8, segments=4, patches=4, channels=3, d_model=8, embed_hidden=6)
    base.update(kw)
    return FramePrompterConfig(**base)


@pytest.fixture
def cfg():
    return small_cfg()


@pytest.fixture
def params(cfg, rng):
    return FramePrompterParams.init(cfg, rng)


def relaxed(cfg):
    return replace(cfg, straight_through=False)


def hard_pick(logits, cfg, noise):
    """The Gumbel-max pick under `noise`; it does not depend on tau."""
    return sample_frames(logits, cfg, tau=1.0, noise=noise)


class TestConfig:
    def test_indivisible_frames_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(frames=10, segments=4)

    @pytest.mark.parametrize("field", ["patches", "channels", "d_model", "embed_hidden"])
    def test_zero_size_field_named(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got 0$"):
            small_cfg(**{field: 0})

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(tau_end=0.0)
        with pytest.raises(ValueError):
            small_cfg(tau_start=0.001, tau_end=0.01)


class TestPoolAndEmbed:
    def test_constant_input_gives_constant_frames(self, cfg, params):
        x = Tensor(np.full((2, cfg.frames, cfg.patches, cfg.channels), 1.5))
        out = pool_and_embed(x, params, cfg)
        assert out.shape == (2, cfg.frames, cfg.patches)
        # constancy propagates through the mean and the per-frame embedding
        assert np.allclose(out.data, out.data[0, 0])
        # regression pin so silent changes to the embed stack are caught
        assert out.data[0, 0, 0] == pytest.approx(out.data[1, 3, 0], abs=0)

    def test_single_channel_mean_is_identity(self, rng):
        cfg = small_cfg(channels=1)
        params = FramePrompterParams.init(cfg, rng)
        x = rng.normal(size=(1, cfg.frames, cfg.patches, 1))
        pooled = T.mean_axis(Tensor(x), 3)
        assert np.array_equal(pooled.data, x[..., 0])
        out = pool_and_embed(Tensor(x), params, cfg)
        assert out.shape == (1, cfg.frames, cfg.patches)

    def test_shape_mismatch(self, cfg, params):
        with pytest.raises(ValueError):
            pool_and_embed(Tensor(np.zeros((1, 4, 4, 3))), params, cfg)

    def test_gradient_through_chain(self, cfg, params, rng):
        x = rng.normal(size=(1, cfg.frames, cfg.patches, cfg.channels))
        w = rng.normal(size=(1, cfg.frames, cfg.patches))

        def f(t):
            return T.sum_all(T.mul(pool_and_embed(t, params, cfg), Tensor(w)))

        report = grad_check(f, Tensor(x), tol=1e-5)
        assert report.passed, report


class TestSegmentLogits:
    def test_paper_shape_algebra(self, rng):
        cfg = small_cfg(frames=8, segments=4, patches=4)
        params = FramePrompterParams.init(cfg, rng)
        out = segment_logits(Tensor(rng.normal(size=(3, 8, 4))), params, cfg)
        assert out.shape == (3, 4, 2)

    def test_zero_weights_give_uniform_distribution(self, cfg, rng):
        params = FramePrompterParams.init(cfg, rng)
        fps, n = cfg.frames_per_segment, cfg.patches
        params.select_head = nn.MlpParams([("fc", Tensor(np.zeros((fps * n, fps))), Tensor(np.zeros(fps)))])
        logits = segment_logits(Tensor(rng.normal(size=(2, cfg.frames, n))), params, cfg)
        pi = T.softmax(logits, axis=-1)
        assert np.allclose(pi.data, 1.0 / fps)

    def test_segment_permutation_permutes_segment_axis(self, cfg, params, rng):
        emb = rng.normal(size=(1, cfg.frames, cfg.patches))
        base = segment_logits(Tensor(emb), params, cfg).data
        perm = np.array([2, 0, 3, 1])
        fps = cfg.frames_per_segment
        frame_perm = np.concatenate([np.arange(s * fps, (s + 1) * fps) for s in perm])
        permuted = segment_logits(Tensor(emb[:, frame_perm]), params, cfg).data
        assert np.allclose(base[:, perm], permuted, atol=1e-12)


class TestGumbelHard:
    def test_zero_noise_reduces_to_argmax(self, cfg, rng):
        logits = Tensor(rng.normal(size=(2, cfg.segments, cfg.frames_per_segment)))
        mask = hard_pick(logits, cfg, np.zeros(logits.shape))
        expect = logits.data.argmax(axis=-1)
        got = mask.hard.reshape(logits.shape).argmax(axis=-1)
        assert np.array_equal(expect, got)
        assert np.array_equal(mask.hard.sum(axis=1), [cfg.segments, cfg.segments])

    def test_selection_frequencies_match_softmax(self):
        # Gumbel-max property: empirical frequencies converge to softmax(logits);
        # draws ride on the batch axis so the module's sampler itself is measured
        cfg = small_cfg(frames=3, segments=1, patches=1)
        probs = np.array([0.7, 0.2, 0.1])
        rng = np.random.default_rng(0)
        draws = 100_000
        logits = Tensor(np.tile(np.log(probs), (draws, 1, 1)))
        mask = sample_frames(logits, cfg, tau=1.0, rng=rng)
        freqs = mask.hard.reshape(logits.shape).mean(axis=0).ravel()
        assert np.all(np.abs(freqs - probs) <= 0.01), freqs

    def test_shift_invariance_of_selection(self, cfg, rng):
        logits = rng.normal(size=(2, cfg.segments, cfg.frames_per_segment))
        noise = rng.gumbel(size=logits.shape)
        a = hard_pick(Tensor(logits), cfg, noise)
        b = hard_pick(Tensor(logits + 11.25), cfg, noise)
        assert a.selected == b.selected

    def test_indices_strictly_increasing(self, cfg, rng):
        logits = Tensor(rng.normal(size=(4, cfg.segments, cfg.frames_per_segment)))
        mask = sample_frames(logits, cfg, tau=1.0, rng=rng)
        for row in mask.selected:
            assert all(a < b for a, b in zip(row, row[1:]))


class TestGumbelSoft:
    def test_low_temperature_approaches_one_hot(self, cfg, rng):
        logits = Tensor(rng.normal(size=(2, cfg.segments, cfg.frames_per_segment)) * 3)
        noise = rng.gumbel(size=logits.shape)
        mask = sample_frames(logits, relaxed(cfg), tau=0.01, noise=noise)
        hard = hard_pick(logits, cfg, noise)
        assert np.all(np.abs(mask.soft.data - hard.hard) < 1e-6)

    def test_high_temperature_approaches_uniform(self, cfg, rng):
        logits = Tensor(rng.normal(size=(1, cfg.segments, cfg.frames_per_segment)))
        mask = sample_frames(logits, relaxed(cfg), tau=1e7, rng=rng)
        assert np.allclose(mask.soft.data, 1.0 / cfg.frames_per_segment, atol=1e-6)

    def test_straight_through_forward_equals_hard_bitwise(self, cfg, rng):
        logits = Tensor(rng.normal(size=(3, cfg.segments, cfg.frames_per_segment)), requires_grad=True)
        noise = rng.gumbel(size=logits.shape)
        st = sample_frames(logits, cfg, tau=0.7, noise=noise)
        hard = hard_pick(logits.detach(), cfg, noise)
        assert np.array_equal(st.soft.data, hard.hard)
        assert st.selected == hard.selected

    def test_straight_through_gradient_equals_soft_path(self, cfg, rng):
        # finite differences on the relaxed path certify the analytic gradient
        # the straight-through estimator reuses
        noise = rng.gumbel(size=(1, cfg.segments, cfg.frames_per_segment))
        w = rng.normal(size=(1, cfg.frames))

        def soft_scalar(logits):
            mask = sample_frames(logits, relaxed(cfg), tau=0.7, noise=noise)
            return T.sum_all(T.mul(mask.soft, Tensor(w)))

        x = rng.normal(size=(1, cfg.segments, cfg.frames_per_segment))
        assert grad_check(soft_scalar, Tensor(x), tol=1e-4).passed

        st_in = Tensor(x, requires_grad=True)
        st_mask = sample_frames(st_in, cfg, tau=0.7, noise=noise)
        backward(T.sum_all(T.mul(st_mask.soft, Tensor(w))))
        soft_in = Tensor(x, requires_grad=True)
        soft_mask = sample_frames(soft_in, relaxed(cfg), tau=0.7, noise=noise)
        backward(T.sum_all(T.mul(soft_mask.soft, Tensor(w))))
        assert np.allclose(st_in.grad, soft_in.grad, atol=1e-12)

    def test_per_segment_rows_sum_to_one(self, cfg, rng):
        logits = Tensor(rng.normal(size=(2, cfg.segments, cfg.frames_per_segment)))
        mask = sample_frames(logits, relaxed(cfg), tau=0.5, rng=rng)
        assert np.all(np.abs(mask.soft.data.reshape(logits.shape).sum(axis=-1) - 1.0) <= 1e-9)

    def test_monotone_sharpening(self, cfg, rng):
        # lower temperature never blunts the winning weight for the same draw
        for _ in range(20):
            logits = Tensor(rng.normal(size=(1, cfg.segments, cfg.frames_per_segment)))
            noise = rng.gumbel(size=logits.shape)
            lo = sample_frames(logits, relaxed(cfg), tau=0.3, noise=noise)
            hi = sample_frames(logits, relaxed(cfg), tau=1.7, noise=noise)
            lo_seg, hi_seg = lo.soft.data.reshape(logits.shape), hi.soft.data.reshape(logits.shape)
            assert np.all(lo_seg.max(axis=-1) >= hi_seg.max(axis=-1) - 1e-12)

    def test_nonpositive_tau_rejected(self, cfg, rng):
        logits = Tensor(rng.normal(size=(1, cfg.segments, cfg.frames_per_segment)))
        with pytest.raises(ValueError):
            sample_frames(logits, cfg, tau=0.0, rng=rng)
        with pytest.raises(ValueError, match="tau must be positive, got -0.5"):
            sample_frames(logits, cfg, tau=-0.5, rng=rng)


class TestSampleFramesInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("tau", [None, 0.5])
    def test_non_finite_logits_rejected(self, cfg, rng, bad, tau):
        data = rng.normal(size=(2, cfg.segments, cfg.frames_per_segment))
        data[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite logits"):
            sample_frames(Tensor(data), cfg, tau=tau, rng=rng)

    def test_rng_or_noise_required(self, cfg, rng):
        logits = Tensor(rng.normal(size=(1, cfg.segments, cfg.frames_per_segment)))
        with pytest.raises(ValueError, match="rng is required"):
            sample_frames(logits, cfg, tau=0.5)

    def test_noise_shape_must_match_logits(self, cfg, rng):
        logits = Tensor(rng.normal(size=(2, cfg.segments, cfg.frames_per_segment)))
        with pytest.raises(ValueError, match="noise shape"):
            sample_frames(logits, cfg, tau=0.5, noise=np.zeros((1, cfg.segments, cfg.frames_per_segment)))

    def test_inference_pick_is_the_zero_noise_pick(self, cfg, rng):
        logits = Tensor(rng.normal(size=(3, cfg.segments, cfg.frames_per_segment)), requires_grad=True)
        mask = sample_frames(logits, cfg)
        zero = hard_pick(logits, cfg, np.zeros(logits.shape))
        assert mask.soft is None
        assert np.array_equal(mask.hard, zero.hard) and mask.selected == zero.selected


class TestUniformMask:
    @pytest.mark.parametrize("t, s", [(8, 4), (12, 4), (15, 5), (32, 4), (128, 4), (8, 8)])
    def test_matches_uniform_frame_indices(self, t, s):
        cfg = small_cfg(frames=t, segments=s)
        mask = uniform_mask(3, cfg)
        picks = list(synth.uniform_frame_indices(t, s))
        assert mask.selected == [picks] * 3
        assert mask.soft is None
        expect = np.zeros((3, t))
        expect[:, picks] = 1.0
        assert np.array_equal(mask.hard, expect)


class TestTauSchedule:
    def test_endpoints_and_midpoint_exact(self):
        cfg = small_cfg()
        assert tau_schedule(0, 1000, cfg) == 1.0
        assert tau_schedule(1000, 1000, cfg) == 0.01
        assert tau_schedule(500, 1000, cfg) == 0.1

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            tau_schedule(0, 0, small_cfg())


def guide_fuse(x_tokens, mask, text, params):
    """The guide path of `trainer.student_forward`: the mask's keys, then
    the text-queried guide attention over them."""
    keys, key_mask = frame_keys(x_tokens, mask)
    return nn.cross_attention(params.guide_attn, text, keys, key_mask=key_mask)


def select_and_guide(x, tokens, text, params, cfg, **kw):
    """`select_frames`, then the guide over its picks: (fused, mask)."""
    mask = select_frames(x, params, cfg, **kw)
    return guide_fuse(tokens, mask, text, params), mask


class TestApplyMaskAndFuse:
    """The selection mask applied as keys (`frame_keys`) and fused with the
    text by the guide attention."""

    def test_full_mask_matches_unmasked_attention(self, cfg, params, rng):
        tokens = Tensor(rng.normal(size=(1, cfg.frames, cfg.patches, cfg.d_model)))
        text = Tensor(rng.normal(size=(1, 2, cfg.d_model)))
        full = SelectionMask(hard=np.ones((1, cfg.frames)),
                             selected=[list(range(cfg.frames))],
                             soft=Tensor(np.ones((1, cfg.frames))))
        fused = guide_fuse(tokens, full, text, params)
        b, t, n, d = tokens.shape
        plain = nn.cross_attention(params.guide_attn, text, T.reshape(tokens, (b, t * n, d)))
        assert np.array_equal(fused.data, plain.data)

    def test_one_hot_mask_ignores_other_frames(self, cfg, params, rng):
        tokens = rng.normal(size=(1, cfg.frames, cfg.patches, cfg.d_model))
        text = Tensor(rng.normal(size=(1, 2, cfg.d_model)))
        hard = np.zeros((1, cfg.frames))
        hard[0, 3] = 1.0
        mask = SelectionMask(hard=hard, selected=[[3]], soft=Tensor(hard))
        out = guide_fuse(Tensor(tokens), mask, text, params)
        perturbed = tokens.copy()
        perturbed[0, 0] += 50.0
        perturbed[0, 6] -= 9.0
        out2 = guide_fuse(Tensor(perturbed), mask, text, params)
        assert np.array_equal(out.data, out2.data)

    def test_soft_vs_hard_agree_at_low_temperature(self, cfg, params, rng):
        tokens = Tensor(rng.normal(size=(2, cfg.frames, cfg.patches, cfg.d_model)))
        text = Tensor(rng.normal(size=(2, 2, cfg.d_model)))
        logits = Tensor(rng.normal(size=(2, cfg.segments, cfg.frames_per_segment)))
        noise = rng.gumbel(size=logits.shape)
        soft_mask = sample_frames(logits, relaxed(cfg), tau=0.01, noise=noise)
        hard_mask = hard_pick(logits, cfg, noise)
        # not exactly 0/1, so the soft mask keeps every frame and is compared
        # against the gather of the hard picks
        assert not np.all((soft_mask.soft.data == 0.0) | (soft_mask.soft.data == 1.0))
        soft_out = guide_fuse(tokens, soft_mask, text, params)
        hard_out = guide_fuse(tokens, hard_mask, text, params)
        assert np.all(np.abs(soft_out.data - hard_out.data) < 1e-4)

    def test_empty_selection_rejected(self, cfg, params, rng):
        tokens = Tensor(rng.normal(size=(1, cfg.frames, cfg.patches, cfg.d_model)))
        text = Tensor(rng.normal(size=(1, 2, cfg.d_model)))
        empty = SelectionMask(hard=np.zeros((1, cfg.frames)), selected=[[]])
        with pytest.raises(ValueError, match="no attendable keys"):
            guide_fuse(tokens, empty, text, params)


class TestSelectFrames:
    def test_infer_is_deterministic(self, cfg, params, rng):
        x = Tensor(rng.normal(size=(2, cfg.frames, cfg.patches, cfg.channels)))
        tokens = Tensor(rng.normal(size=(2, cfg.frames, cfg.patches, cfg.d_model)))
        text = Tensor(rng.normal(size=(2, 2, cfg.d_model)))
        a_out, a_mask = select_and_guide(x, tokens, text, params, cfg)
        b_out, b_mask = select_and_guide(x, tokens, text, params, cfg)
        assert np.array_equal(a_out.data, b_out.data)
        assert a_mask.selected == b_mask.selected

    def test_canonical_32_to_4_selection_structure(self, rng):
        cfg = FramePrompterConfig(frames=32, segments=4, patches=4, channels=3,
                                  d_model=8, embed_hidden=6)
        params = FramePrompterParams.init(cfg, rng)
        x = Tensor(rng.normal(size=(2, 32, 4, 3)))
        mask = select_frames(x, params, cfg)
        for row in mask.selected:
            assert len(row) == 4
            for s, idx in enumerate(row):
                assert s * 8 <= idx < (s + 1) * 8

    def test_train_mode_straight_through_hard_row_sums(self, cfg, params, rng):
        x = Tensor(rng.normal(size=(2, cfg.frames, cfg.patches, cfg.channels)))
        mask = select_frames(x, params, cfg, tau=0.5, rng=rng)
        assert np.array_equal(mask.hard.sum(axis=1), [cfg.segments] * 2)
        assert np.array_equal(mask.soft.data, mask.hard)  # straight-through

    def test_selection_gradient_reaches_select_head(self, cfg, rng):
        # the text-supervised gradient path exists: d loss / d select-head
        # weights is nonzero and matches finite differences on the relaxed path
        cfg = small_cfg()
        cfg.straight_through = False
        params = FramePrompterParams.init(cfg, rng)
        x = rng.normal(size=(1, cfg.frames, cfg.patches, cfg.channels))
        tokens = rng.normal(size=(1, cfg.frames, cfg.patches, cfg.d_model))
        text = rng.normal(size=(1, 2, cfg.d_model))
        noise = rng.gumbel(size=(1, cfg.segments, cfg.frames_per_segment))
        proj = rng.normal(size=(cfg.d_model, 1))
        head_w = params.select_head.steps[0][1]

        def f(w):
            p = FramePrompterParams(
                embed=params.embed,
                select_head=nn.MlpParams([("fc", w, params.select_head.steps[0][2])]),
                guide_attn=params.guide_attn)
            fused, _ = select_and_guide(Tensor(x), Tensor(tokens), Tensor(text), p, cfg,
                                        tau=0.5, noise=noise)
            return T.sum_all(T.matmul(fused, Tensor(proj)))

        report = grad_check(f, Tensor(head_w.data.copy()), eps=1e-5, tol=1e-4)
        assert report.passed, report

        wt = Tensor(head_w.data.copy(), requires_grad=True)
        backward(f(wt))
        assert wt.grad is not None and np.any(wt.grad != 0.0)
