import numpy as np
import pytest

from framepick import nn, prompter, synth
from framepick import tensor as T
from framepick.prompter import (FramePrompterConfig, FramePrompterParams, SelectionMask,
                                frame_keys, frame_scores, sample_frames, select_frames,
                                uniform_mask)
from framepick.tensor import Tensor, backward, grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(7)


N = 4  # patch tokens per frame
C = 3  # channels per patch


def small_cfg(**kw):
    base = dict(frames=8, segments=4, d_model=8, embed_hidden=6)
    base.update(kw)
    return FramePrompterConfig(**base)


@pytest.fixture
def cfg():
    return small_cfg()


@pytest.fixture
def params(cfg, rng):
    return FramePrompterParams.init(cfg, N, rng)


class TestConfig:
    def test_indivisible_frames_rejected(self):
        with pytest.raises(ValueError):
            small_cfg(frames=10, segments=4)

    @pytest.mark.parametrize("field", ["d_model", "embed_hidden"])
    def test_zero_size_field_named(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got 0$"):
            small_cfg(**{field: 0})

    def test_bad_tau_rejected(self):
        # picks are hard: the relaxation's temperature fields are gone
        for field in ("tau_start", "tau_end", "straight_through"):
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
                small_cfg(**{field: 1.0})


class TestPoolAndEmbed:
    """`frame_scores` pools, embeds and scores each frame on its own."""

    def test_constant_input_gives_constant_frames(self, cfg, params):
        x = Tensor(np.full((2, cfg.frames, N, C), 1.5))
        out = frame_scores(x, params, cfg)
        assert out.shape == (2, cfg.segments, cfg.frames_per_segment)
        # constancy propagates through the mean, the per-frame embedding and
        # the shared scorer
        assert np.allclose(out.data, out.data[0, 0, 0])
        # regression pin so silent changes to the embed stack are caught
        assert out.data[0, 0, 0] == pytest.approx(out.data[1, 3, 1], abs=0)

    def test_single_channel_mean_is_identity(self, cfg, params, rng):
        # the selector reads C from its input, so one channel needs no other config
        x = rng.normal(size=(1, cfg.frames, N, 1))
        pooled = T.mean_axis(Tensor(x), 3)
        assert np.array_equal(pooled.data, x[..., 0])
        out = frame_scores(Tensor(x), params, cfg)
        assert out.shape == (1, cfg.segments, cfg.frames_per_segment)

    def test_shape_mismatch(self, cfg, params):
        with pytest.raises(ValueError):
            frame_scores(Tensor(np.zeros((1, 4, 4, 3))), params, cfg)

    def test_gradient_through_chain(self, cfg, params, rng):
        x = rng.normal(size=(1, cfg.frames, N, C))
        w = rng.normal(size=(1, cfg.segments, cfg.frames_per_segment))

        def f(t):
            return T.sum_all(T.mul(frame_scores(t, params, cfg), Tensor(w)))

        report = grad_check(f, Tensor(x), tol=1e-5)
        assert report.passed, report


class TestSegmentLogits:
    def test_paper_shape_algebra(self, rng):
        cfg = small_cfg(frames=8, segments=4)
        params = FramePrompterParams.init(cfg, N, rng)
        assert params.scorer.shape == (N, 1)
        out = frame_scores(Tensor(rng.normal(size=(3, 8, N, C))), params, cfg)
        assert out.shape == (3, 4, 2)

    def test_zero_weights_give_uniform_distribution(self, cfg, rng):
        params = FramePrompterParams.init(cfg, N, rng)
        params.scorer = Tensor(np.zeros((N, 1)))
        logits = frame_scores(Tensor(rng.normal(size=(2, cfg.frames, N, C))), params, cfg)
        pi = T.softmax(logits, axis=-1)
        assert np.allclose(pi.data, 1.0 / cfg.frames_per_segment)

    def test_frame_permutation_permutes_frame_scores(self, cfg, params, rng):
        # each frame's score reads that frame alone, wherever it sits: a
        # permutation of the T frames, across segments and within them,
        # permutes the [B, T] scores the same way
        x = rng.normal(size=(2, cfg.frames, N, C))
        base = frame_scores(Tensor(x), params, cfg).data.reshape(2, cfg.frames)
        perm = np.random.default_rng(3).permutation(cfg.frames)
        permuted = frame_scores(Tensor(x[:, perm]), params, cfg).data.reshape(2, cfg.frames)
        assert np.allclose(permuted, base[:, perm], rtol=0, atol=1e-12)


class TestPickGradient:
    def test_no_gradient_flows_through_the_pick(self, cfg, rng):
        # the pick reads the logits' values; the selector learns from the
        # cross entropy of `mask.logits` alone
        logits = Tensor(rng.normal(size=(2, cfg.segments, cfg.frames_per_segment)), requires_grad=True)
        mask = sample_frames(logits, cfg, keep_graph=True)
        assert mask.logits is logits
        # the picks are plain ints: no graph hangs off them
        assert all(type(i) is int for row in mask.selected for i in row)
        labels = np.array(mask.selected).reshape(-1) % cfg.frames_per_segment
        flat = T.reshape(mask.logits, (labels.size, cfg.frames_per_segment))
        backward(T.cross_entropy(flat, labels))
        p = T.softmax(logits.detach(), axis=-1).data
        onehot = np.eye(cfg.frames_per_segment)[labels].reshape(logits.shape)
        expect = (p - onehot) / labels.size
        assert np.allclose(logits.grad, expect, atol=1e-15)


class TestSampleFramesInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_logits_rejected(self, cfg, rng, bad):
        data = rng.normal(size=(2, cfg.segments, cfg.frames_per_segment))
        data[1, 2, 0] = bad
        with pytest.raises(ValueError, match="finite logits"):
            sample_frames(Tensor(data), cfg)

    def test_inference_pick_is_the_zero_noise_pick(self, cfg, rng):
        # the one pick rule, in training and at inference: each segment's argmax
        logits = Tensor(rng.normal(size=(3, cfg.segments, cfg.frames_per_segment)), requires_grad=True)
        mask = sample_frames(logits, cfg)
        offsets = logits.data.argmax(axis=-1)
        assert mask.selected == (offsets + np.arange(cfg.segments) * cfg.frames_per_segment).tolist()
        # the scores without their graph, which the mask would keep alive
        assert np.array_equal(mask.logits.data, logits.data) and not mask.logits.requires_grad
        train = sample_frames(logits, cfg, keep_graph=True)
        assert train.selected == mask.selected and train.logits is logits


class TestUniformMask:
    @pytest.mark.parametrize("t, s", [(8, 4), (12, 4), (15, 5), (32, 4), (128, 4), (8, 8)])
    def test_matches_uniform_frame_indices(self, t, s):
        cfg = small_cfg(frames=t, segments=s)
        mask = uniform_mask(3, cfg)
        picks = list(synth.uniform_frame_indices(t, s))
        assert mask.selected == [picks] * 3
        assert mask.logits is None
        # one pick in each segment, in segment order
        assert [p // cfg.frames_per_segment for p in picks] == list(range(s))


@pytest.fixture
def attn(cfg, rng):
    """A standalone text-to-frames attention that reads the picked keys."""
    return nn.AttentionParams.init(cfg.d_model, rng)


def keys_fuse(x_tokens, mask, text, attn):
    """The mask's keys, then a text-queried attention over them."""
    return nn.cross_attention(attn, text, frame_keys(x_tokens, mask))


def select_and_fuse(x, tokens, text, params, attn, cfg, **kw):
    """`select_frames`, then the attention over its picks: (fused, mask)."""
    mask = select_frames(x, params, cfg, **kw)
    return keys_fuse(tokens, mask, text, attn), mask


class TestApplyMaskAndFuse:
    """The selection mask applied as keys (`frame_keys`) and fused with the
    text by an attention."""

    def test_full_mask_matches_unmasked_attention(self, cfg, attn, rng):
        tokens = Tensor(rng.normal(size=(1, cfg.frames, N, cfg.d_model)))
        text = Tensor(rng.normal(size=(1, 2, cfg.d_model)))
        full = SelectionMask(selected=[list(range(cfg.frames))])
        fused = keys_fuse(tokens, full, text, attn)
        b, t, n, d = tokens.shape
        plain = nn.cross_attention(attn, text, T.reshape(tokens, (b, t * n, d)))
        assert np.array_equal(fused.data, plain.data)

    def test_one_hot_mask_ignores_other_frames(self, cfg, attn, rng):
        tokens = rng.normal(size=(1, cfg.frames, N, cfg.d_model))
        text = Tensor(rng.normal(size=(1, 2, cfg.d_model)))
        mask = SelectionMask(selected=[[3]])
        out = keys_fuse(Tensor(tokens), mask, text, attn)
        perturbed = tokens.copy()
        perturbed[0, 0] += 50.0
        perturbed[0, 6] -= 9.0
        out2 = keys_fuse(Tensor(perturbed), mask, text, attn)
        assert np.array_equal(out.data, out2.data)

    def test_empty_selection_rejected(self, cfg, attn, rng):
        tokens = Tensor(rng.normal(size=(1, cfg.frames, N, cfg.d_model)))
        text = Tensor(rng.normal(size=(1, 2, cfg.d_model)))
        empty = SelectionMask(selected=[[]])
        with pytest.raises(ValueError, match="no attendable keys"):
            keys_fuse(tokens, empty, text, attn)


class TestFrameKeys:
    """`frame_keys` is one `take_rows` of the token rows: numpy fancy indexing
    forward and `np.add.at` backward, bitwise."""

    @pytest.mark.parametrize("selected", [[[1, 2, 5, 7], [0, 3, 4, 6]], [[2, 2, 2, 2], [0, 7, 7, 1]]],
                             ids=["distinct", "repeated"])
    def test_matches_fancy_indexing(self, cfg, rng, selected):
        x = Tensor(rng.normal(size=(2, cfg.frames, N, C)), requires_grad=True)
        keys = frame_keys(x, SelectionMask(selected=selected))
        batch, idx = np.arange(2)[:, None], np.array(selected)
        assert np.array_equal(keys.data, x.data[batch, idx].reshape(2, -1, C))
        g = rng.normal(size=keys.shape)
        backward(T.sum_all(T.mul(keys, Tensor(g))))
        expect = np.zeros_like(x.data)
        np.add.at(expect, (batch, idx), g.reshape(2, idx.shape[1], N, C))
        assert np.array_equal(x.grad, expect)


class TestSelectFrames:
    def test_infer_is_deterministic(self, cfg, params, attn, rng):
        x = Tensor(rng.normal(size=(2, cfg.frames, N, C)))
        tokens = Tensor(rng.normal(size=(2, cfg.frames, N, cfg.d_model)))
        text = Tensor(rng.normal(size=(2, 2, cfg.d_model)))
        a_out, a_mask = select_and_fuse(x, tokens, text, params, attn, cfg)
        b_out, b_mask = select_and_fuse(x, tokens, text, params, attn, cfg)
        assert np.array_equal(a_out.data, b_out.data)
        assert a_mask.selected == b_mask.selected

    def test_canonical_32_to_4_selection_structure(self, rng):
        cfg = FramePrompterConfig(frames=32, segments=4, d_model=8, embed_hidden=6)
        params = FramePrompterParams.init(cfg, N, rng)
        x = Tensor(rng.normal(size=(2, 32, 4, 3)))
        mask = select_frames(x, params, cfg)
        for row in mask.selected:
            assert len(row) == 4
            for s, idx in enumerate(row):
                assert s * 8 <= idx < (s + 1) * 8

    def test_train_mode_hard_row_sums(self, cfg, params, rng):
        x = Tensor(rng.normal(size=(2, cfg.frames, N, C)))
        mask = select_frames(x, params, cfg, keep_graph=True)
        fps = cfg.frames_per_segment
        assert [[i // fps for i in row] for row in mask.selected] == [list(range(cfg.segments))] * 2
        assert mask.logits.shape == (2, cfg.segments, cfg.frames_per_segment)

    def test_selection_gradient_reaches_select_head(self, cfg, rng):
        # the selector's training signal: the cross entropy of its segment
        # logits against per-segment labels reaches the select head, the
        # [N, 1] scorer, and matches finite differences
        params = FramePrompterParams.init(cfg, N, rng)
        x = rng.normal(size=(1, cfg.frames, N, C))
        labels = rng.integers(0, cfg.frames_per_segment, size=cfg.segments)
        head_w = params.scorer

        def f(w):
            p = FramePrompterParams(embed=params.embed, scorer=w)
            mask = select_frames(Tensor(x), p, cfg, keep_graph=True)
            return T.cross_entropy(T.reshape(mask.logits, (cfg.segments, cfg.frames_per_segment)), labels)

        report = grad_check(f, Tensor(head_w.data.copy()), eps=1e-5, tol=1e-4)
        assert report.passed, report

        wt = Tensor(head_w.data.copy(), requires_grad=True)
        backward(f(wt))
        assert wt.grad is not None and np.any(wt.grad != 0.0)
