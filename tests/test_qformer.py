import numpy as np
import pytest

from framepick import nn
from framepick import tensor as T
from framepick.qformer import (DistillDecoderParams, QFormerParams, distill_decode,
                               distill_loss, qformer_forward)
from framepick.tensor import Tensor, backward, grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(21)


def make_qf(d=4, q=2, budget=4, patches=2, rng=None, heads=1):
    return QFormerParams.init(d, q, budget, patches, rng or np.random.default_rng(5), num_heads=heads)


class TestQFormerForward:
    def test_single_token_closed_form_composition(self, rng):
        # Q=1, Lv=1, Lq=1: two single-key attentions compose in closed form
        d = 4
        params = make_qf(d=d, q=1, budget=1, patches=1, rng=rng)
        vis = rng.normal(size=(1, 1, d))
        text = rng.normal(size=(1, 1, d))
        out = qformer_forward(params, Tensor(vis), Tensor(text))

        sa = params.self_attn[0]
        qtok = params.query_tokens.data[0]
        # self-attention over [q, visual]: softmax over two keys
        seq = np.stack([qtok, vis[0, 0]])
        logits = (qtok @ sa.wq.data) @ (seq @ sa.wk.data).T / np.sqrt(d)
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        fused_q = (w @ (seq @ sa.wv.data)) @ sa.wo.data
        # cross-attention with one key is that key's value path
        expected = (fused_q @ params.cross_attn.wv.data) @ params.cross_attn.wo.data
        assert np.allclose(out.data[0, 0], expected, atol=1e-12)

    def test_visual_permutation_invariance(self, rng):
        params = make_qf(d=4, q=2, budget=3, patches=2, rng=rng)
        vis = rng.normal(size=(1, 6, 4))
        text = Tensor(rng.normal(size=(1, 3, 4)))
        perm = np.random.default_rng(0).permutation(6)
        out = qformer_forward(params, Tensor(vis), text)
        out_p = qformer_forward(params, Tensor(vis[:, perm]), text)
        assert np.allclose(out.data, out_p.data, atol=1e-12)

    def test_gradient_wrt_query_tokens(self, rng):
        d = 4
        params = make_qf(d=d, q=2, budget=2, patches=2, rng=rng)
        vis = rng.normal(size=(1, 4, d))  # 2 frames x 2 patches
        text = rng.normal(size=(1, 2, d))

        def f(qtok):
            p = QFormerParams(qtok, params.self_attn, params.cross_attn, 2, 2)
            return T.sum_all(qformer_forward(p, Tensor(vis), Tensor(text)))

        report = grad_check(f, Tensor(params.query_tokens.data.copy()), tol=1e-5)
        assert report.passed, report

    def test_frame_budget_error(self, rng):
        params = make_qf(d=4, q=2, budget=2, patches=2, rng=rng)
        with pytest.raises(ValueError, match="budget"):
            qformer_forward(params, Tensor(rng.normal(size=(1, 6, 4))),
                            Tensor(rng.normal(size=(1, 2, 4))))

    def test_output_shape_fixed_across_budgets(self, rng):
        text = Tensor(rng.normal(size=(2, 3, 4)))
        for frames in (1, 2, 4):
            params = make_qf(d=4, q=2, budget=4, patches=2, rng=np.random.default_rng(1))
            vis = Tensor(rng.normal(size=(2, frames * 2, 4)))
            out = qformer_forward(params, vis, text)
            assert out.shape == (2, 3, 4)

    def test_instance_symmetry(self, rng):
        # same parameters and inputs: teacher and student instances agree
        a = make_qf(d=4, q=2, budget=4, patches=2, rng=np.random.default_rng(11))
        b = make_qf(d=4, q=2, budget=4, patches=2, rng=np.random.default_rng(11))
        vis = Tensor(rng.normal(size=(1, 4, 4)))
        text = Tensor(rng.normal(size=(1, 2, 4)))
        assert np.array_equal(qformer_forward(a, vis, text).data,
                              qformer_forward(b, vis, text).data)

    def test_soft_visual_mask_gradient(self, rng):
        params = make_qf(d=4, q=2, budget=3, patches=1, rng=rng)
        vis = rng.normal(size=(1, 3, 4))
        text = rng.normal(size=(1, 2, 4))

        def f(mask_logits):
            mask = T.softmax(mask_logits, axis=-1)
            return T.sum_all(qformer_forward(params, Tensor(vis), Tensor(text),
                                             visual_key_mask=mask))

        assert grad_check(f, Tensor(rng.normal(size=(1, 3))), tol=1e-5).passed


def full_rows_forward(params, vis, text, visual_key_mask=None):
    """Reference fusion: every self-attention block over every row, then narrow."""
    b, _, d = vis.shape
    q = params.num_queries
    seq = T.concat([T.broadcast_to(T.reshape(params.query_tokens, (1, q, d)), (b, q, d)), vis], axis=1)
    mask = None
    if visual_key_mask is not None:
        mask = T.concat([Tensor(np.ones((b, q))), visual_key_mask], axis=1)
    for block in params.self_attn:
        seq = nn.self_attention(block, seq, key_mask=mask)
    return nn.cross_attention(params.cross_attn, text, T.narrow(seq, 1, 0, q))


def assert_close(actual, expected, rel=1e-12):
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


class TestLastBlockQueryRows:
    """qformer_forward computes only the query rows of the last block; it must
    equal the full-rows reference in outputs and in every gradient."""

    B, FRAMES, PATCHES, D, Q = 2, 4, 3, 8, 3

    def run(self, forward, params, vis, text, mask_kind, readout):
        for p in params.named("qf").values():
            p.grad = None
        vis_t = Tensor(vis.copy(), requires_grad=True)
        mask_t = None
        if mask_kind == "hard":
            hard = np.ones((self.B, self.FRAMES * self.PATCHES))
            hard[0, :self.PATCHES] = 0.0
            hard[1, -2 * self.PATCHES:] = 0.0
            mask_t = Tensor(hard)
        elif mask_kind == "relaxed":
            mask_t = Tensor(np.random.default_rng(3).uniform(0.1, 0.9, size=vis.shape[:2]),
                            requires_grad=True)
        out = forward(params, vis_t, Tensor(text), visual_key_mask=mask_t)
        backward(T.sum_all(T.mul(out, Tensor(readout))))
        grads = {name: p.grad.copy() for name, p in params.named("qf").items()}
        grads["visual_tokens"] = vis_t.grad
        if mask_kind == "relaxed":
            grads["mask"] = mask_t.grad
        return out.data, grads

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("mask_kind", ["none", "hard", "relaxed"])
    def test_matches_full_rows_reference(self, depth, mask_kind):
        rng = np.random.default_rng(40 + depth)
        params = QFormerParams.init(self.D, self.Q, self.FRAMES, self.PATCHES, rng,
                                    num_heads=2, depth=depth)
        vis = rng.normal(size=(self.B, self.FRAMES * self.PATCHES, self.D))
        text = rng.normal(size=(self.B, 4, self.D))
        readout = rng.normal(size=(self.B, 4, self.D))
        out, grads = self.run(qformer_forward, params, vis, text, mask_kind, readout)
        ref_out, ref_grads = self.run(full_rows_forward, params, vis, text, mask_kind, readout)
        assert_close(out, ref_out)
        assert grads.keys() == ref_grads.keys()
        for name in ref_grads:
            assert np.any(ref_grads[name] != 0.0), name
            assert_close(grads[name], ref_grads[name])

    def test_straight_through_mask_over_budget_raises(self):
        rng = np.random.default_rng(2)
        params = QFormerParams.init(self.D, self.Q, 2, self.PATCHES, rng)
        lv = self.FRAMES * self.PATCHES
        hard = np.zeros((1, lv))
        hard[0, :3 * self.PATCHES] = 1.0  # three frames against a budget of two
        soft = T.softmax(Tensor(rng.normal(size=(1, lv)), requires_grad=True), axis=-1)
        mask = T.add(Tensor(hard), T.sub(soft, soft.detach()))
        assert np.array_equal(mask.data, hard)
        with pytest.raises(ValueError, match="budget"):
            qformer_forward(params, Tensor(rng.normal(size=(1, lv, self.D))),
                            Tensor(rng.normal(size=(1, 2, self.D))), visual_key_mask=mask)

    def test_depth_below_one_rejected(self, rng):
        with pytest.raises(ValueError, match="depth"):
            QFormerParams.init(4, 2, 2, 2, rng, depth=0)


class TestDistillDecoder:
    def test_identity_fc_with_unit_ln_gives_layer_norm(self, rng):
        d = 4
        dec = DistillDecoderParams.init(d, d, rng)
        dec.decoder.steps[0] = ("fc", Tensor(np.eye(d)), Tensor(np.zeros(d)))
        x = rng.normal(size=(2, 3, d))
        out = distill_decode(dec, Tensor(x))
        gain, bias, eps = dec.decoder.steps[1][1], dec.decoder.steps[1][2], dec.decoder.steps[1][3]
        expected = T.layer_norm(Tensor(x), gain, bias, eps)
        assert np.array_equal(out.data, expected.data)


class TestDistillLoss:
    def test_zero_when_decoded_student_equals_teacher(self, rng):
        d = 4
        dec = DistillDecoderParams.init(d, d, rng)
        x = Tensor(rng.normal(size=(1, 2, d)))
        teacher = Tensor(distill_decode(dec, x).data.copy())
        assert distill_loss(dec, x, teacher).item() == 0.0

    def test_teacher_gradient_is_exactly_zero(self, rng):
        d = 4
        dec = DistillDecoderParams.init(d, d, rng)
        student = Tensor(rng.normal(size=(1, 2, d)), requires_grad=True)
        teacher = Tensor(rng.normal(size=(1, 2, d)), requires_grad=True)
        backward(distill_loss(dec, student, teacher))
        assert teacher.grad is None  # detached inside the loss
        assert student.grad is not None and np.any(student.grad != 0)

    def test_nonnegative_and_zero_iff_equal(self, rng):
        d = 3
        dec = DistillDecoderParams.init(d, d, rng)
        x = Tensor(rng.normal(size=(1, 2, d)))
        y = distill_decode(dec, x)
        loss = distill_loss(dec, x, Tensor(y.data + 0.1))
        assert loss.item() > 0

    def test_fitting_fixed_target_decreases_monotonically(self, rng):
        # plain gradient descent on the decoder, frozen student input and
        # fixed random teacher target: 200 steps, loss never increases
        d = 4
        dec = DistillDecoderParams.init(d, d, rng)
        x = Tensor(rng.normal(size=(2, 3, d)))
        target = Tensor(rng.normal(size=(2, 3, d)))
        losses = []
        params = [p for p in (dec.decoder.steps[0][1], dec.decoder.steps[0][2],
                              dec.decoder.steps[1][1], dec.decoder.steps[1][2])]
        for _ in range(200):
            loss = distill_loss(dec, x, target)
            losses.append(loss.item())
            backward(loss)
            for p in params:
                if p.grad is not None:
                    p.data -= 0.05 * p.grad
                    p.grad = None
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0] * 0.5
