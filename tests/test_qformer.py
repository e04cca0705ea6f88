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


def make_qf(d=4, q=2, patches=2, rng=None):
    return QFormerParams.init(d, q, patches, rng or np.random.default_rng(5))


def make_proj(rng, c=3, d=4):
    """A [C, d] projection of C-wide visual features to the fusion width."""
    return Tensor(rng.normal(size=(c, d)) / np.sqrt(c))


class TestQFormerForward:
    def test_single_token_closed_form_composition(self, rng):
        # Q=1, Lv=1, Lq=1: two single-key attentions compose in closed form
        d = 4
        params = make_qf(d=d, q=1, patches=1, rng=rng)
        feats = rng.normal(size=(1, 1, 3))
        proj = make_proj(rng, d=d)
        text = rng.normal(size=(1, 1, d))
        out = qformer_forward(params, Tensor(feats), proj, Tensor(text))

        sa = params.self_attn
        qtok = params.query_tokens.data[0]
        # self-attention over [q, projected visual]: softmax over two keys
        seq = np.stack([qtok, feats[0, 0] @ proj.data])
        logits = (qtok @ sa.wq.data) @ (seq @ sa.wk.data).T / np.sqrt(d)
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        fused_q = (w @ (seq @ sa.wv.data)) @ sa.wo.data
        # cross-attention with one key is that key's value path
        expected = (fused_q @ params.cross_attn.wv.data) @ params.cross_attn.wo.data
        assert np.allclose(out.data[0, 0], expected, atol=1e-12)

    def test_visual_permutation_invariance(self, rng):
        params = make_qf(d=4, q=2, patches=2, rng=rng)
        feats = rng.normal(size=(1, 6, 3))
        proj = make_proj(rng)
        text = Tensor(rng.normal(size=(1, 3, 4)))
        perm = np.random.default_rng(0).permutation(6)
        out = qformer_forward(params, Tensor(feats), proj, text)
        out_p = qformer_forward(params, Tensor(feats[:, perm]), proj, text)
        assert np.allclose(out.data, out_p.data, atol=1e-12)

    def test_gradient_wrt_query_tokens(self, rng):
        d = 4
        params = make_qf(d=d, q=2, patches=2, rng=rng)
        feats = rng.normal(size=(1, 4, 3))  # 2 frames x 2 patches
        proj = make_proj(rng, d=d)
        text = rng.normal(size=(1, 2, d))

        def f(qtok):
            p = QFormerParams(qtok, params.self_attn, params.cross_attn, 2)
            return T.sum_all(qformer_forward(p, Tensor(feats), proj, Tensor(text)))

        report = grad_check(f, Tensor(params.query_tokens.data.copy()), tol=1e-5)
        assert report.passed, report

    def test_output_shape_fixed_across_budgets(self, rng):
        text = Tensor(rng.normal(size=(2, 3, 4)))
        proj = make_proj(rng)
        for frames in (1, 2, 4, 64):   # no frame budget caps the visual tokens
            params = make_qf(d=4, q=2, patches=2, rng=np.random.default_rng(1))
            feats = Tensor(rng.normal(size=(2, frames * 2, 3)))
            out = qformer_forward(params, feats, proj, text)
            assert out.shape == (2, 3, 4)

    def test_instance_symmetry(self, rng):
        # same parameters and inputs: teacher and student instances agree
        a = make_qf(d=4, q=2, patches=2, rng=np.random.default_rng(11))
        b = make_qf(d=4, q=2, patches=2, rng=np.random.default_rng(11))
        feats = Tensor(rng.normal(size=(1, 4, 3)))
        proj = make_proj(rng)
        text = Tensor(rng.normal(size=(1, 2, 4)))
        assert np.array_equal(qformer_forward(a, feats, proj, text).data,
                              qformer_forward(b, feats, proj, text).data)

    def test_visual_key_bias_gradient(self, rng):
        # the gradient the teacher's frame saliency is read from
        params = make_qf(d=4, q=2, patches=1, rng=rng)
        feats = rng.normal(size=(1, 3, 3))
        proj = make_proj(rng)
        text = rng.normal(size=(1, 2, 4))

        def f(bias):
            return T.sum_all(qformer_forward(params, Tensor(feats), proj, Tensor(text), key_bias=bias))

        assert grad_check(f, Tensor(np.zeros((1, 3))), tol=1e-5).passed

    def test_no_product_has_a_row_per_visual_token(self, rng, monkeypatch):
        # the fusion's attentions project their few queries and the small
        # key basis, never the Lv visual tokens: no forward product has Lv
        # or more rows. The products are numpy's, so those inside
        # `T.attention` are seen too
        lv = 512
        params = make_qf(d=8, q=4, patches=4, rng=rng)
        rows = []
        matmul = np.matmul

        def recording_matmul(a, b):
            out = matmul(a, b)
            rows.append(out.shape[-2])
            return out

        with monkeypatch.context() as patch:
            patch.setattr(np, "matmul", recording_matmul)
            qformer_forward(params, Tensor(rng.normal(size=(2, lv, 3))), make_proj(rng, d=8),
                            Tensor(rng.normal(size=(2, 5, 8))))
        assert rows and max(rows) < lv, rows

    def test_zero_key_bias_is_bitwise_neutral(self, rng):
        params = make_qf(d=4, q=2, patches=1, rng=rng)
        feats = Tensor(rng.normal(size=(2, 3, 3)))
        proj = make_proj(rng)
        text = Tensor(rng.normal(size=(2, 2, 4)))
        bias = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert np.array_equal(qformer_forward(params, feats, proj, text, key_bias=bias).data,
                              qformer_forward(params, feats, proj, text).data)


def batch_copies(x, b):
    """[b, *x.shape]: `b` copies of x, each passing its gradient back to x."""
    return T.concat([T.reshape(x, (1,) + x.shape)] * b, axis=0)


def full_rows_forward(params, feats, proj, text, key_bias=None):
    """Reference fusion: project every token, run self-attention over every
    row, then keep each batch row's first Q rows."""
    b, q = feats.shape[0], params.num_queries
    seq = T.concat([batch_copies(params.query_tokens, b), T.matmul(feats, proj)], axis=1)
    bias = None
    if key_bias is not None:
        bias = T.concat([Tensor(np.zeros((b, q))), key_bias], axis=1)
    seq = nn.self_attention(params.self_attn, seq, key_bias=bias)
    _, length, d = seq.shape
    query_rows = length * np.arange(b)[:, None] + np.arange(q)     # [B, Q] rows of [B * length, d]
    return nn.cross_attention(params.cross_attn, text, T.take_rows(T.reshape(seq, (b * length, d)), query_rows))


def explicit_fusion(params, tokens, text, key_bias=None):
    """Reference fusion with explicit projections, over [B, Lv, d] visual
    tokens: with S = [query tokens; tokens], the fused queries are
    softmax((Q Wq)(S Wk)^T / sqrt(d) + bias)(S Wv) Wo, and the text reads
    them by cross-attention."""
    b, lv, d = tokens.shape
    q = params.num_queries
    sa = params.self_attn
    seq = T.concat([batch_copies(params.query_tokens, b), tokens], axis=1)
    keys = T.transpose(T.matmul(seq, sa.wk), (0, 2, 1))
    logits = T.mul(T.matmul(T.matmul(params.query_tokens, sa.wq), keys), Tensor(1.0 / np.sqrt(d)))
    if key_bias is not None:
        bias = T.concat([Tensor(np.zeros((b, q))), key_bias], axis=1)
        logits = T.add(logits, T.reshape(bias, (b, 1, q + lv)))
    fused = T.matmul(T.matmul(T.softmax(logits, axis=-1), T.matmul(seq, sa.wv)), sa.wo)
    return nn.cross_attention(params.cross_attn, text, fused)


def assert_close(actual, expected, rel=1e-12):
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


def fusion_outputs(forward, params, feats, proj, text, bias, readout):
    """Output of `forward(params, feats, proj, text, key_bias=...)` and the
    gradients of a fixed readout of it: every fusion parameter, the
    features, the projection and, when given, the key bias."""
    for p in params.named("qf").values():
        p.grad = None
    leaves = {"visual_feats": Tensor(feats.copy(), requires_grad=True),
              "proj": Tensor(proj.copy(), requires_grad=True)}
    if bias is not None:
        leaves["key_bias"] = Tensor(bias.copy(), requires_grad=True)
    out = forward(params, leaves["visual_feats"], leaves["proj"], Tensor(text), key_bias=leaves.get("key_bias"))
    backward(T.sum_all(T.mul(out, Tensor(readout))))
    grads = {name: p.grad.copy() for name, p in params.named("qf").items()}
    grads.update({name: leaf.grad for name, leaf in leaves.items()})
    return out.data, grads


class TestLastBlockQueryRows:
    """qformer_forward computes only the query rows of its self-attention
    block; it must equal the full-rows reference in outputs and in every
    gradient, with no key bias or with the bias of a mask: -1e9 at the
    keys a hard 0/1 mask removes, or the log of relaxed weights in
    (0.1, 0.9), which takes a gradient."""

    B, FRAMES, PATCHES, C, D, Q = 2, 4, 3, 5, 8, 3

    def key_bias(self, mask_kind):
        if mask_kind == "hard":
            bias = np.zeros((self.B, self.FRAMES * self.PATCHES))
            bias[0, :self.PATCHES] = -1e9
            bias[1, -2 * self.PATCHES:] = -1e9
            return bias
        if mask_kind == "relaxed":
            return np.log(np.random.default_rng(3).uniform(0.1, 0.9, size=(self.B, self.FRAMES * self.PATCHES)))
        return None

    @pytest.mark.parametrize("mask_kind", ["none", "hard", "relaxed"])
    def test_matches_full_rows_reference(self, mask_kind):
        rng = np.random.default_rng(41)
        params = QFormerParams.init(self.D, self.Q, self.PATCHES, rng)
        feats = rng.normal(size=(self.B, self.FRAMES * self.PATCHES, self.C))
        proj = rng.normal(size=(self.C, self.D))
        text = rng.normal(size=(self.B, 4, self.D))
        readout = rng.normal(size=(self.B, 4, self.D))
        bias = self.key_bias(mask_kind)
        out, grads = fusion_outputs(qformer_forward, params, feats, proj, text, bias, readout)
        ref_out, ref_grads = fusion_outputs(full_rows_forward, params, feats, proj, text, bias, readout)
        assert_close(out, ref_out)
        assert grads.keys() == ref_grads.keys()
        for name in ref_grads:
            assert np.any(ref_grads[name] != 0.0), name
            assert_close(grads[name], ref_grads[name])


class TestExplicitProjectionReference:
    """qformer_forward never projects a visual token: its keys are
    blockdiag(I_Q, features) @ [query tokens; proj], applied on the query
    side. It must equal `explicit_fusion` over the projected tokens, within
    1e-12 of the largest magnitude, in the output and in the gradients of
    the query tokens, the projection, the self-attention weights and the
    key bias; with fewer visual tokens than basis rows (Lv < Q + C) and
    with more."""

    B, Q, C, D, PATCHES = 2, 3, 4, 6, 1

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no_bias", "bias"])
    @pytest.mark.parametrize("lv", [5, 11], ids=["Lv<Q+C", "Lv>Q+C"])
    def test_matches_explicit_projections(self, lv, with_bias):
        rng = np.random.default_rng(lv * 2 + with_bias)
        params = QFormerParams.init(self.D, self.Q, self.PATCHES, rng)
        feats = rng.normal(size=(self.B, lv, self.C))
        proj = rng.normal(size=(self.C, self.D))
        text = rng.normal(size=(self.B, 4, self.D))
        readout = rng.normal(size=(self.B, 4, self.D))
        bias = rng.normal(size=(self.B, lv)) if with_bias else None

        def reference(params, feats, proj, text, key_bias=None):
            return explicit_fusion(params, T.matmul(feats, proj), text, key_bias=key_bias)

        out, grads = fusion_outputs(qformer_forward, params, feats, proj, text, bias, readout)
        ref_out, ref_grads = fusion_outputs(reference, params, feats, proj, text, bias, readout)
        checked = {"qf.queries", "proj", "qf.self.wq", "qf.self.wk", "qf.self.wv", "qf.self.wo"}
        if with_bias:
            checked.add("key_bias")
        assert checked <= grads.keys() == ref_grads.keys()
        assert_close(out, ref_out)
        for name in sorted(ref_grads):
            assert np.any(ref_grads[name] != 0.0), name
            assert_close(grads[name], ref_grads[name])


class TestDistillDecoder:
    def test_identity_fc_with_unit_ln_gives_layer_norm(self, rng):
        d = 4
        dec = DistillDecoderParams.init(d, rng)
        dec.decoder.steps[0] = ("fc", Tensor(np.eye(d)), Tensor(np.zeros(d)))
        x = rng.normal(size=(2, 3, d))
        out = distill_decode(dec, Tensor(x))
        gain, bias = dec.decoder.steps[1][1], dec.decoder.steps[1][2]
        expected = T.layer_norm(Tensor(x), gain, bias)
        assert np.array_equal(out.data, expected.data)


class TestDistillLoss:
    def test_zero_when_decoded_student_equals_teacher(self, rng):
        d = 4
        dec = DistillDecoderParams.init(d, rng)
        x = Tensor(rng.normal(size=(1, 2, d)))
        teacher = Tensor(distill_decode(dec, x).data.copy())
        assert distill_loss(dec, x, teacher).item() == 0.0

    def test_teacher_gradient_is_exactly_zero(self, rng):
        d = 4
        dec = DistillDecoderParams.init(d, rng)
        student = Tensor(rng.normal(size=(1, 2, d)), requires_grad=True)
        teacher = Tensor(rng.normal(size=(1, 2, d)), requires_grad=True)
        backward(distill_loss(dec, student, teacher))
        assert teacher.grad is None  # detached inside the loss
        assert student.grad is not None and np.any(student.grad != 0)

    def test_nonnegative_and_zero_iff_equal(self, rng):
        d = 3
        dec = DistillDecoderParams.init(d, rng)
        x = Tensor(rng.normal(size=(1, 2, d)))
        y = distill_decode(dec, x)
        loss = distill_loss(dec, x, Tensor(y.data + 0.1))
        assert loss.item() > 0

    def test_fitting_fixed_target_decreases_monotonically(self, rng):
        # plain gradient descent on the decoder, frozen student input and
        # fixed random teacher target: 200 steps, loss never increases
        d = 4
        dec = DistillDecoderParams.init(d, rng)
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
