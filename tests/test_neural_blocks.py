import numpy as np
import pytest

from framepick import nn
from framepick import tensor as T
from framepick.tensor import Tensor, grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def make_attn(d=4, heads=1, rng=None):
    return nn.AttentionParams.init(d, heads, rng or np.random.default_rng(0))


class TestCrossAttention:
    def test_single_key_ignores_query_content(self, rng):
        params = make_attn(d=4, rng=rng)
        kv = Tensor(rng.normal(size=(1, 1, 4)))
        out_a = nn.cross_attention(params, Tensor(rng.normal(size=(1, 2, 4))), kv)
        out_b = nn.cross_attention(params, Tensor(rng.normal(size=(1, 2, 4))), kv)
        # softmax over one key is 1 regardless of the query
        expected = (kv.data[0, 0] @ params.wv.data) @ params.wo.data
        assert np.allclose(out_a.data[0, 0], expected)
        assert np.allclose(out_a.data, out_b.data)

    def test_identical_keys_give_uniform_weights(self, rng):
        params = make_attn(d=4, rng=rng)
        key = rng.normal(size=4)
        kv = Tensor(np.tile(key, (1, 5, 1)))
        out, weights = nn.cross_attention(params, Tensor(rng.normal(size=(1, 2, 4))), kv,
                                          return_weights=True)
        assert np.allclose(weights.data, 0.2)

    def test_weight_rows_sum_to_one(self, rng):
        params = make_attn(d=8, heads=2, rng=rng)
        _, weights = nn.cross_attention(params, Tensor(rng.normal(size=(2, 3, 8))),
                                        Tensor(rng.normal(size=(2, 5, 8))), return_weights=True)
        assert np.all(np.abs(weights.data.sum(axis=-1) - 1.0) <= 1e-12)

    def test_gradient_wrt_wq(self, rng):
        queries = rng.normal(size=(1, 2, 4))
        kv = rng.normal(size=(1, 3, 4))
        params = make_attn(d=4, rng=rng)

        def f(wq):
            p = nn.AttentionParams(4, 1, wq, params.wk, params.wv, params.wo)
            return T.sum_all(nn.cross_attention(p, Tensor(queries), Tensor(kv)))

        report = grad_check(f, Tensor(rng.normal(size=(4, 4))), tol=1e-5)
        assert report.passed, report

    def test_convex_combination_of_values(self, rng):
        # with Wv = Wo = I the output rows must be convex combinations of the
        # raw value rows; the returned weights certify it exactly
        d = 4
        params = nn.AttentionParams(
            d, 1,
            wq=Tensor(rng.normal(size=(d, d))), wk=Tensor(rng.normal(size=(d, d))),
            wv=Tensor(np.eye(d)), wo=Tensor(np.eye(d)))
        kv = rng.normal(size=(1, 6, d))
        out, weights = nn.cross_attention(params, Tensor(rng.normal(size=(1, 3, d))),
                                          Tensor(kv), return_weights=True)
        w = weights.data[0, 0]
        assert np.all(w >= 0) and np.allclose(w.sum(axis=-1), 1.0)
        assert np.allclose(out.data[0], w @ kv[0], atol=1e-12)

    def test_hard_mask_removes_key_exactly(self, rng):
        params = make_attn(d=4, rng=rng)
        queries = Tensor(rng.normal(size=(1, 2, 4)))
        kv = rng.normal(size=(1, 4, 4))
        mask = Tensor(np.array([[1.0, 0.0, 1.0, 1.0]]))
        out = nn.cross_attention(params, queries, Tensor(kv), key_mask=mask)
        kv2 = kv.copy()
        kv2[0, 1] += 100.0  # finite perturbation of the masked key
        out2 = nn.cross_attention(params, queries, Tensor(kv2), key_mask=mask)
        assert np.array_equal(out.data, out2.data)

    def test_all_ones_mask_matches_unmasked(self, rng):
        params = make_attn(d=4, rng=rng)
        queries = Tensor(rng.normal(size=(1, 2, 4)))
        kv = Tensor(rng.normal(size=(1, 3, 4)))
        masked = nn.cross_attention(params, queries, kv, key_mask=Tensor(np.ones((1, 3))))
        plain = nn.cross_attention(params, queries, kv)
        assert np.array_equal(masked.data, plain.data)

    def test_all_zero_mask_row_raises(self, rng):
        params = make_attn(d=4, rng=rng)
        with pytest.raises(ValueError, match="no attendable keys"):
            nn.cross_attention(params, Tensor(rng.normal(size=(1, 2, 4))),
                               Tensor(rng.normal(size=(1, 3, 4))),
                               key_mask=Tensor(np.zeros((1, 3))))

    def test_soft_mask_gradient(self, rng):
        params = make_attn(d=4, rng=rng)
        queries = rng.normal(size=(1, 2, 4))
        kv = rng.normal(size=(1, 3, 4))

        def f(mask_logits):
            mask = T.softmax(mask_logits, axis=-1)
            return T.sum_all(nn.cross_attention(params, Tensor(queries), Tensor(kv), key_mask=mask))

        assert grad_check(f, Tensor(rng.normal(size=(1, 3))), tol=1e-5).passed

    def test_width_mismatch(self, rng):
        params = make_attn(d=4, rng=rng)
        with pytest.raises(ValueError, match="d_model"):
            nn.cross_attention(params, Tensor(rng.normal(size=(1, 2, 6))),
                               Tensor(rng.normal(size=(1, 3, 6))))


class TestSelfAttention:
    def test_single_token(self, rng):
        params = make_attn(d=4, rng=rng)
        tok = rng.normal(size=(1, 1, 4))
        out = nn.self_attention(params, Tensor(tok))
        expected = (tok[0, 0] @ params.wv.data) @ params.wo.data
        assert np.allclose(out.data[0, 0], expected)

    def test_permutation_equivariance(self, rng):
        params = make_attn(d=4, heads=2, rng=rng)
        tokens = rng.normal(size=(1, 5, 4))
        perm = np.array([3, 0, 4, 1, 2])
        out = nn.self_attention(params, Tensor(tokens))
        out_p = nn.self_attention(params, Tensor(tokens[:, perm]))
        assert np.allclose(out.data[:, perm], out_p.data, atol=1e-12)

    def test_gradient(self, rng):
        tokens = rng.normal(size=(1, 3, 4))
        params = make_attn(d=4, rng=rng)

        def f(wk):
            p = nn.AttentionParams(4, 1, params.wq, wk, params.wv, params.wo)
            return T.sum_all(nn.self_attention(p, Tensor(tokens)))

        assert grad_check(f, Tensor(rng.normal(size=(4, 4))), tol=1e-5).passed


class TestMlp:
    def test_identity_layer(self, rng):
        params = nn.MlpParams([("fc", Tensor(np.eye(3)), None)])
        x = rng.normal(size=(2, 3))
        assert np.array_equal(nn.mlp_apply(params, Tensor(x)).data, x)

    def test_fc_ln_with_zero_weights_gives_bias(self, rng):
        gain = Tensor(np.ones(3), requires_grad=True)
        bias = Tensor(rng.normal(size=3), requires_grad=True)
        params = nn.MlpParams([("fc", Tensor(np.zeros((4, 3))), None), ("ln", gain, bias, 1e-5)])
        out = nn.mlp_apply(params, Tensor(rng.normal(size=(2, 4))))
        assert np.allclose(out.data, bias.data)

    def test_fc_ln_relu_fc_matches_hand_composition(self, rng):
        d = 4
        w1 = rng.normal(size=(d, d))
        w2 = rng.normal(size=(d, d))
        b2 = rng.normal(size=d)
        gain = rng.normal(size=d)
        bias = rng.normal(size=d)
        params = nn.MlpParams([
            ("fc", Tensor(w1), None),
            ("ln", Tensor(gain), Tensor(bias), 1e-5),
            nn.act_step(),
            ("fc", Tensor(w2), Tensor(b2)),
        ])
        x = rng.normal(size=(3, d))
        got = nn.mlp_apply(params, Tensor(x))
        manual = T.matmul(
            T.relu(T.layer_norm(T.matmul(Tensor(x), Tensor(w1)), Tensor(gain), Tensor(bias))),
            Tensor(w2)) + Tensor(b2)
        assert np.array_equal(got.data, manual.data)

    def test_composition_mismatch(self, rng):
        params = nn.MlpParams([nn.fc_step(3, 5, rng), nn.fc_step(4, 2, rng)])
        with pytest.raises(ValueError):
            nn.mlp_apply(params, Tensor(rng.normal(size=(1, 3))))

    def test_builders_and_named(self, rng):
        params = nn.MlpParams([nn.fc_step(3, 5, rng), nn.ln_step(5), nn.act_step(), nn.fc_step(5, 2, rng)])
        out = nn.mlp_apply(params, Tensor(rng.normal(size=(7, 3))))
        assert out.shape == (7, 2)
        names = params.named("head")
        assert "head.0.w" in names and "head.1.gain" in names and "head.3.b" in names
