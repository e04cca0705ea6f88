import numpy as np
import pytest

from framepick import nn
from framepick import tensor as T
from framepick.tensor import Tensor, backward, grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def make_attn(d=4, rng=None):
    return nn.AttentionParams.init(d, rng or np.random.default_rng(0))


def mask_bias(mask):
    """A 0/1 key mask as a key bias: 0 where kept, -1e9 where removed."""
    return np.where(mask == 1.0, 0.0, -1e9)


def reference_attention(params, queries, kv, bias=None):
    """(output, weights) of softmax((Xq Wq)(X Wk)^T / sqrt(d) + bias)(X Wv) Wo,
    in numpy with the keys and values projected explicitly."""
    logits = (queries @ params.wq.data) @ np.swapaxes(kv @ params.wk.data, -1, -2) / np.sqrt(params.d_model)
    if bias is not None:
        logits = logits + bias[:, None, :]
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    return weights @ (kv @ params.wv.data) @ params.wo.data, weights


def tied_keys(rng, b, lk, d=4):
    """Attention whose Wk reads only coordinate 0, and [b, lk, d] tokens that
    share it: the keys tie while the values differ."""
    params = make_attn(d=d, rng=rng)
    params.wk.data[1:] = 0.0
    kv = rng.normal(size=(b, lk, d))
    kv[..., 0] = rng.normal()
    return params, kv


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
        # tied keys: every query reads the mean of the five values
        params, kv = tied_keys(rng, 1, 5)
        queries = rng.normal(size=(1, 2, 4))
        out = nn.cross_attention(params, Tensor(queries), Tensor(kv))
        ref_out, weights = reference_attention(params, queries, kv)
        assert np.allclose(weights, 0.2, rtol=0, atol=1e-12)
        assert np.allclose(out.data, ref_out, rtol=0, atol=1e-12)
        mean_value = kv.mean(axis=1) @ params.wv.data @ params.wo.data
        assert np.allclose(out.data, mean_value[:, None, :], rtol=0, atol=1e-12)

    def test_weight_rows_sum_to_one(self, rng):
        # with Wv = Wo = I, a value coordinate that is 1 on every key comes
        # out as the sum of the query's weights
        d = 8
        params = make_attn(d=d, rng=rng)
        params.wv, params.wo = Tensor(np.eye(d)), Tensor(np.eye(d))
        queries, kv = rng.normal(size=(2, 3, d)), rng.normal(size=(2, 5, d))
        kv[..., -1] = 1.0
        out = nn.cross_attention(params, Tensor(queries), Tensor(kv))
        assert np.all(np.abs(out.data[..., -1] - 1.0) <= 1e-12)
        assert np.allclose(out.data, reference_attention(params, queries, kv)[0], rtol=0, atol=1e-12)

    def test_gradient_wrt_wq(self, rng):
        queries = rng.normal(size=(1, 2, 4))
        kv = rng.normal(size=(1, 3, 4))
        params = make_attn(d=4, rng=rng)

        def f(wq):
            p = nn.AttentionParams(wq, params.wk, params.wv, params.wo)
            return T.sum_all(nn.cross_attention(p, Tensor(queries), Tensor(kv)))

        report = grad_check(f, Tensor(rng.normal(size=(4, 4))), tol=1e-5)
        assert report.passed, report

    def test_convex_combination_of_values(self, rng):
        # with Wv = Wo = I the output rows must be convex combinations of the
        # raw value rows, with the reference's softmax weights
        d = 4
        params = nn.AttentionParams(
            wq=Tensor(rng.normal(size=(d, d))), wk=Tensor(rng.normal(size=(d, d))),
            wv=Tensor(np.eye(d)), wo=Tensor(np.eye(d)))
        queries, kv = rng.normal(size=(1, 3, d)), rng.normal(size=(1, 6, d))
        out = nn.cross_attention(params, Tensor(queries), Tensor(kv))
        _, weights = reference_attention(params, queries, kv)
        assert np.all(weights >= 0) and np.allclose(weights.sum(axis=-1), 1.0)
        assert np.allclose(out.data, weights @ kv, rtol=0, atol=1e-12)
        assert np.all((out.data >= kv.min(axis=1) - 1e-12) & (out.data <= kv.max(axis=1) + 1e-12))

    def test_hard_mask_removes_key_exactly(self, rng):
        # a 0/1 key mask enters as a key bias of 0 on kept keys and -1e9 on
        # removed ones, as the all-frames reference of the student forward does
        params = make_attn(d=4, rng=rng)
        queries = Tensor(rng.normal(size=(1, 2, 4)))
        kv = rng.normal(size=(1, 4, 4))
        bias = Tensor(mask_bias(np.array([[1.0, 0.0, 1.0, 1.0]])))
        out = nn.cross_attention(params, queries, Tensor(kv), key_bias=bias)
        kv2 = kv.copy()
        kv2[0, 1] += 100.0  # finite perturbation of the masked key
        out2 = nn.cross_attention(params, queries, Tensor(kv2), key_bias=bias)
        assert np.array_equal(out.data, out2.data)

    def test_all_ones_mask_matches_unmasked(self, rng):
        params = make_attn(d=4, rng=rng)
        queries = Tensor(rng.normal(size=(1, 2, 4)))
        kv = Tensor(rng.normal(size=(1, 3, 4)))
        masked = nn.cross_attention(params, queries, kv, key_bias=Tensor(mask_bias(np.ones((1, 3)))))
        plain = nn.cross_attention(params, queries, kv)
        assert np.array_equal(masked.data, plain.data)

    def test_key_bias_reweights_identical_keys(self, rng):
        # tied keys tie the dot products, so the weights are softmax(bias)
        params, kv = tied_keys(rng, 2, 3)
        queries, bias = rng.normal(size=(2, 2, 4)), rng.normal(size=(2, 3))
        out = nn.cross_attention(params, Tensor(queries), Tensor(kv), key_bias=Tensor(bias))
        expect = np.exp(bias) / np.exp(bias).sum(axis=1, keepdims=True)
        values = kv @ params.wv.data @ params.wo.data
        assert np.allclose(out.data, (expect[:, None, :] @ values).repeat(2, axis=1), rtol=0, atol=1e-12)
        assert np.allclose(out.data, reference_attention(params, queries, kv, bias)[0], rtol=0, atol=1e-12)

    def test_key_bias_gradient(self, rng):
        params = make_attn(d=4, rng=rng)
        queries = rng.normal(size=(1, 2, 4))
        kv = rng.normal(size=(1, 3, 4))
        w = rng.normal(size=(1, 2, 4))

        def f(bias):
            out = nn.cross_attention(params, Tensor(queries), Tensor(kv), key_bias=bias)
            return T.sum_all(T.mul(out, Tensor(w)))

        assert grad_check(f, Tensor(np.zeros((1, 3))), tol=1e-5).passed

    def test_key_bias_shape_mismatch(self, rng):
        params = make_attn(d=4, rng=rng)
        with pytest.raises(ValueError, match=r"key_bias shape \(1, 2\) does not match keys \(1, 3\)"):
            nn.cross_attention(params, Tensor(rng.normal(size=(1, 2, 4))),
                               Tensor(rng.normal(size=(1, 3, 4))), key_bias=Tensor(np.zeros((1, 2))))

    def test_width_mismatch(self, rng):
        params = make_attn(d=4, rng=rng)
        with pytest.raises(ValueError, match="d_model"):
            nn.cross_attention(params, Tensor(rng.normal(size=(1, 2, 6))),
                               Tensor(rng.normal(size=(1, 3, 6))))


def projected_attention(params, queries, keys_values, key_bias=None):
    """The textbook order: project every key and value, then attend."""
    b, lk, d = keys_values.shape
    k = T.matmul(keys_values, params.wk)
    v = T.matmul(keys_values, params.wv)
    logits = T.mul(T.matmul(T.matmul(queries, params.wq), T.transpose(k, (0, 2, 1))),
                   Tensor(1.0 / np.sqrt(d)))
    if key_bias is not None:
        logits = T.add(logits, T.reshape(key_bias, (b, 1, lk)))
    return T.matmul(T.matmul(T.softmax(logits, axis=-1), v), params.wo)


class TestProjectionOrder:
    """`cross_attention` applies Wk and Wv on the query side; it must equal
    softmax((Xq Wq)(X Wk)^T / sqrt(d) + bias)(X Wv) Wo in outputs and in
    every gradient, within 1e-12 of the largest magnitude."""

    def run(self, attend, params, xq, x, bias, readout):
        leaves = {name.split(".")[-1]: p for name, p in params.named("a").items()}
        for p in leaves.values():
            p.grad = None
        leaves["queries"] = Tensor(xq.copy(), requires_grad=True)
        leaves["keys_values"] = Tensor(x.copy(), requires_grad=True)
        bias_t = None
        if bias is not None:
            bias_t = leaves["key_bias"] = Tensor(bias.copy(), requires_grad=True)
        out = attend(params, leaves["queries"], leaves["keys_values"], key_bias=bias_t)
        T.backward(T.sum_all(T.mul(out, Tensor(readout))))
        return out.data, {name: leaf.grad.copy() for name, leaf in leaves.items()}

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no_bias", "bias"])
    @pytest.mark.parametrize("lq, lk", [(2, 7), (5, 5), (9, 3)], ids=["Lq<Lk", "Lq=Lk", "Lq>Lk"])
    def test_matches_projected_keys_and_values(self, lq, lk, with_bias):
        rng = np.random.default_rng(lq * 10 + lk)
        b, d = 2, 6
        params = make_attn(d=d, rng=rng)
        xq = rng.normal(size=(b, lq, d))
        x = rng.normal(size=(b, lk, d))
        bias = rng.normal(size=(b, lk)) if with_bias else None
        readout = rng.normal(size=(b, lq, d))
        out, grads = self.run(nn.cross_attention, params, xq, x, bias, readout)
        ref_out, ref_grads = self.run(projected_attention, params, xq, x, bias, readout)
        expected = {"wq", "wk", "wv", "wo", "queries", "keys_values"} | ({"key_bias"} if with_bias else set())
        assert grads.keys() == ref_grads.keys() == expected
        for name, got, ref in [("out", out, ref_out)] + [(n, grads[n], ref_grads[n]) for n in sorted(expected)]:
            assert got.shape == ref.shape, name
            assert np.any(ref != 0.0), name
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


class TestKeyBasis:
    """With a [K, d] `basis`, `cross_attention` reads [b, Lk, K] coefficients
    and never forms the keys: it must equal attending over the formed keys
    coeff @ basis, within 1e-12 of the largest magnitude, in outputs and in
    every gradient. The queries are one [Lq, d] set for every batch row."""

    def run(self, params, xq, coeff, basis, bias, readout, factored):
        leaves = {name.split(".")[-1]: p for name, p in params.named("a").items()}
        for p in leaves.values():
            p.grad = None
        for name, value in (("queries", xq), ("coeff", coeff), ("basis", basis), ("key_bias", bias)):
            leaves[name] = Tensor(value.copy(), requires_grad=True)
        if factored:
            out = nn.cross_attention(params, leaves["queries"], leaves["coeff"],
                                     key_bias=leaves["key_bias"], basis=leaves["basis"])
        else:
            keys = T.matmul(leaves["coeff"], leaves["basis"])
            out = nn.cross_attention(params, leaves["queries"], keys, key_bias=leaves["key_bias"])
        T.backward(T.sum_all(T.mul(out, Tensor(readout))))
        return out.data, {name: leaf.grad.copy() for name, leaf in leaves.items()}

    @pytest.mark.parametrize("lk", [3, 9], ids=["Lk<K", "Lk>K"])
    def test_matches_formed_keys(self, lk):
        rng = np.random.default_rng(lk)
        b, lq, k, d = 2, 3, 5, 6
        params = make_attn(d=d, rng=rng)
        args = (rng.normal(size=(lq, d)), rng.normal(size=(b, lk, k)), rng.normal(size=(k, d)),
                rng.normal(size=(b, lk)), rng.normal(size=(b, lq, d)))
        out, grads = self.run(params, *args, factored=True)
        ref_out, ref_grads = self.run(params, *args, factored=False)
        assert grads.keys() == ref_grads.keys()
        for name, got, ref in [("out", out, ref_out)] + [(n, grads[n], ref_grads[n]) for n in sorted(grads)]:
            assert got.shape == ref.shape, name
            assert np.any(ref != 0.0), name
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    def test_coefficient_width_must_match_the_basis(self, rng):
        params = make_attn(d=4, rng=rng)
        with pytest.raises(ValueError, match="key width 6, got 4 / 5"):
            nn.cross_attention(params, Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(1, 3, 5))),
                               basis=Tensor(rng.normal(size=(6, 4))))


def composed_attention(queries, wq, wk, wv, wo, keys, scale, key_bias=None, basis=None):
    """Attention composed of `tensor` primitives, as `nn.cross_attention` ran
    it before `T.attention` made it one op: the bitwise reference."""
    b, lk, _ = keys.shape
    q = T.matmul(T.matmul(queries, wq), T.transpose(wk, (1, 0)))
    if basis is not None:
        q = T.matmul(q, T.transpose(basis, (1, 0)))
    logits = T.mul(T.matmul(q, T.transpose(keys, (0, 2, 1))), Tensor(scale))
    if key_bias is not None:
        logits = T.add(logits, T.reshape(key_bias, (b, 1, lk)))
    mixed = T.matmul(T.softmax(logits, axis=-1), keys)
    if basis is not None:
        mixed = T.matmul(mixed, basis)
    return T.matmul(T.matmul(mixed, wv), wo)


class TestFusedAttention:
    """`T.attention` is one op with a hand-written backward; it must equal
    the composition of primitives bitwise, in the output and in the
    gradient of every input."""

    def arrays(self, shared_queries, with_basis, with_bias, seed=0):
        rng = np.random.default_rng(seed)
        b, lq, lk, k, d = 2, 3, 5, 4, 6
        out = {name: rng.normal(size=(d, d)) for name in ("wq", "wk", "wv", "wo")}
        out["queries"] = rng.normal(size=(lq, d) if shared_queries else (b, lq, d))
        out["keys"] = rng.normal(size=(b, lk, k if with_basis else d))
        if with_basis:
            out["basis"] = rng.normal(size=(k, d))
        if with_bias:
            out["key_bias"] = rng.normal(size=(b, lk))
        return out, rng.normal(size=(b, lq, d))

    def run(self, attend, arrays, readout, grad_of=None, alias_keys=False):
        """Attend over fresh leaves; return the output and every gradient."""
        leaves = {name: Tensor(a.copy(), requires_grad=grad_of in (None, name))
                  for name, a in arrays.items()}
        if alias_keys:
            leaves["keys"] = leaves["queries"]
        out = attend(*(leaves[n] for n in ("queries", "wq", "wk", "wv", "wo", "keys")),
                     1.0 / np.sqrt(arrays["wq"].shape[0]), key_bias=leaves.get("key_bias"),
                     basis=leaves.get("basis"))
        backward(T.sum_all(T.mul(out, Tensor(readout))))
        return out.data, {name: leaf.grad for name, leaf in leaves.items()}

    @pytest.mark.parametrize("with_bias", [False, True], ids=["no_bias", "bias"])
    @pytest.mark.parametrize("with_basis", [False, True], ids=["keys", "basis"])
    @pytest.mark.parametrize("shared_queries", [True, False], ids=["Lq_d", "b_Lq_d"])
    def test_matches_composition_bitwise(self, shared_queries, with_basis, with_bias):
        arrays, readout = self.arrays(shared_queries, with_basis, with_bias)
        out, grads = self.run(T.attention, arrays, readout)
        ref_out, ref_grads = self.run(composed_attention, arrays, readout)
        assert np.array_equal(out, ref_out)
        assert grads.keys() == ref_grads.keys() == arrays.keys()
        for name in grads:
            assert grads[name].shape == arrays[name].shape, name
            assert np.array_equal(grads[name], ref_grads[name]), name

    def test_self_attention_adds_three_key_terms_in_order(self):
        # queries == keys: the keys take a value, a query and a logit term,
        # and rounding depends on the order in which they are added
        arrays, readout = self.arrays(shared_queries=False, with_basis=False, with_bias=False, seed=1)
        del arrays["keys"]
        out, grads = self.run(T.attention, arrays, readout, alias_keys=True)
        ref_out, ref_grads = self.run(composed_attention, arrays, readout, alias_keys=True)
        assert np.array_equal(out, ref_out)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name

    @pytest.mark.parametrize("name", ["queries", "wq", "wk", "wv", "wo", "keys", "key_bias", "basis"])
    def test_gradient_of_one_input(self, name):
        # only the input that takes a gradient gets one, the same as when all do
        arrays, readout = self.arrays(shared_queries=True, with_basis=True, with_bias=True)
        _, grads = self.run(T.attention, arrays, readout, grad_of=name)
        _, every = self.run(T.attention, arrays, readout)
        assert np.array_equal(grads.pop(name), every[name])
        assert all(g is None for g in grads.values())


class TestSelfAttention:
    def test_single_token(self, rng):
        params = make_attn(d=4, rng=rng)
        tok = rng.normal(size=(1, 1, 4))
        out = nn.self_attention(params, Tensor(tok))
        expected = (tok[0, 0] @ params.wv.data) @ params.wo.data
        assert np.allclose(out.data[0, 0], expected)

    def test_permutation_equivariance(self, rng):
        params = make_attn(d=4, rng=rng)
        tokens = rng.normal(size=(1, 5, 4))
        perm = np.array([3, 0, 4, 1, 2])
        out = nn.self_attention(params, Tensor(tokens))
        out_p = nn.self_attention(params, Tensor(tokens[:, perm]))
        assert np.allclose(out.data[:, perm], out_p.data, atol=1e-12)

    def test_gradient(self, rng):
        tokens = rng.normal(size=(1, 3, 4))
        params = make_attn(d=4, rng=rng)

        def f(wk):
            p = nn.AttentionParams(params.wq, wk, params.wv, params.wo)
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
        params = nn.MlpParams([("fc", Tensor(np.zeros((4, 3))), None), ("ln", gain, bias)])
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
            ("ln", Tensor(gain), Tensor(bias)),
            nn.act_step(),
            ("fc", Tensor(w2), Tensor(b2)),
        ])
        x = rng.normal(size=(3, d))
        got = nn.mlp_apply(params, Tensor(x))
        manual = T.add(T.matmul(
            T.relu(T.layer_norm(T.matmul(Tensor(x), Tensor(w1)), Tensor(gain), Tensor(bias))),
            Tensor(w2)), Tensor(b2))
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
