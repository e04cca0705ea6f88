import ast
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framepick import tensor as T
from framepick.tensor import Tensor, backward, grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class TestConstruction:
    def test_float64_array_is_kept(self):
        data = np.arange(6.0).reshape(2, 3)
        assert Tensor(data).data is data

    @pytest.mark.parametrize("data", [[1, 2], 3, np.arange(3, dtype=np.float32)],
                             ids=["list", "scalar", "float32"])
    def test_other_input_is_converted(self, data):
        t = Tensor(data)
        assert type(t.data) is np.ndarray and t.data.dtype == np.float64
        assert t.data is not data
        assert np.array_equal(t.data, np.asarray(data, dtype=np.float64))

    def test_op_output_takes_grad_from_its_inputs(self):
        frozen, live = Tensor(np.ones(2)), Tensor(np.ones(2), requires_grad=True)
        out = T.add(frozen, live)
        assert out.requires_grad and out._parents == (live,)
        out = T.add(frozen, frozen)
        assert not out.requires_grad and out._parents == () and out._bw is None


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, b)
        assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_projector_row_select(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        out = T.matmul(p, b)
        assert np.array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self, rng):
        b = rng.normal(size=(3, 3))

        def f(a):
            return T.sum_all(T.matmul(a, Tensor(b)))

        report = grad_check(f, Tensor(rng.normal(size=(3, 3))), tol=1e-6)
        assert report.passed, report

    def test_batched_gradient(self, rng):
        b = rng.normal(size=(2, 4, 3))

        def f(a):
            return T.sum_all(T.matmul(a, Tensor(b)))

        report = grad_check(f, Tensor(rng.normal(size=(2, 2, 4))), tol=1e-6)
        assert report.passed, report

    def test_broadcast_weight_gradient(self, rng):
        # [b, L, d] @ [d, d] is the projection pattern used everywhere.
        x = rng.normal(size=(2, 3, 4))

        def f(w):
            return T.sum_all(T.matmul(Tensor(x), w))

        report = grad_check(f, Tensor(rng.normal(size=(4, 4))), tol=1e-6)
        assert report.passed, report


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_closed_form(self):
        out = T.softmax(Tensor([math.log(2.0), 0.0]))
        assert np.allclose(out.data, [2 / 3, 1 / 3], atol=1e-15)

    def test_no_overflow_at_extreme_logits(self):
        out = T.softmax(Tensor([1000.0, 0.0]))
        assert abs(out.data[0] - 1.0) < 1e-12
        assert abs(out.data[1]) < 1e-12

    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(5, 7)) * 10)
        out = T.softmax(x, axis=-1)
        assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) <= 1e-12)
        assert np.all(out.data >= 0)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(4, 6))
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x + 13.7)).data
        assert np.all(np.abs(a - b) <= 1e-12)

    def test_gradient(self, rng):
        w = rng.normal(size=5)

        def f(x):
            return T.sum_all(T.mul(T.softmax(x), Tensor(w)))

        report = grad_check(f, Tensor(rng.normal(size=5)), tol=1e-6)
        assert report.passed, report


class TestLayerNorm:
    def test_constant_slice_absorbed_by_eps(self):
        gain = Tensor(np.ones(4))
        bias = Tensor(np.zeros(4))
        out = T.layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), gain, bias)
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_already_normalized(self):
        out = T.layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        # variance is exactly 1, so eps only shrinks the output slightly
        assert np.allclose(out.data, [1.0, -1.0], atol=1e-4)

    def test_empty_dimension_error(self):
        with pytest.raises(ValueError):
            T.layer_norm(Tensor(np.zeros((2, 0))), Tensor(np.zeros(0)), Tensor(np.zeros(0)))

    def test_gradient(self, rng):
        gain = rng.normal(size=4)
        bias = rng.normal(size=4)
        w = rng.normal(size=4)

        def f(x):
            return T.sum_all(T.mul(T.layer_norm(x, Tensor(gain), Tensor(bias)), Tensor(w)))

        report = grad_check(f, Tensor(rng.normal(size=4)), tol=1e-5)
        assert report.passed, report

    def test_gain_bias_gradient(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))

        def f(gain):
            return T.sum_all(T.mul(T.layer_norm(Tensor(x), gain, Tensor(np.zeros(4))), Tensor(w)))

        assert grad_check(f, Tensor(rng.normal(size=4)), tol=1e-5).passed

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 9, 129)])
    def test_matches_ndarray_mean_formulas_bitwise(self, shape, rng):
        # layer_norm takes its means as a float64 sum over n; they must be
        # the very numbers `ndarray.mean` gives, forward and backward
        x, gain, bias, g = (rng.normal(size=s) for s in (shape, shape[-1:], shape[-1:], shape))
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + T.LAYER_NORM_EPS)
        xhat = xc * inv
        gx = g * gain
        ref_x = (gx - gx.mean(axis=-1, keepdims=True) - xhat * (gx * xhat).mean(axis=-1, keepdims=True)) * inv
        leaves = [Tensor(a, requires_grad=True) for a in (x, gain, bias)]
        out = T.layer_norm(*leaves)
        backward(T.sum_all(T.mul(out, Tensor(g))))
        assert np.array_equal(out.data, xhat * gain + bias)
        assert np.array_equal(leaves[0].grad, ref_x)
        assert np.array_equal(leaves[1].grad, T._unbroadcast(g * xhat, gain.shape))


class TestActivations:
    def test_relu(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_gradient_away_from_kink(self, rng):
        x = rng.normal(size=8)
        x[np.abs(x) < 0.1] += 0.2  # relu is non-differentiable at 0

        def f(t):
            return T.sum_all(T.relu(t))

        assert grad_check(f, Tensor(x), tol=1e-6).passed


class TestMeanAxis:
    def test_constant_over_channels(self):
        x = Tensor(np.full((2, 3, 4, 5), 3.0))
        out = T.mean_axis(x, axis=3)
        assert out.data.shape == (2, 3, 4)
        assert np.all(out.data == 3.0)

    def test_small_example(self):
        out = T.mean_axis(Tensor([[1.0, 3.0], [5.0, 7.0]]), axis=1)
        assert np.array_equal(out.data, [2.0, 6.0])

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            T.mean_axis(Tensor(np.zeros((2, 2))), axis=5)

    @pytest.mark.parametrize("shape", [(13,), (3, 5), (3, 257, 5)])
    def test_matches_ndarray_mean_bitwise(self, shape, rng):
        x = rng.normal(size=shape)
        for axis in range(-len(shape), len(shape)):
            assert np.array_equal(T.mean_axis(Tensor(x), axis).data, x.mean(axis=axis)), axis

    def test_gradient_is_one_over_n(self, rng):
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        backward(T.sum_all(T.mean_axis(x, axis=1)))
        assert np.allclose(x.grad, 1.0 / 6.0)

        def f(t):
            return T.sum_all(T.mean_axis(t, axis=0))

        assert grad_check(f, Tensor(rng.normal(size=(3, 2))), tol=1e-6).passed


class TestCrossEntropy:
    def test_uniform_two_classes(self):
        out = T.cross_entropy(Tensor([[0.0, 0.0]]), np.array([0]))
        assert abs(out.item() - math.log(2.0)) < 1e-15

    def test_dominant_correct_logit(self):
        out = T.cross_entropy(Tensor([[10.0, -10.0]]), np.array([0]))
        assert out.item() < 1e-8

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            T.cross_entropy(Tensor(np.zeros((1, 3))), np.array([3]))

    def test_gradient(self, rng):
        targets = np.array([1, 3])

        def f(logits):
            return T.cross_entropy(logits, targets)

        report = grad_check(f, Tensor(rng.normal(size=(2, 4))), tol=1e-5)
        assert report.passed, report


class TestMse:
    def test_self_is_zero(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        assert T.mse(x, x).item() == 0.0

    def test_small_example(self):
        assert T.mse(Tensor([0.0, 0.0]), Tensor([2.0, 0.0])).item() == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            T.mse(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    def test_gradient_closed_form(self, rng):
        a = Tensor(rng.normal(size=6), requires_grad=True)
        b = Tensor(rng.normal(size=6))
        backward(T.mse(a, b))
        assert np.allclose(a.grad, 2.0 * (a.data - b.data) / 6.0, atol=1e-12)

        def f(t):
            return T.mse(t, b)

        assert grad_check(f, Tensor(rng.normal(size=6)), tol=1e-6).passed


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        backward(T.sum_all(x))
        assert np.array_equal(x.grad, [1.0, 1.0, 1.0])

    def test_linear_regression_gradient(self, rng):
        x = rng.normal(size=(4, 1))
        y = rng.normal(size=(3, 1))

        def f(w):
            return T.mse(T.matmul(w, Tensor(x)), Tensor(y))

        assert grad_check(f, Tensor(rng.normal(size=(3, 4))), tol=1e-5).passed

    def test_disconnected_parameter_reads_as_zero(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([5.0], requires_grad=True)  # never used
        backward(T.sum_all(x))
        assert np.array_equal(x.grad, [1.0, 1.0])
        assert w.grad is None  # consumers read None as zeros

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            backward(x)

    def test_backward_twice_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.sum_all(x)
        backward(loss)
        with pytest.raises(RuntimeError):
            backward(loss)

    def test_fanout_accumulates(self, rng):
        # x feeds two consumers: f = sum(x*x) + 3*sum(x); merged closed form
        # gives df/dx = 2x + 3.
        x = Tensor(rng.normal(size=5), requires_grad=True)
        loss = T.add(T.sum_all(T.mul(x, x)), T.mul(T.sum_all(x), Tensor(3.0)))
        backward(loss)
        assert np.allclose(x.grad, 2.0 * x.data + 3.0, atol=1e-12)

    def test_no_grad_recorded_for_frozen_path(self, monkeypatch):
        frozen = Tensor(np.ones((2, 2)), requires_grad=False)
        live = Tensor(np.ones((2, 2)), requires_grad=True)
        out = T.matmul(frozen, live)
        products = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda x, y: products.append(1) or matmul(x, y))
        backward(T.sum_all(out))
        assert frozen.grad is None
        assert live.grad is not None
        assert len(products) == 1  # no product for the frozen operand's gradient

    def test_intermediates_freed_during_backward(self):
        # a node's buffers go as soon as its backward has run, not when the
        # whole pass ends, so a training step's peak stays low
        x = Tensor(np.arange(3.0), requires_grad=True)
        freed = []

        def first_bw(g):   # x's only consumer, so it runs last
            freed.append(inner_data() is None)
            x.grad = g

        first = T._op(x.data * 1.0, (x,), first_bw)
        inner = T.mul(first, first)   # after this, only the graph holds it
        inner_data = weakref.ref(inner.data)
        loss = T.sum_all(T.mul(inner, Tensor(np.full(3, 2.0))))
        del inner
        backward(loss)
        assert freed == [True]
        assert np.array_equal(x.grad, 4.0 * x.data)


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self, rng):
        w = rng.normal(size=6)

        def f(x):
            return T.sum_all(T.mul(T.reshape(x, (6,)), Tensor(w)))

        assert grad_check(f, Tensor(rng.normal(size=(2, 3))), tol=1e-6).passed

    def test_transpose_gradient(self, rng):
        w = rng.normal(size=(3, 2, 4))

        def f(x):
            return T.sum_all(T.mul(T.transpose(x, (1, 0, 2)), Tensor(w)))

        assert grad_check(f, Tensor(rng.normal(size=(2, 3, 4))), tol=1e-6).passed

    def test_transpose_gradient_four_axes(self, rng):
        # (2, 0, 3, 1) is not its own inverse, so the backward must invert it
        axes = (2, 0, 3, 1)
        x = rng.normal(size=(2, 3, 4, 5))
        w = rng.normal(size=(4, 2, 5, 3))
        leaf = Tensor(x, requires_grad=True)
        out = T.transpose(leaf, axes)
        assert np.array_equal(out.data, np.transpose(x, axes))
        backward(T.sum_all(T.mul(out, Tensor(w))))
        assert np.array_equal(leaf.grad, np.transpose(w, np.argsort(axes)))

        def f(t):
            return T.sum_all(T.mul(T.transpose(t, axes), Tensor(w)))

        assert grad_check(f, Tensor(x), tol=1e-6).passed

    def test_concat_three_parts_gradient(self, rng):
        parts = [Tensor(rng.normal(size=(2, n)), requires_grad=True) for n in (1, 3, 2)]
        w = rng.normal(size=(2, 6))
        out = T.concat(parts, axis=1)
        assert np.array_equal(out.data, np.concatenate([p.data for p in parts], axis=1))
        backward(T.sum_all(T.mul(out, Tensor(w))))
        for part, ref in zip(parts, np.split(w, [1, 4], axis=1)):
            assert np.array_equal(part.grad, ref)

    def test_concat_and_take_rows_gradient(self, rng):
        b = rng.normal(size=(3, 2))

        def f(a):
            cat = T.concat([a, Tensor(b)], axis=0)
            return T.sum_all(T.take_rows(cat, np.array([1, 2, 3])))

        assert grad_check(f, Tensor(rng.normal(size=(2, 2))), tol=1e-6).passed

    def test_take_rows_gradient_scatter_adds(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        ids = np.array([0, 2, 0])
        out = T.take_rows(table, ids)
        assert np.array_equal(out.data, [[0.0, 1.0], [4.0, 5.0], [0.0, 1.0]])
        backward(T.sum_all(out))
        assert np.array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_take_rows_out_of_range(self):
        with pytest.raises(IndexError):
            T.take_rows(Tensor(np.zeros((3, 2))), np.array([4]))

    def test_gather_frames(self, rng):
        # per-batch frames out[b, s] = x[b, idx[b, s]] are rows b * 4 + idx[b, s]
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        idx = np.array([[0, 2], [3, 3]])
        out = T.take_rows(T.reshape(x, (8, 3)), idx + 4 * np.arange(2)[:, None])
        assert out.shape == (2, 2, 3)
        assert np.array_equal(out.data[0, 0], x.data[0, 0])
        assert np.array_equal(out.data[1, 1], x.data[1, 3])
        backward(T.sum_all(out))
        assert x.grad[1, 3].sum() == 6.0  # picked twice, 3 elements each
        assert x.grad[0, 1].sum() == 0.0


def composed_embed_tokens(table, positional, tokens):
    """The primitives `embed_tokens` replaces: two row lookups and an add."""
    return T.add(T.take_rows(table, tokens), T.take_rows(positional, np.arange(tokens.shape[-1])))


def composed_answer_logits(x, score, choices):
    """The primitives `answer_logits` replaces: a token mean, two products and
    two reshapes."""
    b, a, d = choices.shape
    v = T.matmul(T.mean_axis(x, axis=1), score)
    return T.reshape(T.matmul(choices, T.reshape(v, (b, d, 1))), (b, a))


# integer ids laid out as a request's questions and its choices
TOKEN_LAYOUTS = {"B_Lq": (2, 3), "B_A_Lc": (2, 4, 3)}


class FusedOpHarness:
    """Runs a fused op and its reference composition on the same leaves."""

    def run(self, op, arrays, readout, grad_of=None, **fixed):
        """Apply `op` to fresh leaves; return the output and every gradient."""
        leaves = {name: Tensor(a.copy(), requires_grad=grad_of in (None, name)) for name, a in arrays.items()}
        out = op(**leaves, **fixed)
        backward(T.sum_all(T.mul(out, Tensor(readout))))
        return out.data, {name: leaf.grad for name, leaf in leaves.items()}

    def assert_bitwise(self, got, ref, arrays):
        (out, grads), (ref_out, ref_grads) = got, ref
        assert np.array_equal(out, ref_out)
        assert grads.keys() == ref_grads.keys() == arrays.keys()
        for name in grads:
            assert grads[name].shape == arrays[name].shape, name
            assert np.array_equal(grads[name], ref_grads[name]), name


class TestFusedTextOps(FusedOpHarness):
    """`embed_tokens` and `answer_logits` are one op each with a hand-written
    backward; each must equal the composition of primitives bitwise, in the
    output and in the gradient of every input."""

    def tables(self, rng):
        # 5 ids over 24 or 6 tokens, so most ids repeat and scatter-add
        return {"table": rng.normal(size=(5, 6)), "positional": rng.normal(size=(4, 6))}

    @pytest.mark.parametrize("layout", sorted(TOKEN_LAYOUTS))
    def test_embed_tokens_matches_composition_bitwise(self, layout):
        rng = np.random.default_rng(5)
        shape = TOKEN_LAYOUTS[layout]
        tokens = rng.integers(0, 5, size=shape)
        arrays, readout = self.tables(rng), rng.normal(size=shape + (6,))
        self.assert_bitwise(self.run(T.embed_tokens, arrays, readout, tokens=tokens),
                            self.run(composed_embed_tokens, arrays, readout, tokens=tokens), arrays)

    def test_answer_logits_matches_composition_bitwise(self):
        rng = np.random.default_rng(6)
        arrays = {"x": rng.normal(size=(2, 3, 6)), "score": rng.normal(size=(6, 6)),
                  "choices": rng.normal(size=(2, 4, 6))}
        readout = rng.normal(size=(2, 4))
        self.assert_bitwise(self.run(T.answer_logits, arrays, readout),
                            self.run(composed_answer_logits, arrays, readout), arrays)

    def test_request_text_path_matches_composition_bitwise(self):
        # a request's text path: [B, Lq] questions and [B, A, Lc] choices
        # share both tables, so each table adds two gradient terms
        rng = np.random.default_rng(7)
        questions = rng.integers(0, 5, size=TOKEN_LAYOUTS["B_Lq"])
        choices = rng.integers(0, 5, size=TOKEN_LAYOUTS["B_A_Lc"])
        arrays = dict(self.tables(rng), score=rng.normal(size=(6, 6)))
        readout = rng.normal(size=(2, 4))

        def text_path(embed, answer):
            def path(table, positional, score):
                x = embed(table, positional, questions)
                return answer(x, score, T.mean_axis(embed(table, positional, choices), axis=2))
            return path

        self.assert_bitwise(self.run(text_path(T.embed_tokens, T.answer_logits), arrays, readout),
                            self.run(text_path(composed_embed_tokens, composed_answer_logits), arrays, readout),
                            arrays)

    @pytest.mark.parametrize("name", ["table", "positional"])
    def test_embed_tokens_gradient_of_one_input(self, name):
        rng = np.random.default_rng(8)
        tokens = rng.integers(0, 5, size=TOKEN_LAYOUTS["B_A_Lc"])
        arrays, readout = self.tables(rng), rng.normal(size=TOKEN_LAYOUTS["B_A_Lc"] + (6,))
        _, grads = self.run(T.embed_tokens, arrays, readout, grad_of=name, tokens=tokens)
        _, every = self.run(T.embed_tokens, arrays, readout, tokens=tokens)
        assert np.array_equal(grads.pop(name), every[name])
        assert all(g is None for g in grads.values())

    @pytest.mark.parametrize("name", ["x", "score", "choices"])
    def test_answer_logits_gradient_of_one_input(self, name):
        rng = np.random.default_rng(9)
        arrays = {"x": rng.normal(size=(2, 3, 6)), "score": rng.normal(size=(6, 6)),
                  "choices": rng.normal(size=(2, 4, 6))}
        readout = rng.normal(size=(2, 4))
        _, grads = self.run(T.answer_logits, arrays, readout, grad_of=name)
        _, every = self.run(T.answer_logits, arrays, readout)
        assert np.array_equal(grads.pop(name), every[name])
        assert all(g is None for g in grads.values())

    @pytest.mark.parametrize("tokens, error", [
        ([[5]], IndexError), ([[-1]], IndexError), ([[0, 5], [1, 2]], IndexError),
        ([[1.0]], TypeError), ([[True]], TypeError),
    ], ids=["out_of_vocab", "negative", "one_of_four", "float", "bool"])
    def test_bad_token_ids_rejected(self, tokens, error):
        table, positional = Tensor(np.zeros((5, 2))), Tensor(np.zeros((4, 2)))
        with pytest.raises(error):
            T.embed_tokens(table, positional, np.array(tokens))

    @pytest.mark.parametrize("tokens", [np.array(3), np.zeros((1, 5), dtype=int)], ids=["0-d", "too_long"])
    def test_bad_token_shape_rejected(self, tokens):
        with pytest.raises(ValueError):
            T.embed_tokens(Tensor(np.zeros((5, 2))), Tensor(np.zeros((4, 2))), tokens)

    def test_answer_logits_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            T.answer_logits(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 4))), Tensor(np.zeros((2, 3, 5))))


def composed_frame_scorer(x, w1, gain, bias, w2, scorer, segments):
    b, t, _ = x.shape
    embedded = T.matmul(T.relu(T.layer_norm(T.matmul(x, w1), gain, bias)), w2)
    return T.reshape(T.matmul(embedded, scorer), (b, segments, t // segments))


def frame_scorer_arrays(rng, b, t, n=4, hidden=32):
    """Inputs of `frame_scorer` at the selector's default widths."""
    return {"x": rng.normal(size=(b, t, n)), "w1": rng.normal(size=(n, hidden)) / 2,
            "gain": 1.0 + 0.1 * rng.normal(size=hidden), "bias": 0.1 * rng.normal(size=hidden),
            "w2": rng.normal(size=(hidden, n)) / np.sqrt(hidden), "scorer": rng.normal(size=(n, 1))}


class TestFrameScorerOp(FusedOpHarness):
    """`frame_scorer` is one op with a hand-written backward that reuses its
    forward temporaries in place; it must equal the composition of
    `matmul`, `layer_norm`, `relu` and `reshape` bitwise, in the output and
    in the gradient of every input."""

    @pytest.mark.parametrize("frames", [32, 128])
    @pytest.mark.parametrize("batch", [1, 64])
    def test_matches_composition_bitwise(self, batch, frames):
        rng = np.random.default_rng(batch + frames)
        arrays = frame_scorer_arrays(rng, batch, frames)
        readout = rng.normal(size=(batch, 4, frames // 4))
        self.assert_bitwise(self.run(T.frame_scorer, arrays, readout, segments=4),
                            self.run(composed_frame_scorer, arrays, readout, segments=4), arrays)
        # the relu passes some units and stops others, so its mask is exercised
        hidden = np.matmul(arrays["x"], arrays["w1"])
        on = T.layer_norm(Tensor(hidden), Tensor(arrays["gain"]), Tensor(arrays["bias"])).data > 0.0
        assert 0.0 < on.mean() < 1.0

    @pytest.mark.parametrize("name", ["x", "w1", "gain", "bias", "w2", "scorer"])
    def test_gradient_of_one_input(self, name):
        rng = np.random.default_rng(10)
        arrays = frame_scorer_arrays(rng, 2, 8)
        readout = rng.normal(size=(2, 2, 4))
        _, grads = self.run(T.frame_scorer, arrays, readout, grad_of=name, segments=2)
        _, every = self.run(T.frame_scorer, arrays, readout, segments=2)
        assert np.array_equal(grads.pop(name), every[name])
        assert all(g is None for g in grads.values())

    def test_forward_leaves_its_inputs_alone(self):
        arrays = frame_scorer_arrays(np.random.default_rng(11), 2, 8)
        copies = {name: a.copy() for name, a in arrays.items()}
        T.frame_scorer(**{name: Tensor(a) for name, a in arrays.items()}, segments=2)
        assert all(np.array_equal(arrays[name], copies[name]) for name in arrays)

    @pytest.mark.parametrize("name, shape", [("x", (2, 8)), ("w1", (3, 32)), ("gain", (31,)),
                                             ("bias", (32, 1)), ("w2", (32,)), ("scorer", (4, 2))])
    def test_shape_mismatch_rejected(self, name, shape):
        arrays = frame_scorer_arrays(np.random.default_rng(12), 2, 8)
        arrays[name] = np.zeros(shape)
        with pytest.raises(ValueError):
            T.frame_scorer(**{n: Tensor(a) for n, a in arrays.items()}, segments=2)

    @pytest.mark.parametrize("segments", [0, 3])
    def test_segments_must_divide_frames(self, segments):
        arrays = frame_scorer_arrays(np.random.default_rng(13), 2, 8)
        with pytest.raises(ValueError, match="do not divide"):
            T.frame_scorer(**{n: Tensor(a) for n, a in arrays.items()}, segments=segments)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32,
                                   np.uint64, np.bool_, np.float16, np.float32, np.float64, np.complex128,
                                   np.str_, np.object_])
def test_row_ids_accept_exactly_numpy_integer_dtypes(dtype):
    # the dtype check reads `dtype.kind`; it accepts what np.issubdtype(...,
    # np.integer) accepts, no more and no less
    ids = np.array([1, 0]).astype(dtype)
    if np.issubdtype(ids.dtype, np.integer):
        assert T.take_rows(Tensor(np.eye(2)), ids).shape == (2, 2)
        assert T.embed_tokens(Tensor(np.eye(2)), Tensor(np.eye(2)), ids).shape == (2, 2)
    else:
        with pytest.raises(TypeError):
            T.take_rows(Tensor(np.eye(2)), ids)
        with pytest.raises(TypeError):
            T.embed_tokens(Tensor(np.eye(2)), Tensor(np.eye(2)), ids)


class TestGradCheck:
    def test_sum_of_squares_closed_form(self, rng):
        def f(x):
            return T.sum_all(T.mul(x, x))

        report = grad_check(f, Tensor(rng.normal(size=5)), tol=1e-7)
        assert report.max_rel_err < 1e-8, report

    def test_softmax_then_pick_with_jitter(self, rng):
        # boundary ties are avoided by jittering the sample point
        x = rng.normal(size=6) + np.linspace(0, 0.5, 6)

        def f(t):
            return T.take_rows(T.reshape(T.softmax(t), (6, 1)), np.array([2]))

        assert grad_check(f, Tensor(x), tol=1e-6).passed

    def test_nondeterministic_function_rejected(self):
        state = {"n": 0}

        def f(x):
            state["n"] += 1
            return T.sum_all(T.mul(x, Tensor(float(state["n"]))))

        with pytest.raises(RuntimeError):
            grad_check(f, Tensor(np.ones(2)))

    def test_non_scalar_function_rejected(self):
        with pytest.raises(ValueError):
            grad_check(lambda x: x, Tensor(np.ones(2)))


def summed_to(g: np.ndarray, shape) -> np.ndarray:
    """Reference for `_unbroadcast`: each entry of an array of `shape`
    broadcast to g.shape collects the entries of g it was copied to."""
    index = np.broadcast_to(np.arange(math.prod(shape)).reshape(shape), g.shape)
    return np.bincount(index.ravel(), weights=g.ravel(), minlength=math.prod(shape)).reshape(shape)


two_shapes = hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=4,
                                               min_side=1, max_side=4)
values = st.integers(0, 2 ** 32 - 1).map(np.random.default_rng)


class TestBroadcastProperties:
    @settings(max_examples=60, deadline=None)
    @given(shapes=two_shapes, rng=values)
    def test_unbroadcast_sums_broadcast_axes(self, shapes, rng):
        shape = shapes.input_shapes[0]
        g = rng.normal(size=shapes.result_shape)
        out = T._unbroadcast(g, shape)
        assert out.shape == shape
        assert np.allclose(out, summed_to(g, shape), rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(shapes=two_shapes, op=st.sampled_from(["add", "mul"]), rng=values)
    def test_elementwise_gradients_have_input_shapes(self, shapes, op, rng):
        a_shape, b_shape = shapes.input_shapes
        a = Tensor(rng.uniform(0.5, 2.0, size=a_shape), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, size=b_shape), requires_grad=True)
        out = getattr(T, op)(a, b)
        assert out.shape == shapes.result_shape
        w = rng.normal(size=shapes.result_shape)
        backward(T.sum_all(T.mul(out, Tensor(w))))
        assert a.grad.shape == a_shape and b.grad.shape == b_shape
        da, db = {"add": (1.0, 1.0), "mul": (b.data, a.data)}[op]
        assert np.allclose(a.grad, summed_to(w * da, a_shape), rtol=1e-12, atol=1e-12)
        assert np.allclose(b.grad, summed_to(w * db, b_shape), rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(shapes=hnp.mutually_broadcastable_shapes(signature="(n,k),(k,m)->(n,m)", max_dims=3,
                                                    min_side=1, max_side=4),
           rng=values)
    def test_matmul_gradients_have_input_shapes(self, shapes, rng):
        a_shape, b_shape = shapes.input_shapes
        a = Tensor(rng.normal(size=a_shape), requires_grad=True)
        b = Tensor(rng.normal(size=b_shape), requires_grad=True)
        out = T.matmul(a, b)
        assert out.shape == shapes.result_shape
        w = rng.normal(size=shapes.result_shape)
        backward(T.sum_all(T.mul(out, Tensor(w))))
        assert a.grad.shape == a_shape and b.grad.shape == b_shape
        batch = shapes.result_shape[:-2]
        a_full = np.broadcast_to(a.data, batch + a_shape[-2:])
        b_full = np.broadcast_to(b.data, batch + b_shape[-2:])
        ga = np.einsum("...nm,...km->...nk", w, b_full)
        gb = np.einsum("...nk,...nm->...km", a_full, w)
        assert np.allclose(a.grad, summed_to(ga, a_shape), rtol=1e-12, atol=1e-12)
        assert np.allclose(b.grad, summed_to(gb, b_shape), rtol=1e-12, atol=1e-12)


PACKAGE = Path(T.__file__).resolve().parent
# public functions of `tensor` that are not ops
NOT_OPS = {"backward", "grad_check"}
# ops with no model caller: `sum_all` is the gradcheck suites' scalar reducer;
# `mul`, `softmax` and `transpose` build the tests' reference composition of
# `attention`, which runs them inside one op
NO_MODEL_CALLER = {"sum_all", "mul", "softmax", "transpose"}


def test_every_op_has_a_model_caller():
    """Each `tensor` op is called as `T.<name>` by the model, in a module of
    the package other than `tensor` and `checks`: an op that only tests or
    the gradcheck suites call is not a model primitive."""
    module = ast.parse((PACKAGE / "tensor.py").read_text())
    ops = {node.name for node in module.body
           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")} - NOT_OPS
    called = set()
    for path in PACKAGE.glob("*.py"):
        if path.name in ("tensor.py", "checks.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "T"):
                called.add(node.func.attr)
    assert len(ops) == 19
    assert sorted(ops - called) == sorted(NO_MODEL_CALLER)
