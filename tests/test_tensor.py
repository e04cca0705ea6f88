import math

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

    def test_concat_and_narrow_gradient(self, rng):
        b = rng.normal(size=(2, 3))

        def f(a):
            cat = T.concat([a, Tensor(b)], axis=1)
            return T.sum_all(T.narrow(cat, 1, 1, 3))

        assert grad_check(f, Tensor(rng.normal(size=(2, 2))), tol=1e-6).passed

    def test_broadcast_to_gradient(self, rng):
        w = rng.normal(size=(4, 3))

        def f(x):
            return T.sum_all(T.mul(T.broadcast_to(x, (4, 3)), Tensor(w)))

        assert grad_check(f, Tensor(rng.normal(size=(1, 3))), tol=1e-6).passed

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
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        idx = np.array([[0, 2], [3, 3]])
        out = T.gather_frames(x, idx)
        assert np.array_equal(out.data[0, 0], x.data[0, 0])
        assert np.array_equal(out.data[1, 1], x.data[1, 3])
        backward(T.sum_all(out))
        assert x.grad[1, 3].sum() == 6.0  # picked twice, 3 elements each
        assert x.grad[0, 1].sum() == 0.0

    def test_masked_log(self):
        m = Tensor([0.5, 1.0, 0.0], requires_grad=True)
        out = T.masked_log(m)
        assert np.allclose(out.data[:2], [math.log(0.5), 0.0])
        assert out.data[2] == -1e9
        backward(T.sum_all(out))
        assert np.allclose(m.grad, [2.0, 1.0, 0.0])


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
            return T.narrow(T.softmax(t), 0, 2, 1)

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


def test_registered_primitives_pass_grad_check(rng):
    # Repo-wide invariant: every differentiable primitive passes at tol 1e-5
    # on 10 random instances away from non-smooth points.
    from framepick.checks import run_ops_suite

    reports = run_ops_suite(seed=7, instances=10)
    failed = [r for r in reports if not r.passed]
    assert not failed, failed


def test_debug_finite_checks_flag():
    T.set_debug_checks(True)
    try:
        with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
            T.log(Tensor([-1.0]))
    finally:
        T.set_debug_checks(False)
    # off by default: produces nan with numpy's RuntimeWarning, no error
    with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
        out = T.log(Tensor([-1.0]))
    assert np.isnan(out.data[0])


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
    @given(shapes=two_shapes, op=st.sampled_from(["add", "sub", "mul", "div"]), rng=values)
    def test_elementwise_gradients_have_input_shapes(self, shapes, op, rng):
        a_shape, b_shape = shapes.input_shapes
        a = Tensor(rng.uniform(0.5, 2.0, size=a_shape), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, size=b_shape), requires_grad=True)
        out = getattr(T, op)(a, b)
        assert out.shape == shapes.result_shape
        w = rng.normal(size=shapes.result_shape)
        backward(T.sum_all(T.mul(out, Tensor(w))))
        assert a.grad.shape == a_shape and b.grad.shape == b_shape
        da, db = {"add": (1.0, 1.0), "sub": (1.0, -1.0), "mul": (b.data, a.data),
                  "div": (1.0 / b.data, -a.data / b.data ** 2)}[op]
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
