import math

import numpy as np
import pytest

from framepick import surrogates as S
from framepick import tensor as T
from framepick.tensor import Tensor, backward, grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestVisualEncoder:
    def test_zero_input_gives_zero_features(self):
        enc = S.SurrogateVisualEncoder.init(raw_dim=6, channels=3, seed=0)
        out = S.encode_video(Tensor(np.zeros((1, 2, 2, 6))), enc)
        assert np.all(out.data == 0.0)

    def test_same_seed_is_bitwise_identical(self, rng):
        raw = rng.normal(size=(1, 3, 2, 6))
        a = S.encode_video(Tensor(raw), S.SurrogateVisualEncoder.init(6, 3, seed=9))
        b = S.encode_video(Tensor(raw), S.SurrogateVisualEncoder.init(6, 3, seed=9))
        assert np.array_equal(a.data, b.data)

    def test_projection_never_receives_gradient(self, rng):
        enc = S.SurrogateVisualEncoder.init(6, 3, seed=1)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        feats = S.encode_video(Tensor(rng.normal(size=(1, 2, 2, 6))), enc)
        backward(T.sum_all(T.matmul(feats, w)))
        assert enc.projection.requires_grad is False
        assert enc.projection.grad is None

    def test_linearity(self, rng):
        enc = S.SurrogateVisualEncoder.init(6, 3, seed=2)
        x = rng.normal(size=(1, 2, 2, 6))
        y = rng.normal(size=(1, 2, 2, 6))
        lhs = S.encode_video(Tensor(2.5 * x - 1.5 * y), enc).data
        rhs = 2.5 * S.encode_video(Tensor(x), enc).data - 1.5 * S.encode_video(Tensor(y), enc).data
        assert np.all(np.abs(lhs - rhs) <= 1e-12)

    def test_any_frame_and_patch_count(self, rng):
        # the projection is per patch, so no frame or patch count is held
        enc = S.SurrogateVisualEncoder.init(6, 3, seed=3)
        for frames, patches in ((1, 1), (3, 2), (5, 7)):
            out = S.encode_video(Tensor(rng.normal(size=(2, frames, patches, 6))), enc)
            assert out.shape == (2, frames, patches, 3)

    def test_shape_mismatch(self, rng):
        enc = S.SurrogateVisualEncoder.init(6, 3, seed=0)
        with pytest.raises(ValueError):
            S.encode_video(Tensor(np.zeros((1, 2, 2, 5))), enc)
        with pytest.raises(ValueError):
            S.pool_video(Tensor(np.zeros((1, 2, 2, 5))), enc)

    @pytest.mark.parametrize("frames", [32, 128])
    @pytest.mark.parametrize("batch", [1, 8, 64])
    def test_pool_is_the_channel_mean_of_the_features(self, frames, batch):
        # the channel mean folded into the projection: equal up to rounding,
        # and no op, so no graph
        rng = np.random.default_rng(frames + batch)
        enc = S.SurrogateVisualEncoder.init(24, S.CHANNELS, seed=4)
        raw = Tensor(rng.normal(size=(batch, frames, 4, 24)))
        pooled = S.pool_video(raw, enc)
        ref = S.encode_video(raw, enc).data.mean(axis=3)
        assert pooled.shape == (batch, frames, 4) and not pooled.requires_grad
        assert np.abs(pooled.data - ref).max() <= 1e-14 * np.abs(ref).max()


class TestTextEncoder:
    def test_single_token_zero_positions_is_embedding_row(self, rng):
        enc = S.SurrogateTextEncoder.init(vocab=10, d_model=4, max_len=3, rng=rng)
        enc.positional = Tensor(np.zeros((3, 4)), requires_grad=True)
        out = S.encode_text(np.array([[7]]), enc)
        assert np.array_equal(out.data[0, 0], enc.embedding.data[7])

    def test_positions_differentiate_repeated_tokens(self, rng):
        enc = S.SurrogateTextEncoder.init(vocab=10, d_model=4, max_len=4, rng=rng)
        out = S.encode_text(np.array([[3, 3]]), enc)
        assert not np.allclose(out.data[0, 0], out.data[0, 1])

    def test_out_of_vocab_rejected(self, rng):
        enc = S.SurrogateTextEncoder.init(vocab=10, d_model=4, max_len=4, rng=rng)
        for ids in ([[10]], [[-1]]):
            with pytest.raises(IndexError):
                S.encode_text(np.array(ids), enc)

    def test_gradient_reaches_table_only_when_trainable(self, rng):
        enc = S.SurrogateTextEncoder.init(vocab=10, d_model=4, max_len=4, rng=rng)
        w = rng.normal(size=(1, 2, 4))
        backward(T.sum_all(T.mul(S.encode_text(np.array([[1, 2]]), enc), Tensor(w))))
        assert enc.embedding.grad is not None and np.any(enc.embedding.grad != 0)

        frozen = S.SurrogateTextEncoder.init(vocab=10, d_model=4, max_len=4, rng=rng)
        frozen.embedding.requires_grad = False
        frozen.positional.requires_grad = False
        backward(T.sum_all(T.mul(S.encode_text(np.array([[1, 2]]), frozen), Tensor(w))))
        assert frozen.embedding.grad is None

    def test_any_token_shape_matches_per_row_calls(self, rng):
        # [B, A, Lc] ids in one call: each row as its own [1, Lc] call,
        # bitwise, and the tables' gradients are the rows' gradients summed
        enc = S.SurrogateTextEncoder.init(vocab=10, d_model=4, max_len=4, rng=rng)
        ids = rng.integers(0, 10, size=(2, 3, 3))
        w = rng.normal(size=(2, 3, 3, 4))
        out = S.encode_text(ids, enc)
        assert out.shape == (2, 3, 3, 4)
        backward(T.sum_all(T.mul(out, Tensor(w))))
        grads = enc.embedding.grad, enc.positional.grad
        enc.embedding.grad = enc.positional.grad = None
        for b in range(2):
            for a in range(3):
                row = S.encode_text(ids[b, a][None], enc)
                assert np.array_equal(out.data[b, a], row.data[0])
                backward(T.sum_all(T.mul(row, Tensor(w[b, a][None]))))
        assert np.allclose(enc.embedding.grad, grads[0], rtol=0, atol=1e-12)
        assert np.allclose(enc.positional.grad, grads[1], rtol=0, atol=1e-12)

    def test_encode_choices_pools_tokens(self, rng):
        enc = S.SurrogateTextEncoder.init(vocab=10, d_model=4, max_len=4, rng=rng)
        out = S.encode_choices(np.array([[[1, 2], [3, 4]]]), enc)
        assert out.shape == (1, 2, 4)
        single = S.encode_text(np.array([[1, 2]]), enc)
        assert np.allclose(out.data[0, 0], single.data[0].mean(axis=0))


class TestAnswerHead:
    def test_identical_choices_give_identical_logits(self, rng):
        head = S.AnswerHead.init(4, rng)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        choice = rng.normal(size=4)
        choices = Tensor(np.tile(choice, (2, 3, 1)))
        logits = S.score_answers(x, choices, head)
        assert np.allclose(logits.data, logits.data[:, :1])

    def test_inner_product_geometry(self, rng):
        d = 4
        head = S.AnswerHead(score=Tensor(np.eye(d)))
        target = np.zeros(d)
        target[1] = 2.0
        choices = np.eye(d)[None, :3] * 3.0  # orthogonal choices 0, 1, 2
        x = Tensor(np.tile(target, (1, 2, 1)))  # pooled vector equals choice 1 direction
        logits = S.score_answers(x, Tensor(choices), head)
        assert logits.data.argmax() == 1

    def test_choice_permutation_equivariance(self, rng):
        head = S.AnswerHead.init(4, rng)
        x = Tensor(rng.normal(size=(1, 2, 4)))
        choices = rng.normal(size=(1, 4, 4))
        perm = np.array([2, 0, 3, 1])
        a = S.score_answers(x, Tensor(choices), head).data
        b = S.score_answers(x, Tensor(choices[:, perm]), head).data
        assert np.allclose(a[:, perm], b, atol=1e-12)

    def test_fewer_than_two_choices_rejected(self, rng):
        head = S.AnswerHead.init(4, rng)
        with pytest.raises(ValueError):
            S.score_answers(Tensor(rng.normal(size=(1, 2, 4))),
                            Tensor(rng.normal(size=(1, 1, 4))), head)

    def test_gradient(self, rng):
        head = S.AnswerHead.init(4, rng)
        choices = rng.normal(size=(2, 4, 4))
        targets = np.array([1, 2])

        def f(x):
            logits = S.score_answers(x, Tensor(choices), head)
            return T.cross_entropy(logits, targets)

        report = grad_check(f, Tensor(rng.normal(size=(2, 3, 4))), tol=1e-5)
        assert report.passed, report


class TestVqaLoss:
    def test_uniform_logits_five_choices(self):
        out = S.vqa_loss(Tensor(np.zeros((1, 5))), np.array([2]))
        assert abs(out.item() - math.log(5.0)) < 1e-12

    def test_dominant_correct_logit(self):
        logits = np.full((1, 4), -10.0)
        logits[0, 1] = 10.0
        assert S.vqa_loss(Tensor(logits), np.array([1])).item() < 1e-8

    def test_delegates_to_cross_entropy_bitwise(self, rng):
        logits = rng.normal(size=(3, 4))
        targets = np.array([0, 3, 1])
        a = S.vqa_loss(Tensor(logits), targets).item()
        b = T.cross_entropy(Tensor(logits), targets).item()
        assert a == b
