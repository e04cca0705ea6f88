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
        enc = S.SurrogateVisualEncoder.init(raw_dim=6, channels=3, patches=2, seed=0)
        out = S.encode_video(Tensor(np.zeros((1, 2, 2, 6))), enc)
        assert np.all(out.data == 0.0)

    def test_same_seed_is_bitwise_identical(self, rng):
        raw = rng.normal(size=(1, 3, 2, 6))
        a = S.encode_video(Tensor(raw), S.SurrogateVisualEncoder.init(6, 3, 2, seed=9))
        b = S.encode_video(Tensor(raw), S.SurrogateVisualEncoder.init(6, 3, 2, seed=9))
        assert np.array_equal(a.data, b.data)

    def test_projection_never_receives_gradient(self, rng):
        enc = S.SurrogateVisualEncoder.init(6, 3, 2, seed=1)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        feats = S.encode_video(Tensor(rng.normal(size=(1, 2, 2, 6))), enc)
        backward(T.sum_all(T.matmul(feats, w)))
        assert enc.projection.requires_grad is False
        assert enc.projection.grad is None

    def test_linearity(self, rng):
        enc = S.SurrogateVisualEncoder.init(6, 3, 2, seed=2)
        x = rng.normal(size=(1, 2, 2, 6))
        y = rng.normal(size=(1, 2, 2, 6))
        lhs = S.encode_video(Tensor(2.5 * x - 1.5 * y), enc).data
        rhs = 2.5 * S.encode_video(Tensor(x), enc).data - 1.5 * S.encode_video(Tensor(y), enc).data
        assert np.all(np.abs(lhs - rhs) <= 1e-12)

    def test_shape_mismatch(self, rng):
        enc = S.SurrogateVisualEncoder.init(6, 3, 2, seed=0)
        with pytest.raises(ValueError):
            S.encode_video(Tensor(np.zeros((1, 2, 2, 5))), enc)


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
        with pytest.raises(IndexError):
            S.encode_text(np.array([[10]]), enc)

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
