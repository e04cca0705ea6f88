import pytest

from framepick import checks
from framepick import tensor as T


# every scope at seed 0; the ops suite also at seed 7, so each primitive is
# checked at 20 random points
SCOPE_SEEDS = [(scope, 0) for scope in sorted(checks.SCOPES)] + [("ops", 7)]


@pytest.mark.parametrize("scope, seed", SCOPE_SEEDS,
                         ids=[scope if seed == 0 else f"{scope}-seed{seed}" for scope, seed in SCOPE_SEEDS])
def test_scope_passes(scope, seed):
    reports = checks.run_scope(scope, seed=seed)
    assert reports
    failed = [r for r in reports if not r.passed]
    assert not failed, failed


def test_unknown_scope_rejected():
    with pytest.raises(ValueError, match="unknown gradcheck scope"):
        checks.run_scope("everything")


def with_scaled_backward(op, factor=1.5):
    """`op` with a backward that is off by `factor`: a planted gradient bug."""
    def wrong(*args, **kwargs):
        out = op(*args, **kwargs)
        if out.requires_grad:
            bw = out._bw
            out._bw = lambda g: bw(factor * g)
        return out
    return wrong


def test_wrong_backward_is_reported(monkeypatch):
    monkeypatch.setattr(T, "attention", with_scaled_backward(T.attention))
    failed = {r.name.split("[")[0] for r in checks.run_scope("ops") if not r.passed}
    assert failed == {"attention"}
    # the end-to-end suite runs the fusion's attentions and catches it too,
    # on every target whose gradient passes through an attention
    failed = {r.name for r in checks.run_scope("end2end") if not r.passed}
    assert failed == {"end2end.student_cross_wq", "end2end.student_proj",
                      "end2end.student_queries", "end2end.teacher_self_wk",
                      "end2end.teacher_proj", "end2end.teacher_key_bias"}


def test_wrong_softmax_backward_is_reported(monkeypatch):
    # softmax has no model caller since attention became one op; the ops
    # suite still checks it, for the compositions the tests build from it
    monkeypatch.setattr(T, "softmax", with_scaled_backward(T.softmax))
    failed = {r.name.split("[")[0] for r in checks.run_scope("ops") if not r.passed}
    assert failed == {"softmax"}


@pytest.mark.parametrize("op", ["embed_tokens", "answer_logits", "blockdiag_identity", "frame_scorer"])
def test_wrong_fused_op_backward_is_reported(monkeypatch, op):
    # the text encoder's, the answer head's, the fusion's key-layout and the
    # selector's frame-scorer ops: a planted fault fails that op's checks
    # and no other op's
    monkeypatch.setattr(T, op, with_scaled_backward(getattr(T, op)))
    failed = {r.name.split("[")[0] for r in checks.run_scope("ops") if not r.passed}
    assert failed == {op}


def test_wrong_selector_backward_is_reported_end_to_end(monkeypatch):
    # the selector's embedding and scorer run in one op, so both see the
    # fault; the pick passes no gradient to the rest of the student
    monkeypatch.setattr(T, "frame_scorer", with_scaled_backward(T.frame_scorer))
    failed = {r.name for r in checks.run_scope("end2end") if not r.passed}
    assert failed == {"end2end.embed", "end2end.scorer"}
