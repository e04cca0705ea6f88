"""Finite-difference verification suites.

Each suite returns a list of GradCheckReport from `tensor.grad_check`, which
compares the analytic gradient with central differences at every coordinate
of the checked tensor. `run_scope` runs one suite by its `SCOPES` name
(two: "ops" and "end2end"), and tests/test_checks.py runs every scope
through it; the package has no command-line entry point yet. Every suite
runs the model's own code: "ops" each `tensor` primitive, and "end2end" the
student stage's training loss (`trainer.student_loss`), which reaches
`qformer_forward` through the student queries and cross-attention, the
teacher stage's loss through the teacher's self-attention key weight and
its projection, and the teacher's saliency gradient. Sample points are
jittered away from non-smooth loci (relu kinks, argmax ties), and relu at
exactly 0 is excluded by construction.
"""

from __future__ import annotations

import numpy as np

from . import prompter, trainer
from . import tensor as T
from .tensor import Tensor, grad_check


def _jitter(x: np.ndarray, margin: float = 0.15) -> np.ndarray:
    """Push entries away from zero so relu-like kinks are not sampled."""
    out = x.copy()
    small = np.abs(out) < margin
    out[small] += np.sign(out[small] + 1e-12) * margin
    return out


def run_ops_suite(seed: int = 0, instances: int = 10, tol: float = 1e-5):
    """Every differentiable primitive of `tensor`, `instances` random points
    each. `sum_all` is the suites' scalar reducer. `mul`, `softmax` and
    `transpose` have no model caller: attention runs them inside one op
    (`attention`, checked in both query layouts over every input), and the
    tests' reference composition builds from them."""
    rng = np.random.default_rng(seed)
    reports = []

    def check(name, f, x, use_tol=tol, eps=1e-4):
        reports.append(grad_check(f, Tensor(x), eps=eps, tol=use_tol, name=name))

    for i in range(instances):
        w34 = rng.normal(size=(3, 4))
        w23 = rng.normal(size=(2, 3))
        w4 = rng.normal(size=4)
        w24 = rng.normal(size=(2, 4))
        w2 = rng.normal(size=2)
        w224 = rng.normal(size=(2, 2, 4))
        w6 = rng.normal(size=6)

        check(f"matmul[{i}]", lambda a: T.sum_all(T.matmul(a, Tensor(w34))), rng.normal(size=(2, 3)))
        check(f"add[{i}]", lambda a: T.sum_all(T.mul(T.add(a, Tensor(w23)), Tensor(w23))), rng.normal(size=(2, 3)))
        check(f"mul[{i}]", lambda a: T.sum_all(T.mul(a, Tensor(w23))), rng.normal(size=(2, 3)))
        check(f"softmax[{i}]", lambda a: T.sum_all(T.mul(T.softmax(a, -1), Tensor(w24))), rng.normal(size=(2, 4)))
        check(f"relu[{i}]", lambda a: T.sum_all(T.relu(a)), _jitter(rng.normal(size=6)))
        check(f"layer_norm[{i}]",
              lambda a: T.sum_all(T.mul(T.layer_norm(a, Tensor(w4), Tensor(w4)), Tensor(w24))),
              rng.normal(size=(2, 4)))
        check(f"mean_axis[{i}]", lambda a: T.sum_all(T.mul(T.mean_axis(a, 1), Tensor(w2))),
              rng.normal(size=(2, 3)))
        targets = rng.integers(0, 4, size=2)
        check(f"cross_entropy[{i}]", lambda a: T.cross_entropy(a, targets), rng.normal(size=(2, 4)))
        check(f"mse[{i}]", lambda a: T.mse(a, Tensor(w23)), rng.normal(size=(2, 3)))
        ids = rng.integers(0, 3, size=(2, 2))
        check(f"take_rows[{i}]", lambda a: T.sum_all(T.mul(T.take_rows(a, ids), Tensor(w224))),
              rng.normal(size=(3, 4)))
        check(f"concat[{i}]", lambda a: T.sum_all(T.concat([a, Tensor(w23)], axis=0)), rng.normal(size=(2, 3)))
        check(f"transpose[{i}]", lambda a: T.sum_all(T.mul(T.transpose(a, (1, 0)), Tensor(w23.T))),
              rng.normal(size=(2, 3)))
        check(f"reshape[{i}]", lambda a: T.sum_all(T.mul(T.reshape(a, (6,)), Tensor(w6))),
              rng.normal(size=(2, 3)))
        # shared [Lq, d] queries over coefficients on a basis, with a key
        # bias; then [b, Lq, d] queries over plain keys; every input checked
        for layout, shapes in (
            ("shared", {"queries": (2, 3), "keys": (2, 3, 2), "key_bias": (2, 3), "basis": (2, 3)}),
            ("batched", {"queries": (2, 2, 3), "keys": (2, 3, 3)}),
        ):
            values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            # weights at the model's init scale, 1/sqrt(d): N(0, 1) weights make
            # some softmaxes sharp enough that central differences miss tol
            values.update({w: rng.normal(size=(3, 3)) / np.sqrt(3) for w in ("wq", "wk", "wv", "wo")})
            readout = Tensor(rng.normal(size=(2, 2, 3)))
            for name in values:
                def attend(x):
                    args = {n: x if n == name else Tensor(v) for n, v in values.items()}
                    return T.sum_all(T.mul(T.attention(scale=1.0 / np.sqrt(3), **args), readout))

                check(f"attention[{i}].{layout}.{name}", attend, values[name])
    return reports


def run_end2end_suite(seed: int = 0, tol: float = 1e-4):
    """The stage-2 training loss (`trainer.student_loss`) on a 2-sample batch,
    over every coordinate of six student-side parameters: the selector's
    [N, 1] frame scorer and the first fc weight of its frame embedding, the
    student queries and cross-attention query weight, the first fc weight of
    the distillation decoder and the student projection; the stage-1 loss
    (`trainer.teacher_loss`) over the teacher's self-attention key weight
    and over the teacher projection, whose gradient comes back through the
    fusion's key basis; and the teacher's answer loss over the zero key
    bias whose gradient is the saliency: nine targets.

    The loss is smooth while no perturbation moves an argmax pick, so each
    evaluation sees the same picks. Each target's `f(x)` puts `x` into the
    parameter's slot of the bundle.
    """
    from . import surrogates, synth

    spec = synth.DatasetSpec(num_train=4, num_val=2, frames=8, patches=3, num_keyframes=2, seed=seed)
    pcfg = prompter.FramePrompterConfig(frames=8, segments=2, d_model=12, embed_hidden=6)
    cfg = trainer.TrainConfig(seed=seed, teacher_steps=1, student_steps=1, prompter_cfg=pcfg, data=spec)
    train_samples, _ = synth.generate(spec)
    bundle = trainer.build_models(cfg)
    trainer.set_stage(bundle, trainer.STAGE_STUDENT)
    batch = trainer.make_batch(train_samples[:2])

    def first_fc_weight(mlp):
        def put(x):
            mlp.steps[0] = ("fc", x, mlp.steps[0][2])
        return mlp.steps[0][1], put

    student, teacher = trainer.student_loss, trainer.teacher_loss
    targets = {
        "scorer": (bundle.prompter_params.scorer,
                   lambda x: setattr(bundle.prompter_params, "scorer", x), student),
        "embed": (*first_fc_weight(bundle.prompter_params.embed), student),
        "student_queries": (bundle.student_qf.query_tokens,
                            lambda x: setattr(bundle.student_qf, "query_tokens", x), student),
        "student_cross_wq": (bundle.student_qf.cross_attn.wq,
                             lambda x: setattr(bundle.student_qf.cross_attn, "wq", x), student),
        "decoder_fc": (*first_fc_weight(bundle.decoder.decoder), student),
        "student_proj": (bundle.student_proj, lambda x: setattr(bundle, "student_proj", x), student),
        "teacher_self_wk": (bundle.teacher_qf.self_attn.wk,
                            lambda x: setattr(bundle.teacher_qf.self_attn, "wk", x), teacher),
        "teacher_proj": (bundle.teacher_proj, lambda x: setattr(bundle, "teacher_proj", x), teacher),
    }
    reports = []
    for name, (param, put, loss_fn) in targets.items():
        def f(x):
            put(x)
            loss, _, _ = loss_fn(bundle, batch, cfg)
            return loss

        reports.append(grad_check(f, param, eps=1e-5, tol=tol, name=f"end2end.{name}"))
        put(param)

    def teacher_answer_loss(key_bias):
        logits, _ = trainer.teacher_forward(bundle, batch, cfg, key_bias=key_bias)
        return surrogates.vqa_loss(logits, batch.answers)

    b, t, n, _ = batch.raw.shape
    reports.append(grad_check(teacher_answer_loss, Tensor(np.zeros((b, t * n))), eps=1e-5, tol=tol,
                              name="end2end.teacher_key_bias"))
    return reports


SCOPES = {
    "ops": run_ops_suite,
    "end2end": run_end2end_suite,
}


def run_scope(scope: str, seed: int = 0):
    if scope not in SCOPES:
        raise ValueError(f"unknown gradcheck scope {scope!r}; choose from {sorted(SCOPES)}")
    return SCOPES[scope](seed=seed)
