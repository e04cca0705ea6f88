"""Finite-difference verification suites.

Each suite returns a list of GradCheckReport from `tensor.grad_check`, which
compares the analytic gradient with central differences at every coordinate
of the checked tensor. `run_scope` runs one suite by
its `SCOPES` name, and tests/test_checks.py runs every scope through it; the
package has no command-line entry point yet. Sample points are jittered
away from non-smooth loci (relu kinks, argmax ties), and relu at exactly 0
is excluded by construction rather than special-cased.
"""

from __future__ import annotations

import numpy as np

from . import nn, prompter, qformer, trainer
from . import tensor as T
from .tensor import Tensor, grad_check


def _jitter(x: np.ndarray, margin: float = 0.15) -> np.ndarray:
    """Push entries away from zero so relu-like kinks are not sampled."""
    out = x.copy()
    small = np.abs(out) < margin
    out[small] += np.sign(out[small] + 1e-12) * margin
    return out


def run_ops_suite(seed: int = 0, instances: int = 10, tol: float = 1e-5):
    """Every registered differentiable primitive, `instances` random points each."""
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
        check(f"sub[{i}]", lambda a: T.sum_all(T.mul(T.sub(a, Tensor(w23)), Tensor(w23))), rng.normal(size=(2, 3)))
        check(f"mul[{i}]", lambda a: T.sum_all(T.mul(a, Tensor(w23))), rng.normal(size=(2, 3)))
        check(f"div[{i}]", lambda a: T.sum_all(T.div(Tensor(w23), a)), _jitter(rng.normal(size=(2, 3)), 0.5))
        check(f"exp[{i}]", lambda a: T.sum_all(T.exp(a)), rng.normal(size=5))
        check(f"log[{i}]", lambda a: T.sum_all(T.log(a)), np.abs(rng.normal(size=5)) + 0.5)
        check(f"softmax[{i}]", lambda a: T.sum_all(T.mul(T.softmax(a, -1), Tensor(w24))), rng.normal(size=(2, 4)))
        check(f"log_softmax[{i}]", lambda a: T.sum_all(T.mul(T.log_softmax(a, -1), Tensor(w24))), rng.normal(size=(2, 4)))
        check(f"relu[{i}]", lambda a: T.sum_all(T.relu(a)), _jitter(rng.normal(size=6)))
        check(f"layer_norm[{i}]",
              lambda a: T.sum_all(T.mul(T.layer_norm(a, Tensor(w4), Tensor(w4)), Tensor(w24))),
              rng.normal(size=(2, 4)))
        check(f"mean_axis[{i}]", lambda a: T.sum_all(T.mul(T.mean_axis(a, 1), Tensor(w2))),
              rng.normal(size=(2, 3)))
        targets = rng.integers(0, 4, size=2)
        check(f"cross_entropy[{i}]", lambda a: T.cross_entropy(a, targets), rng.normal(size=(2, 4)))
        check(f"mse[{i}]", lambda a: T.mse(a, Tensor(w23)), rng.normal(size=(2, 3)))
        check(f"masked_log[{i}]", lambda a: T.sum_all(T.mul(T.masked_log(a), Tensor(w4))),
              rng.uniform(0.2, 1.0, size=4))
        ids = rng.integers(0, 3, size=(2, 2))
        check(f"take_rows[{i}]", lambda a: T.sum_all(T.mul(T.take_rows(a, ids), Tensor(w224))),
              rng.normal(size=(3, 4)))
        idx = np.stack([rng.choice(4, size=2, replace=False) for _ in range(2)])
        check(f"gather_frames[{i}]", lambda a: T.sum_all(T.gather_frames(a, idx)), rng.normal(size=(2, 4, 3)))
        check(f"concat[{i}]", lambda a: T.sum_all(T.concat([a, Tensor(w23)], axis=0)), rng.normal(size=(2, 3)))
        check(f"narrow[{i}]", lambda a: T.sum_all(T.narrow(a, 1, 1, 2)), rng.normal(size=(2, 4)))
        check(f"transpose[{i}]", lambda a: T.sum_all(T.mul(T.transpose(a, (1, 0)), Tensor(w23.T))),
              rng.normal(size=(2, 3)))
        check(f"reshape[{i}]", lambda a: T.sum_all(T.mul(T.reshape(a, (6,)), Tensor(w6))),
              rng.normal(size=(2, 3)))
        check(f"broadcast_to[{i}]", lambda a: T.sum_all(T.mul(T.broadcast_to(a, (3, 4)), Tensor(w34))),
              rng.normal(size=(1, 4)))
    return reports


def run_prompter_suite(seed: int = 0, tau: float = 0.5, tol: float = 1e-4, instances: int = 3):
    """Composed relaxed selection path, finite-differenced end to end."""
    rng = np.random.default_rng(seed)
    cfg = prompter.FramePrompterConfig(frames=8, segments=4, patches=3, channels=3,
                                       d_model=8, embed_hidden=6, straight_through=False)
    reports = []
    for i in range(instances):
        params = prompter.FramePrompterParams.init(cfg, rng)
        x = rng.normal(size=(1, cfg.frames, cfg.patches, cfg.channels))
        tokens = rng.normal(size=(1, cfg.frames, cfg.patches, cfg.d_model))
        text = rng.normal(size=(1, 2, cfg.d_model))
        noise = rng.gumbel(size=(1, cfg.segments, cfg.frames_per_segment))
        readout = rng.normal(size=(cfg.d_model, 1))

        def scalar_through(p):
            fused, _ = prompter.select_frames(Tensor(x), Tensor(tokens), Tensor(text),
                                              p, cfg, "train", tau=tau, noise=noise)
            return T.sum_all(T.matmul(fused, Tensor(readout)))

        def f_head(w):
            p = prompter.FramePrompterParams(
                embed=params.embed,
                select_head=nn.MlpParams([("fc", w, params.select_head.steps[0][2])]),
                guide_attn=params.guide_attn)
            return scalar_through(p)

        def f_embed(w):
            steps = list(params.embed.steps)
            steps[0] = ("fc", w, None)
            p = prompter.FramePrompterParams(embed=nn.MlpParams(steps),
                                             select_head=params.select_head,
                                             guide_attn=params.guide_attn)
            return scalar_through(p)

        def f_guide(wq):
            guide = nn.AttentionParams(cfg.d_model, cfg.num_heads, wq,
                                       params.guide_attn.wk, params.guide_attn.wv,
                                       params.guide_attn.wo)
            p = prompter.FramePrompterParams(embed=params.embed,
                                             select_head=params.select_head, guide_attn=guide)
            return scalar_through(p)

        reports.append(grad_check(f_head, Tensor(params.select_head.steps[0][1].data.copy()),
                                  eps=1e-5, tol=tol, name=f"prompter.select_head[{i}]"))
        reports.append(grad_check(f_embed, Tensor(params.embed.steps[0][1].data.copy()),
                                  eps=1e-5, tol=tol, name=f"prompter.embed[{i}]"))
        reports.append(grad_check(f_guide, Tensor(params.guide_attn.wq.data.copy()),
                                  eps=1e-5, tol=tol, name=f"prompter.guide_wq[{i}]"))
    return reports


def run_qformer_suite(seed: int = 0, tol: float = 1e-5, instances: int = 3):
    """Fusion stack gradients on a two-frame toy."""
    rng = np.random.default_rng(seed)
    reports = []
    d = 6
    for i in range(instances):
        params = qformer.QFormerParams.init(d, 2, 2, 2, rng)
        vis = rng.normal(size=(1, 4, d))
        text = rng.normal(size=(1, 2, d))
        readout = rng.normal(size=(d, 1))

        def out_scalar(p):
            return T.sum_all(T.matmul(qformer.qformer_forward(p, Tensor(vis), Tensor(text)),
                                      Tensor(readout)))

        def f_queries(q):
            return out_scalar(qformer.QFormerParams(q, params.self_attn, params.cross_attn, 2, 2))

        def f_cross_wq(wq):
            cross = nn.AttentionParams(d, 1, wq, params.cross_attn.wk,
                                       params.cross_attn.wv, params.cross_attn.wo)
            return out_scalar(qformer.QFormerParams(params.query_tokens, params.self_attn, cross, 2, 2))

        def f_decoder(w):
            dec = qformer.DistillDecoderParams(
                decoder=nn.MlpParams([("fc", w, None), nn.ln_step(d)]))
            target = Tensor(np.zeros((1, 2, d)))
            return qformer.distill_loss(dec, Tensor(vis[:, :2]), target)

        reports.append(grad_check(f_queries, Tensor(params.query_tokens.data.copy()),
                                  tol=tol, name=f"qformer.queries[{i}]"))
        reports.append(grad_check(f_cross_wq, Tensor(params.cross_attn.wq.data.copy()),
                                  tol=tol, name=f"qformer.cross_wq[{i}]"))
        reports.append(grad_check(f_decoder, Tensor(rng.normal(size=(d, d))),
                                  tol=tol, name=f"qformer.decoder_fc[{i}]"))
    return reports


def run_end2end_suite(seed: int = 0, tol: float = 1e-4):
    """The stage-2 training loss (`trainer.student_loss`) on a 2-sample batch,
    over every coordinate of four student-side parameters.

    Uses the relaxed (non straight-through) path so the loss is smooth in
    every checked parameter. Each evaluation draws its Gumbel noise from a
    fresh generator with the same seed, so every call sees the same draw.
    Each target's `f(x)` puts `x` into the parameter's slot of the bundle.
    """
    from . import synth

    spec = synth.DatasetSpec(num_train=4, num_val=2, frames=8, patches=3, raw_dim=12,
                             num_keyframes=2, num_attributes=2, seed=seed)
    # step 0 of the schedule runs at tau_start
    pcfg = prompter.FramePrompterConfig(frames=8, segments=2, patches=3, channels=4,
                                        d_model=12, embed_hidden=6, tau_start=0.5,
                                        straight_through=False)
    cfg = trainer.TrainConfig(seed=seed, teacher_steps=1, student_steps=1,
                              prompter_cfg=pcfg, qformer_cfg=trainer.QFormerConfig(num_queries=3),
                              data=spec)
    train_samples, _ = synth.generate(spec)
    bundle = trainer.build_models(cfg)
    trainer.set_stage(bundle, trainer.STAGE_STUDENT)
    batch = trainer.make_batch(train_samples[:2])

    def first_fc_weight(mlp):
        def put(x):
            mlp.steps[0] = ("fc", x, mlp.steps[0][2])
        return mlp.steps[0][1], put

    targets = {
        "select_head": first_fc_weight(bundle.prompter_params.select_head),
        "student_queries": (bundle.student_qf.query_tokens,
                            lambda x: setattr(bundle.student_qf, "query_tokens", x)),
        "decoder_fc": first_fc_weight(bundle.decoder.decoder),
        "student_proj": (bundle.student_proj, lambda x: setattr(bundle, "student_proj", x)),
    }
    reports = []
    for name, (param, put) in targets.items():
        def f(x):
            put(x)
            loss, _, _ = trainer.student_loss(bundle, batch, cfg, 0, np.random.default_rng(seed))
            return loss

        reports.append(grad_check(f, param, eps=1e-5, tol=tol, name=f"end2end.{name}"))
        put(param)
    return reports


SCOPES = {
    "ops": run_ops_suite,
    "prompter": run_prompter_suite,
    "qformer": run_qformer_suite,
    "end2end": run_end2end_suite,
}


def run_scope(scope: str, seed: int = 0):
    if scope not in SCOPES:
        raise ValueError(f"unknown gradcheck scope {scope!r}; choose from {sorted(SCOPES)}")
    return SCOPES[scope](seed=seed)
