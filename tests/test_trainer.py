import hashlib
import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from framepick import nn, prompter, qformer, surrogates, synth, trainer
from framepick import tensor as T
from framepick.tensor import Tensor, backward


@pytest.fixture
def ckpt_path(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([2.5, -1.0]), "c": np.array(7.0)}
    trainer.save_checkpoint(path, trainer.STAGE_TEACHER, 3, tensors, "digest")
    return path


class TestCheckpointFiles:
    def test_round_trip(self, ckpt_path):
        ckpt = trainer.load_checkpoint(ckpt_path)
        assert (ckpt.stage, ckpt.step, ckpt.config_digest) == (trainer.STAGE_TEACHER, 3, "digest")
        assert np.array_equal(ckpt.tensors["a"], np.arange(6.0).reshape(2, 3))
        assert np.array_equal(ckpt.tensors["b"], [2.5, -1.0])
        assert ckpt.tensors["c"].shape == () and ckpt.tensors["c"] == 7.0

    def test_truncated_payload_names_file(self, ckpt_path):
        ckpt_path.write_bytes(ckpt_path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="truncated") as err:
            trainer.load_checkpoint(ckpt_path)
        assert str(ckpt_path) in str(err.value)

    def test_trailing_bytes_rejected(self, ckpt_path):
        ckpt_path.write_bytes(ckpt_path.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="trailing") as err:
            trainer.load_checkpoint(ckpt_path)
        assert str(ckpt_path) in str(err.value)

    def test_non_json_header_names_file(self, ckpt_path):
        ckpt_path.write_bytes(b"not a header\n" + ckpt_path.read_bytes().split(b"\n", 1)[1])
        with pytest.raises(ValueError, match="not JSON") as err:
            trainer.load_checkpoint(ckpt_path)
        assert str(ckpt_path) in str(err.value)

    # every edited header still parses and carries the checkpoint format
    @pytest.mark.parametrize("edit, message", [
        (lambda h: h["tensors"]["b"].update(offset=0), "'b' declares offset 0"),
        (lambda h: h["tensors"]["c"].update(offset=10 ** 6), "'c' declares offset 1000000"),
        (lambda h: h["tensors"]["b"].pop("offset"), "'b' declares offset None"),
        (lambda h: h["tensors"]["a"].pop("shape"), "'a' has no valid shape"),
        (lambda h: h.pop("tensors"), "lacks tensors"),
        (lambda h: h.pop("step"), "lacks step"),
    ], ids=["shifted_offset", "offset_past_end", "missing_offset", "missing_shape",
            "missing_tensors", "missing_step"])
    def test_header_must_match_the_layout(self, ckpt_path, edit, message):
        head, payload = ckpt_path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        edit(header)
        ckpt_path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match=message) as err:
            trainer.load_checkpoint(ckpt_path)
        assert str(ckpt_path) in str(err.value)


def tiny_config(**overrides):
    data = synth.DatasetSpec(num_train=16, num_val=8, frames=8, patches=2, seed=4)
    fields = dict(seed=4, teacher_steps=4, student_steps=4, batch_size=2,
                  eval_every=0, checkpoint_every=2, data=data,
                  prompter_cfg=trainer.FramePrompterConfig(
                      frames=8, patches=2, d_model=8, embed_hidden=4))
    fields.update(overrides)
    return trainer.TrainConfig(**fields)


def assert_same_state(a, b):
    state_a, state_b = trainer.bundle_state(a), trainer.bundle_state(b)
    assert state_a.keys() == state_b.keys()
    for name in state_b:
        assert np.array_equal(state_a[name], state_b[name]), name


class TestResume:
    def test_resume_from_mid_checkpoint_matches_uninterrupted(self, tmp_path):
        cfg = tiny_config()
        train, val = synth.generate(cfg.data)
        full, full_row = trainer.train_teacher(cfg, train, val, out_dir=tmp_path / "t")
        mid = trainer.load_checkpoint(tmp_path / "t" / "teacher_step2.ckpt")
        resumed, resumed_row = trainer.train_teacher(cfg, train, val, resume_from=mid)
        assert resumed_row.csv_values() == full_row.csv_values()
        assert_same_state(resumed, full)

        teacher = trainer.load_checkpoint(tmp_path / "t" / "teacher.ckpt")
        full, full_row = trainer.train_student(cfg, train, val, teacher, out_dir=tmp_path / "s")
        mid = trainer.load_checkpoint(tmp_path / "s" / "student_step2.ckpt")
        resumed, resumed_row = trainer.train_student(cfg, train, val, teacher, resume_from=mid)
        assert resumed_row.csv_values() == full_row.csv_values()
        assert_same_state(resumed, full)

    @pytest.mark.parametrize("checkpoint", ["{stage}_step2.ckpt", "{stage}.ckpt"],
                             ids=["mid_run", "final"])
    def test_resume_into_same_out_dir_keeps_metrics(self, tmp_path, checkpoint):
        cfg = tiny_config(eval_every=2)
        train, val = synth.generate(cfg.data)
        trainer.train_teacher(cfg, train, val, out_dir=tmp_path / "teacher")
        teacher = trainer.load_checkpoint(tmp_path / "teacher" / "teacher.ckpt")
        trainer.train_student(cfg, train, val, teacher, out_dir=tmp_path / "student")
        resume = {
            trainer.STAGE_TEACHER: lambda out, ckpt: trainer.train_teacher(
                cfg, train, val, out_dir=out, resume_from=ckpt),
            trainer.STAGE_STUDENT: lambda out, ckpt: trainer.train_student(
                cfg, train, val, teacher, out_dir=out, resume_from=ckpt),
        }
        for stage, run in resume.items():
            out = tmp_path / stage
            csv_bytes = (out / "metrics.csv").read_bytes()
            keys = jsonl_keys(out / "metrics.jsonl")
            run(out, trainer.load_checkpoint(out / checkpoint.format(stage=stage)))
            assert (out / "metrics.csv").read_bytes() == csv_bytes
            assert jsonl_keys(out / "metrics.jsonl") == keys


def jsonl_keys(path):
    return [(r["step"], r["split"]) for r in map(json.loads, path.read_text().splitlines())]


def run_both_stages(cfg, out_dir):
    """Teacher then student into out_dir; sha256 of every metrics.csv and .ckpt."""
    train, val = synth.generate(cfg.data)
    trainer.train_teacher(cfg, train, val, out_dir=out_dir / "teacher")
    teacher = trainer.load_checkpoint(out_dir / "teacher" / "teacher.ckpt")
    trainer.train_student(cfg, train, val, teacher, out_dir=out_dir / "student")
    return {path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.suffix in (".csv", ".ckpt")}


# Recorded with numpy 2.4 on OpenBLAS 0.3.31 (x86-64, float64). Another BLAS
# may sum matmuls in another order and change the last digits.
STAGE_DIGESTS = {
    "default": {
        "student/metrics.csv":
            "efdffce9825bc2a0f5e33d0a5c40825d57c3383f79800b7788ba91042852c089",
        "student/student.ckpt":
            "aa3dc146ee24d4a6f7e4127fff175c84b9cf1e3af08763ebe38c56992c97bd88",
        "student/student_step2.ckpt":
            "0bffbb73f68b12f0f380ac627e5ef0b375db6bfe58ce4f77bd375160beafa0cb",
        "teacher/metrics.csv":
            "d4421aa5d7429d36fea15c65883f18e0cf0034d29f863e92dac33fa61093fd4f",
        "teacher/teacher.ckpt":
            "cf40c4f148ec2b7245259c9d7db5107354525cbe05c8b225e31f5ebd3b20565f",
        "teacher/teacher_step2.ckpt":
            "76f0b050434c8ac727f31c7a96c154770529bad7bcbb647ea2a048e3536a4d2b",
    },
    "uniform_picks": {
        "student/metrics.csv":
            "5f88a8bab04f38b62f9613e57e887350bfc1dbe8d3429232d4051486a61c015a",
        "student/student.ckpt":
            "4062699e61f2e1fbbaf5f8e1ec8c17067488d5af75ffd557152f0c2494454565",
        "student/student_step2.ckpt":
            "f22f320f13a50a598bb2ee3aeeb6e0b3cf97518e86ac6ae49520fdd0352d90e0",
        "teacher/metrics.csv":
            "d4421aa5d7429d36fea15c65883f18e0cf0034d29f863e92dac33fa61093fd4f",
        "teacher/teacher.ckpt":
            "ad5939c09c9ca5d36c3958385f88eef7bdc89dc82cdb387269a2ada532298bba",
        "teacher/teacher_step2.ckpt":
            "54bdbecaa7e9f4a0926e4fa05b8faf074bd694e7a2b926ac7a2a05c668224ce0",
    },
    "no_distill": {
        "student/metrics.csv":
            "5606aeb606b35d5c87d7503e9eecdb3bc05f44c71c7badeffeda750355a4ecc6",
        "student/student.ckpt":
            "787a0cc2ea25db93627822d5bc96f3b7e66f9ac649586b40aa8d9c9cda6ea7db",
        "student/student_step2.ckpt":
            "daa075d8b94f8e0e783d27258c96300f036b044cecbd1dca5314c2bf8a6931e3",
        "teacher/metrics.csv":
            "d4421aa5d7429d36fea15c65883f18e0cf0034d29f863e92dac33fa61093fd4f",
        "teacher/teacher.ckpt":
            "60da0964d629a40f4dfd74ea1b8abb47ae66df83098c532cf4afd09c90a30b13",
        "teacher/teacher_step2.ckpt":
            "4dd4ddeb207f7dd509dd7eee8e0bcf553e6fa5c1f938677717c14729e04d10c6",
    },
}

STAGE_ARMS = {
    "default": {},
    "uniform_picks": {"use_prompter": False},
    "no_distill": {"lambda_distill": 0.0},
}


class TestStageDigests:
    """Both stages' metrics.csv and checkpoint bytes are pinned per arm, so a
    refactor of the stage loop or the student forward must leave them bitwise
    unchanged."""

    @pytest.mark.parametrize("arm", sorted(STAGE_ARMS))
    def test_digests(self, arm, tmp_path):
        cfg = tiny_config(eval_every=2, checkpoint_every=2, audit_frozen=True, **STAGE_ARMS[arm])
        assert run_both_stages(cfg, tmp_path) == STAGE_DIGESTS[arm]


def fake_checkpoint(cfg, stage, digest=None):
    return trainer.Checkpoint(stage=stage, step=2, config_digest=digest or cfg.digest(),
                              rng_state=None,
                              tensors=trainer.bundle_state(trainer.build_models(cfg)))


class TestStageGuards:
    def test_teacher_rejects_wrong_stage_resume(self):
        cfg = tiny_config()
        train, val = synth.generate(cfg.data)
        with pytest.raises(ValueError, match="cannot resume teacher stage from a 'student' checkpoint"):
            trainer.train_teacher(cfg, train, val,
                                  resume_from=fake_checkpoint(cfg, trainer.STAGE_STUDENT))

    def test_student_rejects_wrong_stage_resume(self):
        cfg = tiny_config()
        train, val = synth.generate(cfg.data)
        teacher = fake_checkpoint(cfg, trainer.STAGE_TEACHER)
        with pytest.raises(ValueError, match="cannot resume student stage from a 'teacher' checkpoint"):
            trainer.train_student(cfg, train, val, teacher, resume_from=teacher)

    def test_student_rejects_non_teacher_checkpoint(self):
        cfg = tiny_config()
        train, val = synth.generate(cfg.data)
        with pytest.raises(ValueError, match="needs a teacher checkpoint, got stage 'student'"):
            trainer.train_student(cfg, train, val, fake_checkpoint(cfg, trainer.STAGE_STUDENT))

    def test_digest_mismatch_on_resume(self):
        cfg = tiny_config()
        train, val = synth.generate(cfg.data)
        with pytest.raises(ValueError, match="config digest mismatch on resume"):
            trainer.train_teacher(cfg, train, val,
                                  resume_from=fake_checkpoint(cfg, trainer.STAGE_TEACHER, "other"))
        teacher = fake_checkpoint(cfg, trainer.STAGE_TEACHER)
        with pytest.raises(ValueError, match="config digest mismatch on resume"):
            trainer.train_student(cfg, train, val, teacher,
                                  resume_from=fake_checkpoint(cfg, trainer.STAGE_STUDENT, "other"))

    def test_digest_mismatch_against_teacher_checkpoint(self):
        cfg = tiny_config()
        train, val = synth.generate(cfg.data)
        teacher = fake_checkpoint(cfg, trainer.STAGE_TEACHER, "other")
        with pytest.raises(ValueError, match="config digest mismatch between teacher checkpoint"):
            trainer.train_student(cfg, train, val, teacher)

    def test_resume_without_random_state_rejected(self):
        cfg = tiny_config()
        train, val = synth.generate(cfg.data)
        with pytest.raises(ValueError, match="teacher checkpoint at step 2: it holds no random state"):
            trainer.train_teacher(cfg, train, val,
                                  resume_from=fake_checkpoint(cfg, trainer.STAGE_TEACHER))
        with pytest.raises(ValueError, match="student checkpoint at step 2: it holds no random state"):
            trainer.train_student(cfg, train, val, fake_checkpoint(cfg, trainer.STAGE_TEACHER),
                                  resume_from=fake_checkpoint(cfg, trainer.STAGE_STUDENT))

    def test_audit_catches_planted_frozen_gradient(self):
        cfg = tiny_config()
        bundle = trainer.build_models(cfg)
        trainer.set_stage(bundle, trainer.STAGE_STUDENT)
        trainer.audit_frozen_gradients(bundle, trainer.STAGE_STUDENT)
        frozen = bundle.teacher_proj
        frozen.grad = np.zeros_like(frozen.data)
        trainer.audit_frozen_gradients(bundle, trainer.STAGE_STUDENT)
        frozen.grad[0, 0] = 1e-12
        with pytest.raises(trainer.FrozenGradientError, match="'teacher.proj'"):
            trainer.audit_frozen_gradients(bundle, trainer.STAGE_STUDENT)


class TestTrainConfig:
    @pytest.mark.parametrize("cfg", [trainer.TrainConfig(), tiny_config()])
    def test_json_round_trip_keeps_digest(self, cfg):
        back = trainer.TrainConfig.from_dict(json.loads(cfg.to_json()))
        assert back == cfg
        assert back.digest() == cfg.digest()

    @pytest.mark.parametrize("overrides, message", [
        ({"teacher_steps": 0}, "step counts"),
        ({"student_steps": 0}, "step counts"),
        ({"batch_size": 0}, "batch size"),
        ({"lambda_distill": -0.5}, "lambda_distill"),
        ({"data": synth.DatasetSpec(frames=16, patches=2)}, "must match the dataset"),
        ({"data": synth.DatasetSpec(frames=8, patches=3)}, "must match the dataset"),
        ({"eval_samples": 0}, "eval_samples"),
        ({"eval_every": -1}, "eval_every"),
        ({"checkpoint_every": -1}, "checkpoint_every"),
    ], ids=["teacher_steps", "student_steps", "batch_size", "lambda_distill", "frames", "patches",
            "eval_samples", "eval_every", "checkpoint_every"])
    def test_invalid_config_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**overrides)

    def test_evaluate_rejects_empty_samples(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match="at least one sample"):
            trainer.evaluate(trainer.build_models(cfg), cfg, [], trainer.STAGE_STUDENT)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_evaluate_rejects_bad_batch_size(self, batch_size):
        cfg = tiny_config()
        _, val = synth.generate(cfg.data)
        with pytest.raises(ValueError, match=rf"batch_size >= 1, got {batch_size}$"):
            trainer.evaluate(trainer.build_models(cfg), cfg, val, trainer.STAGE_STUDENT,
                             batch_size=batch_size)

    # fields of earlier layouts: the Q-Former config, the selector's head count
    # and the keyframe placement
    @pytest.mark.parametrize("level, edit", [
        ("TrainConfig", lambda d: d.update(qformer_cfg={"num_queries": 8})),
        ("TrainConfig.prompter_cfg", lambda d: d["prompter_cfg"].update(num_heads=1)),
        ("TrainConfig.data", lambda d: d["data"].update(placement="segment")),
    ], ids=["top", "prompter_cfg", "data"])
    def test_from_dict_names_unknown_fields(self, level, edit):
        d = json.loads(tiny_config().to_json())
        edit(d)
        with pytest.raises(ValueError, match=rf"unknown config field\(s\) in {level}: "
                                             r"(num_heads|placement|qformer_cfg)$"):
            trainer.TrainConfig.from_dict(d)

    def test_from_dict_names_every_removed_field(self):
        # the layout before the optimizer settings and the text sizes became
        # module constants
        d = json.loads(tiny_config().to_json())
        d.update(lr=3e-3, lr_min=3e-4, weight_decay=1e-4, beta1=0.9, beta2=0.999,
                 adam_eps=1e-8, grad_clip=1.0, max_text_len=8, vocab=64)
        with pytest.raises(ValueError, match=r"unknown config field\(s\) in TrainConfig: "
                                             r"adam_eps, beta1, beta2, grad_clip, lr, lr_min, "
                                             r"max_text_len, vocab, weight_decay$"):
            trainer.TrainConfig.from_dict(d)


class TestUnknownStage:
    """A misspelt stage raises instead of running the student path."""

    @pytest.mark.parametrize("call", [
        lambda bundle, cfg, val, stage: trainer.trainable_names(bundle, stage),
        lambda bundle, cfg, val, stage: trainer.set_stage(bundle, stage),
        lambda bundle, cfg, val, stage: trainer.audit_frozen_gradients(bundle, stage),
        lambda bundle, cfg, val, stage: trainer.evaluate(bundle, cfg, val, stage),
    ], ids=["trainable_names", "set_stage", "audit_frozen_gradients", "evaluate"])
    @pytest.mark.parametrize("stage", ["Teacher", "bogus"])
    def test_rejected(self, call, stage):
        cfg = tiny_config()
        _, val = synth.generate(cfg.data)
        with pytest.raises(ValueError, match=rf"unknown stage '{stage}'; "
                                             r"choose 'teacher' or 'student'$"):
            call(trainer.build_models(cfg), cfg, val, stage)


class TestStudentForwardMode:
    @pytest.mark.parametrize("use_prompter", [True, False], ids=["selector", "uniform"])
    @pytest.mark.parametrize("mode, tau, message", [
        ("bogus", 0.5, "mode must be 'train' or 'infer', got 'bogus'"),
        ("train", None, "train mode requires tau"),
    ], ids=["unknown_mode", "train_without_tau"])
    def test_rejected(self, use_prompter, mode, tau, message):
        cfg = tiny_config(use_prompter=use_prompter)
        train, _ = synth.generate(cfg.data)
        with pytest.raises(ValueError, match=message):
            trainer.student_forward(trainer.build_models(cfg), trainer.make_batch(train[:1]), cfg, mode,
                                    tau=tau, rng=np.random.default_rng(0))


class TestLoadIntoBundle:
    def test_lists_every_missing_parameter(self):
        cfg = tiny_config()
        state = trainer.bundle_state(trainer.build_models(cfg))
        # the parameter names before the Q-Former's self-attention was renamed
        old = {name.replace(".qf.self.", ".qf.self0."): arr for name, arr in state.items()}
        missing = sorted(set(state) - set(old))
        assert len(missing) == 8
        with pytest.raises(ValueError, match="another parameter layout") as err:
            trainer.load_into_bundle(trainer.build_models(cfg), old)
        assert str(err.value).endswith(": " + ", ".join(missing))
        teacher_side = [name for name in missing if name.startswith("teacher.")]
        with pytest.raises(ValueError) as err:
            trainer.load_into_bundle(trainer.build_models(cfg), old, prefixes=("teacher.",))
        assert str(err.value).endswith(": " + ", ".join(teacher_side))


class TestCosineLr:
    def test_endpoints_exact(self):
        assert trainer.cosine_lr(0, 700, 3e-3, 3e-4) == 3e-3
        assert trainer.cosine_lr(700, 700, 3e-3, 3e-4) == 3e-4

    @pytest.mark.parametrize("step, total", [(-1, 10), (11, 10), (0, 0)])
    def test_out_of_range_rejected(self, step, total):
        with pytest.raises(ValueError):
            trainer.cosine_lr(step, total, 3e-3, 3e-4)


class TestAdamW:
    LR, B1, B2, EPS, WD = 0.1, 0.9, 0.999, 1e-8, 0.01

    def step(self, params, state):
        trainer.adamw_step(params, state, self.LR, self.B1, self.B2, self.EPS, self.WD)

    def test_two_steps_match_hand_computation(self):
        w = Tensor(np.array([1.0, -2.0]))
        u = Tensor(np.array([3.0]))   # never receives a gradient
        params, state = {"w": w, "u": u}, trainer.AdamWState()
        g1, g2 = [0.5, -1.0], [0.25, 2.0]
        w.grad = np.array(g1)
        self.step(params, state)
        w.grad = np.array(g2)
        self.step(params, state)

        lr, b1, b2, eps, wd = self.LR, self.B1, self.B2, self.EPS, self.WD
        for k, w0 in enumerate([1.0, -2.0]):
            m1, v1 = (1 - b1) * g1[k], (1 - b2) * g1[k] ** 2
            # step 1: the bias-corrected moments are g and g**2
            w1 = w0 - lr * (g1[k] / (abs(g1[k]) + eps) + wd * w0)
            m2, v2 = b1 * m1 + (1 - b1) * g2[k], b2 * v1 + (1 - b2) * g2[k] ** 2
            mh, vh = m2 / (1 - b1 ** 2), v2 / (1 - b2 ** 2)
            w2 = w1 - lr * (mh / (math.sqrt(vh) + eps) + wd * w1)
            assert w.data[k] == pytest.approx(w2, rel=1e-13, abs=0)
        # zero moments: only the decoupled weight decay moves u
        assert u.data[0] == pytest.approx(3.0 * (1 - lr * wd) ** 2, rel=1e-15, abs=0)
        assert state.step == 2

    def test_non_finite_gradient_rejected(self):
        a, w = Tensor(np.array([1.0])), Tensor(np.array([1.0, 2.0]))
        params, state = {"a": a, "w": w}, trainer.AdamWState()

        def snapshot():
            arrays = [*state.m.values(), *state.v.values(), a.data, w.data]
            return state.step, list(state.m), list(state.v), [x.copy() for x in arrays]

        a.grad, w.grad = np.array([0.25]), np.array([0.5, -1.0])
        self.step(params, state)
        before = snapshot()
        # a, updated before w, has a finite gradient: the failed step must not move it
        a.grad, w.grad = np.array([0.25]), np.array([0.5, np.inf])
        with pytest.raises(RuntimeError, match="non-finite gradient in parameter 'w'"):
            self.step(params, state)
        after = snapshot()
        assert after[:3] == before[:3]
        assert all(np.array_equal(x, y) for x, y in zip(after[3], before[3]))


class TestClipGlobalNorm:
    def grads(self):
        a, b, c = Tensor(np.zeros(2)), Tensor(np.zeros(1)), Tensor(np.zeros(3))
        a.grad, b.grad = np.array([3.0, 0.0]), np.array([4.0])
        return {"a": a, "b": b, "c": c}   # c has no gradient

    def test_scales_down_above_max_norm(self):
        params = self.grads()
        assert trainer.clip_global_norm(params, 2.5) == (5.0, 0.5)
        assert np.array_equal(params["a"].grad, [1.5, 0.0])
        assert np.array_equal(params["b"].grad, [2.0])
        assert params["c"].grad is None

    def test_leaves_gradients_below_max_norm(self):
        params = self.grads()
        assert trainer.clip_global_norm(params, 10.0) == (5.0, 1.0)
        assert np.array_equal(params["a"].grad, [3.0, 0.0])
        assert np.array_equal(params["b"].grad, [4.0])


def all_frames_keys(x_tokens, mask):
    """Reference key path: every frame stays a key, weighted by the mask."""
    b, t, n, d = x_tokens.shape
    weights = mask.soft if mask.soft is not None else Tensor(mask.hard)
    per_token = T.reshape(T.broadcast_to(T.reshape(weights, (b, t, 1)), (b, t, n)), (b, t * n))
    return T.reshape(x_tokens, (b, t * n, d)), per_token


def student_loss_and_grads(cfg):
    """Stage-2 loss on one batch and every trainable parameter's gradient."""
    train, _ = synth.generate(cfg.data)
    bundle = trainer.build_models(cfg)
    params = trainer.set_stage(bundle, trainer.STAGE_STUDENT)
    loss, _, _ = trainer.student_loss(bundle, trainer.make_batch(train[:4]), cfg, 1,
                                      np.random.default_rng(3))
    backward(loss)
    return loss.item(), {name: np.zeros_like(p.data) if p.grad is None else p.grad
                         for name, p in params.items()}


def mismatched_gradients(cfg, monkeypatch, frame_keys):
    """Names whose gradient under `frame_keys` differs from the all-frames
    reference by more than 1e-12 of the reference's largest magnitude."""
    results = []
    for keys_fn in (frame_keys, all_frames_keys):
        with monkeypatch.context() as patch:
            patch.setattr(prompter, "frame_keys", keys_fn)
            results.append(student_loss_and_grads(cfg))
    return mismatched_names(*results)


def mismatched_names(result, reference):
    """Asserts the losses agree to 1e-12; returns the names whose gradient
    differs from the reference's by more than 1e-12 of its largest magnitude."""
    (loss, grads), (ref_loss, ref_grads) = result, reference
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    return sorted(name for name, ref in ref_grads.items()
                  if np.abs(grads[name] - ref).max() > 1e-12 * np.abs(ref).max())


def default_geometry_config(**overrides):
    data = synth.DatasetSpec(num_train=8, num_val=4, seed=4)
    return trainer.TrainConfig(seed=4, data=data, **overrides)


GEOMETRIES = {"T8": tiny_config, "T32": default_geometry_config}


class TestGatherMatchesAllFrames:
    """Under straight-through, reading only the picked frames (in the guide
    and in the student fusion) gives the loss and gradients of reading every
    frame under the 0/1 mask."""

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("lambda_distill", [1.0, 0.0])
    def test_loss_and_gradients_match(self, monkeypatch, geometry, lambda_distill):
        cfg = GEOMETRIES[geometry](lambda_distill=lambda_distill)
        assert mismatched_gradients(cfg, monkeypatch, prompter.frame_keys) == []

    def test_dropped_key_mask_is_caught(self, monkeypatch):
        # without the gathered soft weights the selector gets no gradient
        gather = prompter.frame_keys

        def without_key_mask(x_tokens, mask):
            return gather(x_tokens, mask)[0], None

        bad = mismatched_gradients(tiny_config(), monkeypatch, without_key_mask)
        assert "prompter.select.0.w" in bad and "prompter.embed.0.w" in bad

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_student_forward_gathers_once(self, monkeypatch, mode):
        # the guide and the student fusion share one frame_keys result
        cfg = tiny_config()
        train, _ = synth.generate(cfg.data)
        calls = []
        gather = prompter.frame_keys
        monkeypatch.setattr(prompter, "frame_keys", lambda *args: calls.append(1) or gather(*args))
        trainer.student_forward(trainer.build_models(cfg), trainer.make_batch(train[:2]), cfg, mode,
                                tau=0.5, rng=np.random.default_rng(0))
        assert len(calls) == 1

    @pytest.mark.parametrize("straight_through", [True, False])
    def test_key_count_follows_the_mask(self, straight_through):
        pcfg = prompter.FramePrompterConfig(frames=8, segments=4, patches=2, d_model=3)
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
        mask = prompter.sample_frames(logits, replace(pcfg, straight_through=straight_through),
                                      tau=0.5, rng=rng)
        x_tokens = Tensor(rng.normal(size=(2, 8, 2, 3)))
        keys, key_mask = prompter.frame_keys(x_tokens, mask)
        if straight_through:
            picked = np.array(mask.selected)
            assert keys.shape == (2, 4 * 2, 3)
            assert np.array_equal(keys.data.reshape(2, 4, 2, 3),
                                  x_tokens.data[np.arange(2)[:, None], picked])
            assert np.array_equal(key_mask.data, np.ones((2, 8)))
        else:
            assert keys.shape == (2, 8 * 2, 3)
            assert np.array_equal(key_mask.data, np.repeat(mask.soft.data, 2, axis=1))
        backward(T.sum_all(T.mul(key_mask, Tensor(rng.normal(size=key_mask.shape)))))
        assert np.any(logits.grad != 0.0)


def project_then_gather_forward(bundle, batch, cfg, mode, tau=None, rng=None):
    """Reference student forward in the earlier order: project every frame's
    features to d_model, then gather the keys from the projected tokens."""
    feats = surrogates.encode_video(Tensor(batch.raw), bundle.visual_enc)
    tokens = T.matmul(feats, bundle.student_proj)  # [B, T, N, d]
    text = surrogates.encode_text(batch.questions, bundle.text_enc)
    if bundle.prompter_params is not None:
        mask = prompter.select_frames(feats, bundle.prompter_params, cfg.prompter_cfg,
                                      tau=tau if mode == "train" else None, rng=rng)
    else:
        mask = prompter.uniform_mask(batch.raw.shape[0], cfg.prompter_cfg)
    vis, key_mask = prompter.frame_keys(tokens, mask)
    x_student = qformer.qformer_forward(bundle.student_qf, vis, text, visual_key_mask=key_mask)
    answer_input = x_student
    if bundle.prompter_params is not None:
        guide = nn.cross_attention(bundle.prompter_params.guide_attn, text, vis, key_mask=key_mask)
        answer_input = T.add(guide, x_student)
    choices = surrogates.encode_choices(batch.choices, bundle.text_enc)
    return surrogates.score_answers(answer_input, choices, bundle.answer), x_student, mask


def with_selection(cfg, selection):
    """`cfg` with a straight-through or strictly relaxed selector, or none."""
    if selection == "uniform":
        return replace(cfg, use_prompter=False)
    return replace(cfg, prompter_cfg=replace(cfg.prompter_cfg,
                                             straight_through=selection == "straight_through"))


class TestProjectAfterGather:
    """The student projects only the keys `frame_keys` returns; that order
    matches projecting every frame and then gathering."""

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("lambda_distill", [1.0, 0.0])
    @pytest.mark.parametrize("selection", ["straight_through", "relaxed", "uniform"])
    def test_loss_and_gradients_match(self, monkeypatch, geometry, lambda_distill, selection):
        cfg = with_selection(GEOMETRIES[geometry](lambda_distill=lambda_distill), selection)
        result = student_loss_and_grads(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(trainer, "student_forward", project_then_gather_forward)
            reference = student_loss_and_grads(cfg)
        assert mismatched_names(result, reference) == []

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("use_prompter", [True, False], ids=["selector", "uniform"])
    def test_infer_matches_bitwise(self, geometry, use_prompter):
        cfg = GEOMETRIES[geometry](use_prompter=use_prompter)
        bundle = trainer.build_models(cfg)
        batch = trainer.make_batch(synth.generate(cfg.data)[0][:8])
        logits, _, mask = trainer.student_forward(bundle, batch, cfg, "infer")
        ref_logits, _, ref_mask = project_then_gather_forward(bundle, batch, cfg, "infer")
        assert np.array_equal(logits.data, ref_logits.data)
        assert mask.selected == ref_mask.selected

    @pytest.mark.parametrize("mode, selection", [
        ("infer", "straight_through"),
        ("train", "straight_through"),
        ("train", "relaxed"),
    ], ids=["infer", "train_straight_through", "train_relaxed"])
    def test_projection_rows(self, monkeypatch, mode, selection):
        # the student projection reads B*S*N rows unless the mask is strictly relaxed
        cfg = with_selection(tiny_config(), selection)
        bundle = trainer.build_models(cfg)
        b = 2
        batch = trainer.make_batch(synth.generate(cfg.data)[0][:b])
        rows = []
        matmul = T.matmul

        def counting_matmul(a, w):
            if w is bundle.student_proj:
                rows.append(int(np.prod(a.shape[:-1])))
            return matmul(a, w)

        monkeypatch.setattr(T, "matmul", counting_matmul)
        if mode == "train":
            trainer.student_loss(bundle, batch, cfg, 1, np.random.default_rng(0))
        else:
            trainer.student_forward(bundle, batch, cfg, mode)
        pcfg = cfg.prompter_cfg
        frames = pcfg.frames if selection == "relaxed" else pcfg.segments
        assert rows == [b * frames * pcfg.patches]


def load_spans():
    """The benchmark's span tracer, loaded from its file as the benchmark runs it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    # Tracer() looks up every spanned name, so a renamed function fails here
    cfg = tiny_config()
    bundle = trainer.build_models(cfg)
    batch = trainer.make_batch(synth.generate(cfg.data)[1][:1])
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        trainer.student_forward(bundle, batch, cfg, "infer")
        trainer.teacher_forward(bundle, batch, cfg)
    finally:
        tracer.uninstall()
    assert tracer.counts["qformer_calls"] == 2
    assert tracer.counts["student_fuse_calls"] == 1
    assert tracer.counts["picks"] == cfg.prompter_cfg.segments
