import hashlib
import json
import math

import numpy as np
import pytest

from framepick import prompter, synth, trainer
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
            "b4cdd9bcaece5ad9871b64b441c86c43841ae12c928f5841da2957d9faa92bcf",
        "student/student_step2.ckpt":
            "37df837651848e26fce4e0f0536e57b8a77ff0cfebad75466f52edafb9771f51",
        "teacher/metrics.csv":
            "d4421aa5d7429d36fea15c65883f18e0cf0034d29f863e92dac33fa61093fd4f",
        "teacher/teacher.ckpt":
            "b843e9204946ebfb0b6d63b52c966f302f4b158f301f1160a4bcc0197dfa1a2b",
        "teacher/teacher_step2.ckpt":
            "0856a6e01ea01b28fc3334bb44c8c171078c089a62e34063435774171dcbdaf8",
    },
    "uniform_picks": {
        "student/metrics.csv":
            "db165110203ba9b7e0ea1752fd02c295321ad36cff4410e0e4ed9b2ada0a8385",
        "student/student.ckpt":
            "562ef50287f94ea3e034567f29952106392b343762d91505dbda477f0c8d6377",
        "student/student_step2.ckpt":
            "be5878ee25a8127fe1743ff19c8fd04e97e32daf035e70561993f9f844c2cd46",
        "teacher/metrics.csv":
            "d4421aa5d7429d36fea15c65883f18e0cf0034d29f863e92dac33fa61093fd4f",
        "teacher/teacher.ckpt":
            "fe5b130773bf53c8ef51a23cf980ebd2739a7f47a76166fb9c386acb600ed00e",
        "teacher/teacher_step2.ckpt":
            "6474bc8bd66e7b8da160695ff342f0fbfee4de7819b24ae127f85ab3ca236823",
    },
    "no_distill": {
        "student/metrics.csv":
            "6ed625121cb40580722947b00d60fd705956525d0eef8caa73dc90612a546417",
        "student/student.ckpt":
            "9f89b0f4b80a34faf28f29b3fac9194ad326577fadb205fce0910daf4b1cbf38",
        "student/student_step2.ckpt":
            "1869edd69bd41d60058da17bc383172ece889af92e9284026a842f4ccd9a7bc5",
        "teacher/metrics.csv":
            "d4421aa5d7429d36fea15c65883f18e0cf0034d29f863e92dac33fa61093fd4f",
        "teacher/teacher.ckpt":
            "db4a2d2fc410e5f04b43ad6e3b02c41075011975dc47fb37940d8813dc8e1b91",
        "teacher/teacher_step2.ckpt":
            "f946a38877d97acb1faa2e288f8560ee69f2533d33319dbb0c385d1d61c25961",
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
    (loss, grads), (ref_loss, ref_grads) = results
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

    @pytest.mark.parametrize("straight_through", [True, False])
    def test_key_count_follows_the_mask(self, straight_through):
        pcfg = prompter.FramePrompterConfig(frames=8, segments=4, patches=2, d_model=3)
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
        mask = prompter.gumbel_sample_soft(logits, 0.5, rng, pcfg, straight_through=straight_through)
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
