import hashlib
import json
import math

import numpy as np
import pytest

from framepick import synth, trainer
from framepick.tensor import Tensor


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
            "ddacda7cb9f606fe9e2855dbdc1186261f26ddedb0697bcb73ee85ac0e64a49e",
        "student/student.ckpt":
            "1353eb15cc80dcec553d6c09225d64fa285b6a8aeada56b4a66533a824d24a02",
        "student/student_step2.ckpt":
            "9d8c8b24fdcc4b7dbddd54fed0b9ff040ce6a0b52f6460944ff0a9fbbe97e6cb",
        "teacher/metrics.csv":
            "d4421aa5d7429d36fea15c65883f18e0cf0034d29f863e92dac33fa61093fd4f",
        "teacher/teacher.ckpt":
            "6f1a78c7291e170d411e4bf1aba7115e00da6c4e7dcdb5a5a90ea6a9d0bbac7f",
        "teacher/teacher_step2.ckpt":
            "61469f8c63358d9fa0f5648eec2ed1e99c539c5c4a29a2887b20060f3ea95d91",
    },
    "uniform_picks": {
        "student/metrics.csv":
            "db165110203ba9b7e0ea1752fd02c295321ad36cff4410e0e4ed9b2ada0a8385",
        "student/student.ckpt":
            "cb69f18779c9e9452bfbfdd7e7342964b21aa0758a3ac7ba77cce120c84845ae",
        "student/student_step2.ckpt":
            "b26ad2eb9794cbeb4cfa17f1dfc6cec9d3566732a6a7c88d6efd280e89bae7e8",
        "teacher/metrics.csv":
            "d4421aa5d7429d36fea15c65883f18e0cf0034d29f863e92dac33fa61093fd4f",
        "teacher/teacher.ckpt":
            "078dd6c0e565965aa89691b579b1a0158fe4184ceec8ce89eefdc45656462043",
        "teacher/teacher_step2.ckpt":
            "e11ecfa1ed68fc75e4c35fcfa4210705d6b4f6cb8265769d2d7f983ac4c5a3dd",
    },
    "no_distill": {
        "student/metrics.csv":
            "57ed867fc0e562f0df0ae4e81ef51328be388cd5ca744a8fb7c3ab2ec6442b00",
        "student/student.ckpt":
            "a349eb9c716d89299224fdc211f091eeea095bf849621d2f502f7a965e444b29",
        "student/student_step2.ckpt":
            "406b735a8e384d29a438faa9667862a6e5322fe9a9edf270bfa51995d74fe592",
        "teacher/metrics.csv":
            "d4421aa5d7429d36fea15c65883f18e0cf0034d29f863e92dac33fa61093fd4f",
        "teacher/teacher.ckpt":
            "a27cd39332d9853c93539cc9730d231760309acb0e0222cedaa0f89383e02786",
        "teacher/teacher_step2.ckpt":
            "c7f7c10fc8dce7a91a7518d9617093c81a5647d9a65858abe9a2c81a44c86540",
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
        trainer.set_stage(bundle, trainer.STAGE_STUDENT, cfg)
        trainer.audit_frozen_gradients(bundle, trainer.STAGE_STUDENT, cfg)
        frozen = bundle.teacher_proj
        frozen.grad = np.zeros_like(frozen.data)
        trainer.audit_frozen_gradients(bundle, trainer.STAGE_STUDENT, cfg)
        frozen.grad[0, 0] = 1e-12
        with pytest.raises(trainer.FrozenGradientError, match="'teacher.proj'"):
            trainer.audit_frozen_gradients(bundle, trainer.STAGE_STUDENT, cfg)


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
    ], ids=["teacher_steps", "student_steps", "batch_size", "lambda_distill", "frames", "patches"])
    def test_invalid_config_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**overrides)


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
        w = Tensor(np.array([1.0, 2.0]))
        w.grad = np.array([0.5, np.inf])
        with pytest.raises(RuntimeError, match="non-finite gradient in parameter 'w'"):
            self.step({"w": w}, trainer.AdamWState())


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
