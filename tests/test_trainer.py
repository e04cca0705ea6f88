import hashlib
import json

import numpy as np
import pytest

from framepick import prompter, synth, trainer


@pytest.fixture
def ckpt_path(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([2.5, -1.0])}
    trainer.save_checkpoint(path, trainer.STAGE_TEACHER, 3, tensors, "digest")
    return path


class TestCheckpointFiles:
    def test_round_trip(self, ckpt_path):
        ckpt = trainer.load_checkpoint(ckpt_path)
        assert (ckpt.stage, ckpt.step, ckpt.config_digest) == (trainer.STAGE_TEACHER, 3, "digest")
        assert np.array_equal(ckpt.tensors["a"], np.arange(6.0).reshape(2, 3))
        assert np.array_equal(ckpt.tensors["b"], [2.5, -1.0])

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


def tiny_config(design=prompter.SEGMENTED, **overrides):
    data = synth.DatasetSpec(num_train=16, num_val=8, frames=8, patches=2, seed=4)
    fields = dict(seed=4, teacher_steps=4, student_steps=4, batch_size=2,
                  eval_every=0, checkpoint_every=2, data=data,
                  prompter_cfg=trainer.FramePrompterConfig(
                      frames=8, patches=2, d_model=8, embed_hidden=4, design=design))
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
            "f5499e255d4d20bb3b6562e8c516c8d671f0b0c90d0ee1d2270e28340f70976b",
        "student/student_step2.ckpt":
            "9826e61032b9de746c3f619d4e5931b94af50660c5b244a9beb14f7e9ee1138d",
        "student/student_step4.ckpt":
            "f5499e255d4d20bb3b6562e8c516c8d671f0b0c90d0ee1d2270e28340f70976b",
        "teacher/metrics.csv":
            "d4421aa5d7429d36fea15c65883f18e0cf0034d29f863e92dac33fa61093fd4f",
        "teacher/teacher.ckpt":
            "2b3d7244fbb887542b78cd3b9a8a17cd094758c40d72e2272076e5f080ec5c4c",
        "teacher/teacher_step2.ckpt":
            "116d69564f5ae18063966cb445f9acb786ba86878da2d7dd60f343b3237e0a5d",
        "teacher/teacher_step4.ckpt":
            "2b3d7244fbb887542b78cd3b9a8a17cd094758c40d72e2272076e5f080ec5c4c",
    },
    "uniform_picks": {
        "student/metrics.csv":
            "db165110203ba9b7e0ea1752fd02c295321ad36cff4410e0e4ed9b2ada0a8385",
        "student/student.ckpt":
            "e6dee23284babdadbae209154897dc04d16684b62a22c569f1a789bc645bc5e1",
        "student/student_step2.ckpt":
            "e719b13677bd7d2f8398a5a320283b87642ea66a60dcc1d006eded4968429f07",
        "student/student_step4.ckpt":
            "e6dee23284babdadbae209154897dc04d16684b62a22c569f1a789bc645bc5e1",
        "teacher/metrics.csv":
            "d4421aa5d7429d36fea15c65883f18e0cf0034d29f863e92dac33fa61093fd4f",
        "teacher/teacher.ckpt":
            "cfa6a1d150912316d3a49936c49226772e0fc562661ffcdb09d1fb1e6a9cb744",
        "teacher/teacher_step2.ckpt":
            "1790c3385de97eee37e8beb615bccb9a59f4dd1aecd9d3ee3edd9af33747ae0d",
        "teacher/teacher_step4.ckpt":
            "cfa6a1d150912316d3a49936c49226772e0fc562661ffcdb09d1fb1e6a9cb744",
    },
    "no_distill": {
        "student/metrics.csv":
            "57ed867fc0e562f0df0ae4e81ef51328be388cd5ca744a8fb7c3ab2ec6442b00",
        "student/student.ckpt":
            "4d3a58f9bce716430b3f5f81774b5f25cd44e72a80ef77fd0c0cdf326c4a6c49",
        "student/student_step2.ckpt":
            "62de09a2f50d3443478b06c2c10e777271cc5288e10aaf6191b88e17460c0c65",
        "student/student_step4.ckpt":
            "4d3a58f9bce716430b3f5f81774b5f25cd44e72a80ef77fd0c0cdf326c4a6c49",
        "teacher/metrics.csv":
            "d4421aa5d7429d36fea15c65883f18e0cf0034d29f863e92dac33fa61093fd4f",
        "teacher/teacher.ckpt":
            "93b6256a2504cb16e151a60abf096dd18a32e60058afc1ef369fa5c264a9d8db",
        "teacher/teacher_step2.ckpt":
            "f1adbf8d4d3d376eed681ce1b4b6b1dc2e797eb8b5bd45c8241e6572cc27ca40",
        "teacher/teacher_step4.ckpt":
            "93b6256a2504cb16e151a60abf096dd18a32e60058afc1ef369fa5c264a9d8db",
    },
    "free_form": {
        "student/metrics.csv":
            "cc2d7135c9982fc166665961d4da61f0e274f6f5acb1b0efcfe5693b99781ce0",
        "student/student.ckpt":
            "d51b4b24e94b7c0de15d39148167af602654d17e84aa76e55c70fe9918860061",
        "student/student_step2.ckpt":
            "e0f23c0322054e41920c46783d5286a00ea6af0ad0777dbe27d471acf82a630c",
        "student/student_step4.ckpt":
            "d51b4b24e94b7c0de15d39148167af602654d17e84aa76e55c70fe9918860061",
        "teacher/metrics.csv":
            "d4421aa5d7429d36fea15c65883f18e0cf0034d29f863e92dac33fa61093fd4f",
        "teacher/teacher.ckpt":
            "693d78e75d1341cb6b7bc9c92ec785662c5c9cbac864c47e861b7e175ce34929",
        "teacher/teacher_step2.ckpt":
            "075c2e6adcef8b692dc00ac31a16f4902a7c0b308bf2dfb7599057db95d11975",
        "teacher/teacher_step4.ckpt":
            "693d78e75d1341cb6b7bc9c92ec785662c5c9cbac864c47e861b7e175ce34929",
    },
}

STAGE_ARMS = {
    "default": {},
    "uniform_picks": {"use_prompter": False},
    "no_distill": {"lambda_distill": 0.0},
    "free_form": {"design": prompter.FREE_FORM},
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
    @pytest.mark.parametrize("cfg", [trainer.TrainConfig(), tiny_config(design=prompter.FREE_FORM)])
    def test_json_round_trip_keeps_digest(self, cfg):
        back = trainer.TrainConfig.from_dict(json.loads(cfg.to_json()))
        assert back == cfg
        assert back.digest() == cfg.digest()
