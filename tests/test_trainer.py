import dataclasses
import hashlib
import importlib.util
import json
import math
import platform
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from framepick import prompter, qformer, surrogates, synth, trainer
from framepick import tensor as T
from framepick.tensor import Tensor, backward
from test_qformer import explicit_fusion


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
                  prompter_cfg=trainer.FramePrompterConfig(frames=8, d_model=8, embed_hidden=4))
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
            "bf66b8bb3d76f6839d083e5d45505a03b7b1f4daa408971b11bef449ff9109f9",
        "student/student.ckpt":
            "fd90f6716d29cefa247327087d7b1ba73dd060a304be8b8c43a149ec8e722f99",
        "student/student_step2.ckpt":
            "af99784dc4bfb35a005cb66a2fcf2d9b8a5d56832aa9c6c009526a4815c21fbd",
        "teacher/metrics.csv":
            "d0de5ef433bf6fa489f44bdde564d7d98591dab358c5b84aed77ff13fe65634b",
        "teacher/teacher.ckpt":
            "f1a38199eb909025b617070a404410dba0b110da33cab1b9a6ff08398e7ba908",
        "teacher/teacher_step2.ckpt":
            "4b0484e9ca2571175184148d320070ad71022af196ad69b56fca16ddb9601fcb",
    },
    "uniform_picks": {
        "student/metrics.csv":
            "da532b943a55f6ff4983a376a993b38d6a7f0a73760daba6ace568c6727ff272",
        "student/student.ckpt":
            "e210ae1502b3f584ddaa3a47408189c0ad49a40cdb0ddcbad1e72e876a688968",
        "student/student_step2.ckpt":
            "10befdd6281f3da12cad765bafca3e1ac68a03517ad994108fc20677fc15d802",
        "teacher/metrics.csv":
            "d0de5ef433bf6fa489f44bdde564d7d98591dab358c5b84aed77ff13fe65634b",
        "teacher/teacher.ckpt":
            "f4c9f90c4ee21f34ee678d97dc9c4f1ea9ff7aca61ea26ffb70c102169b8f479",
        "teacher/teacher_step2.ckpt":
            "5f207f920f2147040f408bbe2551af32a5af3878c4e91ea61555eb0f03465be5",
    },
}

STAGE_ARMS = {
    "default": {},
    "uniform_picks": {"use_prompter": False},
}


class TestStageDigests:
    """Both stages' metrics.csv and checkpoint bytes are pinned per arm, so a
    refactor of the stage loop or the student forward must leave them bitwise
    unchanged."""

    @pytest.mark.parametrize("arm", sorted(STAGE_ARMS))
    def test_digests(self, arm, tmp_path):
        cfg = tiny_config(eval_every=2, checkpoint_every=2, **STAGE_ARMS[arm])
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
        ({"data": synth.DatasetSpec(frames=16, patches=2)}, "must match the dataset"),
        ({"eval_every": -1}, "eval_every"),
        ({"checkpoint_every": -1}, "checkpoint_every"),
    ], ids=["teacher_steps", "student_steps", "batch_size", "frames", "eval_every", "checkpoint_every"])
    def test_invalid_config_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_config(**overrides)

    def test_config_value_census(self):
        # the independently settable values of TrainConfig, FramePrompterConfig
        # and DatasetSpec; a nested config counts its own fields, not itself.
        # A new config value has to update this count.
        def count(config):
            values = [getattr(config, f.name) for f in dataclasses.fields(config)]
            return sum(count(v) if dataclasses.is_dataclass(v) else 1 for v in values)

        assert count(trainer.TrainConfig()) == 17

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

    # fields of earlier layouts, in the order `from_dict` names them: nested
    # configs before the top level, so a layout with unknown fields at two
    # levels raises on the second once the first level's are removed
    @pytest.mark.parametrize("layout", [
        [(None, {"qformer_cfg": {"num_queries": 8}})],
        [("prompter_cfg", {"num_heads": 1})],
        [("data", {"placement": "segment"})],
        # before the optimizer settings and the text sizes became constants
        [(None, dict(lr=3e-3, lr_min=3e-4, weight_decay=1e-4, beta1=0.9, beta2=0.999,
                     adam_eps=1e-8, grad_clip=1.0, max_text_len=8, vocab=64))],
        # before saliency labels replaced the Gumbel-Softmax relaxation
        [("prompter_cfg", dict(tau_start=1.0, tau_end=0.01, straight_through=True)),
         (None, {"audit_frozen": False})],
        # before the student always distilled at weight 1 and the query count
        # and periodic-eval size became constants
        [(None, dict(lambda_distill=1.0, eval_samples=256, num_queries=8))],
        # before the single-valued dataset settings became constants and the
        # selector read N from its input
        [("prompter_cfg", {"patches": 2}),
         ("data", dict(decoy_prob=0.5, noise_std=0.3, num_attributes=4, num_choices=4, raw_dim=24))],
        # before the visual encoder's width became a constant
        [("prompter_cfg", {"channels": 8})],
    ], ids=["top", "prompter_cfg", "data", "optimizer", "relaxation", "distill", "dataset_constants",
            "channels"])
    def test_from_dict_names_unknown_fields(self, layout):
        d = json.loads(tiny_config().to_json())
        for key, extra in layout:
            (d if key is None else d[key]).update(extra)
        for key, extra in layout:
            level = "TrainConfig" if key is None else f"TrainConfig.{key}"
            with pytest.raises(ValueError, match=rf"^unknown config field\(s\) in {re.escape(level)}: "
                                                 rf"{', '.join(sorted(extra))}$"):
                trainer.TrainConfig.from_dict(d)
            for name in extra:
                del (d if key is None else d[key])[name]
        assert trainer.TrainConfig.from_dict(d) == tiny_config()


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
    @pytest.mark.parametrize("mode, message", [
        ("bogus", "mode must be 'train' or 'infer', got 'bogus'"),
    ], ids=["unknown_mode"])
    def test_rejected(self, use_prompter, mode, message):
        cfg = tiny_config(use_prompter=use_prompter)
        train, _ = synth.generate(cfg.data)
        with pytest.raises(ValueError, match=message):
            trainer.student_forward(trainer.build_models(cfg), trainer.make_batch(train[:1]), cfg, mode)

    @pytest.mark.parametrize("geometry", ["T32", "T8"])   # keys of GEOMETRIES, defined below
    def test_train_and_infer_pick_alike(self, geometry):
        # one pick rule: the student trains on the picks it is scored on;
        # the mode only decides whether the selector's logits keep their graph
        cfg = GEOMETRIES[geometry]()
        bundle = trainer.build_models(cfg)
        batch = trainer.make_batch(synth.generate(cfg.data)[0][:4])
        logits, _, mask = trainer.student_forward(bundle, batch, cfg, "train")
        ref_logits, _, ref_mask = trainer.student_forward(bundle, batch, cfg, "infer")
        assert mask.selected == ref_mask.selected
        assert np.array_equal(logits.data, ref_logits.data)
        assert np.array_equal(mask.logits.data, ref_mask.logits.data)
        assert mask.logits.requires_grad and not ref_mask.logits.requires_grad


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


class TestGeometryFreeWeights:
    """No weight depends on the frame geometry (T, S), so weights trained at
    T=32 load into a bundle built for T=128 and serve there."""

    @staticmethod
    def config(frames, segments, seed=4):
        data = synth.DatasetSpec(num_train=8, num_val=6, frames=frames, patches=2, seed=seed)
        pcfg = trainer.FramePrompterConfig(frames=frames, segments=segments, d_model=8, embed_hidden=4)
        return trainer.TrainConfig(seed=seed, teacher_steps=2, student_steps=2, batch_size=2,
                                   checkpoint_every=0, data=data, prompter_cfg=pcfg)

    def test_parameter_shapes_do_not_depend_on_geometry(self):
        shapes = [{name: p.shape for name, p in trainer.build_models(self.config(t, s)).named_params().items()}
                  for t, s in ((32, 4), (128, 4), (32, 8))]
        assert shapes[0] == shapes[1] == shapes[2]

    @pytest.fixture(scope="class")
    def student(self):
        cfg = self.config(32, 4)
        train, val = synth.generate(cfg.data)
        teacher, _ = trainer.train_teacher(cfg, train, val)
        ckpt = trainer.Checkpoint(stage=trainer.STAGE_TEACHER, step=cfg.teacher_steps,
                                  config_digest=cfg.digest(), rng_state=None,
                                  tensors=trainer.bundle_state(teacher))
        return trainer.train_student(cfg, train, val, ckpt)[0]

    def serve(self, student, frames, segments):
        """Load the T=32, S=4 student into a bundle built for (frames,
        segments) and evaluate it on that geometry's val videos; return the
        segment index of every pick."""
        cfg = self.config(frames, segments, seed=5)
        bundle = trainer.build_models(cfg)
        trainer.load_into_bundle(bundle, trainer.bundle_state(student))
        assert_same_state(bundle, student)
        _, val = synth.generate(cfg.data)
        row, selections = trainer.evaluate(bundle, cfg, val, trainer.STAGE_STUDENT)
        assert row.accuracy is not None and row.keyframe_recall is not None
        assert len(selections) == len(val)
        return [[i // (frames // segments) for i in picks] for picks in selections]

    def test_weights_trained_at_32_frames_serve_at_128(self, student):
        # one pick in each 32-frame segment of every video
        assert self.serve(student, 128, 4) == [[0, 1, 2, 3]] * 6

    def test_weights_trained_at_4_segments_serve_at_8(self, student):
        # one trained selector serves any S: one pick in each 4-frame segment
        assert self.serve(student, 32, 8) == [list(range(8))] * 6


class TestCosineLr:
    def test_endpoints_exact(self):
        assert trainer.cosine_lr(0, 700) == trainer.LR
        assert trainer.cosine_lr(700, 700) == trainer.LR_MIN

    @pytest.mark.parametrize("step, total", [(-1, 10), (11, 10), (0, 0)])
    def test_out_of_range_rejected(self, step, total):
        with pytest.raises(ValueError):
            trainer.cosine_lr(step, total)


class TestAdamW:
    LR = 0.1

    def step(self, params, state):
        trainer.adamw_step(params, state, self.LR)

    def test_two_steps_match_hand_computation(self):
        w = Tensor(np.array([1.0, -2.0]))
        u = Tensor(np.array([3.0]))   # never receives a gradient
        params, state = {"w": w, "u": u}, trainer.AdamWState()
        g1, g2 = [0.5, -1.0], [0.25, 2.0]
        w.grad = np.array(g1)
        self.step(params, state)
        w.grad = np.array(g2)
        self.step(params, state)

        lr, b1, b2, eps, wd = self.LR, trainer.BETA1, trainer.BETA2, trainer.ADAM_EPS, trainer.WEIGHT_DECAY
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
    def grads(self, scale):
        # gradients (3, 0) and (4,) times `scale`: global norm 5 * scale
        a, b, c = Tensor(np.zeros(2)), Tensor(np.zeros(1)), Tensor(np.zeros(3))
        a.grad, b.grad = np.array([3.0, 0.0]) * scale, np.array([4.0]) * scale
        return {"a": a, "b": b, "c": c}   # c has no gradient

    def test_scales_down_above_max_norm(self):
        params = self.grads(1.0)
        assert trainer.clip_global_norm(params) == (5.0, trainer.GRAD_CLIP / 5.0)
        assert np.array_equal(params["a"].grad, [3.0 * (trainer.GRAD_CLIP / 5.0), 0.0])
        assert np.array_equal(params["b"].grad, [4.0 * (trainer.GRAD_CLIP / 5.0)])
        assert params["c"].grad is None

    def test_leaves_gradients_below_max_norm(self):
        params = self.grads(0.125)
        assert trainer.GRAD_CLIP > 0.625
        assert trainer.clip_global_norm(params) == (0.625, 1.0)
        assert np.array_equal(params["a"].grad, [0.375, 0.0])
        assert np.array_equal(params["b"].grad, [0.5])

    @pytest.mark.parametrize("stage", [trainer.STAGE_TEACHER, trainer.STAGE_STUDENT])
    def test_stage_clips_the_selector_apart(self, monkeypatch, stage):
        # the selector's gradient norm and the rest's are clipped apart; the
        # teacher stage has no selector, so it clips all its gradients at once
        cfg = tiny_config(teacher_steps=1, student_steps=1)
        train, val = synth.generate(cfg.data)
        calls = []
        clip = trainer.clip_global_norm
        monkeypatch.setattr(trainer, "clip_global_norm",
                            lambda params: calls.append(set(params)) or clip(params))
        trainable = trainer.trainable_names(trainer.build_models(cfg), stage)
        if stage == trainer.STAGE_TEACHER:
            trainer.train_teacher(cfg, train, val)
            assert calls == [trainable]
        else:
            trainer.train_student(cfg, train, val, fake_checkpoint(cfg, trainer.STAGE_TEACHER))
            selector = {name for name in trainable if name.startswith("prompter.")}
            assert selector and calls == [selector, trainable - selector]


def student_loss_and_grads(cfg):
    """Stage-2 loss on one batch and every trainable parameter's gradient."""
    train, _ = synth.generate(cfg.data)
    bundle = trainer.build_models(cfg)
    params = trainer.set_stage(bundle, trainer.STAGE_STUDENT)
    loss, _, _ = trainer.student_loss(bundle, trainer.make_batch(train[:4]), cfg)
    backward(loss)
    return loss.item(), {name: np.zeros_like(p.data) if p.grad is None else p.grad
                         for name, p in params.items()}


def mismatched_gradients(cfg, monkeypatch, reference_forward):
    """Names whose gradient under `trainer.student_forward` differs from the
    one under `reference_forward` by more than 1e-12 of the reference's
    largest magnitude."""
    result = student_loss_and_grads(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(trainer, "student_forward", reference_forward)
        reference = student_loss_and_grads(cfg)
    return mismatched_names(result, reference)


def mismatched_names(result, reference):
    """Asserts the losses agree to 1e-12; returns the names whose gradient
    differs from the reference's by more than 1e-12 of its largest magnitude."""
    (loss, grads), (ref_loss, ref_grads) = result, reference
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    return sorted(name for name, ref in ref_grads.items()
                  if np.abs(grads[name] - ref).max() > 1e-12 * np.abs(ref).max())


def reference_forward(bundle, batch, cfg, mode, all_frames=False, key_mask=True):
    """Reference student forward with explicit projections: project every
    frame's features to d_model, gather the keys from the projected tokens,
    and fuse them with `explicit_fusion`. With `all_frames`, every frame
    stays a key instead, and unless `key_mask` is False a -1e9 key bias
    removes the frames the mask did not pick."""
    feats = surrogates.encode_video(Tensor(batch.raw), bundle.visual_enc)
    tokens = T.matmul(feats, bundle.student_proj)  # [B, T, N, d]
    text = surrogates.encode_text(batch.questions, bundle.text_enc)
    if bundle.prompter_params is not None:
        mask = prompter.select_frames(feats, bundle.prompter_params, cfg.prompter_cfg,
                                      keep_graph=mode == "train")
    else:
        mask = prompter.uniform_mask(batch.raw.shape[0], cfg.prompter_cfg)
    key_bias = None
    if all_frames:
        b, t, n, d = tokens.shape
        vis = T.reshape(tokens, (b, t * n, d))
        if key_mask:
            picked = np.full((b, t), -1e9)
            np.put_along_axis(picked, np.array(mask.selected), 0.0, axis=1)
            key_bias = Tensor(np.repeat(picked, n, axis=1))
    else:
        vis = prompter.frame_keys(tokens, mask)
    x_student = explicit_fusion(bundle.student_qf, vis, text, key_bias=key_bias)
    choices = surrogates.encode_choices(batch.choices, bundle.text_enc)
    return surrogates.score_answers(x_student, choices, bundle.answer), x_student, mask


def all_frames_forward(bundle, batch, cfg, mode, key_mask=True):
    return reference_forward(bundle, batch, cfg, mode, all_frames=True, key_mask=key_mask)


def default_geometry_config(**overrides):
    data = synth.DatasetSpec(num_train=8, num_val=4, seed=4)
    return trainer.TrainConfig(seed=4, data=data, **overrides)


GEOMETRIES = {"T8": tiny_config, "T32": default_geometry_config}


class TestGatherMatchesAllFrames:
    """Reading only the picked frames in the student fusion gives the loss
    and gradients of reading every frame with the unpicked ones removed by
    a key bias."""

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_loss_and_gradients_match(self, monkeypatch, geometry):
        cfg = GEOMETRIES[geometry]()
        assert mismatched_gradients(cfg, monkeypatch, all_frames_forward) == []

    def test_dropped_key_mask_is_caught(self, monkeypatch):
        # without its key bias the all-frames reference also reads the
        # unpicked frames, which moves the loss and the key readers' gradients
        cfg = tiny_config()
        loss, grads = student_loss_and_grads(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(trainer, "student_forward",
                          lambda *args, **kw: all_frames_forward(*args, **kw, key_mask=False))
            ref_loss, ref_grads = student_loss_and_grads(cfg)
        assert abs(loss - ref_loss) > 1e-6 * abs(ref_loss)
        for name in ("student.qf.self.wk", "student.proj"):
            assert np.abs(grads[name] - ref_grads[name]).max() > 1e-6 * np.abs(ref_grads[name]).max()

    @pytest.mark.parametrize("mode", ["train", "infer"])
    def test_student_forward_gathers_once(self, monkeypatch, mode):
        # the student fusion reads the one frame_keys result
        cfg = tiny_config()
        train, _ = synth.generate(cfg.data)
        calls = []
        gather = prompter.frame_keys
        monkeypatch.setattr(prompter, "frame_keys", lambda *args: calls.append(1) or gather(*args))
        trainer.student_forward(trainer.build_models(cfg), trainer.make_batch(train[:2]), cfg, mode)
        assert len(calls) == 1

    def test_key_count_follows_the_mask(self):
        # the keys are the S picked frames' tokens
        pcfg = prompter.FramePrompterConfig(frames=8, segments=4, d_model=3)
        rng = np.random.default_rng(0)
        mask = prompter.sample_frames(Tensor(rng.normal(size=(2, 4, 2))), pcfg)
        x_tokens = Tensor(rng.normal(size=(2, 8, 2, 3)))
        keys = prompter.frame_keys(x_tokens, mask)
        picked = np.array(mask.selected)
        assert keys.shape == (2, 4 * 2, 3)
        assert np.array_equal(keys.data.reshape(2, 4, 2, 3), x_tokens.data[np.arange(2)[:, None], picked])


def with_selection(cfg, selection):
    """`cfg` with the learned selector, or with uniform picks."""
    return replace(cfg, use_prompter=selection == "selector")


class TestProjectAfterGather:
    """The student fusion reads the unprojected keys `frame_keys` returns,
    with the projection in its key basis; that matches projecting every
    frame, gathering, and fusing with explicit projections."""

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("selection", ["selector", "uniform"])
    def test_loss_and_gradients_match(self, monkeypatch, geometry, selection):
        cfg = with_selection(GEOMETRIES[geometry](), selection)
        assert mismatched_gradients(cfg, monkeypatch, reference_forward) == []

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    @pytest.mark.parametrize("use_prompter", [True, False], ids=["selector", "uniform"])
    def test_infer_matches_bitwise(self, geometry, use_prompter):
        # the picks are bitwise equal; the logits match to 1e-12, since the
        # reference projects the keys explicitly and so rounds differently
        cfg = GEOMETRIES[geometry](use_prompter=use_prompter)
        bundle = trainer.build_models(cfg)
        batch = trainer.make_batch(synth.generate(cfg.data)[0][:8])
        logits, _, mask = trainer.student_forward(bundle, batch, cfg, "infer")
        ref_logits, _, ref_mask = reference_forward(bundle, batch, cfg, "infer")
        assert np.abs(logits.data - ref_logits.data).max() <= 1e-12 * np.abs(ref_logits.data).max()
        assert mask.selected == ref_mask.selected


def op_outputs(monkeypatch, forward, *args):
    """Run `forward(*args)`; return the shapes of every `tensor._op` output
    and of every `numpy.matmul` product, which includes those inside an op."""
    ops, products = [], []
    op, matmul = T._op, np.matmul

    def recording_op(data, inputs, bw):
        ops.append(data.shape)
        return op(data, inputs, bw)

    def recording_matmul(a, b):
        out = matmul(a, b)
        products.append(out.shape)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(T, "_op", recording_op)
        patch.setattr(np, "matmul", recording_matmul)
        forward(*args)
    return ops, products


class TestRequestWork:
    """What one request costs, in arrays and in ops."""

    def test_teacher_forms_no_token_sized_array(self, monkeypatch):
        # at T=128 the teacher reads Lv = 512 visual tokens at d = 64; no op
        # output and no product, inside an op or not, holds Lv * d or more
        # elements per batch row, so no token is projected to d_model
        frames = 128
        data = synth.DatasetSpec(num_train=2, num_val=1, frames=frames, seed=0)
        cfg = trainer.TrainConfig(seed=0, data=data, prompter_cfg=trainer.FramePrompterConfig(frames=frames))
        bundle = trainer.build_models(cfg)
        batch = trainer.make_batch(synth.generate(data)[0])
        b, t, n, _ = batch.raw.shape
        lv, d = t * n, bundle.teacher_proj.shape[1]
        assert (b, lv, d) == (2, 512, 64)
        ops, products = op_outputs(monkeypatch, trainer.teacher_forward, bundle, batch, cfg)
        assert ops and products
        assert max(math.prod(shape) for shape in ops + products) < b * lv * d

    def test_request_op_counts(self, monkeypatch):
        # one batch-1 request: the selector path, then the full path; a
        # change that adds ops to a request has to update these counts
        cfg = default_geometry_config()
        bundle = trainer.build_models(cfg)
        batch = trainer.make_batch(synth.generate(cfg.data)[1][:1])
        ops, _ = op_outputs(monkeypatch, trainer.student_forward, bundle, batch, cfg, "infer")
        assert len(ops) == 27
        ops, _ = op_outputs(monkeypatch, trainer.teacher_forward, bundle, batch, cfg)
        assert len(ops) == 19


def in_fresh_process(script: str) -> str:
    """Run `script` in a new interpreter that imports the package from this
    checkout; return its last line of output. A fresh process has a heap no
    earlier test has shaped."""
    src = Path(trainer.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r})\n" + script],
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout.splitlines()[-1]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap pin is glibc's mallopt")
class TestHeapPin:
    """Importing the package pins glibc's heap, so a steady-state pass maps
    its arrays again from pages the first pass left mapped."""

    def test_import_pins_the_heap(self):
        assert in_fresh_process("import framepick.tensor as T; print(T.HEAP_PINNED)") == "True"

    def test_steady_state_evaluate_faults_few_pages(self):
        # six passes of 64 videos at T=128; without the pin each one faults
        # about 4k pages, as glibc maps and trims its multi-megabyte arrays
        script = """
import json, resource
from framepick import synth, trainer
from framepick.prompter import FramePrompterConfig
data = synth.DatasetSpec(num_train=1, num_val=64, frames=128, seed=0)
cfg = trainer.TrainConfig(seed=0, data=data, prompter_cfg=FramePrompterConfig(frames=128))
_, val = synth.generate(data)
bundle = trainer.build_models(cfg)
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trainer.evaluate(bundle, cfg, val, trainer.STAGE_STUDENT)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""
        faults = json.loads(in_fresh_process(script))
        assert len(faults) == 6 and max(faults[2:]) <= 64, faults


class TestTeacherTargets:
    """The student step's one teacher pass: the distillation target and the
    saliency the selector's labels come from."""

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_target_matches_plain_teacher_bitwise(self, geometry):
        cfg = GEOMETRIES[geometry]()
        bundle = trainer.build_models(cfg)
        trainer.set_stage(bundle, trainer.STAGE_STUDENT)
        batch = trainer.make_batch(synth.generate(cfg.data)[0][:4])
        target, saliency = trainer.teacher_targets(bundle, batch, cfg)
        _, plain = trainer.teacher_forward(bundle, batch, cfg)
        assert np.array_equal(target.data, plain.data) and not target.requires_grad
        assert saliency.shape == (4, cfg.prompter_cfg.frames)
        # the frozen teacher takes no gradient from its backward
        assert all(p.grad is None for p in bundle.named_params().values())

    def test_saliency_is_the_frame_bias_gradient(self):
        # finite differences of the teacher's answer loss as one frame's
        # tokens all get the same extra bias
        cfg = tiny_config()
        bundle = trainer.build_models(cfg)
        trainer.set_stage(bundle, trainer.STAGE_STUDENT)
        batch = trainer.make_batch(synth.generate(cfg.data)[0][:2])
        _, saliency = trainer.teacher_targets(bundle, batch, cfg)
        b, t, n, _ = batch.raw.shape
        eps = 1e-5

        def loss(bias):
            logits, _ = trainer.teacher_forward(bundle, batch, cfg, key_bias=Tensor(bias))
            return surrogates.vqa_loss(logits, batch.answers).item()

        numeric = np.zeros((b, t))
        for i in range(b):
            for f in range(t):
                bump = np.zeros((b, t, n))
                bump[i, f] = eps
                numeric[i, f] = (loss(bump.reshape(b, t * n)) - loss(-bump.reshape(b, t * n))) / (2 * eps)
        assert np.allclose(saliency, numeric, rtol=1e-5, atol=1e-10)


class TestStudentLossTerms:
    """The student loss is the answer loss, plus the distillation loss, plus,
    with a selector, one cross entropy per video of the scores of the segment
    that holds its lowest-saliency frame against that frame, each at weight
    1; one teacher pass per step gives every teacher-side term."""

    @pytest.mark.parametrize("arm", sorted(STAGE_ARMS))
    def test_loss_is_the_sum_of_its_terms(self, arm):
        cfg = tiny_config(**STAGE_ARMS[arm])
        bundle = trainer.build_models(cfg)
        trainer.set_stage(bundle, trainer.STAGE_STUDENT)
        batch = trainer.make_batch(synth.generate(cfg.data)[0][:4])
        loss, _, fields = trainer.student_loss(bundle, batch, cfg)

        logits, x_student, mask = trainer.student_forward(bundle, batch, cfg, "train")
        expect = surrogates.vqa_loss(logits, batch.answers).item()
        assert fields["loss_vqa"] == expect
        _, x_teacher = trainer.teacher_forward(bundle, batch, cfg)
        distill = qformer.distill_loss(bundle.decoder, x_student, x_teacher).item()
        assert fields["loss_distill"] == distill
        expect += distill
        if bundle.prompter_params is not None:
            _, saliency = trainer.teacher_targets(bundle, batch, cfg)
            fps = cfg.prompter_cfg.frames_per_segment
            segment, label = np.divmod(saliency.argmin(axis=1), fps)
            scores = mask.logits.data[np.arange(4), segment]   # [4, T/S]
            logp = scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))
            expect += -logp[np.arange(4), label].mean()
        assert loss.item() == pytest.approx(expect, rel=1e-12, abs=0)

    def test_label_rows_are_the_low_frames_segments(self, monkeypatch):
        # the label cross entropy reads, per video, the [T/S] scores of the
        # segment that holds its lowest-saliency frame
        cfg = tiny_config()
        bundle = trainer.build_models(cfg)
        trainer.set_stage(bundle, trainer.STAGE_STUDENT)
        batch = trainer.make_batch(synth.generate(cfg.data)[0][:4])
        _, saliency = trainer.teacher_targets(bundle, batch, cfg)
        _, _, mask = trainer.student_forward(bundle, batch, cfg, "train")
        calls = []
        entropy = T.cross_entropy
        monkeypatch.setattr(T, "cross_entropy",
                            lambda logits, targets: calls.append((logits.data, targets)) or entropy(logits, targets))
        trainer.student_loss(bundle, batch, cfg)
        # the teacher's and the student's answer losses, then the label term
        assert len(calls) == 3
        scores, labels = calls[-1]
        low, fps = saliency.argmin(axis=1), cfg.prompter_cfg.frames_per_segment
        assert np.array_equal(scores, mask.logits.data[np.arange(4), low // fps])
        assert np.array_equal(labels, low % fps)

    @pytest.mark.parametrize("use_prompter", [True, False], ids=["default", "uniform_picks"])
    def test_one_teacher_pass_per_step(self, monkeypatch, use_prompter):
        cfg = tiny_config(use_prompter=use_prompter)
        bundle = trainer.build_models(cfg)
        trainer.set_stage(bundle, trainer.STAGE_STUDENT)
        calls = []
        forward = trainer.teacher_forward
        monkeypatch.setattr(trainer, "teacher_forward",
                            lambda *args, **kw: calls.append(kw.get("key_bias") is not None) or forward(*args, **kw))
        batch = trainer.make_batch(synth.generate(cfg.data)[0][:2])
        trainer.student_loss(bundle, batch, cfg)
        # only a selector needs the saliency, so only its pass takes the bias
        assert calls == [use_prompter]

    def test_audit_guards_the_teacher_backward(self, monkeypatch):
        # an unfrozen teacher parameter takes gradient from the saliency
        # backward; the audit after the step's backward names it
        cfg = tiny_config()
        train, val = synth.generate(cfg.data)
        teacher = fake_checkpoint(cfg, trainer.STAGE_TEACHER)
        loss_fn = trainer.student_loss

        def leaky_loss(bundle, *args):
            bundle.teacher_proj.requires_grad = True
            return loss_fn(bundle, *args)

        monkeypatch.setattr(trainer, "student_loss", leaky_loss)
        with pytest.raises(trainer.FrozenGradientError, match="'teacher.proj'"):
            trainer.train_student(cfg, train, val, teacher)


class TestOneStudentForBothArms:
    """The selector and uniform arms run one student model: given the same
    picks they compute the same thing, and the selector learns only from
    its label cross entropy."""

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_same_picks_give_bitwise_equal_outputs(self, monkeypatch, geometry):
        cfg = GEOMETRIES[geometry]()
        selector = trainer.build_models(cfg)
        uniform = trainer.build_models(replace(cfg, use_prompter=False))
        assert selector.prompter_params is not None and uniform.prompter_params is None
        batch = trainer.make_batch(synth.generate(cfg.data)[0][:4])
        monkeypatch.setattr(prompter, "select_frames",
                            lambda feats, params, pcfg, **kw: prompter.uniform_mask(feats.shape[0], pcfg))
        logits, fused, mask = trainer.student_forward(selector, batch, cfg, "infer")
        ref_logits, ref_fused, ref_mask = trainer.student_forward(uniform, batch, cfg, "infer")
        assert mask.selected == ref_mask.selected
        assert np.array_equal(fused.data, ref_fused.data)
        assert np.array_equal(logits.data, ref_logits.data)

    def test_answer_and_distillation_losses_leave_the_selector_alone(self):
        cfg = tiny_config()
        bundle = trainer.build_models(cfg)
        trainer.set_stage(bundle, trainer.STAGE_STUDENT)
        batch = trainer.make_batch(synth.generate(cfg.data)[0][:4])
        _, x_teacher = trainer.teacher_forward(bundle, batch, cfg)
        logits, x_student, mask = trainer.student_forward(bundle, batch, cfg, "train")
        loss = T.add(surrogates.vqa_loss(logits, batch.answers),
                     qformer.distill_loss(bundle.decoder, x_student, x_teacher))
        backward(loss)
        named = bundle.named_params()
        selector = sorted(name for name in named if name.startswith("prompter."))
        assert selector and all(named[name].grad is None for name in selector)
        assert named["student.proj"].grad is not None
        # the label cross entropy is what reaches them
        fps = cfg.prompter_cfg.frames_per_segment
        labels = np.zeros(batch.answers.size * cfg.prompter_cfg.segments, dtype=int)
        backward(T.cross_entropy(T.reshape(mask.logits, (labels.size, fps)), labels))
        assert all(named[name].grad is not None for name in selector)


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
    # one self-attention and one cross-attention per fusion: the selector
    # adds none
    assert tracer.counts["attention_calls"] == 4
    assert tracer.counts["student_fuse_calls"] == 1
    assert tracer.counts["picks"] == cfg.prompter_cfg.segments
