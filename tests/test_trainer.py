import numpy as np
import pytest

from framepick import synth, trainer


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


def tiny_config():
    data = synth.DatasetSpec(num_train=16, num_val=8, frames=8, patches=2, seed=4)
    return trainer.TrainConfig(seed=4, teacher_steps=4, student_steps=4, batch_size=2,
                               eval_every=0, checkpoint_every=2, data=data,
                               prompter_cfg=trainer.FramePrompterConfig(
                                   frames=8, patches=2, d_model=8, embed_hidden=4))


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
