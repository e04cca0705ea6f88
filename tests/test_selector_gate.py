"""The paper's claim on the synthetic task, at the default `TrainConfig`:
the learned selector finds the planted keyframes, and its student beats
the uniform-pick student at the same frame budget and is at least as
accurate as the all-frames teacher it distils from.

Each seed trains one teacher and then both student arms from it: the
teacher stage does not read `use_prompter`, so both arms would train the
same teacher. The bounds hold on every seed and are not to be loosened;
results/selector_labels.json records the measured table. About 15 s per
seed on 2 cores.
"""

import functools
from dataclasses import replace

import pytest

from framepick import synth, trainer

MIN_RECALL = 0.40    # uniform expectation: S / T = 4 / 32 = 0.125
MIN_MARGIN = 0.05    # selector accuracy over uniform-pick accuracy


@functools.lru_cache(maxsize=None)
def train_arms(seed: int) -> dict:
    """Final val MetricsRow of the teacher and of the selector and uniform
    students at `seed`."""
    cfg = trainer.TrainConfig(seed=seed, data=synth.DatasetSpec(seed=seed))
    train, val = synth.generate(cfg.data)
    teacher, teacher_row = trainer.train_teacher(cfg, train, val)
    state = trainer.bundle_state(teacher)
    rows = {"teacher": teacher_row}
    for arm, use_prompter in (("selector", True), ("uniform", False)):
        arm_cfg = replace(cfg, use_prompter=use_prompter)
        ckpt = trainer.Checkpoint(stage=trainer.STAGE_TEACHER, step=arm_cfg.teacher_steps,
                                  config_digest=arm_cfg.digest(), rng_state=None, tensors=state)
        _, rows[arm] = trainer.train_student(arm_cfg, train, val, ckpt)
    return rows


SEEDS = [0, 1, 2]


@pytest.mark.parametrize("seed", SEEDS)
def test_selector_finds_keyframes(seed):
    selector = train_arms(seed)["selector"]
    assert selector.keyframe_recall >= MIN_RECALL, selector


@pytest.mark.parametrize("seed", SEEDS)
def test_selector_student_beats_uniform(seed):
    rows = train_arms(seed)
    assert rows["selector"].accuracy >= rows["uniform"].accuracy + MIN_MARGIN, rows


@pytest.mark.parametrize("seed", SEEDS)
def test_selector_student_beats_teacher(seed):
    # S = 4 picked frames keep the accuracy of all T = 32
    rows = train_arms(seed)
    assert rows["selector"].accuracy >= rows["teacher"].accuracy, rows
