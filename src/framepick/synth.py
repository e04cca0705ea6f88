"""Planted-keyframe synthetic video-QA generator.

Each sample is a question about one attribute of a synthetic video. The T
frames split into K equal segments, each holding one keyframe at a random
offset, the placement a one-frame-per-segment selector can recover. The K
keyframes carry the patterns of K distinct attributes (one attribute per
keyframe, values drawn independently) plus a shared marker pattern; the
question asks about one of the attributes present, so exactly one keyframe
answers it and the correct answer is decodable only from the keyframe set.
Spreading the attributes across keyframes keeps every keyframe individually
load-bearing: a learned selector is rewarded for recovering all of them, not
just any one. Distractor frames are noise, and roughly half additionally
carry a decoy pattern (an attribute present in the video, uniformly random
value, no marker) so blind uniform sampling is actively penalized rather
than merely diluted.

All patterns and the marker are mutually orthogonal, so the built-in decoder
(correlate-and-argmax over the queried attribute's tagged patterns,
max-pooled over the frames it is allowed to read) recovers the answer from
the keyframes with a wide margin. Generation is deterministic: every sample
derives its own stream from (seed, split, index). A dataset has no file
format: it is regenerated from its `DatasetSpec`, which a training config
(and so its digest) carries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# token layout inside the shared vocabulary
TOK_ATTR_BASE = 10
TOK_VALUE_BASE = 32


@dataclass
class DatasetSpec:
    num_train: int = 4000
    num_val: int = 1000
    frames: int = 32          # T
    patches: int = 4          # N
    raw_dim: int = 24
    num_choices: int = 4      # A
    num_keyframes: int = 4    # K
    num_attributes: int = 4
    noise_std: float = 0.3
    decoy_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.num_keyframes > self.frames:
            raise ValueError("K must not exceed T")
        if self.num_train < 1 or self.num_val < 1:
            raise ValueError("split counts must be at least 1")
        if self.frames % self.num_keyframes != 0:
            raise ValueError("one keyframe per segment needs K to divide T")
        if self.num_attributes < self.num_keyframes:
            raise ValueError("need at least one attribute per keyframe (num_attributes >= K)")
        if TOK_VALUE_BASE + self.num_choices > 64 or TOK_ATTR_BASE + self.num_attributes > TOK_VALUE_BASE:
            raise ValueError("token layout overflows the 64-token vocabulary")


@dataclass
class SynthSample:
    raw_video: np.ndarray      # [T, N, raw_dim], float64 holding float32-exact values
    question: np.ndarray       # [Lq] int token ids
    choices: np.ndarray        # [A, Lc] int token ids
    answer_idx: int
    keyframes: tuple           # sorted frame indices
    attribute: int             # queried attribute
    value: int                 # its value in this video (the correct answer)
    keyframe_attrs: tuple      # attribute carried by each keyframe, in keyframe order
    keyframe_values: tuple     # value carried by each keyframe
    seed: int


class PatternBank:
    """Fixed pattern dictionary shared by every sample of a spec.

    patterns[a, v] is the [N, raw_dim] pattern for value v of attribute a,
    constant across the N patches so every patch token of a marked frame
    carries the full signature; `marker` is the keyframe tag. All pattern
    vectors and the marker are mutually orthogonal in raw-feature space,
    each with squared norm raw_dim per patch.
    """

    def __init__(self, spec: DatasetSpec):
        count = spec.num_attributes * spec.num_choices
        if spec.raw_dim < count + 1:
            raise ValueError(f"raw_dim {spec.raw_dim} too small for {count} orthogonal patterns plus a marker")
        rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence((spec.seed, 0xBA17))))
        q, _ = np.linalg.qr(rng.normal(size=(spec.raw_dim, count)))
        basis = q.T * np.sqrt(spec.raw_dim)
        self.patterns = np.stack([
            np.stack([_f32_exact(np.tile(basis[a * spec.num_choices + v], (spec.patches, 1)))
                      for v in range(spec.num_choices)])
            for a in range(spec.num_attributes)])
        # marker rows vary per patch inside the orthocomplement of the pattern
        # span, so channel pooling keeps a distinctive per-frame signature
        raw_marker = rng.normal(size=(spec.patches, spec.raw_dim))
        raw_marker -= (raw_marker @ q) @ q.T
        raw_marker *= np.sqrt(spec.raw_dim) / np.linalg.norm(raw_marker, axis=1, keepdims=True)
        self.marker = _f32_exact(raw_marker)


def _f32_exact(x: np.ndarray) -> np.ndarray:
    """Round through float32. The values it yields define the generated data,
    which the training digests pin."""
    return x.astype(np.float32).astype(np.float64)


def _place_keyframes(spec: DatasetSpec, rng: np.random.Generator) -> tuple:
    """One keyframe at a uniform offset in each of K equal segments."""
    seg = spec.frames // spec.num_keyframes
    return tuple(int(s * seg + rng.integers(seg)) for s in range(spec.num_keyframes))


def _make_sample(spec: DatasetSpec, bank: PatternBank, split: int, index: int) -> SynthSample:
    ss = np.random.SeedSequence((spec.seed, split, index))
    rng = np.random.default_rng(np.random.PCG64(ss))
    sample_seed = int(ss.generate_state(1)[0])

    kf_attrs = tuple(int(a) for a in rng.choice(spec.num_attributes, size=spec.num_keyframes,
                                                replace=False))
    kf_values = tuple(int(v) for v in rng.integers(spec.num_choices, size=spec.num_keyframes))
    queried = int(rng.integers(spec.num_keyframes))
    attr, value = kf_attrs[queried], kf_values[queried]
    keyframes = _place_keyframes(spec, rng)

    video = rng.normal(size=(spec.frames, spec.patches, spec.raw_dim)) * spec.noise_std
    slot = {f: j for j, f in enumerate(keyframes)}
    for f in range(spec.frames):
        if f in slot:
            j = slot[f]
            video[f] += bank.patterns[kf_attrs[j], kf_values[j]] + bank.marker
        elif rng.random() < spec.decoy_prob:
            decoy_attr = kf_attrs[int(rng.integers(spec.num_keyframes))]
            video[f] += bank.patterns[decoy_attr, int(rng.integers(spec.num_choices))]
    video = _f32_exact(video)

    perm = rng.permutation(spec.num_choices)
    answer_idx = int(np.flatnonzero(perm == value)[0])
    question = np.array([TOK_ATTR_BASE + attr], dtype=np.int64)
    choices = np.array([[TOK_VALUE_BASE + int(v)] for v in perm], dtype=np.int64)

    return SynthSample(raw_video=video, question=question, choices=choices,
                       answer_idx=answer_idx, keyframes=keyframes,
                       attribute=attr, value=value,
                       keyframe_attrs=kf_attrs, keyframe_values=kf_values,
                       seed=sample_seed)


def decode_sample(sample: SynthSample, bank: PatternBank, frame_indices=None) -> int:
    """The generator's own decoder, restricted to `frame_indices` (defaults
    to the planted keyframes): correlate each readable frame against the
    queried attribute's tagged patterns, max-pool, argmax the value."""
    attr = int(sample.question[0] - TOK_ATTR_BASE)
    frames = sample.keyframes if frame_indices is None else tuple(frame_indices)
    if len(frames) == 0:
        raise ValueError("decoder needs at least one readable frame")
    content = sample.raw_video[list(frames)].reshape(len(frames), -1)
    refs = (bank.patterns[attr] + bank.marker[None]).reshape(bank.patterns.shape[1], -1)
    scores = (content @ refs.T).max(axis=0)  # [A], max over readable frames
    value = int(scores.argmax())
    choice_values = sample.choices[:, 0] - TOK_VALUE_BASE
    return int(np.flatnonzero(choice_values == value)[0])


def generate(spec: DatasetSpec):
    """Build (train, val) sample lists; bitwise reproducible from the spec.

    Every sample is verified against the built-in decoder at generation
    time, so a spec whose noise or patterns break decodability fails fast.
    """
    bank = PatternBank(spec)
    train = [_make_sample(spec, bank, 0, i) for i in range(spec.num_train)]
    val = [_make_sample(spec, bank, 1, i) for i in range(spec.num_val)]
    for split in (train, val):
        for s in split:
            if decode_sample(s, bank) != s.answer_idx:
                raise AssertionError("generator self-check failed: keyframes do not decode the answer")
    return train, val


def oracle_accuracy(strategy: str, dataset, spec: DatasetSpec, k: int,
                    bank: PatternBank | None = None, seed: int = 0) -> float:
    """Decoder accuracy when restricted to frames chosen by a strategy."""
    if k > spec.frames:
        raise ValueError("k must not exceed the frame count")
    bank = bank or PatternBank(spec)
    rng = np.random.default_rng(np.random.PCG64(np.random.SeedSequence((seed, 0xACC))))
    hits = 0
    for sample in dataset:
        if strategy == "keyframe_oracle":
            frames = sample.keyframes[:k] if k < len(sample.keyframes) else sample.keyframes
        elif strategy == "uniform_k":
            frames = uniform_frame_indices(spec.frames, k)
        elif strategy == "random_k":
            frames = sorted(int(i) for i in rng.choice(spec.frames, size=k, replace=False))
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        hits += decode_sample(sample, bank, frames) == sample.answer_idx
    return hits / len(dataset)


def uniform_frame_indices(t: int, k: int) -> tuple:
    """Evenly spaced frame picks, one per stride midpoint."""
    return tuple(int((i + 0.5) * t / k) for i in range(k))


def expected_uniform_keyframe_hits(spec: DatasetSpec, k: int) -> float:
    """Exact expected |uniform picks  intersect  keyframes| / K, enumerated over
    every offset of each segment's keyframe."""
    picks = set(uniform_frame_indices(spec.frames, k))
    kf = spec.num_keyframes
    seg = spec.frames // kf
    total = 0.0
    for s in range(kf):
        positions = range(s * seg, (s + 1) * seg)
        total += sum(p in picks for p in positions) / seg
    return total / kf
