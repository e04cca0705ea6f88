"""Trainable keyframe selection with teacher-student fusion distillation,
verified on a planted-keyframe synthetic video-QA benchmark. The selector
reads no text yet; the question enters only the student fusion."""

from .tensor import Tensor, backward, grad_check

__all__ = ["Tensor", "backward", "grad_check"]
__version__ = "0.1.0"
