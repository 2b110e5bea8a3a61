"""Whole-path execution: forward with an activation tape, backward to trainable layers only.

Frozen layers transmit gradients but never receive parameter gradients; layers
below the deepest trainable layer are not taped at all, so evaluation of a
fully frozen path carries no backward state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvariantError
from .config import LayerConfig, LayerKind
from . import layers as L


@dataclass
class PathLayer:
    """One executable layer of a path: geometry, tensors, and whether it trains."""

    config: LayerConfig
    params: dict[str, np.ndarray]
    trainable: bool = False

    @property
    def kind(self) -> LayerKind:
        return self.config.kind


@dataclass
class Tape:
    """Activation record produced by forward(); backward() consumes it once."""

    path: list[PathLayer]
    caches: dict[int, object]  # index -> layer cache, only for index >= lowest trainable
    logits: np.ndarray
    lowest_trainable: int  # len(path) if nothing trains


def forward(path: list[PathLayer], images: np.ndarray, start: int = 0) -> Tape:
    """Run path[start:] on a batch; tape only what backward will need.

    With start > 0, `images` are the activations entering path[start], as
    `run_prefix(path, images, start)` gives them; the layers below must be frozen.
    The path's structure is not checked here: `SystemState.check_model` owns that.
    """
    trainable_idx = [i for i, pl in enumerate(path) if pl.trainable]
    lowest = trainable_idx[0] if trainable_idx else len(path)
    if start > lowest:
        raise InvariantError(f"forward from layer {start} skips trainable layer {lowest}")

    x = images
    caches: dict[int, object] = {}
    for i in range(start, len(path)):
        x, cache = L.forward(path[i].config, path[i].params, x)
        if i >= lowest:
            caches[i] = cache
    return Tape(path=list(path), caches=caches, logits=x, lowest_trainable=lowest)


def run_prefix(path: list[PathLayer], images: np.ndarray, stop: int) -> np.ndarray:
    """The activations entering path[stop]: path[:stop] run on a batch, untaped."""
    x = images
    for pl in path[:stop]:
        x, _ = L.forward(pl.config, pl.params, x)
    return x


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy; returns (loss, dlogits). Loss accumulates in float64."""
    b = logits.shape[0]
    z = logits - logits.max(-1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(-1))
    picked = z[np.arange(b), labels]
    loss = float(np.sum((logsumexp - picked).astype(np.float64)) / b)
    probs = np.exp(z - logsumexp[:, None])
    dlogits = probs
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    return loss, dlogits.astype(logits.dtype)


def backward(tape: Tape, labels: np.ndarray):
    """Gradients for trainable layers plus the scalar loss.

    Raises InvariantError for an all-frozen tape: a child always has a
    trainable head, so asking for gradients without one is a contract bug.
    """
    if tape.lowest_trainable >= len(tape.path):
        raise InvariantError("backward on an all-frozen path; a child always trains its head")
    loss, dy = softmax_xent(tape.logits, labels)
    grads: dict[int, dict[str, np.ndarray]] = {}
    for i in range(len(tape.path) - 1, tape.lowest_trainable - 1, -1):
        pl = tape.path[i]
        want_dx = i > tape.lowest_trainable
        dparams, dy = L.backward(pl.config, pl.params, tape.caches[i], dy,
                                 want_param_grads=pl.trainable, want_dx=want_dx)
        if pl.trainable:
            grads[i] = dparams
    return loss, grads
