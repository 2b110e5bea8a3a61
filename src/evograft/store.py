"""Immutable, content-addressed store of trained layers plus the whole-system state.

A layer is frozen the moment its record is built: its id is a hash of
parameters, optimizer state and lineage metadata, the arrays are read-only, and
the store exposes no write path. Models are paths of layer ids; only the best
model per task is retained, and layers that no retained model reaches are collected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import InvariantError, ValidationError
from .nn.config import ArchConfig, LayerConfig, LayerKind
from .nn.layers import param_shapes
from .util import canonical_json, freeze_array

if TYPE_CHECKING:  # pragma: no cover
    from .evolution import EvolutionConfig
    from .mutation import Genome
    from .tasks import TaskSpec

TrainedOn = tuple[tuple[str, int], ...]
PATH_PREFIX = (LayerKind.PATCH_EMBEDDING, LayerKind.CLASS_TOKEN, LayerKind.POSITION_EMBEDDING)


def _hash_tensors(h, names: Iterable[str], tensors: Mapping[str, np.ndarray]) -> None:
    for name in names:
        if name not in tensors:
            continue
        arr = tensors[name]
        h.update(name.encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())


def content_id(kind: LayerKind, config: LayerConfig, params: Mapping[str, np.ndarray],
               optimizer_state: Mapping[str, np.ndarray], cloned_from: str | None,
               trained_on: TrainedOn, creator_task: str) -> str:
    """Content hash defining layer identity; bit-identical records collide by design."""
    h = hashlib.sha256()
    meta = {
        "kind": kind.value,
        "config": config.to_dict(),
        "cloned_from": cloned_from,
        "trained_on": [[t, int(s)] for t, s in trained_on],
        "creator_task": creator_task,
    }
    h.update(canonical_json(meta).encode())
    order = param_shapes(config)
    _hash_tensors(h, order, params)
    h.update(b"|opt|")
    _hash_tensors(h, order, optimizer_state)
    return h.hexdigest()


@dataclass(frozen=True)
class LayerRecord:
    """A frozen block of trained parameters with lineage and provenance.

    Valid by construction: building one copies the arrays to read-only float32,
    checks `kind`, the parameters and the momentum (of all or of none) against
    the config, and sets `id` to their content hash, which no caller can supply.
    So a record that exists is one the store may hold and a manifest can describe.
    """

    id: str = field(init=False)
    kind: LayerKind
    config: LayerConfig
    params: Mapping[str, np.ndarray]
    optimizer_state: Mapping[str, np.ndarray] | None
    cloned_from: str | None
    trained_on: TrainedOn
    creator_task: str

    def __post_init__(self):
        params = {k: freeze_array(v) for k, v in self.params.items()}
        opt = {k: freeze_array(v) for k, v in (self.optimizer_state or {}).items()}
        hist = tuple((str(t), int(s)) for t, s in self.trained_on)
        if self.kind != self.config.kind:
            raise ValidationError(f"kind {self.kind.value} differs from its config kind {self.config.kind.value}")
        expected = param_shapes(self.config)
        got = {k: tuple(v.shape) for k, v in params.items()}
        if got != expected:
            raise ValidationError(f"{self.kind.value} parameter shapes {got} do not match expected {expected}")
        if opt and {k: tuple(v.shape) for k, v in opt.items()} != expected:
            raise ValidationError(f"{self.kind.value} optimizer state must be empty or match every parameter")
        for name, arr in [*params.items(), *opt.items()]:
            if not np.isfinite(arr).all():
                raise ValidationError(f"non-finite values in tensor {name!r} of {self.kind.value}")
        lid = content_id(self.kind, self.config, params, opt, self.cloned_from, hist, self.creator_task)
        for name, value in (("params", params), ("optimizer_state", opt), ("trained_on", hist), ("id", lid)):
            object.__setattr__(self, name, value)

    @classmethod
    def create(cls, kind: LayerKind, config: LayerConfig, params: Mapping[str, np.ndarray],
               optimizer_state: Mapping[str, np.ndarray] | None, cloned_from: str | None,
               trained_on: Iterable[tuple[str, int]], creator_task: str) -> "LayerRecord":
        """Keyword constructor; the class itself freezes, checks and hashes."""
        return cls(kind=kind, config=config, params=params, optimizer_state=optimizer_state,
                   cloned_from=cloned_from, trained_on=trained_on, creator_task=creator_task)

    def param_count(self) -> int:
        return int(sum(a.size for a in self.params.values()))

    def last_trained_by(self) -> str:
        return self.trained_on[-1][0] if self.trained_on else self.creator_task


@dataclass
class ModelRecord:
    """A path through the layer DAG for one task, plus its genome and bookkeeping.

    `score`, once set on a retained model, is never mutated; `selection_counts`
    is live bookkeeping for parent sampling.
    """

    model_id: str
    task: str
    path: tuple[str, ...]
    genome: "Genome"
    score: float | None
    selection_counts: dict[str, int]
    parent: str | None
    train_steps_done: int
    created_seq: int

    @staticmethod
    def make_id(task: str, path: tuple[str, ...], genome: "Genome", parent: str | None,
                score: float | None, train_steps_done: int, created_seq: int) -> str:
        h = hashlib.sha256()
        h.update(canonical_json({
            "task": task, "path": list(path), "genome": genome.to_dict(),
            "parent": parent, "score": score, "steps": train_steps_done, "seq": created_seq,
        }).encode())
        return h.hexdigest()

    def selections_for(self, task: str) -> int:
        return self.selection_counts.get(task, 0)


class LayerStore:
    """Map from layer id to record, changed only by the calling thread (worker
    threads only read). Records are valid by construction, so inserting checks nothing."""

    def __init__(self):
        self._records: dict[str, LayerRecord] = {}

    def __contains__(self, layer_id: str) -> bool:
        return layer_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def ids(self) -> list[str]:
        return sorted(self._records)

    def get(self, layer_id: str) -> LayerRecord:
        try:
            return self._records[layer_id]
        except KeyError:
            raise InvariantError(f"layer {layer_id} not in store") from None

    def insert(self, record: LayerRecord) -> str:
        """Insert a record; returns its id. Equal ids mean equal content, so re-inserting is a no-op."""
        self._records.setdefault(record.id, record)
        return record.id

    def remove(self, layer_id: str) -> None:
        self._records.pop(layer_id, None)


@dataclass
class PendingIteration:
    """Mid-iteration snapshot taken at a generation barrier, for kill-and-resume."""

    task: str
    generation_done: int
    econfig: "EvolutionConfig"
    active_models: list[ModelRecord] = field(default_factory=list)


@dataclass
class SystemState:
    """The whole multitask system; everything a checkpoint must capture."""

    store: LayerStore
    arch: ArchConfig
    tasks: dict[str, "TaskSpec"]
    retained_models: dict[str, ModelRecord]
    rng_seed: int
    generation_counter: int = 0
    model_seq: int = 0
    pending: PendingIteration | None = None

    def next_model_seq(self) -> int:
        seq = self.model_seq
        self.model_seq += 1
        return seq

    def check_model(self, model: ModelRecord) -> None:
        """Check a model where it enters the state, so nothing that runs it checks again:
        its layers are stored, their kinds run patch embedding, class token, position
        embedding, transformer*, head, each has the config the arch gives its kind (one
        hidden dim, one token grid), a registered task's head has one output per class,
        and `model_id` is the hash of the record."""
        configs = [self.store.get(lid).config for lid in model.path]
        kinds = [c.kind for c in configs]
        if kinds != [*PATH_PREFIX, *[LayerKind.TRANSFORMER] * (len(kinds) - 4), LayerKind.HEAD]:
            raise InvariantError(f"model {model.model_id} path kinds {[k.value for k in kinds]} are not "
                                 "patch_embedding, class_token, position_embedding, transformer*, head")
        for lid, c in zip(model.path, configs):
            if c != self.arch.layer_config(c.kind, num_classes=c.num_classes):
                raise InvariantError(f"model {model.model_id} layer {lid} config {c.to_dict()} differs from the arch")
        spec = self.tasks.get(model.task)
        if spec is not None and configs[-1].num_classes != spec.num_classes:
            raise ValidationError(f"head for task {model.task!r} must have {spec.num_classes} outputs, "
                                  f"got {configs[-1].num_classes}")
        if model.model_id != ModelRecord.make_id(model.task, model.path, model.genome, model.parent,
                                                 model.score, model.train_steps_done, model.created_seq):
            raise InvariantError(f"model id {model.model_id} is not the hash of its record")

    def validate_references(self) -> None:
        models = list(self.retained_models.values())
        if self.pending is not None:
            models += self.pending.active_models
        for m in models:
            self.check_model(m)


def reachable_layers(state: SystemState) -> set[str]:
    """Layer ids on any retained (or mid-iteration active) model's path."""
    reach: set[str] = set()
    for m in state.retained_models.values():
        reach.update(m.path)
    if state.pending is not None:
        for m in state.pending.active_models:
            reach.update(m.path)
    return reach


def garbage_collect(state: SystemState) -> int:
    """Remove every layer reachable from no retained model; returns the count removed."""
    reach = reachable_layers(state)
    doomed = [lid for lid in state.store.ids() if lid not in reach]
    for lid in doomed:
        state.store.remove(lid)
    return len(doomed)


def provenance_report(model: ModelRecord, store: LayerStore) -> dict[str, float]:
    """Fraction of ancestral training steps per task, over the model's path.

    Sums are accumulated in exact integers; a model with zero recorded steps is
    attributed entirely to its own task.
    """
    steps: dict[str, int] = {}
    for lid in model.path:
        for task, n in store.get(lid).trained_on:
            steps[task] = steps.get(task, 0) + int(n)
    total = sum(steps.values())
    if total == 0:
        return {model.task: 1.0}
    return {task: n / total for task, n in sorted(steps.items())}
