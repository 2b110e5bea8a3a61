"""Immutable, content-addressed store of trained layers plus the whole-system state.

A layer is frozen the moment it is inserted: its id is a hash of parameters,
optimizer state and lineage metadata, the arrays are read-only, and the store
exposes no write path. Models are paths of layer ids; only the best model per
task is retained, and layers that no retained model reaches are collected.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .errors import CorruptionError, InvariantError, ValidationError
from .nn.config import ArchConfig, LayerConfig, LayerKind
from .nn.layers import param_shapes
from .util import canonical_json, freeze_array

if TYPE_CHECKING:  # pragma: no cover
    from .mutation import Genome
    from .tasks import TaskSpec

TrainedOn = tuple[tuple[str, int], ...]


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
    """A frozen block of trained parameters with lineage and provenance."""

    id: str
    kind: LayerKind
    config: LayerConfig
    params: Mapping[str, np.ndarray]
    optimizer_state: Mapping[str, np.ndarray]
    cloned_from: str | None
    trained_on: TrainedOn
    creator_task: str

    @classmethod
    def create(cls, kind: LayerKind, config: LayerConfig, params: Mapping[str, np.ndarray],
               optimizer_state: Mapping[str, np.ndarray] | None, cloned_from: str | None,
               trained_on: Iterable[tuple[str, int]], creator_task: str) -> "LayerRecord":
        """Freeze arrays to read-only float32 and compute the content id."""
        frozen_params = {k: freeze_array(v) for k, v in params.items()}
        frozen_opt = {k: freeze_array(v) for k, v in (optimizer_state or {}).items()}
        hist = tuple((str(t), int(s)) for t, s in trained_on)
        lid = content_id(kind, config, frozen_params, frozen_opt, cloned_from, hist, creator_task)
        return cls(id=lid, kind=kind, config=config, params=frozen_params,
                   optimizer_state=frozen_opt, cloned_from=cloned_from,
                   trained_on=hist, creator_task=creator_task)

    def param_count(self) -> int:
        return int(sum(a.size for a in self.params.values()))

    def last_trained_by(self) -> str:
        return self.trained_on[-1][0] if self.trained_on else self.creator_task

    def bit_equal(self, other: "LayerRecord") -> bool:
        if (self.kind, self.cloned_from, self.trained_on, self.creator_task) != \
           (other.kind, other.cloned_from, other.trained_on, other.creator_task):
            return False
        for mine, theirs in ((self.params, other.params), (self.optimizer_state, other.optimizer_state)):
            if mine.keys() != theirs.keys():
                return False
            for k in mine:
                if mine[k].shape != theirs[k].shape or mine[k].tobytes() != theirs[k].tobytes():
                    return False
        return True


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
    """Reference store: concurrent readers, serialized inserts, publish-after-freeze."""

    def __init__(self):
        self._records: dict[str, LayerRecord] = {}
        self._lock = threading.Lock()

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
        """Insert a frozen record; returns its id. Re-inserting identical content is a no-op."""
        self._validate(record)
        with self._lock:
            existing = self._records.get(record.id)
            if existing is not None:
                if not existing.bit_equal(record):
                    raise CorruptionError(f"layer id {record.id} already present with different contents")
                return record.id
            self._records[record.id] = record
        return record.id

    def remove(self, layer_id: str) -> None:
        with self._lock:
            self._records.pop(layer_id, None)

    def _validate(self, record: LayerRecord) -> None:
        expected = param_shapes(record.config)
        got = {k: tuple(v.shape) for k, v in record.params.items()}
        if got != expected:
            raise ValidationError(
                f"{record.kind.value} parameter shapes {got} do not match expected {expected}"
            )
        for name, arr in list(record.params.items()) + list(record.optimizer_state.items()):
            if not np.isfinite(arr).all():
                raise ValidationError(f"non-finite values in tensor {name!r} of {record.kind.value}")
            if arr.dtype != np.float32:
                raise ValidationError(f"store holds float32 only, got {arr.dtype} for {name!r}")
        for name in record.optimizer_state:
            if name not in record.params:
                raise ValidationError(f"optimizer state {name!r} has no matching parameter")
        actual_id = content_id(record.kind, record.config, record.params, record.optimizer_state,
                               record.cloned_from, record.trained_on, record.creator_task)
        if actual_id != record.id:
            raise CorruptionError(f"record id {record.id} does not match content hash {actual_id}")


@dataclass
class PendingIteration:
    """Mid-iteration snapshot taken at a generation barrier, for kill-and-resume."""

    task: str
    generation_done: int
    econfig: dict
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
    history_offset: int = 0  # children reported so far, aligns report streams with checkpoints
    pending: PendingIteration | None = None

    def next_model_seq(self) -> int:
        seq = self.model_seq
        self.model_seq += 1
        return seq

    def check_head_width(self, model: ModelRecord) -> None:
        """A model of a registered task must end in a head with one output per class."""
        spec = self.tasks.get(model.task)
        if spec is None:
            return
        width = self.store.get(model.path[-1]).config.num_classes
        if width != spec.num_classes:
            raise ValidationError(f"head for task {model.task!r} must have {spec.num_classes} outputs, got {width}")

    def validate_references(self) -> None:
        models = list(self.retained_models.values())
        if self.pending is not None:
            models += self.pending.active_models
        for m in models:
            for lid in m.path:
                if lid not in self.store:
                    raise InvariantError(f"model {m.model_id} references missing layer {lid}")
            self.check_head_width(m)


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
