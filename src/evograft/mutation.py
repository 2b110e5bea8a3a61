"""Sampling and applying the mutation set: hyperparameter neighbor steps, layer
cloning, the mandatory trainable head, and the optional insert-layer action.

Every eligible item (each hyperparameter, each cloneable non-head layer, and
the insertion when enabled) is flagged independently with probability mu taken
from the parent's genome. Flagged hyperparameters step to a uniformly chosen
adjacent value in their sorted list; at a list end the single neighbor is
taken with probability 1. Booleans flip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

from .errors import AclError, ConfigError, ValidationError
from .nn.config import LayerConfig, LayerKind, OptimizerConfig, PreprocConfig
from .nn.layers import init_params
from .store import LayerRecord, LayerStore, ModelRecord, TrainedOn

if TYPE_CHECKING:  # pragma: no cover
    from .tasks import TaskSpec


@dataclass(frozen=True)
class Genome:
    """One full hyperparameter assignment, including the mutation probability itself."""

    mu: float = 0.20
    learning_rate: float = 0.01
    warmup_ratio: float = 0.1
    momentum: float = 0.9
    nesterov: bool = False
    crop: bool = True
    crop_area_min: float = 0.05
    crop_aspect_min: float = 0.75
    flip_lr: bool = True
    brightness_delta: float = 0.0
    contrast_delta: float = 0.0
    saturation_delta: float = 0.0
    hue_delta: float = 0.0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "Genome":
        return cls(**{f.name: d[f.name] for f in fields(cls)})

    def optimizer_config(self, total_steps: int) -> OptimizerConfig:
        return OptimizerConfig(learning_rate=self.learning_rate, warmup_ratio=self.warmup_ratio,
                               momentum=self.momentum, nesterov=self.nesterov,
                               total_steps=total_steps, clip_norm=1.0)

    def preproc_config(self) -> PreprocConfig:
        return PreprocConfig(crop=self.crop, crop_area_min=self.crop_area_min,
                             crop_aspect_min=self.crop_aspect_min, flip_lr=self.flip_lr,
                             brightness_delta=self.brightness_delta, contrast_delta=self.contrast_delta,
                             saturation_delta=self.saturation_delta, hue_delta=self.hue_delta)


GENOME_FIELDS = tuple(f.name for f in fields(Genome))


class SearchSpace:
    """Sorted value lists per hyperparameter; the shipped default is the standard space."""

    def __init__(self, table: dict[str, dict]):
        self.values: dict[str, tuple] = {}
        self.defaults: dict[str, object] = {}
        for name in GENOME_FIELDS:
            if name not in table:
                raise ConfigError(f"search space missing field {name!r}")
            vals = list(table[name]["values"])
            if sorted(vals) != vals:
                raise ConfigError(f"search space values for {name!r} must be sorted")
            if table[name]["default"] not in vals:
                raise ConfigError(f"default for {name!r} not in its value list")
            self.values[name] = tuple(vals)
            self.defaults[name] = table[name]["default"]

    @classmethod
    def default(cls) -> "SearchSpace":
        text = resources.files("evograft").joinpath("data/search_space.json").read_text()
        return cls(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "SearchSpace":
        with open(path) as fh:
            return cls(json.load(fh))

    def default_genome(self) -> Genome:
        return Genome(**self.defaults)

    def validate_genome(self, genome: Genome) -> None:
        for name in GENOME_FIELDS:
            if getattr(genome, name) not in self.values[name]:
                raise ValidationError(f"genome field {name}={getattr(genome, name)} not in search space")

    def neighbor(self, name: str, current, rng: np.random.Generator):
        """Uniform choice among the at-most-two adjacent values in the sorted list."""
        vals = self.values[name]
        try:
            idx = vals.index(current)
        except ValueError:
            raise ValidationError(f"current value {current!r} for {name!r} not in its list") from None
        options = []
        if idx > 0:
            options.append(vals[idx - 1])
        if idx < len(vals) - 1:
            options.append(vals[idx + 1])
        if not options:
            raise ConfigError(f"search space for {name!r} has a single value; nothing to mutate")
        if len(options) == 1:
            return options[0]
        return options[int(rng.integers(0, 2))]


@dataclass(frozen=True)
class MutationSet:
    """The sampled set of actions to derive a child from its parent."""

    hyper_mutations: tuple[tuple[str, object], ...]
    cloned_positions: frozenset[int]
    inserted_layers: tuple[tuple[int, LayerConfig], ...]
    new_head: bool

    def describe(self) -> dict:
        return {
            "hyper": [[n, v] for n, v in self.hyper_mutations],
            "cloned_positions": sorted(self.cloned_positions),
            "inserted_positions": [p for p, _ in self.inserted_layers],
            "new_head": self.new_head,
        }


def sample_mutations(parent: ModelRecord, child_task: "TaskSpec", allow_insert: bool,
                     rng: np.random.Generator, space: SearchSpace, store: LayerStore,
                     insert_config: LayerConfig | None = None) -> MutationSet:
    """Independently flag each eligible item with probability parent.genome.mu.

    The head is handled outside the mu draw: a task change forces a fresh head,
    otherwise the head position is always cloned so the child can train it.
    """
    mu = parent.genome.mu
    hyper: list[tuple[str, object]] = []
    for name in GENOME_FIELDS:
        if rng.random() < mu:
            hyper.append((name, space.neighbor(name, getattr(parent.genome, name), rng)))

    head_pos = len(parent.path) - 1
    cloned = set()
    for pos in range(head_pos):
        if rng.random() < mu:
            cloned.add(pos)

    inserted: list[tuple[int, LayerConfig]] = []
    if allow_insert:
        if insert_config is None:
            raise ConfigError("allow_insert requires an insert_config")
        if rng.random() < mu:
            inserted.append((head_pos, insert_config))

    new_head = parent.task != child_task.name
    if not new_head:
        cloned.add(head_pos)
    return MutationSet(hyper_mutations=tuple(hyper), cloned_positions=frozenset(cloned),
                       inserted_layers=tuple(inserted), new_head=new_head)


@dataclass
class WorkLayer:
    """A trainable, not-yet-frozen layer owned by one child during training."""

    config: LayerConfig
    params: dict[str, np.ndarray]
    opt_state: dict[str, np.ndarray]
    cloned_from: str | None
    base_trained_on: TrainedOn

    @property
    def kind(self) -> LayerKind:
        return self.config.kind


@dataclass
class ChildModel:
    """An untrained child: frozen layer references interleaved with WorkLayers."""

    task: str
    genome: Genome
    entries: list  # str (frozen LayerId) | WorkLayer (trainable)
    parent_id: str
    mutations: MutationSet

    def work_layers(self) -> list[tuple[int, WorkLayer]]:
        return [(i, e) for i, e in enumerate(self.entries) if isinstance(e, WorkLayer)]


def _clone_work_layer(src: LayerRecord) -> WorkLayer:
    params = {k: np.array(v, dtype=np.float32) for k, v in src.params.items()}
    opt = {k: np.array(v, dtype=np.float32) for k, v in src.optimizer_state.items()}
    return WorkLayer(config=src.config, params=params, opt_state=opt,
                     cloned_from=src.id, base_trained_on=src.trained_on)


def apply_mutations(parent: ModelRecord, delta: MutationSet, store: LayerStore,
                    rng: np.random.Generator, child_task: "TaskSpec",
                    acl_check=None) -> ChildModel:
    """Materialize the child: cloned positions copy parameters and momentum from
    the record that last trained them, non-cloned positions are shared frozen,
    inserted layers are freshly initialized, and the genome absorbs the
    hyperparameter steps. The parent is never touched.
    """
    genome = replace(parent.genome, **dict(delta.hyper_mutations))
    head_pos = len(parent.path) - 1
    inserts = {pos: cfg for pos, cfg in delta.inserted_layers}

    entries: list = []
    for pos, lid in enumerate(parent.path):
        if pos in inserts:
            cfg = inserts[pos]
            entries.append(WorkLayer(config=cfg, params=init_params(cfg, rng),
                                     opt_state={}, cloned_from=None, base_trained_on=()))
        record = store.get(lid)
        if pos == head_pos and delta.new_head:
            head_cfg = LayerConfig(LayerKind.HEAD, record.config.hidden_dim,
                                   num_classes=child_task.num_classes)
            entries.append(WorkLayer(config=head_cfg, params=init_params(head_cfg, rng),
                                     opt_state={}, cloned_from=None, base_trained_on=()))
            continue
        if acl_check is not None and not acl_check(record):
            raise AclError(
                f"task {child_task.name!r} may not reuse layer {record.id} "
                f"(provenance {[t for t, _ in record.trained_on]})"
            )
        if pos in delta.cloned_positions:
            entries.append(_clone_work_layer(record))
        else:
            entries.append(lid)

    return ChildModel(task=child_task.name, genome=genome, entries=entries,
                      parent_id=parent.model_id, mutations=delta)
