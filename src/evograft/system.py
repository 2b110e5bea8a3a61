"""System bootstrap: build the root model and register tasks."""

from __future__ import annotations

from .errors import ConfigError
from .mutation import SearchSpace
from .nn.config import ArchConfig, LayerKind
from .nn.layers import init_params
from .store import LayerRecord, LayerStore, ModelRecord, SystemState
from .tasks import ROOT_TASK, TaskSpec
from .util import derive_seed, make_rng

ROOT_HEAD_CLASSES = 2  # placeholder width; real tasks always mint a fresh head


def build_root_state(arch: ArchConfig, seed: int,
                     space: SearchSpace | None = None) -> SystemState:
    """A fresh system seeded with a randomly initialized root model stripped of
    transformer layers: patch embedding, class token, position embedding, head."""
    space = space or SearchSpace.default()
    state = SystemState(store=LayerStore(), arch=arch, tasks={}, retained_models={}, rng_seed=seed)
    rng = make_rng(derive_seed(seed, "root-init"))
    path = []
    for kind in (LayerKind.PATCH_EMBEDDING, LayerKind.CLASS_TOKEN,
                 LayerKind.POSITION_EMBEDDING, LayerKind.HEAD):
        cfg = arch.layer_config(kind, num_classes=ROOT_HEAD_CLASSES if kind == LayerKind.HEAD else None)
        record = LayerRecord.create(kind=kind, config=cfg, params=init_params(cfg, rng),
                                    optimizer_state=None, cloned_from=None,
                                    trained_on=(), creator_task=ROOT_TASK)
        path.append(state.store.insert(record))
    seq = state.next_model_seq()
    genome = space.default_genome()
    model_id = ModelRecord.make_id(ROOT_TASK, tuple(path), genome, None, None, 0, seq)
    state.retained_models[ROOT_TASK] = ModelRecord(
        model_id=model_id, task=ROOT_TASK, path=tuple(path), genome=genome, score=None,
        selection_counts={}, parent=None, train_steps_done=0, created_seq=seq)
    state.check_model(state.retained_models[ROOT_TASK])
    return state


def register_task(state: SystemState, spec: TaskSpec) -> None:
    if spec.name == ROOT_TASK:
        raise ConfigError(f"{ROOT_TASK!r} is a reserved task name")
    existing = state.tasks.get(spec.name)
    if existing is not None and existing.recipe != spec.recipe:
        raise ConfigError(f"task {spec.name!r} already registered with a different recipe")
    if spec.input_shape[2] != state.arch.channels:
        raise ConfigError(
            f"task {spec.name!r} has {spec.input_shape[2]} channels, system expects {state.arch.channels}"
        )
    state.tasks[spec.name] = spec
