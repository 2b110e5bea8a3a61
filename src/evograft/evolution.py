"""The active-task iteration engine: parent sampling, child training with
intermediate validation, early pruning, best-model retention, and replicated
schedules.

One iteration runs num_generations generations of children_per_generation
children each. Parents and mutations for a whole generation are sampled
up front in child order (so results are independent of training parallelism),
children train privately against shared frozen state, and survivors join the
active population at the generation barrier. At the end exactly the best
scoring model for the task is retained; everything else becomes archive
metadata and unreachable layers are collected.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, InvariantError
from .mutation import ChildModel, SearchSpace, WorkLayer, apply_mutations, sample_mutations
from .nn.config import LayerKind, PreprocConfig
from .nn.network import PathLayer, backward, forward
from .nn.optim import sgd_step
from .nn.preprocess import preprocess
from .store import (ArchiveEntry, LayerRecord, LayerStore, ModelRecord, PendingIteration,
                    SystemState, garbage_collect)
from .tasks import TaskSpec, acl_allows, model_allowed
from .util import derive_seed, make_rng

EVAL_BATCH = 64


@dataclass(frozen=True)
class EvolutionConfig:
    """Loop bounds for one active-task iteration."""

    num_generations: int
    children_per_generation: int
    train_cycles: int
    samples_cap: int
    replica_seed: int | None = None
    batch_size: int = 16
    allow_insert: bool = False

    def validate(self) -> None:
        for name in ("num_generations", "children_per_generation", "train_cycles",
                     "samples_cap", "batch_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    @classmethod
    def from_dict(cls, d: dict) -> "EvolutionConfig":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})


@dataclass
class ActivePopulation:
    """Members trained on the active task, kept score-sorted for parent visits."""

    task: str
    members: list[ModelRecord] = field(default_factory=list)

    def sorted_by_score(self) -> list[ModelRecord]:
        return sorted(self.members,
                      key=lambda m: (-(m.score if m.score is not None else -math.inf),
                                     m.created_seq))

    def add(self, model: ModelRecord) -> None:
        if model.task != self.task:
            raise InvariantError(f"model for {model.task!r} cannot join {self.task!r}'s population")
        self.members.append(model)

    def best(self) -> ModelRecord | None:
        ranked = self.sorted_by_score()
        return ranked[0] if ranked else None


@dataclass
class IterationReport:
    task: str
    rows: list[dict] = field(default_factory=list)
    retained_model_id: str | None = None
    retained_score: float | None = None
    removed_layers: int = 0


def materialize_path(model: ModelRecord, store: LayerStore) -> list[PathLayer]:
    return [PathLayer(config=store.get(lid).config, params=store.get(lid).params, trainable=False)
            for lid in model.path]


def model_resolution(path: list[PathLayer]) -> int:
    if path[0].kind != LayerKind.PATCH_EMBEDDING:
        raise InvariantError("path does not start with a patch embedding")
    return path[0].config.image_resolution


def score_path(path: list[PathLayer], task: TaskSpec, split: str) -> float:
    """Top-1 accuracy with eval-mode preprocessing, deterministic iteration order."""
    ds = task.splits[split]
    resolution = model_resolution(path)
    correct = 0
    for start in range(0, len(ds), EVAL_BATCH):
        idx = np.arange(start, min(start + EVAL_BATCH, len(ds)))
        batch = preprocess(ds.batch(idx), PreprocConfig(), train_mode=False,
                           rng=None, resolution=resolution)
        tape = forward(path, batch.images)
        correct += int((tape.logits.argmax(axis=1) == batch.labels).sum())
    return correct / len(ds)


def score_model(model: ModelRecord, task: TaskSpec, store: LayerStore,
                split: str = "validation") -> float:
    return score_path(materialize_path(model, store), task, split)


def cycle_sample_count(train_size: int, samples_cap: int) -> int:
    """Samples per training cycle: min(1 epoch, samples_cap)."""
    return min(train_size, samples_cap)


def draw_parent(active_sorted: list[ModelRecord], others: list[ModelRecord],
                task_name: str, rng: np.random.Generator) -> ModelRecord:
    """One draw of the visit/accept/fallback process (no bookkeeping).

    Visits the active population in descending score order accepting each
    candidate with probability 0.5 ** selections, then the remaining system
    models in a uniformly random order under the same rule, and finally falls
    back to a uniform choice over every candidate.
    """
    for m in active_sorted:
        if rng.random() < 0.5 ** m.selections_for(task_name):
            return m
    if others:
        for j in rng.permutation(len(others)):
            m = others[int(j)]
            if rng.random() < 0.5 ** m.selections_for(task_name):
                return m
    pool = active_sorted + others
    return pool[int(rng.integers(0, len(pool)))]


def sample_parent(active: ActivePopulation, others: list[ModelRecord], task: TaskSpec,
                  rng: np.random.Generator, store: LayerStore,
                  registry: dict[str, TaskSpec]) -> ModelRecord:
    """ACL-filter candidates, draw a parent, and increment its selection count."""
    allowed_others = [m for m in others if model_allowed(task, m.path, store, registry)]
    active_sorted = active.sorted_by_score()
    if not active_sorted and not allowed_others:
        raise ConfigError(f"no ACL-permitted parent candidates exist for task {task.name!r}")
    chosen = draw_parent(active_sorted, allowed_others, task.name, rng)
    chosen.selection_counts[task.name] = chosen.selections_for(task.name) + 1
    return chosen


@dataclass
class TrainResult:
    """Outcome of one child training run, before any store mutation."""

    cycle_scores: list[float]
    best_score: float | None = None
    best_cycle: int | None = None
    snapshot: dict[int, tuple[dict, dict]] | None = None  # pos -> (params, opt_state)
    steps_at_best: int = 0
    diverged: bool = False


def _child_path_layers(child: ChildModel, store: LayerStore) -> list[PathLayer]:
    layers = []
    for entry in child.entries:
        if isinstance(entry, WorkLayer):
            layers.append(PathLayer(config=entry.config, params=entry.params, trainable=True))
        else:
            rec = store.get(entry)
            layers.append(PathLayer(config=rec.config, params=rec.params, trainable=False))
    return layers


def train_child(child: ChildModel, task: TaskSpec, cfg: EvolutionConfig,
                rng: np.random.Generator, store: LayerStore,
                parent_score_on_task: float | None) -> TrainResult:
    """Run train_cycles cycles of min(1 epoch, samples_cap) samples each,
    validating after every cycle, and keep the snapshot of the best cycle that
    meets the retention condition (>= own best so far and >= the parent's score
    when the parent was trained on this task). Frozen layers are untouched.
    """
    path = _child_path_layers(child, store)
    work = child.work_layers()
    if not work:
        raise InvariantError("child has no trainable layer; the head must be trainable")
    train_ds = task.splits["train"]
    resolution = model_resolution(path)
    n_cycle = cycle_sample_count(len(train_ds), cfg.samples_cap)
    steps_per_cycle = math.ceil(n_cycle / cfg.batch_size)
    opt_cfg = child.genome.optimizer_config(total_steps=cfg.train_cycles * steps_per_cycle)
    pre_cfg = child.genome.preproc_config()

    params = {(pos, name): wl.params[name] for pos, wl in work for name in wl.params}
    velocity = {}
    for pos, wl in work:
        for name in wl.params:
            v = wl.opt_state.get(name)
            velocity[(pos, name)] = (np.array(v, np.float32) if v is not None
                                     else np.zeros_like(wl.params[name]))

    threshold = parent_score_on_task if parent_score_on_task is not None else -math.inf
    result = TrainResult(cycle_scores=[])
    step = 0
    # Divergence is handled explicitly (non-finite loss/grads reject the child),
    # so numpy's transient overflow warnings are just noise here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for cycle in range(cfg.train_cycles):
            perm = rng.permutation(len(train_ds))[:n_cycle]
            for start in range(0, n_cycle, cfg.batch_size):
                batch = preprocess(train_ds.batch(perm[start:start + cfg.batch_size]),
                                   pre_cfg, train_mode=True, rng=rng, resolution=resolution)
                tape = forward(path, batch.images)
                loss, grads = backward(tape, batch.labels)
                if not math.isfinite(loss):
                    result.diverged = True
                    return result
                flat_grads = {(pos, name): g for pos, per in grads.items() for name, g in per.items()}
                params, velocity, ok = sgd_step(params, flat_grads, velocity, opt_cfg, step)
                if not ok:
                    result.diverged = True
                    return result
                for pos, wl in work:
                    for name in wl.params:
                        wl.params[name] = params[(pos, name)]
                step += 1
            if not all(np.isfinite(p).all() for p in params.values()):
                result.diverged = True
                return result
            score = score_path(path, task, "validation")
            result.cycle_scores.append(score)
            best = result.best_score if result.best_score is not None else -math.inf
            if score >= max(best, threshold):
                result.best_score = score
                result.best_cycle = cycle
                result.steps_at_best = step
                result.snapshot = {
                    pos: ({n: wl.params[n].copy() for n in wl.params},
                          {n: velocity[(pos, n)].copy() for n in wl.params})
                    for pos, wl in work
                }
    return result


def _merge_trained_on(base, task_name: str, steps: int):
    """Append the new training segment, merging with a trailing same-task entry."""
    hist = list(base)
    if hist and hist[-1][0] == task_name:
        hist[-1] = (task_name, hist[-1][1] + steps)
    else:
        hist.append((task_name, steps))
    return tuple(hist)


def finalize_child(state: SystemState, task: TaskSpec, child: ChildModel,
                   result: TrainResult) -> ModelRecord:
    """Freeze the best snapshot into the store and mint the child's model record."""
    path_ids: list[str] = []
    for pos, entry in enumerate(child.entries):
        if isinstance(entry, WorkLayer):
            snap_params, snap_opt = result.snapshot[pos]
            record = LayerRecord.create(
                kind=entry.kind, config=entry.config, params=snap_params,
                optimizer_state=snap_opt, cloned_from=entry.cloned_from,
                trained_on=_merge_trained_on(entry.base_trained_on, task.name, result.steps_at_best),
                creator_task=task.name,
            )
            path_ids.append(state.store.insert(record))
        else:
            path_ids.append(entry)
    seq = state.next_model_seq()
    model_id = ModelRecord.make_id(task.name, tuple(path_ids), child.genome, child.parent_id,
                                   result.best_score, result.steps_at_best, seq)
    model = ModelRecord(model_id=model_id, task=task.name, path=tuple(path_ids),
                        genome=child.genome, score=result.best_score, selection_counts={},
                        parent=child.parent_id, train_steps_done=result.steps_at_best,
                        created_seq=seq)
    state.check_head_width(model)
    return model


def run_task_iteration(state: SystemState, task_name: str, cfg: EvolutionConfig,
                       space: SearchSpace | None = None,
                       on_generation=None, workers: int = 1) -> IterationReport:
    """One full active-task iteration (resumable at generation barriers).

    `workers` threads train each generation's children; results do not depend on it.
    """
    cfg.validate()
    space = space or SearchSpace.default()
    if task_name not in state.tasks:
        raise ConfigError(f"task {task_name!r} is not registered")
    task = state.tasks[task_name]
    seed = cfg.replica_seed if cfg.replica_seed is not None else state.rng_seed
    insert_cfg = state.arch.layer_config(LayerKind.TRANSFORMER)

    if state.pending is not None:
        if state.pending.task != task_name or EvolutionConfig.from_dict(state.pending.econfig) != cfg:
            raise ConfigError("a different iteration is pending; resume it with its own task and config")
        active = ActivePopulation(task_name, list(state.pending.active_models))
        start_gen = state.pending.generation_done
        # Re-unify object identity after a checkpoint reload: the retained model
        # and its active-population entry must share selection-count bookkeeping.
        retained = state.retained_models.get(task_name)
        if retained is not None:
            for m in active.members:
                if m.model_id == retained.model_id:
                    state.retained_models[task_name] = m
                    break
    else:
        members = sorted((m for m in state.retained_models.values() if m.task == task_name),
                         key=lambda m: m.created_seq)
        active = ActivePopulation(task_name, members)
        start_gen = 0
        state.pending = PendingIteration(task=task_name, generation_done=0,
                                         econfig=asdict(cfg), active_models=list(members))

    report = IterationReport(task=task_name)
    for gen in range(start_gen, cfg.num_generations):
        gen_id = state.generation_counter
        # Canonical candidate order (creation sequence): dict order would differ
        # between a live run and a reloaded checkpoint, breaking resume replay.
        others = sorted((m for m in state.retained_models.values() if m.task != task_name),
                        key=lambda m: m.created_seq)
        planned = []
        for ci in range(cfg.children_per_generation):
            crng = make_rng(derive_seed(seed, task_name, gen_id, ci))
            parent = sample_parent(active, others, task, crng, state.store, state.tasks)
            delta = sample_mutations(parent, task, cfg.allow_insert, crng, space,
                                     state.store, insert_config=insert_cfg)
            child = apply_mutations(parent, delta, state.store, crng, task,
                                    acl_check=lambda rec: acl_allows(task, rec, state.tasks))
            parent_score = parent.score if parent.task == task_name else None
            planned.append((ci, parent, delta, child, crng, parent_score))

        def _run(item):
            ci, parent, delta, child, crng, parent_score = item
            return ci, train_child(child, task, cfg, crng, state.store, parent_score)

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = dict(pool.map(_run, planned))
        else:
            results = dict(_run(item) for item in planned)

        for ci, parent, delta, child, crng, parent_score in planned:
            result = results[ci]
            record = None
            if result.snapshot is not None and not result.diverged:
                record = finalize_child(state, task, child, result)
                active.add(record)
            row = {
                "task": task_name, "generation": gen_id, "child_index": ci,
                "parent_id": child.parent_id,
                "model_id": record.model_id if record else None,
                "mutations": delta.describe(),
                "cycle_scores": result.cycle_scores,
                "diverged": result.diverged,
                "retained": record is not None,
            }
            report.rows.append(row)
            state.history_offset += 1
        state.generation_counter += 1
        state.pending.generation_done = gen + 1
        state.pending.active_models = list(active.members)
        if on_generation is not None:
            on_generation(state, gen)

    # Keep only the best model for the task; earlier-created wins ties.
    if active.members:
        best = active.best()
        previous = state.retained_models.get(task_name)
        if previous is not None and previous.score is not None and best.score is not None \
                and best.score < previous.score:
            raise InvariantError("retention would decrease the task's score")
        for m in active.members:
            if m.model_id != best.model_id:
                state.archive.append(ArchiveEntry(model_id=m.model_id, task=m.task,
                                                  parent=m.parent, score=m.score,
                                                  path=m.path, created_seq=m.created_seq))
        state.retained_models[task_name] = best
        report.retained_model_id = best.model_id
        report.retained_score = best.score
    state.pending = None
    report.removed_layers = garbage_collect(state)
    return report


def clone_state(state: SystemState) -> SystemState:
    """Independent copy sharing immutable layer records (for system replicas)."""
    new_store = LayerStore()
    for lid in state.store.ids():
        new_store.insert(state.store.get(lid))
    pending = None
    if state.pending is not None:
        pending = PendingIteration(task=state.pending.task,
                                   generation_done=state.pending.generation_done,
                                   econfig=dict(state.pending.econfig),
                                   active_models=[m.clone_bookkeeping()
                                                  for m in state.pending.active_models])
    return SystemState(
        store=new_store, arch=state.arch, tasks=dict(state.tasks),
        retained_models={t: m.clone_bookkeeping() for t, m in state.retained_models.items()},
        archive=list(state.archive), rng_seed=state.rng_seed,
        generation_counter=state.generation_counter, model_seq=state.model_seq,
        history_offset=state.history_offset, pending=pending,
    )


def run_schedule(state: SystemState, schedule: list[tuple[str, EvolutionConfig]],
                 replicas: int = 1, space: SearchSpace | None = None,
                 on_iteration=None, workers: int = 1):
    """Execute the task sequence on `replicas` independent system copies.

    Returns (final states, per-task test accuracies per replica, variance
    report). Replica r runs with a seed derived from (state seed, r); the
    single-replica case runs on the state itself and reports zero-width
    deviations (std omitted).
    """
    from .accounting import variance_summary

    if replicas < 1:
        raise ConfigError("replicas must be >= 1")
    states = []
    for r in range(replicas):
        rep = state if replicas == 1 else clone_state(state)
        if replicas > 1:
            rep.rng_seed = derive_seed(state.rng_seed, "replica", r)
        states.append(rep)
    accuracies: dict[str, list[float]] = {}
    for r, rep in enumerate(states):
        for i, (task_name, cfg) in enumerate(schedule):
            report = run_task_iteration(rep, task_name, cfg, space=space, workers=workers)
            if on_iteration is not None:
                on_iteration(r, i, rep, report)
        for task_name, model in sorted(rep.retained_models.items()):
            if task_name == "root":
                continue
            acc = score_model(model, rep.tasks[task_name], rep.store, split="test")
            accuracies.setdefault(task_name, []).append(acc)
    samples_per_class = {name: spec.recipe.get("samples_per_class", 0)
                         for name, spec in states[0].tasks.items()}
    variance = variance_summary(accuracies, samples_per_class)
    return states, accuracies, variance
