"""The active-task iteration engine: parent sampling, child training with
intermediate validation, and best-model retention.

One iteration runs num_generations generations of children_per_generation
children each; the pending iteration holds the active population, starting
from the task's retained model. Parents and mutations for a whole generation
are sampled up front in child order (so results are independent of training
parallelism), children train privately against shared frozen state, and
survivors join the population at the generation barrier. Before a generation
trains, the validation activations of each distinct frozen prefix are computed
once, so a child validates by running only its trainable suffix. At the end
exactly the best scoring model for the task is retained and unreachable layers
are collected; the `children.jsonl` rows are the only record of the other
children.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ConfigError, InvariantError
from .mutation import ChildModel, SearchSpace, WorkLayer, apply_mutations, sample_mutations
from .nn.config import LayerKind
from .nn.network import PathLayer, backward, forward, run
from .nn.optim import sgd_step
from .nn.preprocess import preprocess
from .store import (LayerRecord, LayerStore, ModelRecord, PendingIteration, SystemState,
                    garbage_collect)
from .tasks import TaskSpec, acl_allows, model_allowed
from .util import derive_seed, is_count, make_rng

EVAL_BATCH = 64


@dataclass(frozen=True)
class EvolutionConfig:
    """Loop bounds for one active-task iteration."""

    num_generations: int
    children_per_generation: int
    train_cycles: int
    samples_cap: int
    batch_size: int = 16
    allow_insert: bool = False

    def __post_init__(self) -> None:
        """Counts must be ints >= 1 and allow_insert a bool; each message starts with the field name."""
        for name in ("num_generations", "children_per_generation", "train_cycles",
                     "samples_cap", "batch_size"):
            if not is_count(getattr(self, name)):
                raise ConfigError(f"{name}: must be a positive integer")
        if not isinstance(self.allow_insert, bool):
            raise ConfigError("allow_insert: must be true or false")

    @classmethod
    def from_dict(cls, d: dict) -> "EvolutionConfig":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})


def rank_models(models: Iterable[ModelRecord]) -> list[ModelRecord]:
    """Score descending (unscored last), earlier-created first among equals."""
    return sorted(models, key=lambda m: (-m.score if m.score is not None else math.inf, m.created_seq))


def materialize_path(entries: Iterable[str | WorkLayer], store: LayerStore) -> list[PathLayer]:
    """Network layers for a path: stored layer ids are frozen, work layers trainable."""
    layers = []
    for entry in entries:
        if isinstance(entry, WorkLayer):
            layers.append(PathLayer(config=entry.config, params=entry.params, trainable=True))
        else:
            rec = store.get(entry)
            layers.append(PathLayer(config=rec.config, params=rec.params, trainable=False))
    return layers


def frozen_inputs(path: list[PathLayer], task: TaskSpec, split: str,
                  stop: int) -> tuple[int, list[np.ndarray]]:
    """(stop, chunks) for `score_path`: the read-only activations entering path[stop],
    one array per EVAL_BATCH chunk of the split, in order, after eval-mode
    preprocessing. They hold for every path with the same path[:stop] layers and
    resolution; with stop = len(path) they are the path's logits."""
    ds = task.splits[split]
    resolution = path[0].config.image_resolution
    chunks = []
    for start in range(0, len(ds), EVAL_BATCH):
        images, _ = ds.batch(np.arange(start, min(start + EVAL_BATCH, len(ds))))
        x = run(path[:stop], preprocess(images, None, train_mode=False, rng=None,
                                        resolution=resolution))
        x.setflags(write=False)
        chunks.append(x)
    return stop, chunks


def score_path(path: list[PathLayer], task: TaskSpec, split: str,
               inputs: tuple[int, list[np.ndarray]] | None = None) -> float:
    """Top-1 accuracy with eval-mode preprocessing, deterministic iteration order.

    Given `inputs` from `frozen_inputs(path, task, split, start)`, only path[start:]
    runs, on the same chunks, so the score is the same to the bit.
    """
    start, chunks = inputs or frozen_inputs(path, task, split, len(path))
    labels = task.splits[split].labels
    correct = 0
    for i, x in enumerate(chunks):
        logits = run(path[start:], x)
        correct += int((logits.argmax(axis=1) == labels[i * EVAL_BATCH:(i + 1) * EVAL_BATCH]).sum())
    return correct / len(labels)


def score_model(model: ModelRecord, task: TaskSpec, store: LayerStore,
                split: str = "validation") -> float:
    return score_path(materialize_path(model.path, store), task, split)


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


def sample_parent(active: list[ModelRecord], others: list[ModelRecord], task: TaskSpec,
                  rng: np.random.Generator, store: LayerStore,
                  registry: dict[str, TaskSpec]) -> ModelRecord:
    """ACL-filter candidates, draw a parent, and increment its selection count."""
    allowed_others = [m for m in others if model_allowed(task, m.path, store, registry)]
    active_sorted = rank_models(active)
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
    snapshot: dict[int, tuple[dict, dict]] | None = None  # pos -> (params, opt_state)
    steps_at_best: int = 0
    diverged: bool = False


def train_child(child: ChildModel, task: TaskSpec, cfg: EvolutionConfig,
                rng: np.random.Generator, store: LayerStore,
                parent_score_on_task: float | None,
                val_inputs: tuple[int, list[np.ndarray]] | None = None) -> TrainResult:
    """Run train_cycles cycles of min(1 epoch, samples_cap) samples each,
    validating after every cycle, and keep the snapshot of the best cycle that
    meets the retention condition (>= own best so far and >= the parent's score
    when the parent was trained on this task). Frozen layers are untouched.

    Validation runs from the lowest trainable layer up, on `val_inputs`: the
    child's `frozen_inputs` on the validation split, computed here if not given.
    """
    path = materialize_path(child.entries, store)
    work = child.work_layers()
    if not work:
        raise InvariantError("child has no trainable layer; the head must be trainable")
    train_ds = task.splits["train"]
    resolution = path[0].config.image_resolution
    if val_inputs is None:
        val_inputs = frozen_inputs(path, task, "validation", work[0][0])
    n_cycle = cycle_sample_count(len(train_ds), cfg.samples_cap)
    steps_per_cycle = math.ceil(n_cycle / cfg.batch_size)
    opt_cfg = child.genome.optimizer_config(total_steps=cfg.train_cycles * steps_per_cycle)

    params = {(pos, name): wl.params[name] for pos, wl in work for name in wl.params}
    # Cloning copied the momentum to float32 already, and sgd_step never writes its inputs.
    velocity = {(pos, name): wl.opt_state[name] if name in wl.opt_state else np.zeros_like(p)
                for pos, wl in work for name, p in wl.params.items()}

    threshold = parent_score_on_task if parent_score_on_task is not None else -math.inf
    result = TrainResult(cycle_scores=[])
    step = 0
    # Divergence is handled explicitly (non-finite loss/grads reject the child),
    # so numpy's transient overflow warnings are just noise here.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(cfg.train_cycles):
            perm = rng.permutation(len(train_ds))[:n_cycle]
            for start in range(0, n_cycle, cfg.batch_size):
                images, labels = train_ds.batch(perm[start:start + cfg.batch_size])
                tape = forward(path, preprocess(images, child.genome, train_mode=True,
                                                rng=rng, resolution=resolution))
                loss, grads = backward(tape, labels)
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
            score = score_path(path, task, "validation", val_inputs)
            result.cycle_scores.append(score)
            best = result.best_score if result.best_score is not None else -math.inf
            if score >= max(best, threshold):
                result.best_score = score
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
    state.check_model(model)
    return model


def run_task_iteration(state: SystemState, task_name: str, cfg: EvolutionConfig,
                       space: SearchSpace | None = None,
                       on_generation=None, workers: int = 1) -> list[dict]:
    """One full active-task iteration (resumable at generation barriers); returns
    one report row per child.

    `workers` threads train each generation's children (one: this thread); results do not depend on it.
    """
    space = space or SearchSpace.default()
    if task_name not in state.tasks:
        raise ConfigError(f"task {task_name!r} is not registered")
    task = state.tasks[task_name]
    task.splits  # builds a loaded task's data here, on the calling thread, before any child trains
    insert_cfg = state.arch.layer_config(LayerKind.TRANSFORMER)

    if state.pending is None:
        members = sorted((m for m in state.retained_models.values() if m.task == task_name),
                         key=lambda m: m.created_seq)
        state.pending = PendingIteration(task=task_name, generation_done=0,
                                         econfig=cfg, active_models=members)
    elif state.pending.task != task_name or state.pending.econfig != cfg:
        raise ConfigError("a different iteration is pending; resume it with its own task and config")
    active = state.pending.active_models

    rows = []
    for gen in range(state.pending.generation_done, cfg.num_generations):
        gen_id = state.generation_counter
        # Canonical candidate order (creation sequence): dict order would differ
        # between a live run and a reloaded checkpoint, breaking resume replay.
        others = sorted((m for m in state.retained_models.values() if m.task != task_name),
                        key=lambda m: m.created_seq)
        planned = []
        for ci in range(cfg.children_per_generation):
            crng = make_rng(derive_seed(state.rng_seed, task_name, gen_id, ci))
            parent = sample_parent(active, others, task, crng, state.store, state.tasks)
            delta = sample_mutations(parent, task, cfg.allow_insert, crng, space,
                                     insert_config=insert_cfg)
            child = apply_mutations(parent, delta, state.store, crng, task,
                                    acl_check=lambda rec: acl_allows(task, rec, state.tasks))
            parent_score = parent.score if parent.task == task_name else None
            planned.append((delta, child, crng, parent_score))

        # Each distinct frozen prefix's validation activations, computed once on this
        # thread before any child trains; the pool only reads them.
        val_inputs, child_inputs = {}, []
        for _, child, _, _ in planned:
            stop = child.work_layers()[0][0]
            key = tuple(child.entries[:stop])  # check_model gives every path the arch's resolution
            if key not in val_inputs:
                path = materialize_path(child.entries, state.store)
                val_inputs[key] = frozen_inputs(path, task, "validation", stop)
            child_inputs.append(val_inputs[key])

        def train(p, inputs):
            return train_child(p[1], task, cfg, p[2], state.store, p[3], inputs)

        # A pool thread for one worker made the latency of later commands vary per process.
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(train, planned, child_inputs))
        else:
            results = list(map(train, planned, child_inputs))

        for ci, ((delta, child, _, _), result) in enumerate(zip(planned, results)):
            record = None
            if result.snapshot is not None and not result.diverged:
                record = finalize_child(state, task, child, result)
                active.append(record)
            rows.append({
                "task": task_name, "generation": gen_id, "child_index": ci,
                "parent_id": child.parent_id,
                "model_id": record.model_id if record else None,
                "mutations": delta.describe(),
                "cycle_scores": result.cycle_scores,
                "diverged": result.diverged,
                "retained": record is not None,
            })
        state.generation_counter += 1
        state.pending.generation_done = gen + 1
        if on_generation is not None:
            on_generation(state, gen)

    # Keep only the best model for the task; earlier-created wins ties.
    if active:
        best = rank_models(active)[0]
        previous = state.retained_models.get(task_name)
        if previous is not None and previous.score is not None and best.score is not None \
                and best.score < previous.score:
            raise InvariantError("retention would decrease the task's score")
        state.retained_models[task_name] = best
    state.pending = None
    garbage_collect(state)
    return rows
