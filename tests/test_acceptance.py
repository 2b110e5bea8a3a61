"""Acceptance suite: each criterion is one test that prints a pass line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines. The structural-reproduction run (three synthetic tasks, third private,
from-scratch stripped root, 2 iterations per task x 4 generations x 8
children, insert mutation enabled) executes once as a module fixture; the
determinism criterion re-executes it twice more (clean rerun, kill-and-resume).
"""

import json
import math
import time
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import evograft as eg
from evograft.accounting import graph_document, param_report
from evograft.errors import DataError
from evograft.evolution import (EvolutionConfig, draw_parent, run_task_iteration, score_model)
from evograft.mutation import GENOME_FIELDS, Genome, SearchSpace, sample_mutations
from evograft.nn import layers as L
from evograft.nn.config import ArchConfig, LayerConfig, LayerKind, OptimizerConfig
from evograft.nn.network import softmax_xent
from evograft.nn.optim import clip_by_global_norm, global_norm, lr_at, sgd_step
from evograft.persistence import MANIFEST, load, manifest_hash, save
from evograft.store import ModelRecord
from evograft.system import build_root_state, register_task
from evograft.tasks import AccessMode, AccessPolicy, make_synthetic_glyph_task

SEED = 20260808
TASKS = ("glyphs_a", "glyphs_b", "glyphs_priv")
PRIVATE_TASK = "glyphs_priv"
SCHEDULE = list(TASKS) * 2  # two active iterations per task, round robin
ECONFIG = EvolutionConfig(num_generations=4, children_per_generation=8, train_cycles=4,
                          samples_cap=512, batch_size=16, allow_insert=True)


def build_system(seed=SEED):
    state = build_root_state(ArchConfig(), seed=seed)
    for i, name in enumerate(TASKS):
        acl = AccessPolicy(AccessMode.PRIVATE) if name == PRIVATE_TASK else AccessPolicy()
        register_task(state, make_synthetic_glyph_task(
            name, num_classes=25, samples_per_class=30, noise=0.0, seed=100 + i, acl=acl))
    return state


@dataclass
class ExperimentArtifacts:
    state: object
    wall_seconds: float
    retained_score_history: dict
    checkpoint_dirs: list
    final_dir: Path


@pytest.fixture(scope="module")
def experiment(tmp_path_factory) -> ExperimentArtifacts:
    base = tmp_path_factory.mktemp("acceptance")
    state = build_system()
    history = {t: [] for t in TASKS}
    dirs = []
    t0 = time.time()
    for i, task in enumerate(SCHEDULE):
        run_task_iteration(state, task, ECONFIG)
        history[task].append(state.retained_models[task].score)
        ck = base / f"iter_{i:02d}_{task}"
        save(state, ck)
        dirs.append(ck)
    wall = time.time() - t0
    final_dir = base / "final"
    save(state, final_dir)
    return ExperimentArtifacts(state=state, wall_seconds=wall,
                               retained_score_history=history,
                               checkpoint_dirs=dirs, final_dir=final_dir)


def test_criterion_01_structural_reproduction(experiment):
    state = experiment.state
    assert experiment.wall_seconds < 600, f"run took {experiment.wall_seconds:.0f}s"
    # exactly one retained model per task
    for task in TASKS:
        assert task in state.retained_models
    assert set(state.retained_models) == set(TASKS) | {"root"}
    # test accuracy >= 0.90 on the noise-0 tasks
    accs = {}
    for task in TASKS:
        acc = score_model(state.retained_models[task], state.tasks[task], state.store,
                          split="test")
        accs[task] = acc
        assert acc >= 0.90, (task, acc)
    # every retained path contains at least one inserted body layer
    depths = {}
    for task in TASKS:
        kinds = [state.store.get(l).kind for l in state.retained_models[task].path]
        depth = kinds.count(LayerKind.TRANSFORMER)
        depths[task] = depth
        assert depth >= 1, (task, kinds)
    # graph-export check: the private task's created layers are on no other path
    doc = graph_document(state)
    private_nodes = {n["id"] for n in doc["nodes"] if n["creator_task"] == PRIVATE_TASK}
    for edge in doc["edges"]:
        if edge["task"] != PRIVATE_TASK:
            assert edge["from"] not in private_nodes
            assert edge["to"] not in private_nodes
    print(f"\nPASS criterion 1: structural reproduction in {experiment.wall_seconds:.0f}s, "
          f"test acc {({t: round(a, 4) for t, a in accs.items()})}, depths {depths}, "
          "private layers isolated")


def test_criterion_02_forgetting_immunity(experiment):
    # The first task's first-iteration retained snapshot re-evaluates to a
    # bit-identical score after the full run's further evolution.
    first_ck = experiment.checkpoint_dirs[0]
    snapshot = load(first_ck)
    task = TASKS[0]
    model = snapshot.retained_models[task]
    recorded = experiment.retained_score_history[task][0]
    assert model.score == recorded
    re_evaluated = score_model(model, snapshot.tasks[task], snapshot.store, split="validation")
    assert re_evaluated == recorded, (re_evaluated, recorded)
    # a fully independent reload evaluates bit-identically too
    again = load(first_ck)
    assert score_model(again.retained_models[task], again.tasks[task], again.store,
                       split="validation") == recorded
    assert score_model(again.retained_models[task], again.tasks[task], again.store,
                       split="test") == score_model(model, snapshot.tasks[task],
                                                    snapshot.store, split="test")
    # shared immutable layers still in the final store are bit-identical
    final = experiment.state
    shared = set(model.path) & set(final.store.ids())
    for lid in shared:
        a, b = snapshot.store.get(lid), final.store.get(lid)
        assert (a.kind, a.cloned_from, a.trained_on, a.creator_task) == \
               (b.kind, b.cloned_from, b.trained_on, b.creator_task)
        assert a.params.keys() == b.params.keys() and a.optimizer_state.keys() == b.optimizer_state.keys()
        for mine, theirs in ((a.params, b.params), (a.optimizer_state, b.optimizer_state)):
            for name in mine:
                assert mine[name].shape == theirs[name].shape
                assert mine[name].tobytes() == theirs[name].tobytes(), (lid, name)
    print(f"PASS criterion 2: forgetting immunity, re-evaluated {re_evaluated} == recorded "
          f"{recorded} ({len(shared)} shared layers bit-identical)")


def test_criterion_03_immutability_sweep(experiment):
    from evograft.store import content_id
    # freeze-time hashes recorded in every checkpoint manifest along the run
    recorded: dict[str, str] = {}
    for ck in experiment.checkpoint_dirs:
        manifest = json.loads((ck / MANIFEST).read_text())
        for lid, entry in manifest["layers"].items():
            if lid in recorded:
                assert recorded[lid] == entry["blob_sha256"], lid
            recorded[lid] = entry["blob_sha256"]
    final_manifest = json.loads((experiment.final_dir / MANIFEST).read_text())
    violations = 0
    for lid, entry in final_manifest["layers"].items():
        if recorded.get(lid, entry["blob_sha256"]) != entry["blob_sha256"]:
            violations += 1
    # content ids re-derive from final in-memory tensors
    for lid in experiment.state.store.ids():
        rec = experiment.state.store.get(lid)
        actual = content_id(rec.kind, rec.config, rec.params, rec.optimizer_state,
                            rec.cloned_from, rec.trained_on, rec.creator_task)
        if actual != lid:
            violations += 1
    assert violations == 0
    print(f"PASS criterion 3: immutability sweep, {len(recorded)} freeze-time hashes, "
          "0 violations")


def test_criterion_04_mutation_statistics():
    space = SearchSpace.default()
    arch = ArchConfig()
    state = build_system()
    task = state.tasks[TASKS[0]]
    # parent on the task itself so the head is cloned and body positions are eligible
    root = state.retained_models["root"]
    parent = ModelRecord(model_id="p", task=task.name, path=root.path,
                         genome=space.default_genome(), score=0.5, selection_counts={},
                         parent=None, train_steps_done=0, created_seq=0)
    assert parent.genome.mu == 0.20
    rng = np.random.default_rng(4)
    n = 10_000
    head_pos = len(parent.path) - 1
    hyper_hits = {f: 0 for f in GENOME_FIELDS}
    clone_hits = {p: 0 for p in range(head_pos)}
    insert_hits = 0
    neighbor_violations = 0
    for _ in range(n):
        delta = sample_mutations(parent, task, allow_insert=True, rng=rng, space=space,
                                 insert_config=arch.layer_config(LayerKind.TRANSFORMER))
        for f, v in delta.hyper_mutations:
            hyper_hits[f] += 1
            values = space.values[f]
            if abs(values.index(v) - values.index(getattr(parent.genome, f))) != 1:
                neighbor_violations += 1
        for p in delta.cloned_positions - {head_pos}:
            clone_hits[p] += 1
        insert_hits += len(delta.inserted_layers)
        assert head_pos in delta.cloned_positions  # mandatory trainable head
    rates = {f"hyper:{f}": hits / n for f, hits in hyper_hits.items()}
    rates.update({f"clone:{p}": hits / n for p, hits in clone_hits.items()})
    rates["insert"] = insert_hits / n
    for item, rate in rates.items():
        assert abs(rate - 0.20) <= 0.012, (item, rate)
    assert neighbor_violations == 0
    print(f"PASS criterion 4: {len(rates)} eligible items over {n} sets, rates in "
          f"[{min(rates.values()):.4f}, {max(rates.values()):.4f}] = 0.20 +/- 0.012, "
          "0 neighbor violations")


def exact_selection_probabilities(active_counts, other_counts):
    pa = [0.5 ** c for c in active_counts]
    po = [0.5 ** c for c in other_counts]
    n = len(pa) + len(po)
    probs = [0.0] * n
    prefix = 1.0
    for i, p in enumerate(pa):
        probs[i] += prefix * p
        prefix *= 1.0 - p
    if po:
        weight = prefix / math.factorial(len(po))
        for perm in permutations(range(len(po))):
            live = weight
            for j in perm:
                probs[len(pa) + j] += live * po[j]
                live *= 1.0 - po[j]
        prefix *= math.prod(1.0 - p for p in po)
    for i in range(n):
        probs[i] += prefix / n
    return probs


def test_criterion_05_parent_sampling_distribution():
    cases = [
        ([0], []),
        ([1], [0]),
        ([2, 0], []),
        ([1, 1], [0]),
        ([0, 2, 4], [1]),
        ([3, 1, 0, 2], [0]),
        ([2, 2, 1, 0, 3], []),
        ([1, 0], [2, 0, 1]),
    ]
    worst = 0.0
    rng = np.random.default_rng(123)
    n = 100_000
    for active_counts, other_counts in cases:
        active = [ModelRecord(model_id=f"a{i}", task="t", path=(), genome=Genome(),
                              score=1.0 - i * 0.01, selection_counts={"t": c}, parent=None,
                              train_steps_done=0, created_seq=i)
                  for i, c in enumerate(active_counts)]
        others = [ModelRecord(model_id=f"o{j}", task="u", path=(), genome=Genome(),
                              score=None, selection_counts={"t": c}, parent=None,
                              train_steps_done=0, created_seq=100 + j)
                  for j, c in enumerate(other_counts)]
        expected = exact_selection_probabilities(active_counts, other_counts)
        hits = {m.model_id: 0 for m in active + others}
        for _ in range(n):
            hits[draw_parent(active, others, "t", rng).model_id] += 1
        for i, m in enumerate(active + others):
            err = abs(hits[m.model_id] / n - expected[i])
            worst = max(worst, err)
            assert err < 0.01, (active_counts, other_counts, m.model_id, err)
    print(f"PASS criterion 5: {len(cases)} populations x {n} draws, worst absolute "
          f"deviation {worst:.4f} < 0.01")


GRAD_CASES = [
    (LayerConfig(LayerKind.PATCH_EMBEDDING, 8, patch_size=2, image_resolution=4, channels=1),
     (2, 4, 4, 1)),
    (LayerConfig(LayerKind.CLASS_TOKEN, 8), (2, 4, 8)),
    (LayerConfig(LayerKind.POSITION_EMBEDDING, 8, patch_size=2, image_resolution=4), (2, 5, 8)),
    (LayerConfig(LayerKind.TRANSFORMER, 8, num_heads=2, mlp_dim=16), (2, 5, 8)),
    (LayerConfig(LayerKind.HEAD, 8, num_classes=4), (2, 5, 8)),
]


def test_criterion_06_gradient_correctness():
    checked = 0
    worst = 0.0
    for cfg, x_shape in GRAD_CASES:
        for inst in range(100):
            rng = np.random.default_rng(9_000 + inst)
            params = {k: v.astype(np.float64) + rng.normal(0, 0.03, v.shape)
                      for k, v in L.init_params(cfg, rng).items()}
            x = rng.normal(0, 1, x_shape)
            labels = rng.integers(0, 4, x_shape[0])
            proj = rng.normal(0, 0.5, (8, 4))

            def loss_fn():
                y, _ = L.forward(cfg, params, x)
                logits = y if cfg.kind == LayerKind.HEAD else y.mean(axis=1) @ proj
                return softmax_xent(logits, labels)[0]

            y, cache = L.forward(cfg, params, x)
            logits = y if cfg.kind == LayerKind.HEAD else y.mean(axis=1) @ proj
            _, dlogits = softmax_xent(logits, labels)
            if cfg.kind == LayerKind.HEAD:
                dy = dlogits
            else:
                dy = np.repeat((dlogits @ proj.T)[:, None, :] / y.shape[1], y.shape[1], axis=1)
            dparams, _ = L.backward(cfg, params, cache, dy, True, False)
            name = list(dparams)[inst % len(dparams)]
            arr = params[name]
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + 1e-3
            up = loss_fn()
            arr[idx] = orig - 1e-3
            down = loss_fn()
            arr[idx] = orig
            fd = (up - down) / 2e-3
            a = dparams[name][idx]
            denom = max(abs(a), abs(fd))
            if denom < 1e-4:
                assert abs(a - fd) < 1e-7, (cfg.kind, name)
            else:
                rel = abs(a - fd) / denom
                worst = max(worst, rel)
                assert rel < 1e-4, (cfg.kind, name, rel)
            checked += 1
    print(f"PASS criterion 6: {checked} finite-difference probes over all layer kinds "
          f"(softmax cross-entropy included), worst relative error {worst:.2e} < 1e-4")


def test_criterion_07_optimizer_and_schedule():
    cfg = OptimizerConfig(learning_rate=0.01, warmup_ratio=0.1, momentum=0.9,
                          nesterov=False, total_steps=1000)
    assert lr_at(0, cfg) == 0.0
    assert lr_at(100, cfg) == 0.01
    assert lr_at(1000, cfg) == pytest.approx(0.0, abs=1e-18)

    rng = np.random.default_rng(5)
    clip_checked = 0
    for _ in range(200):
        grads = {i: rng.normal(0, rng.uniform(0.05, 2.0), size=7) for i in range(3)}
        clipped, pre = clip_by_global_norm(grads, 1.0)
        if pre > 1.0:
            assert global_norm(clipped) <= 1.0 + 1e-6
            clip_checked += 1

    traj_cfg = OptimizerConfig(learning_rate=0.1, warmup_ratio=0.5, momentum=0.9,
                               nesterov=False, total_steps=2, clip_norm=1e9)
    x, v = 2.0, 0.0
    xs, vs = {"x": np.array([x])}, {"x": np.array([v])}
    for step in range(3):
        g = float(xs["x"][0])
        v = 0.9 * v + g
        x = x - lr_at(step, traj_cfg) * v
        xs, vs, ok = sgd_step(xs, {"x": np.array([g])}, vs, traj_cfg, step)
        assert ok
        assert abs(float(xs["x"][0]) - x) <= 1e-7
        assert abs(float(vs["x"][0]) - v) <= 1e-7
    print(f"PASS criterion 7: schedule endpoints exact, {clip_checked} clipped steps within "
          "1+1e-6, 3-step momentum trajectory matches recurrence to 1e-7")


def test_criterion_08_accounting_conservation(experiment):
    state = experiment.state
    report = param_report(state)
    total_added = sum(p.added_params for p in report.per_task.values())
    assert total_added == report.total_params  # root-attributed params included
    for task, p in report.per_task.items():
        assert p.activated_fraction <= 1.0
    # brute-force recount
    size = {lid: sum(a.size for a in state.store.get(lid).params.values())
            for lid in state.store.ids()}
    assert report.total_params == sum(size.values())
    reachable = set()
    for m in state.retained_models.values():
        reachable |= set(m.path)
    for task, m in state.retained_models.items():
        assert report.per_task[task].activated_params == sum(size[l] for l in set(m.path))
        assert report.per_task[task].added_params == sum(
            size[l] for l in reachable if state.store.get(l).creator_task == task)
    print(f"PASS criterion 8: conservation exact ({report.total_params} params, "
          f"root remnant {report.per_task['root'].added_params}), recount matches")


def test_criterion_09_determinism_and_resume(experiment, tmp_path):
    baseline = manifest_hash(experiment.final_dir)

    # clean rerun with the same seed
    rerun = build_system()
    for task in SCHEDULE:
        run_task_iteration(rerun, task, ECONFIG)
    save(rerun, tmp_path / "rerun")
    assert manifest_hash(tmp_path / "rerun") == baseline

    # kill at a generation barrier deep into the run (all tasks retained once),
    # reload from the mid-iteration checkpoint, resume to completion
    kill_at = 3  # fourth schedule entry, second visit of the first task
    resumed_state = build_system()
    for task in SCHEDULE[:kill_at]:
        run_task_iteration(resumed_state, task, ECONFIG)

    class Killed(Exception):
        pass

    def barrier(state, gen):
        if gen == 1:
            save(state, tmp_path / "mid")
            raise Killed

    with pytest.raises(Killed):
        run_task_iteration(resumed_state, SCHEDULE[kill_at], ECONFIG, on_generation=barrier)
    resumed = load(tmp_path / "mid")
    assert resumed.pending is not None and resumed.pending.generation_done == 2
    run_task_iteration(resumed, SCHEDULE[kill_at], ECONFIG)
    for task in SCHEDULE[kill_at + 1:]:
        run_task_iteration(resumed, task, ECONFIG)
    save(resumed, tmp_path / "resumed")
    assert manifest_hash(tmp_path / "resumed") == baseline
    print(f"PASS criterion 9: rerun and kill-and-resume (mid iteration {kill_at}) both "
          f"reproduce manifest {baseline[:16]}...")


def test_criterion_10_checkpoint_round_trip(experiment, tmp_path):
    loaded = load(experiment.final_dir)
    save(loaded, tmp_path / "again")
    a = (experiment.final_dir / MANIFEST).read_bytes()
    b = (tmp_path / "again" / MANIFEST).read_bytes()
    assert a == b
    for blob in sorted(p.name for p in experiment.final_dir.glob("*.bin")):
        assert (experiment.final_dir / blob).read_bytes() == (tmp_path / "again" / blob).read_bytes()

    save(loaded, tmp_path / "corrupt")
    victim = sorted((tmp_path / "corrupt").glob("*.bin"))[0]
    raw = bytearray(victim.read_bytes())
    raw[25] ^= 0x40
    victim.write_bytes(bytes(raw))
    with pytest.raises(DataError) as err:
        load(tmp_path / "corrupt")
    assert victim.name[:-4] in str(err.value)  # the error names the layer
    print("PASS criterion 10: save-load-save byte-identical; single-byte corruption "
          f"detected and named ({victim.name[:12]}...)")


def test_criterion_11_monotone_retention(experiment):
    for task, scores in experiment.retained_score_history.items():
        assert len(scores) == 2
        assert scores[1] >= scores[0], (task, scores)
    print("PASS criterion 11: retained validation scores non-decreasing across iterations "
          f"{ {t: [round(s, 4) for s in v] for t, v in experiment.retained_score_history.items()} }")
