import dataclasses
import math
from itertools import permutations

import numpy as np
import pytest

import evograft as eg
from conftest import make_record
from evograft import evolution
from evograft.errors import ConfigError, InvariantError
from evograft.evolution import (EvolutionConfig, draw_parent, run_task_iteration, sample_parent,
                                score_model, train_child)
from evograft.mutation import Genome, MutationSet, SearchSpace, apply_mutations
from evograft.nn.network import forward, run
from evograft.persistence import manifest_hash, save
from evograft.store import ModelRecord
from evograft.system import build_root_state, register_task
from evograft.tasks import AccessMode, AccessPolicy, make_synthetic_glyph_task


def model_with(task, counts, score, seq):
    return ModelRecord(model_id=f"m{seq}", task=task, path=(), genome=Genome(), score=score,
                       selection_counts=dict(counts), parent=None, train_steps_done=0,
                       created_seq=seq)


def enumerate_selection_probabilities(active_counts, other_counts):
    """Exact probabilities of the visit/accept/fallback process.

    Active candidates are visited in their given order with acceptance
    probability 0.5**count; the remaining models follow in a uniformly random
    order under the same rule; if no one accepts, the parent is uniform over
    all candidates.
    """
    pa = [0.5 ** c for c in active_counts]
    po = [0.5 ** c for c in other_counts]
    n = len(pa) + len(po)
    probs = [0.0] * n
    prefix = 1.0
    for i, p in enumerate(pa):
        probs[i] += prefix * p
        prefix *= 1.0 - p
    if po:
        k = len(po)
        weight = prefix / math.factorial(k)
        for perm in permutations(range(k)):
            live = weight
            for j in perm:
                probs[len(pa) + j] += live * po[j]
                live *= 1.0 - po[j]
        prefix *= math.prod(1.0 - p for p in po)
    for i in range(n):
        probs[i] += prefix / n
    return probs


class TestDrawParent:
    def test_single_fresh_model_always_chosen(self):
        m = model_with("t", {}, 0.9, 0)
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert draw_parent([m], [], "t", rng) is m

    def test_selection_counts_increment_by_one_per_draw(self):
        t = make_synthetic_glyph_task("t", 6, 15, 0.0, 1)
        m1 = model_with("t", {}, 0.9, 0)
        m2 = model_with("t", {}, 0.8, 1)

        class DummyStore:
            def get(self, lid):
                raise AssertionError("no layers to fetch")

        rng = np.random.default_rng(0)
        for draw in range(50):
            sample_parent([m1, m2], [], t, rng, DummyStore(), {"t": t})
            total = m1.selections_for("t") + m2.selections_for("t")
            assert total == draw + 1

    @pytest.mark.parametrize("active_counts,other_counts", [
        ([0], []),
        ([2], [0]),
        ([1, 0], []),  # two-model population, counts (1, 0), scores descending
        ([0, 1, 3], [0]),
        ([2, 2], [1, 0]),
        ([1, 0, 2], [3, 1]),
    ])
    def test_empirical_frequencies_match_exact_enumeration(self, active_counts, other_counts):
        active = [model_with("t", {"t": c}, 1.0 - 0.01 * i, i)
                  for i, c in enumerate(active_counts)]
        others = [model_with("other", {"t": c}, None, 100 + j)
                  for j, c in enumerate(other_counts)]
        expected = enumerate_selection_probabilities(active_counts, other_counts)
        rng = np.random.default_rng(42)
        n = 20000
        hits = {m.model_id: 0 for m in active + others}
        for _ in range(n):
            hits[draw_parent(active, others, "t", rng).model_id] += 1
        for i, m in enumerate(active + others):
            assert abs(hits[m.model_id] / n - expected[i]) < 0.015, (i, expected[i])

    def test_acceptance_probability_halves_per_selection(self):
        # a model with 2 prior selections is accepted on visit with p = 0.25
        m = model_with("t", {"t": 2}, 0.9, 0)
        fallback = model_with("t", {"t": 50}, 0.8, 1)  # essentially never accepts
        rng = np.random.default_rng(7)
        n = 20000
        first = sum(draw_parent([m, fallback], [], "t", rng) is m for _ in range(n))
        # P(m) = 0.25 + tiny fallback share ~ 0.75 * (1-2^-50) * 0.5
        expected = enumerate_selection_probabilities([2, 50], [])[0]
        assert abs(first / n - expected) < 0.015


def tiny_system(seed=0, tasks=("ta",), classes=6, private=()):
    state = build_root_state(eg.ArchConfig(), seed=seed)
    for i, name in enumerate(tasks):
        acl = AccessPolicy(AccessMode.PRIVATE) if name in private else AccessPolicy()
        register_task(state, make_synthetic_glyph_task(
            name, num_classes=classes, samples_per_class=15, noise=0.0, seed=50 + i, acl=acl))
    return state


def tiny_cfg(**kw):
    base = dict(num_generations=2, children_per_generation=3, train_cycles=2,
                samples_cap=64, batch_size=16, allow_insert=True)
    base.update(kw)
    return EvolutionConfig(**base)


# a config checks itself when built, so no caller has a check to forget
@pytest.mark.parametrize("error, message, build", [
    (eg.ValidationError, "hidden_dim 32 not divisible by num_heads 3",
     lambda: eg.LayerConfig(eg.LayerKind.TRANSFORMER, 32, num_heads=3, mlp_dim=64)),
    (eg.ValidationError, "unknown layer kind 'bogus'", lambda: eg.LayerConfig("bogus", 4)),
    (eg.ValidationError, "hidden_dim 33 not divisible by num_heads 2", lambda: eg.ArchConfig(hidden_dim=33)),
    (eg.ValidationError, "momentum in", lambda: eg.OptimizerConfig(
        learning_rate=0.01, warmup_ratio=0.1, momentum=1.0, nesterov=False, total_steps=10)),
    (ConfigError, "batch_size: must be a positive integer", lambda: tiny_cfg(batch_size=0)),
    (ConfigError, "batch_size: must be a positive integer", lambda: dataclasses.replace(tiny_cfg(), batch_size=0)),
], ids=["layer", "layer-kind", "arch", "optimizer", "evolution", "evolution-replaced"])
def test_a_config_that_fails_its_checks_cannot_be_built(error, message, build):
    with pytest.raises(error, match=message):
        build()


def test_a_layer_config_built_from_a_kind_name_holds_its_layer_kind():
    config = eg.LayerConfig("transformer", 32, num_heads=2, mlp_dim=64)
    assert config.kind is eg.LayerKind.TRANSFORMER
    assert config.to_dict() == {"kind": "transformer", "hidden_dim": 32, "num_heads": 2, "mlp_dim": 64}
    assert eg.LayerConfig.from_dict(config.to_dict()) == config


class TestTrainChild:
    def test_child_below_parent_threshold_is_pruned(self):
        state = tiny_system()
        task = state.tasks["ta"]
        root = state.retained_models["root"]
        delta = MutationSet((), frozenset(), (), new_head=True)
        rng = np.random.default_rng(0)
        child = apply_mutations(root, delta, state.store, rng, task)
        result = train_child(child, task, tiny_cfg(train_cycles=1), rng, state.store,
                             parent_score_on_task=0.999)
        assert result.snapshot is None
        assert result.cycle_scores  # it did validate, it just never qualified

    def test_snapshot_taken_at_best_qualifying_cycle(self):
        state = tiny_system()
        task = state.tasks["ta"]
        root = state.retained_models["root"]
        delta = MutationSet((), frozenset(), (), new_head=True)
        rng = np.random.default_rng(0)
        child = apply_mutations(root, delta, state.store, rng, task)
        result = train_child(child, task, tiny_cfg(train_cycles=3), rng, state.store, None)
        assert result.snapshot is not None
        assert result.best_score == max(result.cycle_scores)

    def test_divergent_child_is_flagged_not_raised(self):
        state = tiny_system()
        task = state.tasks["ta"]
        root = state.retained_models["root"]
        delta = MutationSet((), frozenset(), (), new_head=True)
        rng = np.random.default_rng(0)
        child = apply_mutations(root, delta, state.store, rng, task)
        head = child.entries[-1]
        head.params["w"] = np.full_like(head.params["w"], np.inf)
        result = train_child(child, task, tiny_cfg(), rng, state.store, None)
        assert result.diverged
        assert result.snapshot is None


class TestIteration:
    def test_retains_exactly_one_model_per_task(self):
        state = tiny_system()
        rows = run_task_iteration(state, "ta", tiny_cfg())
        assert state.retained_models["ta"].model_id in {r["model_id"] for r in rows}
        assert set(state.retained_models) == {"root", "ta"}
        state.validate_references()

    def test_unknown_task_rejected(self):
        state = tiny_system()
        with pytest.raises(ConfigError):
            run_task_iteration(state, "nope", tiny_cfg())

    def test_deterministic_replay(self):
        a = tiny_system(seed=9)
        b = tiny_system(seed=9)
        ra = run_task_iteration(a, "ta", tiny_cfg())
        rb = run_task_iteration(b, "ta", tiny_cfg())
        assert a.retained_models["ta"].model_id == b.retained_models["ta"].model_id
        assert a.retained_models["ta"].score == b.retained_models["ta"].score
        assert [r["model_id"] for r in ra] == [r["model_id"] for r in rb]

    def test_monotone_retention_across_iterations(self):
        state = tiny_system()
        scores = []
        for _ in range(3):
            run_task_iteration(state, "ta", tiny_cfg(num_generations=1))
            scores.append(state.retained_models["ta"].score)
        assert scores == sorted(scores)

    def test_selection_count_bookkeeping(self):
        state = tiny_system()
        cfg = tiny_cfg(num_generations=2, children_per_generation=3)
        run_task_iteration(state, "ta", cfg)
        # Counts live on the model records; dropped records carry theirs away,
        # so the surviving total is bounded by one increment per child sampled.
        total = sum(m.selections_for("ta") for m in state.retained_models.values())
        assert total <= 6
        assert state.generation_counter == 2

    def test_preexisting_layers_untouched_by_iteration(self):
        state = tiny_system()
        before = {}
        for lid in state.store.ids():
            rec = state.store.get(lid)
            before[lid] = {n: a.tobytes() for n, a in rec.params.items()}
        run_task_iteration(state, "ta", tiny_cfg())
        for lid, tensors in before.items():
            rec = state.store.get(lid)
            assert {n: a.tobytes() for n, a in rec.params.items()} == tensors

    def test_rescoring_retained_model_is_bit_identical_after_other_evolution(self):
        state = tiny_system(tasks=("ta", "tb"))
        run_task_iteration(state, "ta", tiny_cfg())
        m = state.retained_models["ta"]
        first = score_model(m, state.tasks["ta"], state.store)
        assert first == m.score
        run_task_iteration(state, "tb", tiny_cfg())  # arbitrary further evolution
        run_task_iteration(state, "tb", tiny_cfg())
        again = score_model(m, state.tasks["ta"], state.store)
        assert first == again

    def test_private_task_layers_never_reused_by_others(self):
        state = tiny_system(tasks=("ta", "priv", "tb"), private=("priv",))
        for name in ("ta", "priv", "tb"):
            run_task_iteration(state, name, tiny_cfg(num_generations=1))
        private_layers = {
            lid for lid in state.store.ids()
            if any(t == "priv" for t, _ in state.store.get(lid).trained_on)
        }
        for name in ("ta", "tb"):
            assert not private_layers & set(state.retained_models[name].path)


class TestScoring:
    def test_untrained_head_scores_at_chance_level(self):
        state = tiny_system(tasks=("ta",), classes=6)
        task = state.tasks["ta"]
        root = state.retained_models["root"]
        delta = MutationSet((), frozenset(), (), new_head=True)
        child = apply_mutations(root, delta, state.store, np.random.default_rng(3), task)
        from evograft.evolution import materialize_path, score_path
        path = materialize_path(child.entries, state.store)
        acc = score_path(path, task, "test")
        n = len(task.splits["test"])
        sigma = math.sqrt((1 / 6) * (5 / 6) / n)
        assert abs(acc - 1 / 6) <= 3 * sigma + 1e-9

    def test_scoring_a_trainable_path_builds_no_tape(self, monkeypatch):
        state = tiny_system()
        task = state.tasks["ta"]
        root = state.retained_models["root"]
        insert = (3, state.arch.layer_config(eg.LayerKind.TRANSFORMER))
        delta = MutationSet((), frozenset({0, 2}), (insert,), new_head=True)
        child = apply_mutations(root, delta, state.store, np.random.default_rng(3), task)
        path = evolution.materialize_path(child.entries, state.store)
        assert [pl.trainable for pl in path] == [True, False, True, True, True]
        expected = evolution.score_path(path, task, "validation")

        def no_tape(layers, images):
            raise AssertionError("scoring ran the training pass")

        monkeypatch.setattr(evolution, "forward", no_tape)
        assert evolution.score_path(path, task, "validation") == expected

    def test_head_only_model_learns_synthetic_task_to_95_percent(self):
        # Learnability floor: evolution must have signal to climb even at depth 0.
        import dataclasses
        state = tiny_system(tasks=("big",), classes=25)
        state.tasks["big"] = make_synthetic_glyph_task("big", 25, 30, 0.0, 50)
        task = state.tasks["big"]
        root = state.retained_models["root"]
        delta = MutationSet((), frozenset(), (), new_head=True)
        rng = np.random.default_rng(1)
        child = apply_mutations(root, delta, state.store, rng, task)
        child.genome = dataclasses.replace(child.genome, crop=False, flip_lr=False,
                                           learning_rate=0.05)
        cfg = tiny_cfg(train_cycles=10, samples_cap=10_000)
        result = train_child(child, task, cfg, rng, state.store, None)
        from evograft.evolution import finalize_child
        record = finalize_child(state, task, child, result)
        state.retained_models["big"] = record
        test_acc = score_model(record, task, state.store, split="test")
        assert test_acc >= 0.95

    def test_worker_count_does_not_change_results(self):
        a = tiny_system(seed=21)
        b = tiny_system(seed=21)
        ra = run_task_iteration(a, "ta", tiny_cfg(children_per_generation=4), workers=1)
        rb = run_task_iteration(b, "ta", tiny_cfg(children_per_generation=4), workers=3)
        assert a.retained_models["ta"].model_id == b.retained_models["ta"].model_id
        assert [r["model_id"] for r in ra] == [r["model_id"] for r in rb]


def deep_system(seed=0, depth=4, classes=10, samples_per_class=70):
    """A root with `depth` frozen transformers and one task whose validation split
    spans more than one EVAL_BATCH chunk."""
    state = build_root_state(eg.ArchConfig(), seed=seed)
    root = state.retained_models["root"]
    body = tuple(state.store.insert(make_record(eg.LayerKind.TRANSFORMER, state.arch, seed=i))
                 for i in range(depth))
    path = root.path[:3] + body + root.path[3:]
    model_id = ModelRecord.make_id("root", path, root.genome, None, None, 0, root.created_seq)
    state.retained_models["root"] = dataclasses.replace(root, model_id=model_id, path=path)
    register_task(state, make_synthetic_glyph_task("ta", classes, samples_per_class, 0.0, 50))
    return state


class TestValidationCache:
    def test_every_prefix_gives_the_full_path_logits_and_score(self):
        state = deep_system(classes=25, samples_per_class=40)
        task = state.tasks["ta"]
        insert = (7, state.arch.layer_config(eg.LayerKind.TRANSFORMER))
        delta = MutationSet((), frozenset(), (insert,), new_head=True)
        child = apply_mutations(state.retained_models["root"], delta, state.store,
                                np.random.default_rng(3), task)
        path = evolution.materialize_path(child.entries, state.store)
        assert [pl.kind for pl in path].count(eg.LayerKind.TRANSFORMER) == 5
        assert child.work_layers()[0][0] == 7

        full = evolution.frozen_inputs(path, task, "validation", len(path))[1]
        assert [len(x) for x in full] == [64, 36]
        taped = [forward(path, x).logits for x in evolution.frozen_inputs(path, task, "validation", 0)[1]]
        assert all(np.array_equal(a, b) for a, b in zip(taped, full, strict=True))
        score = evolution.score_path(path, task, "validation")
        for stop in range(len(path) + 1):
            inputs = evolution.frozen_inputs(path, task, "validation", stop)
            assert inputs[0] == stop
            assert not any(x.flags.writeable for x in inputs[1])
            for x, logits in zip(inputs[1], full, strict=True):
                assert np.array_equal(run(path[stop:], x), logits)
            assert evolution.score_path(path, task, "validation", inputs) == score

    def test_iteration_is_the_same_for_any_worker_count_or_prefix(self, tmp_path, monkeypatch):
        cfg = tiny_cfg(children_per_generation=4)
        runs = {}
        for case in ("serial", "two-workers", "no-prefix"):
            if case == "no-prefix":
                frozen_inputs = evolution.frozen_inputs
                monkeypatch.setattr(evolution, "frozen_inputs",
                                    lambda path, task, split, stop: frozen_inputs(path, task, split, 0))
            state = deep_system(seed=5)  # two children of one generation share a stop, not a prefix
            rows = run_task_iteration(state, "ta", cfg, workers=2 if case == "two-workers" else 1)
            save(state, tmp_path / case)
            runs[case] = (manifest_hash(tmp_path / case), rows)
        assert runs["serial"] == runs["two-workers"] == runs["no-prefix"]


class TestSchedule:
    def test_cycle_sample_count_follows_cap_rule(self):
        from evograft.evolution import cycle_sample_count
        assert cycle_sample_count(1000, 400) == 400
        assert cycle_sample_count(1000, 5000) == 1000
