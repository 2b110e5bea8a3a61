import dataclasses

import numpy as np
import pytest

from evograft.errors import AclError, ConfigError, ValidationError
from evograft.mutation import (GENOME_FIELDS, Genome, MutationSet, SearchSpace, WorkLayer,
                               apply_mutations, sample_mutations)
from evograft.nn.config import ArchConfig, LayerKind
from evograft.store import LayerStore, ModelRecord
from evograft.tasks import AccessPolicy, TaskSpec

from conftest import stripped_path_records


@pytest.fixture
def space():
    return SearchSpace.default()


def fake_task(name="taskx", num_classes=5):
    # No datasets needed for mutation-level tests: the data stays unbuilt.
    return TaskSpec({"type": "synthetic_glyphs", "name": name, "num_classes": num_classes,
                     "samples_per_class": 10, "noise": 0.0, "seed": 0, "resolution": 32,
                     "patch_size": 4}, AccessPolicy())


def parent_in_store(arch, task="root", mu=0.2, seed=0, num_classes=2):
    store = LayerStore()
    records = stripped_path_records(arch, seed=seed, num_classes=num_classes, creator=task)
    for r in records:
        store.insert(r)
    genome = dataclasses.replace(Genome(), mu=mu)
    path = tuple(r.id for r in records)
    mid = ModelRecord.make_id(task, path, genome, None, None, 0, 0)
    return store, ModelRecord(model_id=mid, task=task, path=path, genome=genome, score=0.5,
                              selection_counts={}, parent=None, train_steps_done=0,
                              created_seq=0)


class TestNeighborSteps:
    def test_moves_are_always_to_adjacent_list_values(self, space):
        rng = np.random.default_rng(0)
        for field in GENOME_FIELDS:
            values = space.values[field]
            for _ in range(200):
                current = values[int(rng.integers(0, len(values)))]
                new = space.neighbor(field, current, rng)
                assert abs(values.index(new) - values.index(current)) == 1

    def test_interior_value_steps_both_ways_evenly(self, space):
        rng = np.random.default_rng(1)
        outcomes = {0.005: 0, 0.02: 0}
        for _ in range(4000):
            outcomes[space.neighbor("learning_rate", 0.01, rng)] += 1
        assert outcomes[0.005] + outcomes[0.02] == 4000
        assert abs(outcomes[0.005] / 4000 - 0.5) < 0.03

    def test_list_minimum_has_single_neighbor(self, space):
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert space.neighbor("momentum", 0.5, rng) == 0.6

    def test_list_maximum_has_single_neighbor(self, space):
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert space.neighbor("mu", 0.30, rng) == 0.28

    def test_booleans_flip(self, space):
        rng = np.random.default_rng(4)
        assert space.neighbor("nesterov", False, rng) is True
        assert space.neighbor("nesterov", True, rng) is False

    def test_off_list_value_rejected(self, space):
        with pytest.raises(ValidationError):
            space.neighbor("learning_rate", 0.123, np.random.default_rng(0))


class TestSampleMutations:
    def test_mu_zero_yields_only_the_mandatory_head_action(self, space, arch):
        _, parent = parent_in_store(arch, task="taskx", mu=0.0, num_classes=5)
        delta = sample_mutations(parent, fake_task("taskx"), allow_insert=True,
                                 rng=np.random.default_rng(0), space=space,
                                 insert_config=arch.layer_config(LayerKind.TRANSFORMER))
        assert delta.hyper_mutations == ()
        assert delta.inserted_layers == ()
        assert not delta.new_head
        # same-task child: head position is cloned so it stays trainable
        assert delta.cloned_positions == {len(parent.path) - 1}

    def test_task_change_forces_fresh_head(self, space, arch):
        _, parent = parent_in_store(arch, task="root", mu=0.0)
        delta = sample_mutations(parent, fake_task("other"), allow_insert=False,
                                 rng=np.random.default_rng(0), space=space)
        assert delta.new_head
        assert len(parent.path) - 1 not in delta.cloned_positions

    def test_per_item_application_rate_tracks_mu(self, space, arch):
        _, parent = parent_in_store(arch, task="taskx", mu=0.2, num_classes=5)
        rng = np.random.default_rng(7)
        n = 4000
        hyper_hits = {f: 0 for f in GENOME_FIELDS}
        clone_hits = {p: 0 for p in range(len(parent.path) - 1)}
        insert_hits = 0
        for _ in range(n):
            delta = sample_mutations(parent, fake_task("taskx"), allow_insert=True, rng=rng,
                                     space=space,
                                     insert_config=arch.layer_config(LayerKind.TRANSFORMER))
            for f, _v in delta.hyper_mutations:
                hyper_hits[f] += 1
            for p in delta.cloned_positions:
                if p != len(parent.path) - 1:
                    clone_hits[p] += 1
            insert_hits += len(delta.inserted_layers)
        for f, hits in hyper_hits.items():
            assert abs(hits / n - 0.2) < 0.025, f
        for p, hits in clone_hits.items():
            assert abs(hits / n - 0.2) < 0.025, p
        assert abs(insert_hits / n - 0.2) < 0.025

    def test_insert_requires_config(self, space, arch):
        _, parent = parent_in_store(arch)
        with pytest.raises(ConfigError):
            sample_mutations(parent, fake_task(), allow_insert=True,
                             rng=np.random.default_rng(0), space=space)


class TestApplyMutations:
    def test_head_clone_only_child_shares_every_other_layer(self, space, arch):
        store, parent = parent_in_store(arch, task="taskx", num_classes=5)
        delta = MutationSet((), frozenset({len(parent.path) - 1}), (), new_head=False)
        child = apply_mutations(parent, delta, store, np.random.default_rng(0),
                                fake_task("taskx"))
        assert child.entries[:-1] == list(parent.path[:-1])
        head = child.entries[-1]
        assert isinstance(head, WorkLayer)
        assert head.cloned_from == parent.path[-1]

    def test_clone_copies_parameters_and_momentum_bit_exactly(self, space, arch):
        store, parent = parent_in_store(arch, task="taskx", num_classes=5)
        src = store.get(parent.path[0])
        delta = MutationSet((), frozenset({0, len(parent.path) - 1}), (), new_head=False)
        child = apply_mutations(parent, delta, store, np.random.default_rng(0),
                                fake_task("taskx"))
        clone = child.entries[0]
        assert isinstance(clone, WorkLayer)
        assert clone.cloned_from == src.id
        for name in src.params:
            assert clone.params[name].tobytes() == src.params[name].tobytes()
        assert clone.base_trained_on == src.trained_on

    def test_parent_records_untouched_by_apply_and_child_training_writes(self, space, arch):
        store, parent = parent_in_store(arch, task="taskx", num_classes=5)
        before = {lid: {n: a.tobytes() for n, a in store.get(lid).params.items()}
                  for lid in parent.path}
        delta = MutationSet((("learning_rate", 0.02),), frozenset({0, len(parent.path) - 1}),
                            (), new_head=False)
        child = apply_mutations(parent, delta, store, np.random.default_rng(0),
                                fake_task("taskx"))
        child.entries[0].params["w"][:] = 123.0  # simulate training writes
        after = {lid: {n: a.tobytes() for n, a in store.get(lid).params.items()}
                 for lid in parent.path}
        assert before == after
        assert parent.genome.learning_rate == 0.01

    def test_inserted_layer_lands_before_head(self, space, arch):
        store, parent = parent_in_store(arch, task="root")
        head_pos = len(parent.path) - 1
        icfg = arch.layer_config(LayerKind.TRANSFORMER)
        delta = MutationSet((), frozenset(), ((head_pos, icfg),), new_head=True)
        child = apply_mutations(parent, delta, store, np.random.default_rng(0),
                                fake_task("newtask", num_classes=7))
        assert len(child.entries) == len(parent.path) + 1
        inserted = child.entries[-2]
        assert isinstance(inserted, WorkLayer) and inserted.kind == LayerKind.TRANSFORMER
        assert inserted.cloned_from is None and inserted.base_trained_on == ()
        head = child.entries[-1]
        assert isinstance(head, WorkLayer) and head.cloned_from is None
        assert head.params["w"].shape == (arch.hidden_dim, 7)

    def test_mutated_genome_applies_steps_and_stays_in_space(self, space, arch):
        store, parent = parent_in_store(arch, task="taskx", num_classes=5)
        rng = np.random.default_rng(11)
        for _ in range(100):
            delta = sample_mutations(parent, fake_task("taskx"), allow_insert=False,
                                     rng=rng, space=space)
            child = apply_mutations(parent, delta, store, rng, fake_task("taskx"))
            space.validate_genome(child.genome)
            for field, value in delta.hyper_mutations:
                assert getattr(child.genome, field) == value

    def test_acl_rejection_is_a_hard_error(self, space, arch):
        store, parent = parent_in_store(arch, task="taskx", num_classes=5)
        delta = MutationSet((), frozenset({0, len(parent.path) - 1}), (), new_head=False)
        with pytest.raises(AclError):
            apply_mutations(parent, delta, store, np.random.default_rng(0),
                            fake_task("taskx"), acl_check=lambda rec: False)


class TestSearchSpace:
    def test_default_genome_matches_published_defaults(self, space):
        g = space.default_genome()
        assert g.mu == 0.20
        assert g.learning_rate == 0.01
        assert g.warmup_ratio == 0.1
        assert g.momentum == 0.9
        assert g.nesterov is False
        assert g.crop is True
        assert g.crop_area_min == 0.05
        assert g.crop_aspect_min == 0.75
        assert g.flip_lr is True
        assert g.brightness_delta == 0.0

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            SearchSpace({"mu": {"values": [0.1], "default": 0.1}})

    def test_unsorted_values_rejected(self, space):
        table = {f: {"values": list(space.values[f]), "default": space.defaults[f]}
                 for f in GENOME_FIELDS}
        table["momentum"]["values"] = [0.9, 0.5]
        with pytest.raises(ConfigError):
            SearchSpace(table)

    def test_genome_membership_validation(self, space):
        space.validate_genome(space.default_genome())
        with pytest.raises(ValidationError):
            space.validate_genome(dataclasses.replace(Genome(), learning_rate=0.015))
