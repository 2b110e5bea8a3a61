import dataclasses

import numpy as np
import pytest

from evograft.errors import CorruptionError, InvariantError, ValidationError
from evograft.mutation import Genome
from evograft.nn.config import ArchConfig, LayerKind
from evograft.nn.layers import init_params
from evograft.store import (LayerRecord, LayerStore, ModelRecord, SystemState,
                            garbage_collect, provenance_report, reachable_layers)
from evograft.tasks import make_synthetic_glyph_task

from conftest import make_record, stripped_path_records


def make_model(task, path_ids, seq=0, score=0.5, parent=None):
    genome = Genome()
    mid = ModelRecord.make_id(task, tuple(path_ids), genome, parent, score, 10, seq)
    return ModelRecord(model_id=mid, task=task, path=tuple(path_ids), genome=genome,
                       score=score, selection_counts={}, parent=parent,
                       train_steps_done=10, created_seq=seq)


class TestContentAddressing:
    def test_identical_records_get_identical_ids(self, arch):
        a = make_record(LayerKind.TRANSFORMER, arch, seed=3)
        b = make_record(LayerKind.TRANSFORMER, arch, seed=3)
        assert a.id == b.id
        store = LayerStore()
        assert store.insert(a) == store.insert(b)
        assert len(store) == 1

    def test_different_params_different_ids(self, arch):
        a = make_record(LayerKind.TRANSFORMER, arch, seed=3)
        b = make_record(LayerKind.TRANSFORMER, arch, seed=4)
        assert a.id != b.id

    def test_metadata_is_part_of_identity(self, arch):
        a = make_record(LayerKind.TRANSFORMER, arch, seed=3, creator="t1")
        b = make_record(LayerKind.TRANSFORMER, arch, seed=3, creator="t2")
        assert a.id != b.id

    def test_forged_id_is_corruption(self, arch):
        record = make_record(LayerKind.TRANSFORMER, arch, seed=3)
        other = make_record(LayerKind.TRANSFORMER, arch, seed=4)
        forged = dataclasses.replace(other, id=record.id)
        store = LayerStore()
        store.insert(record)
        with pytest.raises(CorruptionError):
            store.insert(forged)


class TestImmutability:
    def test_store_arrays_are_read_only(self, arch):
        store = LayerStore()
        record = make_record(LayerKind.HEAD, arch, seed=1)
        store.insert(record)
        fetched = store.get(record.id)
        with pytest.raises(ValueError):
            fetched.params["w"][0, 0] = 1.0

    def test_freeze_hash_stable_after_reads(self, arch):
        store = LayerStore()
        record = make_record(LayerKind.TRANSFORMER, arch, seed=5)
        store.insert(record)
        before = {n: a.tobytes() for n, a in record.params.items()}
        fetched = store.get(record.id)
        _ = {n: a.sum() for n, a in fetched.params.items()}
        assert {n: a.tobytes() for n, a in fetched.params.items()} == before


class TestValidation:
    def test_nan_params_rejected(self, arch):
        cfg = arch.layer_config(LayerKind.HEAD, num_classes=4)
        params = init_params(cfg, np.random.default_rng(0))
        params["w"][0, 0] = np.nan
        record = LayerRecord.create(kind=LayerKind.HEAD, config=cfg, params=params,
                                    optimizer_state=None, cloned_from=None, trained_on=(),
                                    creator_task="t")
        with pytest.raises(ValidationError):
            LayerStore().insert(record)

    def test_head_width_must_match_task_classes(self, arch):
        # A model of a 3-class task whose head has 10 outputs is rejected.
        records = stripped_path_records(arch, num_classes=3, creator="tiny")
        wide = make_record(LayerKind.HEAD, arch, creator="tiny", num_classes=10)
        state = build_state(arch, records + [wide], {})
        state.tasks["tiny"] = make_synthetic_glyph_task("tiny", 3, 10, 0.0, 1)
        state.check_head_width(make_model("tiny", [r.id for r in records]))
        bad = make_model("tiny", [r.id for r in records[:3]] + [wide.id])
        with pytest.raises(ValidationError, match="must have 3 outputs, got 10"):
            state.check_head_width(bad)
        state.retained_models["tiny"] = bad
        with pytest.raises(ValidationError):
            state.validate_references()

    def test_shape_mismatch_rejected(self, arch):
        cfg = arch.layer_config(LayerKind.HEAD, num_classes=4)
        params = init_params(cfg, np.random.default_rng(0))
        params["w"] = np.zeros((arch.hidden_dim, 7), np.float32)
        record = LayerRecord.create(kind=LayerKind.HEAD,
                                    config=dataclasses.replace(cfg),
                                    params=params, optimizer_state=None, cloned_from=None,
                                    trained_on=(), creator_task="t")
        with pytest.raises(ValidationError):
            LayerStore().insert(record)


def build_state(arch, records, retained):
    store = LayerStore()
    for r in records:
        store.insert(r)
    return SystemState(store=store, arch=arch, tasks={}, retained_models=retained,
                       archive=[], rng_seed=0)


class TestGarbageCollect:
    def test_all_reachable_removes_nothing(self, arch):
        records = stripped_path_records(arch)
        state = build_state(arch, records, {"root": make_model("root", [r.id for r in records])})
        assert garbage_collect(state) == 0
        assert len(state.store) == 4

    def test_unreachable_layers_removed_with_oracle(self, arch):
        records = stripped_path_records(arch)
        stray1 = make_record(LayerKind.TRANSFORMER, arch, seed=11, creator="x")
        stray2 = make_record(LayerKind.TRANSFORMER, arch, seed=12, creator="x")
        state = build_state(arch, records + [stray1, stray2],
                            {"root": make_model("root", [r.id for r in records])})
        # Independent reachability walk: start from retained paths, collect ids.
        expected_live = set()
        for m in state.retained_models.values():
            for lid in m.path:
                expected_live.add(lid)
        expected_dead = set(state.store.ids()) - expected_live
        assert len(expected_dead) == 2
        removed = garbage_collect(state)
        assert removed == 2
        assert set(state.store.ids()) == expected_live

    def test_cross_task_shared_layers_survive(self, arch):
        # Layers created by task X but referenced by task Y's retained model remain
        # after X's models are discarded.
        base = stripped_path_records(arch)
        x_layer = make_record(LayerKind.TRANSFORMER, arch, seed=21, creator="x",
                              trained_on=(("x", 50),))
        y_head = make_record(LayerKind.HEAD, arch, seed=22, creator="y",
                             trained_on=(("y", 10),))
        y_path = [base[0].id, base[1].id, base[2].id, x_layer.id, y_head.id]
        x_head = make_record(LayerKind.HEAD, arch, seed=23, creator="x",
                             trained_on=(("x", 10),))
        records = base + [x_layer, y_head, x_head]
        state = build_state(arch, records, {"y": make_model("y", y_path)})
        removed = garbage_collect(state)
        assert x_layer.id in state.store  # cloned-into Y's path: stays
        assert x_head.id not in state.store  # X's own model discarded
        assert removed == 2  # x_head plus the unused root head
        assert set(state.store.ids()) == set(y_path)


class TestProvenance:
    def test_single_task_is_fully_self_attributed(self, arch):
        records = [
            make_record(LayerKind.PATCH_EMBEDDING, arch, seed=1, creator="a", trained_on=(("a", 7),)),
            make_record(LayerKind.HEAD, arch, seed=2, creator="a", trained_on=(("a", 7),)),
        ]
        store = LayerStore()
        for r in records:
            store.insert(r)
        model = make_model("a", [r.id for r in records])
        assert provenance_report(model, store) == {"a": 1.0}

    def test_fractions_match_step_arithmetic(self, arch):
        r1 = make_record(LayerKind.TRANSFORMER, arch, seed=1, creator="a", trained_on=(("a", 100),))
        r2 = make_record(LayerKind.TRANSFORMER, arch, seed=2, creator="b", trained_on=(("b", 300),))
        store = LayerStore()
        store.insert(r1)
        store.insert(r2)
        model = make_model("b", [r1.id, r2.id])
        report = provenance_report(model, store)
        assert report == {"a": 0.25, "b": 0.75}

    def test_zero_steps_defaults_to_own_task(self, arch):
        r = make_record(LayerKind.HEAD, arch, seed=1)
        store = LayerStore()
        store.insert(r)
        model = make_model("fresh", [r.id])
        assert provenance_report(model, store) == {"fresh": 1.0}

    def test_scripted_three_task_lineage_matches_hand_walk(self, arch):
        # Lineage: layer trained 40 steps by a; cloned, +60 by b; cloned, +100 by c.
        l0 = make_record(LayerKind.TRANSFORMER, arch, seed=1, creator="a", trained_on=(("a", 40),))
        l1 = make_record(LayerKind.TRANSFORMER, arch, seed=2, creator="b",
                         cloned_from=l0.id, trained_on=(("a", 40), ("b", 60)))
        l2 = make_record(LayerKind.TRANSFORMER, arch, seed=3, creator="c",
                         cloned_from=l1.id, trained_on=(("a", 40), ("b", 60), ("c", 100)))
        head = make_record(LayerKind.HEAD, arch, seed=4, creator="c", trained_on=(("c", 100),))
        store = LayerStore()
        for r in (l0, l1, l2, head):
            store.insert(r)
        model = make_model("c", [l2.id, head.id])
        # Hand walk: l2 carries a:40 b:60 c:100; head carries c:100 -> total 300.
        expected = {"a": 40 / 300, "b": 60 / 300, "c": 200 / 300}
        report = provenance_report(model, store)
        assert report.keys() == expected.keys()
        for k in expected:
            assert report[k] == pytest.approx(expected[k], abs=1e-12)
        assert abs(sum(report.values()) - 1.0) <= 1e-9

    def test_fractions_sum_to_one_over_random_histories(self, arch):
        rng = np.random.default_rng(0)
        store = LayerStore()
        ids = []
        for i in range(6):
            hist = tuple((f"t{j}", int(rng.integers(1, 500))) for j in range(int(rng.integers(1, 5))))
            rec = make_record(LayerKind.TRANSFORMER, arch, seed=100 + i, creator="t0", trained_on=hist)
            store.insert(rec)
            ids.append(rec.id)
        model = make_model("t0", ids)
        report = provenance_report(model, store)
        assert abs(sum(report.values()) - 1.0) <= 1e-9


class TestSystemState:
    def test_missing_layer_reference_detected(self, arch):
        records = stripped_path_records(arch)
        state = build_state(arch, records[:3], {"root": make_model("root", [r.id for r in records])})
        with pytest.raises(InvariantError):
            state.validate_references()

    def test_reachable_includes_pending_active_models(self, arch):
        from evograft.store import PendingIteration
        records = stripped_path_records(arch)
        extra = make_record(LayerKind.TRANSFORMER, arch, seed=42, creator="t")
        state = build_state(arch, records + [extra],
                            {"root": make_model("root", [r.id for r in records])})
        state.pending = PendingIteration(task="t", generation_done=1, econfig={},
                                         active_models=[make_model("t", [extra.id], seq=5)])
        assert extra.id in reachable_layers(state)
        assert garbage_collect(state) == 0
