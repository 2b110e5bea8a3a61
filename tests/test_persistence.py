import hashlib
import json
import struct
import threading
from pathlib import Path

import numpy as np
import pytest

import evograft as eg
from evograft.cli import main
from evograft.errors import DataError, ValidationError
from evograft.evolution import EvolutionConfig, run_task_iteration, score_model
from evograft.persistence import MANIFEST, load, manifest_hash, save
from evograft.accounting import param_report
from evograft.nn.config import LayerConfig
from evograft.nn.layers import param_shapes
from evograft.system import build_root_state, register_task
from evograft import tasks as tasks_module
from evograft.tasks import make_synthetic_glyph_task


def built_state(seed=4, evolved=True):
    state = build_root_state(eg.ArchConfig(), seed=seed)
    register_task(state, make_synthetic_glyph_task("ta", 6, 15, 0.0, 77))
    if evolved:
        run_task_iteration(state, "ta", EvolutionConfig(
            num_generations=1, children_per_generation=2, train_cycles=2,
            samples_cap=48, batch_size=16, allow_insert=True))
    return state


class TestBlobFormat:
    def test_blob_wire_format(self, tmp_path):
        state = built_state(evolved=False)
        save(state, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / MANIFEST).read_text())
        for lid, entry in manifest["layers"].items():
            blob = (tmp_path / "ck" / entry["file"]).read_bytes()
            assert blob[:4] == b"MU2L"
            version, count, reserved = struct.unpack("<III", blob[4:16])
            assert version == 1 and reserved == 0
            specs = list(param_shapes(LayerConfig.from_dict(entry["config"])).values())
            assert count == len(specs)  # a root layer has no momentum
            expected_floats = sum(int(np.prod(shape)) for shape in specs)
            assert len(blob) == 16 + 4 * expected_floats
            # little-endian float32 payload parses finite
            payload = np.frombuffer(blob, dtype="<f4", offset=16)
            assert np.isfinite(payload).all()


def raw_recipe(name):
    """The recipe a raw dataset directory's header gives; loading reads no file of it."""
    return {"type": "raw", "path": "ds", "name": name, "num_classes": 6, "shape": [32, 32, 1],
            "counts": {"train": 12, "validation": 1, "test": 2}, "checksum": "0" * 64}


def as_older_format(manifest, directory):
    """Edit a checkpoint's manifest into the form an older build wrote: each layer
    entry repeats its config's kind and lists its tensors' names and shapes, each
    model repeats its task, and the state carries a `history_offset`. The blobs in
    `directory` were the same in that format."""
    for entry in manifest["layers"].values():
        shapes = param_shapes(LayerConfig.from_dict(entry["config"]))
        _, count, _ = struct.unpack("<III", (Path(directory) / entry["file"]).read_bytes()[4:16])
        entry["kind"] = entry["config"]["kind"]
        entry["params"] = [[n, list(shape)] for n, shape in shapes.items()]
        entry["opt_state"] = entry["params"] if count == 2 * len(shapes) else []
    for task, model in manifest["retained_models"].items():
        model["task"] = task
    if manifest["pending"]:
        for model in manifest["pending"]["active_models"]:
            model["task"] = manifest["pending"]["task"]
    manifest["history_offset"] = 2


class TestRoundTrip:
    def test_save_load_preserves_param_report(self, tmp_path):
        state = built_state()
        save(state, tmp_path / "ck")
        loaded = load(tmp_path / "ck")
        assert param_report(loaded).to_dict() == param_report(state).to_dict()
        assert {t: m.model_id for t, m in loaded.retained_models.items()} == \
               {t: m.model_id for t, m in state.retained_models.items()}

    def test_save_load_save_is_byte_identical(self, tmp_path):
        state = built_state()
        save(state, tmp_path / "a")
        loaded = load(tmp_path / "a")
        save(loaded, tmp_path / "b")
        assert (tmp_path / "a" / MANIFEST).read_bytes() == (tmp_path / "b" / MANIFEST).read_bytes()
        for blob in sorted(p.name for p in (tmp_path / "a").glob("*.bin")):
            assert (tmp_path / "a" / blob).read_bytes() == (tmp_path / "b" / blob).read_bytes()

    def test_a_checkpoint_in_the_older_format_loads_scores_and_resaves_identically(self, tmp_path, capsys):
        state = built_state()
        saved = save(state, tmp_path / "fresh")
        assert not {"kind", "params", "opt_state"} & {k for e in saved["layers"].values() for k in e}
        assert "history_offset" not in saved and "task" not in saved["retained_models"]["ta"]
        older = save(state, tmp_path / "old")
        as_older_format(older, tmp_path / "old")
        assert any(entry["opt_state"] for entry in older["layers"].values())
        (tmp_path / "old" / MANIFEST).write_text(json.dumps(older))
        loaded = load(tmp_path / "old")
        m = loaded.retained_models["ta"]
        assert m.task == "ta" and m.score == state.retained_models["ta"].score
        assert score_model(m, loaded.tasks["ta"], loaded.store, split="test") == \
               score_model(state.retained_models["ta"], state.tasks["ta"], state.store, split="test")
        assert any(loaded.store.get(lid).optimizer_state for lid in m.path)
        save(loaded, tmp_path / "again")
        assert (tmp_path / "again" / MANIFEST).read_bytes() == (tmp_path / "fresh" / MANIFEST).read_bytes()
        assert main(["gc", "--checkpoint", str(tmp_path / "old")]) == 0
        assert main(["eval", "ta", "--checkpoint", str(tmp_path / "old")]) == 0

    def test_load_twice_yields_equal_states(self, tmp_path):
        state = built_state()
        save(state, tmp_path / "ck")
        a = load(tmp_path / "ck")
        b = load(tmp_path / "ck")
        assert a.store.ids() == b.store.ids()
        assert {t: m.model_id for t, m in a.retained_models.items()} == \
               {t: m.model_id for t, m in b.retained_models.items()}

    def test_scores_survive_round_trip_bit_exactly(self, tmp_path):
        state = built_state()
        save(state, tmp_path / "ck")
        loaded = load(tmp_path / "ck")
        m = loaded.retained_models["ta"]
        assert m.score == state.retained_models["ta"].score
        assert score_model(m, loaded.tasks["ta"], loaded.store) == m.score

    def test_a_loaded_task_builds_its_data_once_on_the_calling_thread(self, tmp_path, monkeypatch):
        state = built_state(evolved=False)
        save(state, tmp_path / "ck")
        loaded = load(tmp_path / "ck")
        threads = []
        original = tasks_module.build_task

        def counting(recipe, acl):
            threads.append(threading.current_thread())
            return original(recipe, acl)

        monkeypatch.setattr(tasks_module, "build_task", counting)
        run_task_iteration(loaded, "ta", EvolutionConfig(
            num_generations=1, children_per_generation=2, train_cycles=1,
            samples_cap=32, batch_size=16), workers=2)
        for split, ds in state.tasks["ta"].splits.items():
            assert loaded.tasks["ta"].splits[split].images.tobytes() == ds.images.tobytes()
            assert loaded.tasks["ta"].splits[split].labels.tobytes() == ds.labels.tobytes()
        assert threads == [threading.main_thread()]  # one build, however often splits is read

    def test_provenance_invariant_under_round_trip(self, tmp_path):
        from evograft.store import provenance_report
        state = built_state()
        save(state, tmp_path / "ck")
        loaded = load(tmp_path / "ck")
        for task, m in state.retained_models.items():
            before = provenance_report(m, state.store)
            after = provenance_report(loaded.retained_models[task], loaded.store)
            assert before == after
            assert abs(sum(after.values()) - 1.0) <= 1e-9


def _wrap_in_list(manifest):
    return [manifest]


class TestFailureModes:
    def test_empty_directory_is_a_clean_error(self, tmp_path):
        with pytest.raises(DataError, match="no checkpoint"):
            load(tmp_path)

    def test_corrupt_blob_names_the_layer(self, tmp_path):
        state = built_state()
        save(state, tmp_path / "ck")
        victim = sorted((tmp_path / "ck").glob("*.bin"))[0]
        raw = bytearray(victim.read_bytes())
        raw[20] ^= 0x01
        victim.write_bytes(bytes(raw))
        layer_id = victim.name[:-4]
        with pytest.raises(DataError, match=layer_id):
            load(tmp_path / "ck")

    def test_missing_blob_detected(self, tmp_path):
        state = built_state()
        save(state, tmp_path / "ck")
        victim = sorted((tmp_path / "ck").glob("*.bin"))[0]
        victim.unlink()
        with pytest.raises(DataError, match="missing blob"):
            load(tmp_path / "ck")

    def test_version_mismatch_rejected(self, tmp_path):
        state = built_state(evolved=False)
        save(state, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / MANIFEST).read_text())
        manifest["format_version"] = 99
        (tmp_path / "ck" / MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="version"):
            load(tmp_path / "ck")

    def test_unknown_manifest_keys_ignored(self, tmp_path):
        state = built_state(evolved=False)
        save(state, tmp_path / "ck")
        saved = (tmp_path / "ck" / MANIFEST).read_bytes()
        manifest = json.loads(saved)
        manifest["future_extension"] = {"x": 1}
        # Older checkpoints listed every child that was not retained under "archive".
        root = manifest["retained_models"]["root"]
        manifest["archive"] = [{"model_id": "ab" * 32, "task": "ta", "parent": root["model_id"],
                                "score": 0.5, "path": root["path"], "created_seq": 1}]
        (tmp_path / "ck" / MANIFEST).write_text(json.dumps(manifest))
        loaded = load(tmp_path / "ck")
        assert "ta" in loaded.tasks
        resaved = save(loaded, tmp_path / "again")
        assert "archive" not in resaved
        assert (tmp_path / "again" / MANIFEST).read_bytes() == saved

    @pytest.mark.parametrize("field,value", [
        ("config", {"kind": "dense_blok", "hidden_dim": 32}), ("trained_on", None), ("trained_on", 5),
        ("config", {"kind": "head", "hidden_dim": "wide"}), ("file", "other.bin"),
        ("config", {"kind": "transformer", "hidden_dim": 32, "num_heads": 3, "mlp_dim": 64}),
    ], ids=["unknown-kind", "missing-key", "wrong-type", "bad-config", "foreign-blob-name",
            "heads-not-dividing-hidden-dim"])
    def test_malformed_layer_entry_is_a_data_error(self, tmp_path, field, value):
        state = built_state(evolved=False)
        save(state, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / MANIFEST).read_text())
        entry = next(iter(manifest["layers"].values()))
        if value is None:
            del entry[field]
        else:
            entry[field] = value
        (tmp_path / "ck" / MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="malformed manifest entry"):
            load(tmp_path / "ck")
        assert main(["eval", "ta", "--checkpoint", str(tmp_path / "ck")]) == 3

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("arch"),
        lambda m: m["arch"].update(hidden_dim="x"),
        lambda m: m.pop("retained_models"),
        lambda m: m.update(retained_models=[]),
        lambda m: m["retained_models"]["root"].pop("genome"),
        lambda m: m["retained_models"]["root"]["genome"].pop("mu"),
        lambda m: m.update(rng_seed=None),
        lambda m: m.update(pending={"generation_done": 0, "econfig": {}, "active_models": []}),
        # stored configs that fail their constructors' checks; the arch's bad kind, the transformer, is on no path
        lambda m: m.update(pending={"task": "ta", "generation_done": 0, "active_models": [], "econfig": {
            "num_generations": 1, "children_per_generation": 2, "train_cycles": 2, "samples_cap": 48,
            "batch_size": 0, "allow_insert": True}}),
        lambda m: m["arch"].update(num_heads=3),
        lambda m: m["retained_models"]["root"]["path"].__setitem__(0, "0" * 64),
        lambda m: m["retained_models"].update(ta=dict(m["retained_models"]["root"], task="ta", path=[])),
        lambda m: m.update(tasks=list(m["tasks"].values())),
        lambda m: m.update(layers=list(m["layers"].values())),
        lambda m: m["tasks"].update(x=m["tasks"].pop("ta")),
        _wrap_in_list,
    ], ids=["missing-arch", "bad-hidden-dim", "missing-retained-models", "retained-models-list",
            "missing-genome", "missing-mu", "null-rng-seed", "pending-without-task",
            "pending-batch-size-0", "arch-heads-not-dividing-hidden-dim", "absent-layer",
            "empty-path", "tasks-list", "layers-list", "task-key-not-recipe-name", "top-level-list"])
    def test_malformed_manifest_is_a_data_error(self, tmp_path, edit):
        state = built_state(evolved=False)
        save(state, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / MANIFEST).read_text())
        edited = edit(manifest)  # every other edit mutates the manifest in place
        document = edited if edit is _wrap_in_list else manifest
        (tmp_path / "ck" / MANIFEST).write_text(json.dumps(document))
        with pytest.raises(DataError, match="malformed manifest"):
            load(tmp_path / "ck")
        assert main(["eval", "ta", "--checkpoint", str(tmp_path / "ck")]) == 3

    @pytest.mark.parametrize("edit", [
        lambda task: task.pop("acl"),
        lambda task: task["acl"].update(mode="secret"),
        lambda task: task["recipe"].pop("seed"),
        lambda task: task["recipe"].update(type="mystery"),
        lambda task: task.update(recipe={"type": "raw", "path": "ds"}),
        lambda task: task.update(recipe={k: v for k, v in raw_recipe("ta").items() if k != "checksum"}),
        lambda task: task.update(acl={"mode": "group", "group": ["other"]}),
        lambda task: task.update(acl={"mode": "group", "group": "ta"}),
        lambda task: task.update(acl={"mode": "group", "group": {"ta": 1}}),
        lambda task: task.update(recipe=raw_recipe("tr")),
    ], ids=["missing-key", "bad-acl-mode", "missing-recipe-field", "unknown-recipe-type",
            "older-raw-recipe", "raw-recipe-without-checksum", "group-acl-without-its-task",
            "string-group-acl", "object-group-acl", "task-key-not-raw-recipe-name"])
    def test_malformed_task_entry_is_a_data_error(self, tmp_path, capsys, edit):
        state = built_state(evolved=False)
        save(state, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / MANIFEST).read_text())
        edit(manifest["tasks"]["ta"])
        (tmp_path / "ck" / MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="malformed manifest entry for task ta"):
            load(tmp_path / "ck")
        assert main(["report", "params", "--checkpoint", str(tmp_path / "ck")]) == 3
        assert "malformed manifest entry for task ta" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [-1, 1, 15])
    def test_blob_tensor_count_is_parameters_or_parameters_and_momentum(self, tmp_path, capsys, extra):
        # a head has 2 parameters: its blob lists 2 tensors, or 4 with momentum, and no other count
        state = built_state()
        save(state, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / MANIFEST).read_text())
        lid = state.retained_models["ta"].path[-1]
        blob = tmp_path / "ck" / f"{lid}.bin"
        raw = bytearray(blob.read_bytes())
        assert struct.unpack("<I", raw[8:12]) == (4,)
        raw[8:12] = struct.pack("<I", 4 + extra)
        blob.write_bytes(bytes(raw))
        manifest["layers"][lid]["blob_sha256"] = hashlib.sha256(bytes(raw)).hexdigest()
        (tmp_path / "ck" / MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=f"blob tensor count {4 + extra} for layer {lid} is neither 2"):
            load(tmp_path / "ck")
        assert main(["eval", "ta", "--checkpoint", str(tmp_path / "ck")]) == 3
        assert "blob tensor count" in capsys.readouterr().err

    def test_head_width_disagreeing_with_task_is_rejected(self, tmp_path):
        # The task's recipe says 4 classes while the retained head has 6 outputs.
        state = built_state()
        save(state, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / MANIFEST).read_text())
        manifest["tasks"]["ta"]["recipe"]["num_classes"] = 4
        (tmp_path / "ck" / MANIFEST).write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="must have 4 outputs, got 6"):
            load(tmp_path / "ck")
        assert main(["eval", "ta", "--checkpoint", str(tmp_path / "ck")]) == 3

    def test_partial_write_never_loadable(self, tmp_path):
        # manifest is written last: blobs without a manifest are not a checkpoint
        state = built_state(evolved=False)
        save(state, tmp_path / "ck")
        (tmp_path / "ck" / MANIFEST).unlink()
        with pytest.raises(DataError, match="no checkpoint"):
            load(tmp_path / "ck")


def interrupt_and_resume(tmp_path, edit_mid=None, workers=1, seed=14, visits=1, kill_after=1):
    """Run `visits` iterations of one task straight, and again killed at the
    barrier after generation `kill_after` of the last visit, reloaded from that
    barrier's checkpoint (after `edit_mid` rewrites its manifest) and resumed on
    `workers` threads. Returns, for each run, the manifest hashes of every later
    barrier of the last visit and of the final state."""
    cfg = EvolutionConfig(num_generations=3, children_per_generation=2, train_cycles=2,
                          samples_cap=48, batch_size=16, allow_insert=True)

    def fresh():
        state = build_root_state(eg.ArchConfig(), seed=seed)
        register_task(state, make_synthetic_glyph_task("ta", 6, 15, 0.0, 5))
        for _ in range(visits - 1):
            run_task_iteration(state, "ta", cfg)
        return state

    def finish(state, name, workers=1):
        hashes = []

        def barrier(s, gen):
            if gen > kill_after:
                save(s, tmp_path / name / f"gen{gen}")
                hashes.append(manifest_hash(tmp_path / name / f"gen{gen}"))

        run_task_iteration(state, "ta", cfg, on_generation=barrier, workers=workers)
        save(state, tmp_path / name / "final")
        return hashes + [manifest_hash(tmp_path / name / "final")]

    straight = finish(fresh(), "straight")

    class StopAfter(Exception):
        pass

    def kill(state, gen):
        if gen == kill_after:
            save(state, tmp_path / "mid")
            raise StopAfter

    with pytest.raises(StopAfter):
        run_task_iteration(fresh(), "ta", cfg, on_generation=kill)
    if edit_mid is not None:
        manifest = json.loads((tmp_path / "mid" / MANIFEST).read_text())
        edit_mid(manifest)
        (tmp_path / "mid" / MANIFEST).write_text(json.dumps(manifest))
    resumed = load(tmp_path / "mid")
    assert resumed.pending is not None
    assert resumed.pending.generation_done == kill_after + 1
    resumed_hashes = finish(resumed, "resumed", workers)
    assert len(resumed_hashes) == len(straight) == cfg.num_generations - kill_after
    return straight, resumed_hashes


class TestResumeEquivalence:
    def test_interrupt_at_generation_barrier_reproduces_final_manifest(self, tmp_path):
        straight, resumed = interrupt_and_resume(tmp_path)
        assert straight == resumed

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupted_second_visit_reproduces_every_later_barrier(self, tmp_path, workers):
        # The task's retained model is in the pending population; after a reload
        # both must stay one record, or the barrier manifests drift apart.
        straight, resumed = interrupt_and_resume(tmp_path, workers=workers, seed=10,
                                                 visits=2, kill_after=0)
        assert straight == resumed

    # A load drops the legacy field from the pending config, so every later barrier
    # and the final manifest compare equal.
    def test_barrier_checkpoint_with_legacy_workers_field_resumes(self, tmp_path):
        # Older checkpoints persisted the worker count inside the pending config.
        def add_workers(manifest):
            manifest["pending"]["econfig"]["workers"] = 2

        straight, resumed = interrupt_and_resume(tmp_path, add_workers, workers=2)
        assert straight == resumed

    def test_barrier_checkpoint_with_legacy_replica_seed_field_resumes(self, tmp_path):
        # Older checkpoints persisted an unset per-replica seed inside the pending config.
        def add_replica_seed(manifest):
            manifest["pending"]["econfig"]["replica_seed"] = None

        straight, resumed = interrupt_and_resume(tmp_path, add_replica_seed)
        assert straight == resumed

    def test_barrier_checkpoint_in_the_older_format_resumes(self, tmp_path):
        # The older format also repeated every pending model's task.
        straight, resumed = interrupt_and_resume(tmp_path, lambda m: as_older_format(m, tmp_path / "mid"),
                                                 seed=10, visits=2, kill_after=0)
        assert straight == resumed

    def test_identical_reruns_share_manifest_hash(self, tmp_path):
        for name in ("x", "y"):
            state = built_state(seed=99)
            save(state, tmp_path / name)
        assert manifest_hash(tmp_path / "x") == manifest_hash(tmp_path / "y")
