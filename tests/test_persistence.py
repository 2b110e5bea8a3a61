import json
from pathlib import Path

import numpy as np
import pytest

import evograft as eg
from evograft.cli import main
from evograft.errors import DataError, ValidationError
from evograft.evolution import EvolutionConfig, run_task_iteration, score_model
from evograft.persistence import MANIFEST, load, manifest_hash, save
from evograft.accounting import param_report
from evograft.system import build_root_state, register_task
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
        import struct
        state = built_state(evolved=False)
        save(state, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / MANIFEST).read_text())
        for lid, entry in manifest["layers"].items():
            blob = (tmp_path / "ck" / entry["file"]).read_bytes()
            assert blob[:4] == b"MU2L"
            version, count, reserved = struct.unpack("<III", blob[4:16])
            assert version == 1 and reserved == 0
            specs = entry["params"] + entry["opt_state"]
            assert count == len(specs)
            expected_floats = sum(int(np.prod(shape)) for _, shape in specs)
            assert len(blob) == 16 + 4 * expected_floats
            # little-endian float32 payload parses finite
            payload = np.frombuffer(blob, dtype="<f4", offset=16)
            assert np.isfinite(payload).all()


class TestRoundTrip:
    def test_save_load_preserves_param_report(self, tmp_path):
        state = built_state()
        save(state, tmp_path / "ck")
        loaded = load(tmp_path / "ck")
        assert param_report(loaded).to_dict() == param_report(state).to_dict()
        assert len(loaded.archive) == len(state.archive)
        assert [a.model_id for a in loaded.archive] == [a.model_id for a in state.archive]

    def test_save_load_save_is_byte_identical(self, tmp_path):
        state = built_state()
        save(state, tmp_path / "a")
        loaded = load(tmp_path / "a")
        save(loaded, tmp_path / "b")
        assert (tmp_path / "a" / MANIFEST).read_bytes() == (tmp_path / "b" / MANIFEST).read_bytes()
        for blob in sorted(p.name for p in (tmp_path / "a").glob("*.bin")):
            assert (tmp_path / "a" / blob).read_bytes() == (tmp_path / "b" / blob).read_bytes()

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
        manifest = json.loads((tmp_path / "ck" / MANIFEST).read_text())
        manifest["future_extension"] = {"x": 1}
        (tmp_path / "ck" / MANIFEST).write_text(json.dumps(manifest))
        loaded = load(tmp_path / "ck")
        assert "ta" in loaded.tasks

    @pytest.mark.parametrize("field,value", [
        ("kind", "dense_blok"), ("trained_on", None), ("trained_on", 5),
        ("config", {"kind": "head", "hidden_dim": "wide"}),
    ], ids=["unknown-kind", "missing-key", "wrong-type", "bad-config"])
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

    def test_head_width_disagreeing_with_task_is_rejected(self, tmp_path):
        # The task's recipe says 4 classes while the retained head has 6 outputs.
        state = built_state()
        save(state, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / MANIFEST).read_text())
        task = manifest["tasks"]["ta"]
        task["num_classes"] = task["recipe"]["num_classes"] = 4
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


def interrupt_and_resume(tmp_path, edit_mid=None, workers=1):
    """Run one iteration straight and once killed at a barrier and resumed from
    its checkpoint (after `edit_mid` rewrites the barrier manifest); returns both
    final manifest hashes."""
    cfg = EvolutionConfig(num_generations=3, children_per_generation=2, train_cycles=2,
                          samples_cap=48, batch_size=16, allow_insert=True)

    # uninterrupted run
    a = build_root_state(eg.ArchConfig(), seed=14)
    register_task(a, make_synthetic_glyph_task("ta", 6, 15, 0.0, 5))
    run_task_iteration(a, "ta", cfg)
    save(a, tmp_path / "straight")

    # interrupted after generation 2, reloaded, resumed
    b = build_root_state(eg.ArchConfig(), seed=14)
    register_task(b, make_synthetic_glyph_task("ta", 6, 15, 0.0, 5))

    class StopAfter(Exception):
        pass

    def barrier(state, gen):
        if gen == 1:
            save(state, tmp_path / "mid")
            raise StopAfter

    with pytest.raises(StopAfter):
        run_task_iteration(b, "ta", cfg, on_generation=barrier)
    if edit_mid is not None:
        manifest = json.loads((tmp_path / "mid" / MANIFEST).read_text())
        edit_mid(manifest)
        (tmp_path / "mid" / MANIFEST).write_text(json.dumps(manifest))
    resumed = load(tmp_path / "mid")
    assert resumed.pending is not None
    assert resumed.pending.generation_done == 2
    run_task_iteration(resumed, "ta", cfg, workers=workers)
    save(resumed, tmp_path / "resumed")
    return manifest_hash(tmp_path / "straight"), manifest_hash(tmp_path / "resumed")


class TestResumeEquivalence:
    def test_interrupt_at_generation_barrier_reproduces_final_manifest(self, tmp_path):
        straight, resumed = interrupt_and_resume(tmp_path)
        assert straight == resumed

    def test_barrier_checkpoint_with_legacy_workers_field_resumes(self, tmp_path):
        # Older checkpoints persisted the worker count inside the pending config.
        def add_workers(manifest):
            manifest["pending"]["econfig"]["workers"] = 2

        straight, resumed = interrupt_and_resume(tmp_path, add_workers, workers=2)
        assert straight == resumed

    def test_identical_reruns_share_manifest_hash(self, tmp_path):
        for name in ("x", "y"):
            state = built_state(seed=99)
            save(state, tmp_path / name)
        assert manifest_hash(tmp_path / "x") == manifest_hash(tmp_path / "y")
