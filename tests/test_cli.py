import json
from pathlib import Path

import pytest

from evograft.cli import main
from evograft.persistence import MANIFEST, manifest_hash


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 77,
        "output_dir": str(tmp_path / "out"),
        "arch": {"hidden_dim": 32, "num_heads": 2, "mlp_dim": 64, "patch_size": 4,
                 "image_resolution": 32, "channels": 1},
        "root": {"mode": "from-scratch-stripped"},
        "tasks": [
            {"type": "synthetic_glyphs", "name": "ta", "num_classes": 6,
             "samples_per_class": 15, "noise": 0.0, "seed": 5,
             "resolution": 32, "patch_size": 4, "acl": {"mode": "public"}},
        ],
        "schedule": [{"task": "ta", "iterations": 1}],
        "evolution": {"num_generations": 1, "children_per_generation": 2,
                      "train_cycles": 2, "samples_cap": 48, "batch_size": 16,
                      "allow_insert": True},
        "replicas": 1,
    }
    cfg.update(overrides)
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, Path(cfg["output_dir"])


def test_init_creates_stripped_root_checkpoint(tmp_path, capsys):
    config, out = write_config(tmp_path)
    assert main(["init", "--config", str(config)]) == 0
    manifest = json.loads((out / "latest" / MANIFEST).read_text())
    root = manifest["retained_models"]["root"]
    kinds = [manifest["layers"][lid]["kind"] for lid in root["path"]]
    assert kinds == ["patch_embedding", "class_token", "position_embedding", "head"]
    assert "ta" in manifest["tasks"]


def test_unknown_scheduled_task_fails_before_work(tmp_path, capsys):
    config, out = write_config(tmp_path, schedule=[{"task": "ghost", "iterations": 1}])
    assert main(["init", "--config", str(config)]) == 2
    assert not (out / "latest").exists()


def test_run_requires_init(tmp_path):
    config, out = write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 2


def test_full_run_emits_reports_and_checkpoints(tmp_path, capsys):
    config, out = write_config(tmp_path)
    assert main(["init", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config)]) == 0
    assert (out / "latest" / MANIFEST).exists()
    assert (out / "checkpoints" / "000_ta" / MANIFEST).exists()
    assert (out / "reports" / "children.jsonl").exists()
    assert (out / "reports" / "graph.dot").exists()
    assert (out / "reports" / "provenance.json").exists()
    rows = [json.loads(l) for l in (out / "reports" / "children.jsonl").read_text().splitlines()]
    assert len(rows) == 2  # one generation of two children
    for row in rows:
        assert {"task", "generation", "child_index", "parent_id", "model_id",
                "mutations", "cycle_scores", "diverged", "retained"} <= set(row)


def test_rerun_reproduces_manifest_hash(tmp_path, capsys):
    config_a, out_a = write_config(tmp_path / "a")
    config_b, out_b = write_config(tmp_path / "b", output_dir=str(tmp_path / "b" / "out"))
    for config in (config_a, config_b):
        assert main(["init", "--config", str(config)]) == 0
        assert main(["run", "--config", str(config)]) == 0
    assert manifest_hash(out_a / "latest") == manifest_hash(out_b / "latest")


def test_report_eval_gc_surfaces(tmp_path, capsys):
    config, out = write_config(tmp_path)
    main(["init", "--config", str(config)])
    main(["run", "--config", str(config)])
    capsys.readouterr()

    assert main(["report", "params", "--checkpoint", str(out), "--format", "csv"]) == 0
    csv = capsys.readouterr().out
    assert csv.splitlines()[0].startswith("task,activated_params")

    assert main(["report", "graph", "--checkpoint", str(out), "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")

    assert main(["report", "provenance", "--checkpoint", str(out)]) == 0
    prov = json.loads(capsys.readouterr().out)
    assert prov["ta"] == {"ta": 1.0}  # single-task system: 100% self-attribution

    assert main(["eval", "ta", "--checkpoint", str(out)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["task"] == "ta" and 0.0 <= result["accuracy"] <= 1.0

    assert main(["gc", "--checkpoint", str(out)]) == 0
    gc_out = json.loads(capsys.readouterr().out)
    assert gc_out["removed_layers"] == 0  # run already collected


def test_init_from_checkpoint_matches_source(tmp_path, capsys):
    config, out = write_config(tmp_path / "src")
    main(["init", "--config", str(config)])
    main(["run", "--config", str(config)])
    cont_config, cont_out = write_config(
        tmp_path / "cont", output_dir=str(tmp_path / "cont" / "out"),
        root={"mode": "load-checkpoint", "path": str(out / "latest")})
    assert main(["init", "--config", str(cont_config)]) == 0
    assert manifest_hash(cont_out / "latest") == manifest_hash(out / "latest")


def test_eval_unknown_task_is_usage_error(tmp_path, capsys):
    config, out = write_config(tmp_path)
    main(["init", "--config", str(config)])
    main(["run", "--config", str(config)])
    assert main(["eval", "ghost", "--checkpoint", str(out)]) == 2


def test_report_on_missing_checkpoint_is_data_error(tmp_path):
    assert main(["report", "params", "--checkpoint", str(tmp_path / "nope")]) == 3


def test_config_errors_carry_field_paths(tmp_path, capsys):
    config, out = write_config(tmp_path, evolution={"num_generations": 1})
    assert main(["init", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "evolution.children_per_generation" in err


def test_workers_is_not_an_evolution_config_field(tmp_path, capsys):
    # --workers is a run-time flag; the experiment config cannot carry it.
    config, out = write_config(tmp_path, evolution={
        "num_generations": 1, "children_per_generation": 2, "train_cycles": 2,
        "samples_cap": 48, "workers": 2})
    assert main(["init", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "evolution.workers" in err and "unknown field" in err


def test_replicated_run_writes_sibling_outputs_and_variance(tmp_path, capsys):
    config, out = write_config(tmp_path, replicas=2)
    assert main(["init", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config)]) == 0
    capsys.readouterr()
    assert (out / "replica_0" / "latest" / MANIFEST).exists()
    assert (out / "replica_1" / "latest" / MANIFEST).exists()
    variance = json.loads((out / "variance.json").read_text())
    assert "ta" in variance["per_task"]
    assert variance["per_task"]["ta"]["replicas"] == 2
    assert main(["report", "variance", "--checkpoint", str(out)]) == 0
    recomputed = json.loads(capsys.readouterr().out)
    assert recomputed["per_task"]["ta"]["mean"] == variance["per_task"]["ta"]["mean"]
