import json
import os
import shutil
import threading
from importlib import resources
from pathlib import Path

import pytest

from conftest import make_record
from evograft import cli
from evograft import tasks as tasks_module
from evograft.cli import main
from evograft.mutation import SearchSpace
from evograft.nn.config import ArchConfig, LayerKind
from evograft.persistence import MANIFEST, load, manifest_hash, save
from evograft.system import build_root_state, register_task
from evograft.tasks import AccessPolicy, make_synthetic_glyph_task, save_raw_dataset


ARCH = {"hidden_dim": 32, "num_heads": 2, "mlp_dim": 64, "patch_size": 4,
        "image_resolution": 32, "channels": 1}


def glyph_task(name, seed=5, acl="public"):
    return {"type": "synthetic_glyphs", "name": name, "num_classes": 6,
            "samples_per_class": 15, "noise": 0.0, "seed": seed,
            "resolution": 32, "patch_size": 4, "acl": {"mode": acl}}


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 77,
        "output_dir": str(tmp_path / "out"),
        "arch": ARCH,
        "root": {"mode": "from-scratch-stripped"},
        "tasks": [glyph_task("ta")],
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
    return path, Path(str(cfg["output_dir"]))


def _shipped_table():
    return json.loads(resources.files("evograft").joinpath("data/search_space.json").read_text())


def test_init_creates_stripped_root_checkpoint(tmp_path, capsys):
    config, out = write_config(tmp_path)
    assert main(["init", "--config", str(config)]) == 0
    manifest = json.loads((out / "latest" / MANIFEST).read_text())
    root = manifest["retained_models"]["root"]
    kinds = [manifest["layers"][lid]["config"]["kind"] for lid in root["path"]]
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
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 0
    summary = json.loads(capsys.readouterr().out)
    # checkpoints, child rows and the summary line; graph, provenance and
    # params views come from `evograft report`
    assert sorted(os.listdir(out)) == ["checkpoints", "latest", "reports"]
    assert os.listdir(out / "checkpoints") == ["000_ta"]
    assert os.listdir(out / "reports") == ["children.jsonl"]
    assert manifest_hash(out / "checkpoints" / "000_ta") == manifest_hash(out / "latest")
    assert "archive" not in json.loads((out / "latest" / MANIFEST).read_text())
    assert main(["eval", "ta", "--checkpoint", str(out), "--split", "test"]) == 0
    accuracy = json.loads(capsys.readouterr().out)["accuracy"]
    assert summary == {"replicas": 1, "test_accuracy": {"ta": [accuracy]}}
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


EVOLUTION = {"num_generations": 1, "children_per_generation": 2, "train_cycles": 2,
             "samples_cap": 48, "batch_size": 16, "allow_insert": True}


@pytest.mark.parametrize("field, overrides", [
    ("evolution.batch_size", {"evolution": {**EVOLUTION, "batch_size": 0}}),
    ("evolution.batch_size", {"evolution": {**EVOLUTION, "batch_size": "16"}}),
    ("evolution.train_cycles", {"evolution": {**EVOLUTION, "train_cycles": 1.5}}),
    ("evolution.num_generations", {"evolution": {**EVOLUTION, "num_generations": True}}),
    ("evolution.allow_insert", {"evolution": {**EVOLUTION, "allow_insert": "yes"}}),
    ("schedule[0].iterations", {"schedule": [{"task": "ta", "iterations": "x"}]}),
    ("schedule[0].iterations", {"schedule": [{"task": "ta", "iterations": 1.5}]}),
    ("schedule[0].iterations", {"schedule": [{"task": "ta", "iterations": 0}]}),
    ("replicas", {"replicas": "two"}),
    ("replicas", {"replicas": 1.5}),
    ("replicas", {"replicas": 0}),
    ("root", {"root": "x"}),
    ("root.path", {"root": {"mode": "load-checkpoint", "path": 5}}),
    ("arch", {"arch": [1]}),
    ("arch.hidden_dim", {"arch": {"hidden_dim": "x"}}),
    ("output_dir", {"output_dir": 5}),
    ("seed", {"seed": True}),
    # arches whose layers cannot be built; a transformer is built only when an insert is drawn
    ("arch.num_heads", {"arch": {**ARCH, "num_heads": 0}}),
    ("arch", {"arch": {**ARCH, "hidden_dim": 33}}),
    ("arch", {"arch": {**ARCH, "patch_size": 5, "image_resolution": 24}}),
    # names that are not strings
    ("schedule[0].task", {"schedule": [{"task": ["ta"]}]}),
    ("tasks[0].name", {"tasks": [glyph_task(5)], "schedule": [{"task": 5}]}),
    # misspelled or unknown keys, which would otherwise fall back to defaults
    ("arch.hiden_dim", {"arch": {"hiden_dim": 64}}),
    ("schedule[0].iteration", {"schedule": [{"task": "ta", "iteration": 3}]}),
    ("replica", {"replica": 3}),
    ("root.pth", {"root": {"mode": "load-checkpoint", "pth": "elsewhere"}}),
    # a task entry that cannot be built is named by its index
    ("tasks[0]", {"tasks": [{"type": "raw"}]}),
    # a synthetic entry's field is named by its path, whether it is missing or cannot render
    ("tasks[0].resolution", {"tasks": [{k: v for k, v in glyph_task("ta").items() if k != "resolution"}]}),
    ("tasks[0].num_classes", {"tasks": [{**glyph_task("ta"), "num_classes": 1}]}),
    ("tasks[0].noise", {"tasks": [{**glyph_task("ta"), "noise": float("nan")}]}),
    # a task entry takes its type's recipe fields and an acl, and a raw entry only path and name
    ("tasks[0].type", {"tasks": [{"type": "mystery", "name": "ta"}]}),
    ("tasks[0].alc", {"tasks": [{**glyph_task("ta"), "alc": {"mode": "private"}}]}),
    ("tasks[0].seed", {"tasks": [{"type": "raw", "path": "ds", "name": "ta", "seed": 5}]}),
    # an ACL is named by its path, whether its mode is unknown or its group leaves out its task
    ("tasks[0].acl", {"tasks": [{**glyph_task("ta"), "acl": {"mode": "secret"}}]}),
    ("tasks[0].acl", {"tasks": [{**glyph_task("ta"), "acl": {"mode": "group", "group": ["tb"]}}]}),
    # an entry the system cannot register is named by its index
    ("tasks[0]", {"tasks": [glyph_task("root")]}),
    ("tasks[1]", {"tasks": [glyph_task("ta"), glyph_task("ta", seed=6)]}),
    ("tasks[0]", {"arch": {**ARCH, "channels": 3}}),
])
def test_init_rejects_bad_counts(tmp_path, capsys, monkeypatch, field, overrides):
    monkeypatch.chdir(tmp_path)  # where a relative output_dir would land
    config, _ = write_config(tmp_path, **overrides)
    assert main(["init", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert os.listdir(tmp_path) == ["config.json"]


# the process an operator starts: a bad value exits 2 naming its field, before output_dir exists
@pytest.mark.parametrize("field, overrides", [
    ("arch", {"arch": {**ARCH, "hidden_dim": 33}}),
    ("evolution.batch_size", {"evolution": {**EVOLUTION, "batch_size": 0}}),
    ("tasks[0].acl", {"tasks": [{**glyph_task("ta"), "acl": {"mode": "group", "group": ["tb"]}}]}),
])
def test_init_process_refuses_a_bad_value(tmp_path, evograft_cli, field, overrides):
    config, out = write_config(tmp_path, **overrides)
    code, stdout, err = evograft_cli("init", "--config", config)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {field}: ")
    assert not out.exists()


def texture_case(entry):
    return {**entry, "num_classes": 3, "patch_size": 2, "resolution": 12}


# entries `init` refuses before it writes a file, with the checks rendering makes but no sample rendered
@pytest.mark.parametrize("change", [
    {"seed": "x"}, {"seed": 5.5}, {"seed": True}, {"noise": "x"},
    {"noise": -0.1}, {"noise": float("nan")}, {"noise": float("inf")},
    {"num_classes": 1}, {"num_classes": "5"}, {"num_classes": 5.0},
    {"samples_per_class": 9}, {"samples_per_class": 30.0}, {"samples_per_class": 30.5},
    {"resolution": 30}, {"resolution": 20}, {"resolution": 24.0}, {"patch_size": 4.0},
    texture_case,  # only the class-asset draw finds that no texture fits the third class
], ids=lambda c: "texture" if callable(c) else "-".join(f"{k}={v!r}" for k, v in c.items()))
def test_init_refuses_a_synthetic_entry_that_cannot_render(tmp_path, capsys, monkeypatch, change):
    monkeypatch.chdir(tmp_path)
    entry = change(glyph_task("ta")) if callable(change) else {**glyph_task("ta"), **change}
    config, _ = write_config(tmp_path, tasks=[entry])
    assert main(["init", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert os.listdir(tmp_path) == ["config.json"]


# an integer noise is a finite number >= 0
@pytest.mark.parametrize("change", [{"noise": 0}],
                         ids=lambda c: "-".join(f"{k}={v!r}" for k, v in c.items()))
def test_init_still_accepts_these_synthetic_entries(tmp_path, capsys, change):
    config, out = write_config(tmp_path, tasks=[{**glyph_task("ta"), **change}])
    assert main(["init", "--config", str(config)]) == 0
    assert load(out / "latest").tasks["ta"].recipe == {
        k: v for k, v in {**glyph_task("ta"), **change}.items() if k != "acl"}


def test_init_renders_no_sample(tmp_path, capsys, monkeypatch):
    def no_render(*args):
        raise AssertionError("init rendered a sample")

    monkeypatch.setattr(tasks_module, "_render_split", no_render)
    config, out = write_config(tmp_path, tasks=[glyph_task("ta"), {**glyph_task("tb", 6), "noise": 0.1}])
    assert main(["init", "--config", str(config)]) == 0
    assert sorted(load(out / "latest").tasks) == ["ta", "tb"]


def test_init_writes_the_manifest_of_a_state_built_from_rendered_tasks(tmp_path, capsys):
    entries = [glyph_task("ta"), {**glyph_task("tb", 6, acl="private"), "noise": 0.1}]
    config, out = write_config(tmp_path, tasks=entries)
    assert main(["init", "--config", str(config)]) == 0

    state = build_root_state(ArchConfig.from_dict(ARCH), 77)
    for entry in entries:
        recipe = {k: v for k, v in entry.items() if k != "acl"}
        register_task(state, tasks_module.build_task(recipe, AccessPolicy.from_dict(entry["acl"])))
    save(state, tmp_path / "direct")
    assert (tmp_path / "direct" / MANIFEST).read_bytes() == (out / "latest" / MANIFEST).read_bytes()


def test_main_builds_its_parser_once_and_runs_the_current_command(tmp_path, capsys, monkeypatch):
    config, out = write_config(tmp_path)
    assert main(["init", "--config", str(config)]) == 0
    assert main(["gc", "--checkpoint", str(out)]) == 0
    ran = []
    monkeypatch.setattr(cli, "cmd_gc", lambda args: ran.append(args.checkpoint) or 0)
    assert main(["gc", "--checkpoint", str(out)]) == 0
    assert ran == [str(out)]
    assert cli.build_parser.cache_info().misses == 1


def test_search_space_key_drives_init_and_run(tmp_path, capsys):
    table = _shipped_table()
    # values outside the shipped space, and mu = 1 so every child steps every field
    table["mu"] = {"values": [0.95, 1.0], "default": 1.0}
    table["learning_rate"] = {"values": [0.003, 0.03, 0.3], "default": 0.03}
    (tmp_path / "space.json").write_text(json.dumps(table))
    space = SearchSpace(table)
    config, out = write_config(tmp_path, search_space=str(tmp_path / "space.json"))
    assert main(["init", "--config", str(config)]) == 0
    assert load(out / "latest").retained_models["root"].genome == space.default_genome()

    assert main(["run", "--config", str(config)]) == 0
    rows = [json.loads(l) for l in (out / "reports" / "children.jsonl").read_text().splitlines()]
    for row in rows:
        steps = dict(row["mutations"]["hyper"])
        assert steps["learning_rate"] in (0.003, 0.3)
        assert all(value in space.values[name] for name, value in steps.items())
    space.validate_genome(load(out / "latest").retained_models["ta"].genome)


# case -> (field, values, default) with a value the optimizer rejects
OUT_OF_RANGE = {
    "negative learning_rate": ("learning_rate", [-0.5, -0.1, 0.01], -0.1),
    "momentum above 1": ("momentum", [0.9, 1.5], 1.5),
    "warmup_ratio of 1": ("warmup_ratio", [0.1, 1.0], 0.1),
}


@pytest.mark.parametrize("command", ["init", "run"])
@pytest.mark.parametrize("case", ["missing file", "not json", "no values", "no default", "mixed types",
                                  "not an object", *OUT_OF_RANGE])
def test_bad_search_space_is_a_config_error(tmp_path, capsys, command, case):
    space_file = tmp_path / "space.json"
    table = _shipped_table()
    if case in OUT_OF_RANGE:
        name, values, default = OUT_OF_RANGE[case]
        table[name] = {"values": values, "default": default}
    elif case == "no values":
        del table["momentum"]["values"]
    elif case == "no default":
        del table["momentum"]["default"]
    elif case == "mixed types":
        table["momentum"] = {"values": [0.9, "x"], "default": 0.9}
    elif case == "not an object":
        table = [table]
    if case == "not json":
        space_file.write_text("{")
    elif case != "missing file":
        space_file.write_text(json.dumps(table))
    if command == "run":
        config, out = write_config(tmp_path)
        assert main(["init", "--config", str(config)]) == 0
        before = manifest_hash(out / "latest")
    config, out = write_config(tmp_path, search_space=str(space_file))
    capsys.readouterr()
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: search_space: ")
    assert case not in OUT_OF_RANGE or repr(OUT_OF_RANGE[case][0]) in err
    if command == "init":
        assert not out.exists()
    else:
        assert os.listdir(out) == ["latest"] and manifest_hash(out / "latest") == before


# Flags that duplicated a config key (search_space, seed, output_dir, replicas).
DELETED_FLAGS = {"init": [["--search-space", "space.json"], ["--seed", "3"], ["--checkpoint", "elsewhere"]],
                 "run": [["--search-space", "space.json"], ["--checkpoint", "elsewhere"], ["--replicas", "3"]]}


@pytest.mark.parametrize("command", ["init", "run"])
def test_search_space_flag_is_gone(tmp_path, command):
    config, out = write_config(tmp_path)
    for flag in DELETED_FLAGS[command]:
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config), *flag])
        assert exc.value.code == 2
    assert not out.exists()


def _load_root_config(tmp_path, source, **overrides):
    """A config that extends the checkpoint `source`, without the keys set to None."""
    config, out = write_config(tmp_path, **{"root": {"mode": "load-checkpoint", "path": str(source)},
                                            "output_dir": str(tmp_path / "out"), **overrides})
    cfg = {k: v for k, v in json.loads(config.read_text()).items() if v is not None}
    config.write_text(json.dumps(cfg))
    return config, out


@pytest.mark.parametrize("seed", [5, None])
def test_config_seed_replaces_a_loaded_roots_seed(tmp_path, capsys, seed):
    config, out = write_config(tmp_path / "src")
    assert main(["init", "--config", str(config)]) == 0
    assert load(out / "latest").rng_seed == 77
    config, cont = _load_root_config(tmp_path / "cont", out / "latest", seed=seed)
    assert main(["init", "--config", str(config)]) == 0
    assert load(cont / "latest").rng_seed == (77 if seed is None else seed)


def test_config_arch_must_match_a_loaded_root(tmp_path, capsys):
    config, out = write_config(tmp_path / "src")
    assert main(["init", "--config", str(config)]) == 0
    before = manifest_hash(out / "latest")
    # re-initialize the same output root from its own checkpoint, with a wider model
    config, _ = _load_root_config(tmp_path / "cont", out / "latest", output_dir=str(out),
                                  arch={"hidden_dim": 48})
    capsys.readouterr()
    assert main(["init", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: arch: ")
    assert os.listdir(out) == ["latest"] and manifest_hash(out / "latest") == before
    # without the key the loaded arch stands
    config, _ = _load_root_config(tmp_path / "cont", out / "latest", output_dir=str(out), arch=None)
    assert main(["init", "--config", str(config)]) == 0


def test_init_rejects_a_loaded_genome_outside_the_search_space(tmp_path, capsys):
    config, out = write_config(tmp_path / "src")
    assert main(["init", "--config", str(config)]) == 0
    before = manifest_hash(out / "latest")
    root_mu = load(out / "latest").retained_models["root"].genome.mu
    table = _shipped_table()
    table["mu"] = {"values": [v for v in table["mu"]["values"] if v != root_mu]}
    table["mu"]["default"] = table["mu"]["values"][0]
    (tmp_path / "space.json").write_text(json.dumps(table))
    # re-initialize the same output root from its own checkpoint under the narrower space
    config, _ = _load_root_config(tmp_path / "cont", out / "latest", output_dir=str(out),
                                  search_space=str(tmp_path / "space.json"))
    capsys.readouterr()
    assert main(["init", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: search_space: ") and "'root'" in err and "mu=" in err
    assert os.listdir(out) == ["latest"] and manifest_hash(out / "latest") == before


def _run_two_tasks(tmp_path, ta_acl):
    """`run` on ta then tb; with seed 80 tb's retained path holds a layer trained on ta
    when ta's ACL admits tb."""
    config, out = write_config(tmp_path, seed=80, schedule=[{"task": "ta"}, {"task": "tb"}],
                               tasks=[glyph_task("ta", acl=ta_acl), glyph_task("tb", seed=6)])
    assert main(["init", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config)]) == 0
    state = load(out / "latest")
    owners = {t for lid in state.retained_models["tb"].path for t, _ in state.store.get(lid).trained_on}
    return out, owners


def test_init_rejects_an_acl_that_a_retained_model_breaks(tmp_path, capsys):
    out, owners = _run_two_tasks(tmp_path / "src", "public")
    assert "ta" in owners
    before = manifest_hash(out / "latest")
    capsys.readouterr()
    config, _ = _load_root_config(tmp_path / "cont", out / "latest", output_dir=str(out),
                                  tasks=[glyph_task("ta", acl="private")], schedule=[{"task": "tb"}])
    assert main(["init", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: tasks: ") and "'tb'" in err and "['ta']" in err
    assert manifest_hash(out / "latest") == before
    # the same root under a new output directory: `latest` is never written
    config, cont = _load_root_config(tmp_path / "new", out / "latest",
                                     tasks=[glyph_task("ta", acl="private")], schedule=[{"task": "tb"}])
    assert main(["init", "--config", str(config)]) == 2
    assert not cont.exists()


def test_init_accepts_a_loosened_acl(tmp_path, capsys):
    out, owners = _run_two_tasks(tmp_path / "src", "private")
    assert "ta" not in owners
    config, cont = _load_root_config(tmp_path / "cont", out / "latest",
                                     tasks=[glyph_task("ta")], schedule=[{"task": "tb"}])
    assert main(["init", "--config", str(config)]) == 0
    assert load(cont / "latest").tasks["ta"].acl.mode.value == "public"
    assert main(["run", "--config", str(config)]) == 0


@pytest.mark.parametrize("kind, fmt", [("params", "dot"), ("graph", "csv"), ("provenance", "csv"),
                                       ("provenance", "dot"), ("variance", "csv"), ("variance", "dot"),
                                       ("params", "xml")])
def test_report_rejects_a_format_the_view_lacks(tmp_path, capsys, kind, fmt):
    config, out = write_config(tmp_path)
    assert main(["init", "--config", str(config)]) == 0
    capsys.readouterr()
    report = tmp_path / "report.txt"
    assert main(["report", kind, "--checkpoint", str(out), "--format", fmt, "--out", str(report)]) == 2
    assert capsys.readouterr().err.startswith("error: --format: ")
    assert not report.exists()


def test_workers_is_not_an_evolution_config_field(tmp_path, capsys):
    # --workers is a run-time flag; the experiment config cannot carry it.
    config, out = write_config(tmp_path, evolution={
        "num_generations": 1, "children_per_generation": 2, "train_cycles": 2,
        "samples_cap": 48, "workers": 2})
    assert main(["init", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "evolution.workers" in err and "unknown field" in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_run_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    config, out = write_config(tmp_path)
    assert main(["init", "--config", str(config)]) == 0
    before = manifest_hash(out / "latest")
    assert main(["run", "--config", str(config), "--workers", workers]) == 2
    assert "--workers" in capsys.readouterr().err
    assert manifest_hash(out / "latest") == before
    assert not (out / "reports").exists()


def test_replicated_run_writes_sibling_outputs_and_variance(tmp_path, capsys):
    config, out = write_config(tmp_path, replicas=2)
    assert main(["init", "--config", str(config)]) == 0
    init_hash = manifest_hash(out / "latest")
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert sorted(os.listdir(out)) == ["latest", "replica_0", "replica_1"]
    assert manifest_hash(out / "latest") == init_hash  # replicas load it, never write it
    seeds = {load(out / f"replica_{r}" / "latest").rng_seed for r in (0, 1)}
    assert len(seeds | {load(out / "latest").rng_seed}) == 3
    for r in (0, 1):
        assert os.listdir(out / f"replica_{r}" / "reports") == ["children.jsonl"]

    variance = summary["variance"]
    assert variance["per_task"]["ta"]["replicas"] == 2
    assert variance["per_task"]["ta"]["std"] is not None
    assert len(summary["test_accuracy"]["ta"]) == 2
    assert main(["report", "variance", "--checkpoint", str(out)]) == 0
    report = capsys.readouterr().out
    assert json.loads(report) == variance
    # the view scores the replicas alone: the root's own checkpoint may be gone
    shutil.rmtree(out / "latest")
    assert main(["report", "variance", "--checkpoint", str(out)]) == 0
    assert capsys.readouterr().out == report


def test_report_variance_builds_each_task_once(tmp_path, capsys, counted_builds):
    config, out = write_config(tmp_path, tasks=[glyph_task("ta"), glyph_task("tb", seed=6)], replicas=3,
                               schedule=[{"task": "ta"}, {"task": "tb"}])
    assert main(["init", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 0
    summary = json.loads(capsys.readouterr().out)
    counted_builds.clear()
    assert main(["report", "variance", "--checkpoint", str(out)]) == 0
    # the replicas' recipes are equal, so the three replicas share one build of each task
    assert sorted(counted_builds) == [("ta", True), ("tb", True)]
    assert json.loads(capsys.readouterr().out) == summary["variance"]


@pytest.mark.parametrize("replicas", [0, -1])
def test_run_rejects_fewer_than_one_replica(tmp_path, capsys, replicas):
    config, out = write_config(tmp_path)
    assert main(["init", "--config", str(config)]) == 0
    before = manifest_hash(out / "latest")
    config, out = write_config(tmp_path, replicas=replicas)
    capsys.readouterr()
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: replicas: ")
    assert os.listdir(out) == ["latest"]
    assert manifest_hash(out / "latest") == before


def _blobs_match_manifests(root):
    for manifest in root.rglob(MANIFEST):
        listed = {entry["file"] for entry in json.loads(manifest.read_text())["layers"].values()}
        assert {blob.name for blob in manifest.parent.glob("*.bin")} == listed, manifest.parent
        assert not list(manifest.parent.glob("*.tmp")), manifest.parent


def test_checkpoint_directories_hold_only_their_manifests_blobs(tmp_path, capsys):
    # Later iterations replace the private task's retained model, and the replaced
    # model's layers are collected: none of their blobs may stay on disk.
    config, out = write_config(
        tmp_path, seed=5,
        arch={"hidden_dim": 32, "num_heads": 2, "mlp_dim": 64, "patch_size": 4,
              "image_resolution": 24, "channels": 1},
        tasks=[{"type": "synthetic_glyphs", "name": "tp", "num_classes": 6, "samples_per_class": 15,
                "noise": 0.0, "seed": 5, "resolution": 24, "patch_size": 4, "acl": {"mode": "private"}}],
        schedule=[{"task": "tp", "iterations": 3}],
        evolution={**EVOLUTION, "num_generations": 2, "children_per_generation": 3,
                   "train_cycles": 3, "samples_cap": 64})
    assert main(["init", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config)]) == 0
    first, last = (load(out / d).store.ids() for d in ("checkpoints/000_tp", "latest"))
    assert set(first) - set(last)  # the run collected layers it had saved to latest
    _blobs_match_manifests(out)
    assert main(["gc", "--checkpoint", str(out)]) == 0
    _blobs_match_manifests(out)


def test_gc_removes_an_unreachable_layer_and_a_no_op_gc_writes_nothing(tmp_path, capsys):
    config, out = write_config(tmp_path)
    assert main(["init", "--config", str(config)]) == 0
    latest = out / "latest"
    state = load(latest)
    stray = make_record(LayerKind.TRANSFORMER, state.arch, seed=3, creator="ta")
    state.store.insert(stray)
    save(state, latest)
    capsys.readouterr()

    assert main(["gc", "--checkpoint", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["removed_layers"] == 1
    assert stray.id not in json.loads((latest / MANIFEST).read_text())["layers"]
    assert not (latest / f"{stray.id}.bin").exists()
    collected = manifest_hash(latest)
    save(load(latest), tmp_path / "resaved")
    assert manifest_hash(tmp_path / "resaved") == collected

    def files():
        return {f.name: (f.stat().st_ino, f.stat().st_mtime_ns, f.read_bytes()) for f in latest.iterdir()}

    before = files()
    assert main(["gc", "--checkpoint", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["removed_layers"] == 0
    assert files() == before

    # a stale blob and an interrupted write's leftover: a no-op gc deletes both
    (latest / "x.bin").write_bytes(b"stale")
    (latest / "y.bin.tmp").write_bytes(b"partial")
    assert main(["gc", "--checkpoint", str(out)]) == 0
    assert files() == before
    assert manifest_hash(latest) == collected


def raw_task(tmp_path, name, seed=8):
    """A raw dataset directory holding a 6-class glyph task; returns its config entry."""
    t = make_synthetic_glyph_task(name, num_classes=6, samples_per_class=15, noise=0.0, seed=seed)
    save_raw_dataset(tmp_path / name, name, t.num_classes, t.splits)
    return {"type": "raw", "name": name, "path": str(tmp_path / name), "acl": {"mode": "public"}}


def test_init_rejects_a_raw_header_whose_name_is_not_a_string(tmp_path, capsys):
    entry = raw_task(tmp_path, "tr")
    header = Path(entry["path"]) / "header.json"
    header.write_text(json.dumps({**json.loads(header.read_text()), "name": 5}))
    config, out = write_config(tmp_path, tasks=[glyph_task("ta"), entry])
    assert main(["init", "--config", str(config)]) == 3
    assert capsys.readouterr().err.startswith("error: malformed header: ")
    assert not (out / "latest").exists()


def test_a_raw_task_is_scheduled_by_its_header_name(tmp_path, capsys):
    entry = raw_task(tmp_path, "tr")
    del entry["name"]
    config, out = write_config(tmp_path, tasks=[entry], schedule=[{"task": "tr"}])
    assert main(["init", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config)]) == 0
    assert "tr" in load(out / "latest").retained_models


def test_init_rejects_a_raw_entry_named_unlike_its_header(tmp_path, capsys):
    entry = {**raw_task(tmp_path, "tr"), "name": "tx"}
    config, out = write_config(tmp_path, tasks=[entry], schedule=[{"task": "tx"}])
    assert main(["init", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: tasks[0].name: ")
    assert not (out / "latest").exists()


def test_run_rejects_a_task_the_checkpoint_lacks_before_any_child_trains(tmp_path, capsys):
    config, out = write_config(tmp_path)
    assert main(["init", "--config", str(config)]) == 0
    files = {f.name: f.read_bytes() for f in (out / "latest").iterdir()}
    capsys.readouterr()
    # tb is listed in the config but was never registered in the checkpoint
    config, out = write_config(tmp_path, tasks=[glyph_task("ta"), glyph_task("tb", seed=6)],
                               schedule=[{"task": "ta"}, {"task": "tb"}])
    assert main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: schedule[1].task: unknown task 'tb'")
    assert sorted(p.name for p in out.iterdir()) == ["latest"]
    assert {f.name: f.read_bytes() for f in (out / "latest").iterdir()} == files


@pytest.fixture
def counted_builds(monkeypatch):
    """Every task build from now on, as (recipe name or path, built on the main thread)."""
    builds = []
    original = tasks_module.build_task

    def counting(recipe, acl):
        builds.append((recipe.get("name", recipe.get("path")),
                       threading.current_thread() is threading.main_thread()))
        return original(recipe, acl)

    monkeypatch.setattr(tasks_module, "build_task", counting)
    return builds


def test_commands_build_only_the_task_data_they_read(tmp_path, capsys, counted_builds):
    noisy = {**glyph_task("tb", seed=6), "noise": 0.1}
    config, out = write_config(tmp_path, tasks=[glyph_task("ta"), noisy],
                               schedule=[{"task": "ta"}, {"task": "tb"}])
    assert main(["init", "--config", str(config)]) == 0
    assert counted_builds == []
    assert main(["run", "--config", str(config)]) == 0
    counted_builds.clear()

    before = manifest_hash(out / "latest")
    assert main(["gc", "--checkpoint", str(out)]) == 0
    assert manifest_hash(out / "latest") == before
    for kind in ("params", "graph", "provenance"):
        assert main(["report", kind, "--checkpoint", str(out)]) == 0
    assert counted_builds == []

    assert main(["eval", "ta", "--checkpoint", str(out)]) == 0
    assert counted_builds == [("ta", True)]

    counted_builds.clear()
    config, out = write_config(tmp_path, tasks=[glyph_task("ta"), noisy], replicas=2,
                               schedule=[{"task": "ta"}, {"task": "tb"}])
    assert main(["run", "--config", str(config), "--workers", "2"]) == 0
    # once per task, on the calling thread: the replicas share the first one's data
    assert sorted(counted_builds) == [("ta", True), ("tb", True)]


def flip_a_test_byte(tmp_path):
    test_bin = tmp_path / "tr" / "test.bin"
    blob = bytearray(test_bin.read_bytes())
    blob[0] ^= 0xFF
    test_bin.write_bytes(bytes(blob))


@pytest.mark.parametrize("change, error", [
    (flip_a_test_byte, "checksum mismatch"),
    # a different dataset whose header matches its own blobs
    (lambda tmp_path: raw_task(tmp_path, "tr", seed=9), "rebuilt task 'tr' does not match its manifest entry"),
], ids=["flipped-byte", "replaced-dataset"])
def test_a_changed_raw_dataset_stops_only_the_commands_that_read_it(tmp_path, capsys, change, error):
    config, out = write_config(tmp_path, tasks=[glyph_task("ta"), raw_task(tmp_path, "tr")],
                               schedule=[{"task": "ta"}, {"task": "tr"}])
    assert main(["init", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config)]) == 0
    change(tmp_path)
    rows = (out / "reports" / "children.jsonl").read_text()
    before = manifest_hash(out / "latest")
    capsys.readouterr()

    assert main(["gc", "--checkpoint", str(out)]) == 0
    assert main(["eval", "ta", "--checkpoint", str(out)]) == 0
    capsys.readouterr()
    assert main(["eval", "tr", "--checkpoint", str(out)]) == 3
    assert error in capsys.readouterr().err
    # tr is scheduled second, yet run stops before any child of ta trains
    assert main(["run", "--config", str(config)]) == 3
    assert error in capsys.readouterr().err
    assert (out / "reports" / "children.jsonl").read_text() == rows
    assert manifest_hash(out / "latest") == before


def swap_class_token_and_position_embedding(model):
    path = model["path"]
    path[1], path[2] = path[2], path[1]


def edit_score(model):
    assert model["score"] < 1.0
    model["score"] = 1.0  # the stored model_id hashes the old score


def files_under(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("edit, error", [
    (swap_class_token_and_position_embedding, "path kinds ['patch_embedding', 'position_embedding', 'class_token'"),
    (edit_score, "is not the hash of its record"),
], ids=["swapped-path", "stale-model-id"])
def test_a_hand_edited_model_is_a_data_error_at_load(tmp_path, capsys, evograft_cli, edit, error):
    config, out = write_config(tmp_path)
    assert main(["init", "--config", str(config)]) == 0
    assert main(["run", "--config", str(config)]) == 0
    commands = [["eval", "ta"], ["gc"], ["report", "params"]]
    code, _, err = evograft_cli(*commands[-1], "--checkpoint", out)
    assert code == 0, err
    manifest = json.loads((out / "latest" / MANIFEST).read_text())
    edit(manifest["retained_models"]["ta"])
    (out / "latest" / MANIFEST).write_text(json.dumps(manifest))
    files = files_under(tmp_path)

    for command in commands:
        code, stdout, err = evograft_cli(*command, "--checkpoint", out)
        assert (code, stdout) == (3, ""), err
        assert err.startswith("error: malformed manifest: ") and error in err
    assert files_under(tmp_path) == files
