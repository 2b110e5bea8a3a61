"""Tests of the benchmark itself: `python3 -m pytest bench/test_bench.py`."""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from evograft import cli, evolution, persistence  # noqa: E402
from evograft.evolution import EvolutionConfig, run_task_iteration  # noqa: E402
from evograft.nn.config import ArchConfig, LayerKind  # noqa: E402
from evograft.system import build_root_state, register_task  # noqa: E402
from evograft.tasks import AccessPolicy, build_task  # noqa: E402
from evograft.util import derive_seed  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from workloads import PRIVATE, PUBLIC, SPECS, Spec, Workload, experiment, make_deep_root  # noqa: E402


def test_desk_session_hash_equals_direct_iteration(tmp_path):
    spec = SPECS["evolve_desk"]
    w = Workload(spec, 3, tmp_path / "work", Tracer())
    session = w.session(0, traced=False)
    assert [c.failures for c in w.op.commands if c.failed] == []

    cfg = experiment(spec, derive_seed(3, 0), tmp_path / "unused", None)
    state = build_root_state(ArchConfig(), cfg["seed"])
    (task,) = cfg["tasks"]
    recipe = {k: v for k, v in task.items() if k != "acl"}
    register_task(state, build_task(recipe, AccessPolicy.from_dict(task["acl"])))
    run_task_iteration(state, task["name"], EvolutionConfig.from_dict(cfg["evolution"]))
    persistence.save(state, tmp_path / "direct")
    assert persistence.manifest_hash(tmp_path / "direct") == session.manifest_hash


def test_deep_root_is_accepted_by_init(tmp_path):
    make_deep_root(tmp_path / "root", seed=5, depth=4)
    cfg = experiment(SPECS["evolve_deep"], 5, tmp_path / "out", tmp_path / "root")
    (tmp_path / "experiment.json").write_text(json.dumps(cfg))
    assert cli.main(["init", "--config", str(tmp_path / "experiment.json")]) == 0
    state = persistence.load(tmp_path / "out" / "latest")
    kinds = [state.store.get(lid).kind for lid in state.retained_models["root"].path]
    assert kinds.count(LayerKind.TRANSFORMER) == 4
    assert sorted(state.tasks) == ["priv", "pub"]


def test_tracing_keeps_the_manifest_hash_and_restores_functions(tmp_path):
    spec = Spec("tiny", workers=2, root_depth=1, tasks=(("pub", 10, PUBLIC), ("priv", 10, PRIVATE)),
                evolution={"num_generations": 1, "children_per_generation": 2, "train_cycles": 1,
                           "samples_cap": 32, "batch_size": 16, "allow_insert": True})
    original = evolution.train_child
    tracer = Tracer()
    w = Workload(spec, 7, tmp_path / "work", tracer)
    plain = w.session(0, traced=False)
    with tracer.installed():
        assert evolution.train_child is not original
        traced = w.session(0, traced=True)
    assert evolution.train_child is original
    assert plain.manifest_hash == traced.manifest_hash
    assert [c.failures for c in w.op.commands if c.failed] == []

    by_id = {s.sid: s for s in tracer.spans}
    children = [s for s in tracer.spans if s.name == "evolution.train_child"]
    assert len(children) == 4
    assert {by_id[s.parent].name for s in children} == {"evolution.run_task_iteration"}
    assert {s.name for s in tracer.spans} >= {"cli.run", "cli.eval", "cli.gc", "nn.layers.backward",
                                              "persistence.save", "tasks.build_task", "store.insert"}


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [Span(0, "parent", 0, 100, None, 1, None),
             Span(1, "a", 10, 50, 0, 2, None), Span(2, "b", 30, 70, 0, 3, None),
             Span(3, "c", 80, 90, 0, 1, None), Span(4, "inner", 12, 20, 1, 2, None)]
    selfs = self_times(spans)
    assert selfs[0] == 100 - 60 - 10
    assert selfs[1] == 40 - 8
