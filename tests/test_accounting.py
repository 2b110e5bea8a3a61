import json
import math
import re

import numpy as np
import pytest

from evograft.accounting import (export_graph, graph_document, param_report, params_csv,
                                 variance_summary)
from evograft.mutation import Genome
from evograft.nn.config import LayerKind
from evograft.store import LayerStore, ModelRecord, SystemState

from conftest import make_record, stripped_path_records


def model_of(task, path_ids, seq, score=0.9):
    genome = Genome()
    mid = ModelRecord.make_id(task, tuple(path_ids), genome, None, score, 5, seq)
    return ModelRecord(model_id=mid, task=task, path=tuple(path_ids), genome=genome,
                       score=score, selection_counts={}, parent=None, train_steps_done=5,
                       created_seq=seq)


@pytest.fixture
def three_task_state(arch):
    """root + two tasks sharing the root input stack; t2 reuses t1's transformer."""
    store = LayerStore()
    base = stripped_path_records(arch, seed=0, creator="root")
    for r in base:
        store.insert(r)
    t1_layer = make_record(LayerKind.TRANSFORMER, arch, seed=1, creator="t1",
                           trained_on=(("t1", 30),))
    t1_head = make_record(LayerKind.HEAD, arch, seed=2, creator="t1",
                          trained_on=(("t1", 30),), num_classes=6)
    t2_head = make_record(LayerKind.HEAD, arch, seed=3, creator="t2",
                          trained_on=(("t2", 20),), num_classes=4)
    for r in (t1_layer, t1_head, t2_head):
        store.insert(r)
    stem = [r.id for r in base[:3]]
    retained = {
        "root": model_of("root", [r.id for r in base], 0, score=None),
        "t1": model_of("t1", stem + [t1_layer.id, t1_head.id], 1),
        "t2": model_of("t2", stem + [t1_layer.id, t2_head.id], 2),
    }
    return SystemState(store=store, arch=arch, tasks={}, retained_models=retained,
                       rng_seed=0, generation_counter=7)


class TestParamReport:
    def test_single_task_owns_everything(self, arch):
        records = stripped_path_records(arch, creator="solo")
        store = LayerStore()
        for r in records:
            store.insert(r)
        state = SystemState(store=store, arch=arch, tasks={},
                            retained_models={"solo": model_of("solo", [r.id for r in records], 0)},
                            rng_seed=0)
        report = param_report(state)
        entry = report.per_task["solo"]
        assert entry.activated_fraction == 1.0
        assert entry.added_params == report.total_params

    def test_brute_force_recount_oracle(self, three_task_state):
        state = three_task_state
        report = param_report(state)
        # Oracle: recount by walking paths and store contents directly.
        size = {lid: sum(a.size for a in state.store.get(lid).params.values())
                for lid in state.store.ids()}
        assert report.total_params == sum(size.values())
        reachable = set()
        for m in state.retained_models.values():
            reachable |= set(m.path)
        for task, m in state.retained_models.items():
            expected_activated = sum(size[l] for l in set(m.path))
            expected_added = sum(size[l] for l in reachable
                                 if state.store.get(l).creator_task == task)
            entry = report.per_task[task]
            assert entry.activated_params == expected_activated
            assert entry.added_params == expected_added
            assert entry.activated_fraction == expected_activated / report.total_params

    def test_conservation_added_sums_to_total(self, three_task_state):
        report = param_report(three_task_state)
        assert sum(p.added_params for p in report.per_task.values()) == report.total_params

    def test_sharing_limit_task2_adds_only_its_head(self, three_task_state, arch):
        report = param_report(three_task_state)
        head_params = arch.hidden_dim * 4 + 4
        assert report.per_task["t2"].added_params == head_params

    def test_activated_fraction_bounded_by_one(self, three_task_state):
        report = param_report(three_task_state)
        for p in report.per_task.values():
            assert 0.0 < p.activated_fraction <= 1.0

    def test_report_is_idempotent(self, three_task_state):
        a = param_report(three_task_state).to_dict()
        b = param_report(three_task_state).to_dict()
        assert a == b

    def test_csv_fractions_match(self, three_task_state):
        report = param_report(three_task_state)
        csv = params_csv(report)
        lines = csv.strip().splitlines()
        assert lines[0] == "task,activated_params,activated_fraction,added_params,total_params"
        for line in lines[1:]:
            task, act, frac, added, total = line.split(",")
            assert float(frac) == report.per_task[task].activated_fraction


DOT_NODE = re.compile(r'^\s+"[^"]+" \[[^\]]*\];$')
DOT_EDGE = re.compile(r'^\s+"[^"]+" -> "[^"]+" \[[^\]]*\];$')


class TestGraphExport:
    def test_root_only_system_is_a_single_chain(self, arch):
        records = stripped_path_records(arch, creator="root")
        store = LayerStore()
        for r in records:
            store.insert(r)
        state = SystemState(store=store, arch=arch, tasks={},
                            retained_models={"root": model_of("root", [r.id for r in records], 0,
                                                              score=None)},
                            rng_seed=0)
        doc = graph_document(state)
        assert len(doc["edges"]) == len(records)  # input node plus the layer chain
        chain = [doc["edges"][0]["from"]] + [e["to"] for e in doc["edges"]]
        assert chain[0] == "input:root"
        assert chain[1:] == [r.id for r in records]

    def test_dot_output_parses_under_a_grammar_check(self, three_task_state):
        dot = export_graph(three_task_state, "dot")
        lines = dot.strip().splitlines()
        assert lines[0] == "digraph multitask {"
        assert lines[-1] == "}"
        for line in lines[1:-1]:
            assert (DOT_NODE.match(line) or DOT_EDGE.match(line)
                    or line.strip().startswith(("rankdir", "node "))), line

    def test_edge_count_equals_path_lengths(self, three_task_state):
        doc = graph_document(three_task_state)
        for task, m in three_task_state.retained_models.items():
            edges = [e for e in doc["edges"] if e["task"] == task]
            assert len(edges) == len(m.path)
            assert edges[0]["from"] == f"input:{task}"

    def test_json_roundtrip_and_node_fields(self, three_task_state):
        doc = json.loads(export_graph(three_task_state, "json"))
        assert set(doc) == {"nodes", "edges", "tasks"}
        for n in doc["nodes"]:
            assert set(n) == {"id", "kind", "creator_task", "last_trained_by", "params"}

    def test_deterministic_output(self, three_task_state):
        assert export_graph(three_task_state, "dot") == export_graph(three_task_state, "dot")

    def test_shared_node_colored_by_last_trainer(self, three_task_state):
        doc = graph_document(three_task_state)
        shared = [n for n in doc["nodes"] if n["creator_task"] == "t1"
                  and n["kind"] == "transformer"]
        assert shared and shared[0]["last_trained_by"] == "t1"


class TestVarianceSummary:
    def test_identical_replicas_zero_std(self):
        out = variance_summary({"a": [0.9, 0.9, 0.9]})
        assert out["per_task"]["a"]["std"] == 0.0
        assert out["per_task"]["a"]["mean"] == pytest.approx(0.9)

    def test_population_std_arithmetic(self):
        out = variance_summary({"a": [0.8, 0.9, 1.0]})
        assert out["per_task"]["a"]["mean"] == pytest.approx(0.9)
        assert out["per_task"]["a"]["std"] == pytest.approx(math.sqrt(2 / 300), rel=1e-9)

    def test_single_replica_omits_std(self):
        out = variance_summary({"a": [0.8]})
        assert out["per_task"]["a"]["std"] is None

    def test_log_log_fit_recovers_exact_line(self):
        # std = exp(b) * error^s with s = -0.7, b = 0.3
        s_true, b_true = -0.7, 0.3
        tasks = {}
        spc = {}
        for i, err in enumerate([0.02, 0.05, 0.1, 0.2, 0.4]):
            std = math.exp(b_true) * err ** s_true
            mean = 1.0 - err
            # two replica values with the desired population std and mean
            tasks[f"t{i}"] = [mean - std, mean + std]
            spc[f"t{i}"] = 100 * (i + 1)
        out = variance_summary(tasks, spc)
        fit = out["fits"]["error_rate"]
        assert fit["slope"] == pytest.approx(s_true, abs=1e-9)
        assert fit["intercept"] == pytest.approx(b_true, abs=1e-9)

    def test_samples_per_class_fit_present(self):
        out = variance_summary({"a": [0.8, 0.9], "b": [0.7, 0.75], "c": [0.6, 0.68]},
                               {"a": 10, "b": 100, "c": 1000})
        assert out["fits"]["samples_per_class"] is not None
        assert out["fits"]["samples_per_class"]["points"] == 3

    def test_degenerate_points_dropped_from_fit(self):
        out = variance_summary({"a": [0.9, 0.9], "b": [1.0, 1.0]})
        assert out["fits"]["error_rate"] is None
