"""End-to-end metrics from a workload's commands, per-layer metrics from its spans.

Per-layer counts are means per traced session. Times are means per call
unless the name says otherwise; shares are over the wall time of the traced
CLI commands.
"""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict

from spans import Span, self_times, union_ns
from workloads import Workload

KINDS = ("patch_embedding", "class_token", "position_embedding", "transformer", "head")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] if ordered else 0.0


def end_to_end(w: Workload) -> tuple[dict, dict, dict]:
    """(metrics, sample counts, unbounded figures) of an untraced run.

    `eval_s_p90` is reported unbounded: a run sees 20 to 30 `eval` calls,
    fewer than the 100 that leave ten samples above a p90."""
    evals = [c.seconds for c in w.op.commands if c.name == "eval"]
    gcs = [c.seconds for c in w.op.commands if c.name == "gc"]
    trained = w.spec.children_per_run * len(w.run_seconds)
    values = {
        "setup_s": (statistics.median(s.seconds for s in w.setups), "s"),
        "children_per_s": (trained / sum(w.run_seconds), "1/s"),
        "ckpt_disk_mb": (statistics.fmean(w.disk_bytes) / 1e6, "MB"),
        "eval_s_p50": (statistics.median(evals), "s"),
        "gc_s_p50": (statistics.median(gcs), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"setups": len(w.setups), "runs": len(w.run_seconds), "children": trained,
               "evals": len(evals), "gcs": len(gcs)}
    return ({k: {"value": v, "unit": u} for k, (v, u) in values.items()}, samples,
            {"eval_s_p90": {"value": percentile(evals, 90), "unit": "s"}})


def _dur(s: Span) -> int:
    return s.end - s.start


def _mean(spans, scale: float) -> float:
    return sum(map(_dur, spans)) / len(spans) / scale if spans else 0.0


def _share(part_ns: float, whole_ns: float) -> float:
    return part_ns / whole_ns if whole_ns else 0.0


def per_layer(w: Workload, spans: list[Span], sessions: int, overhead_pct: float) -> tuple[dict, dict]:
    """(metrics, sample counts) of the traced sessions of a run."""
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    ids = {s.sid: s for s in spans}
    selfs = self_times(spans)
    cmd_ns = sum(_dur(s) for s in spans if s.name.startswith("cli."))
    per_session = 1.0 / sessions
    m: dict[str, tuple[float, str]] = {}

    pre_train = [s for s in by["nn.preprocess"] if s.attrs["train"]]
    pre_eval = [s for s in by["nn.preprocess"] if not s.attrs["train"]]
    m["preprocess.train.us"] = (_mean(pre_train, 1e3), "us")
    m["preprocess.train.share"] = (_share(sum(map(_dur, pre_train)), cmd_ns), "fraction")
    m["preprocess.eval.us"] = (_mean(pre_eval, 1e3), "us")

    fwd, bwd = defaultdict(list), defaultdict(list)
    for s in by["nn.layers.forward"]:
        fwd[s.attrs["kind"], s.attrs["batch"]].append(s)
    for s in by["nn.layers.backward"]:
        bwd[s.attrs["kind"], s.attrs["train"]].append(s)
    for kind in KINDS:
        m[f"layers.fwd.{kind}.b16.us"] = (_mean(fwd[kind, 16], 1e3), "us")
        m[f"layers.fwd.{kind}.b64.us"] = (_mean(fwd[kind, 64], 1e3), "us")
        m[f"layers.bwd.{kind}.train.us"] = (_mean(bwd[kind, True], 1e3), "us")
    frozen = bwd["transformer", False]
    m["layers.bwd.transformer.frozen.us"] = (_mean(frozen, 1e3), "us")
    m["layers.bwd.transformer.frozen.calls"] = (len(frozen) * per_session, "count")

    for name in ("forward", "backward"):
        calls = by[f"nn.network.{name}"]
        m[f"network.{name}.self_us"] = (
            sum(selfs[s.sid] for s in calls) / len(calls) / 1e3 if calls else 0.0, "us")

    steps = by["nn.optim.sgd_step"]
    m["optim.sgd_step.us"] = (_mean(steps, 1e3), "us")
    m["optim.sgd_step.calls"] = (len(steps) * per_session, "count")
    m["optim.rejected_steps"] = (sum(not s.attrs["ok"] for s in steps) * per_session, "count")

    children = by["evolution.train_child"]
    child_ids = {s.sid for s in children}
    validate = [s for s in by["evolution.score_path"] if s.parent in child_ids]
    retained = len(by["evolution.finalize_child"])
    m["evolution.train_child.s_p50"] = (
        statistics.median(map(_dur, children)) / 1e9 if children else 0.0, "s")
    m["evolution.validate.ms"] = (_mean(validate, 1e6), "ms")
    m["evolution.validate.share"] = (
        _share(sum(map(_dur, validate)), sum(map(_dur, children))), "fraction")
    m["evolution.children.trained"] = (len(children) * per_session, "count")
    m["evolution.children.retained"] = (retained * per_session, "count")
    m["evolution.children.diverged"] = (
        sum(s.attrs["diverged"] for s in children) * per_session, "count")
    m["evolution.retain_ratio"] = (_share(retained, len(children)), "fraction")

    # Generations are not functions: generation g of an iteration runs from its
    # first sample_parent to the next generation's first one, the last one up
    # to the iteration's garbage_collect.
    per_gen = w.spec.evolution["children_per_generation"]
    gens, busy_ns = [], 0
    for it in by["evolution.run_task_iteration"]:
        starts = sorted(s.start for s in by["evolution.sample_parent"] if s.parent == it.sid)[::per_gen]
        ends = starts[1:] + [min([s.start for s in by["store.garbage_collect"] if s.parent == it.sid]
                                 or [it.end])]
        gens += [end - start for start, end in zip(starts, ends)]
        busy_ns += sum(_dur(s) for s in children if s.parent == it.sid)
    m["evolution.generation.s_p50"] = (statistics.median(gens) / 1e9 if gens else 0.0, "s")
    m["evolution.worker_busy_frac"] = (_share(busy_ns, w.spec.workers * sum(gens)), "fraction")
    runs = by["cli.run"]
    run_ns = sum(map(_dur, runs))
    in_children = sum(union_ns((c.start, c.end) for c in children
                               if _ancestor(c, ids, "cli.run") == r.sid) for r in runs)
    m["evolution.serial.share"] = (_share(run_ns - in_children, run_ns), "fraction")

    samples, applies = by["mutation.sample_mutations"], by["mutation.apply_mutations"]
    m["mutation.sample_apply.us"] = (
        (sum(map(_dur, samples)) + sum(map(_dur, applies))) / len(samples) / 1e3 if samples else 0.0,
        "us")
    m["mutation.cloned_layers"] = (sum(s.attrs["cloned"] for s in samples) * per_session, "count")
    m["mutation.inserted_layers"] = (sum(s.attrs["inserted"] for s in samples) * per_session, "count")

    inserts = by["store.insert"]
    m["store.insert.us"] = (_mean(inserts, 1e3), "us")
    m["store.insert.calls"] = (len(inserts) * per_session, "count")
    m["store.insert.dedup"] = (sum(s.attrs["dedup"] for s in inserts) * per_session, "count")
    m["store.gc.removed"] = (
        sum(s.attrs["removed"] for s in by["store.garbage_collect"]) * per_session, "count")
    m["store.layers.final"] = (statistics.median(w.layers_final), "count")

    builds, loads = by["tasks.build_task"], by["persistence.load"]
    load_ids = {s.sid for s in loads}
    m["tasks.build_task.ms"] = (_mean(builds, 1e6), "ms")
    m["tasks.build_task.share_of_load"] = (
        _share(sum(_dur(s) for s in builds if s.parent in load_ids), sum(map(_dur, loads))), "fraction")
    allowed = by["tasks.model_allowed"]
    m["tasks.model_allowed.calls"] = (len(allowed) * per_session, "count")
    m["tasks.model_allowed.us"] = (_mean(allowed, 1e3), "us")

    saves = by["persistence.save"]
    for name, calls in (("save", saves), ("load", loads)):
        m[f"persistence.{name}.ms"] = (_mean(calls, 1e6), "ms")
        m[f"persistence.{name}.MBps"] = (
            _share(sum(s.attrs["bytes"] for s in calls) / 1e6, sum(map(_dur, calls)) / 1e9), "MB/s")
    m["persistence.bytes_written"] = (sum(s.attrs["bytes"] for s in saves) * per_session, "bytes")
    m["persistence.stale_blobs"] = (statistics.median(w.stale_blobs), "count")

    m["accounting.param_report.ms"] = (_mean(by["accounting.param_report"], 1e6), "ms")
    m["accounting.export_graph.ms"] = (_mean(by["accounting.export_graph"], 1e6), "ms")
    m["trace_overhead_pct"] = (overhead_pct, "%")

    counts = {"spans": len(spans), "sessions": sessions,
              "train_child": len(children), "generations": len(gens)}
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, counts


def _ancestor(span: Span, ids: dict, name: str) -> int | None:
    """Id of the nearest enclosing span called `name`."""
    while span.parent is not None:
        span = ids[span.parent]
        if span.name == name:
            return span.sid
    return None
