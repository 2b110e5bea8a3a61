"""Operator CLI: configure and run experiments, inspect state, export reports.

Subcommands: init, run, report, eval, gc. The CLI is a thin shell over the
library; every behavior here is reachable through the module APIs.

Exit codes: 0 success, 2 config/usage error, 3 data error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import accounting, persistence
from .errors import (AclError, ConfigError, CorruptionError, DataError, EvograftError,
                     InvariantError, StructuralError, ValidationError)
from .evolution import EvolutionConfig, run_schedule, score_model
from .mutation import SearchSpace
from .nn.config import ArchConfig
from .store import garbage_collect, provenance_report
from .system import build_root_state, register_task
from .tasks import AccessPolicy, TaskSpec, build_task
from .util import canonical_json


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _load_config(path: str) -> dict:
    p = Path(path)
    _expect(p.exists(), "config", f"file {path} does not exist")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})") from exc
    _expect(isinstance(cfg, dict), "config", "top level must be an object")
    return cfg


def _parse_experiment(cfg: dict):
    _expect("output_dir" in cfg, "output_dir", "required")
    _expect(isinstance(cfg.get("seed", 0), int), "seed", "must be an integer")
    arch = ArchConfig.from_dict({**ArchConfig().to_dict(), **cfg.get("arch", {})})
    root = cfg.get("root", {"mode": "from-scratch-stripped"})
    _expect(root.get("mode") in ("from-scratch-stripped", "load-checkpoint"),
            "root.mode", "must be from-scratch-stripped or load-checkpoint")
    if root["mode"] == "load-checkpoint":
        _expect("path" in root, "root.path", "required for load-checkpoint")

    tasks = cfg.get("tasks", [])
    _expect(isinstance(tasks, list), "tasks", "must be a list")
    for i, t in enumerate(tasks):
        _expect(isinstance(t, dict) and "type" in t, f"tasks[{i}]", "must be an object with a type")

    schedule = cfg.get("schedule", [])
    _expect(isinstance(schedule, list) and schedule, "schedule", "must be a non-empty list")
    task_names = {t.get("name") for t in tasks}
    for i, entry in enumerate(schedule):
        _expect(isinstance(entry, dict) and "task" in entry, f"schedule[{i}]", "needs a task")
        _expect(int(entry.get("iterations", 1)) >= 1, f"schedule[{i}].iterations", "must be >= 1")
        if root["mode"] != "load-checkpoint":
            _expect(entry["task"] in task_names, f"schedule[{i}].task",
                    f"unknown task {entry['task']!r}")

    evo = cfg.get("evolution", {})
    for key in ("num_generations", "children_per_generation", "train_cycles", "samples_cap"):
        _expect(key in evo, f"evolution.{key}", "required")
        _expect(isinstance(evo[key], int) and evo[key] > 0, f"evolution.{key}", "must be a positive integer")
    allowed = set(EvolutionConfig.__dataclass_fields__)
    for key in evo:
        _expect(key in allowed, f"evolution.{key}", f"unknown field (expected one of {sorted(allowed)})")
    replicas = int(cfg.get("replicas", 1))
    _expect(replicas >= 1, "replicas", "must be >= 1")
    return arch, root, tasks, schedule, evo, replicas


def _build_task_spec(entry: dict) -> TaskSpec:
    name = entry.get("name", "?")
    try:
        acl = AccessPolicy.from_dict(entry.get("acl", {"mode": "public"}))
        recipe = {k: v for k, v in entry.items() if k != "acl"}
        return build_task(recipe, acl)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"tasks[{name}]: {exc!r}") from exc


def _search_space(cfg: dict, args) -> SearchSpace:
    path = getattr(args, "search_space", None) or cfg.get("search_space")
    return SearchSpace.from_file(path) if path else SearchSpace.default()


def _latest_dir(output_dir: str) -> Path:
    return Path(output_dir) / "latest"


def cmd_init(args) -> int:
    cfg = _load_config(args.config)
    arch, root, tasks, schedule, evo, replicas = _parse_experiment(cfg)
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    space = _search_space(cfg, args)
    if root["mode"] == "load-checkpoint":
        state = persistence.load(root["path"])
        state.rng_seed = seed if args.seed is not None else state.rng_seed
    else:
        state = build_root_state(arch, seed, space=space)
    for entry in tasks:
        register_task(state, _build_task_spec(entry))
    for i, entry in enumerate(schedule):
        _expect(entry["task"] in state.tasks, f"schedule[{i}].task",
                f"unknown task {entry['task']!r}")
    out = _latest_dir(args.checkpoint or cfg["output_dir"])
    persistence.save(state, out)
    print(json.dumps({"checkpoint": str(out), "tasks": sorted(state.tasks),
                      "layers": len(state.store)}))
    return 0


def _expand_schedule(schedule: list[dict], evo: dict):
    # replica_seed stays unset: iterations derive seeds from the checkpoint state
    expanded = []
    base = EvolutionConfig.from_dict(evo)
    for entry in schedule:
        for _ in range(int(entry.get("iterations", 1))):
            expanded.append((entry["task"], base))
    return expanded


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    arch, root, tasks, schedule, evo, replicas = _parse_experiment(cfg)
    if args.replicas is not None:
        replicas = args.replicas
    out_root = Path(args.checkpoint or cfg["output_dir"])
    latest = _latest_dir(out_root)
    if not (latest / persistence.MANIFEST).exists():
        raise ConfigError(f"no initialized checkpoint at {latest}; run init first")
    state = persistence.load(latest)
    space = _search_space(cfg, args)
    expanded = _expand_schedule(schedule, evo)

    def replica_dir(r: int) -> Path:
        return out_root / f"replica_{r}" if replicas > 1 else out_root

    def on_iteration(r: int, i: int, rep_state, report) -> None:
        base = replica_dir(r)
        persistence.save(rep_state, base / "checkpoints" / f"{i:03d}_{report.task}")
        persistence.save(rep_state, base / "latest")
        reports = base / "reports"
        reports.mkdir(parents=True, exist_ok=True)
        with open(reports / "children.jsonl", "a") as fh:
            for row in report.rows:
                fh.write(canonical_json(row) + "\n")
        pr = accounting.param_report(rep_state)
        (reports / f"params_{i:03d}_{report.task}.csv").write_text(accounting.params_csv(pr))

    states, accuracies, variance = run_schedule(state, expanded, replicas=replicas, space=space,
                                                on_iteration=on_iteration, workers=args.workers)
    for r, rep in enumerate(states):
        base = replica_dir(r)
        reports = base / "reports"
        reports.mkdir(parents=True, exist_ok=True)
        (reports / "graph.dot").write_text(accounting.export_graph(rep, "dot"))
        (reports / "graph.json").write_text(accounting.export_graph(rep, "json"))
        prov = {t: provenance_report(m, rep.store)
                for t, m in sorted(rep.retained_models.items()) if t != "root"}
        (reports / "provenance.json").write_text(canonical_json(prov))
    summary = {"replicas": replicas, "test_accuracy": accuracies}
    if replicas > 1:
        (out_root / "variance.json").write_text(canonical_json(variance))
        summary["variance"] = variance
    print(canonical_json(summary))
    return 0


def cmd_report(args) -> int:
    state = persistence.load(_resolve_checkpoint(args.checkpoint))
    fmt = args.format
    if args.kind == "params":
        report = accounting.param_report(state)
        out = accounting.params_csv(report) if fmt == "csv" else canonical_json(report.to_dict())
    elif args.kind == "provenance":
        prov = {t: provenance_report(m, state.store)
                for t, m in sorted(state.retained_models.items())}
        out = canonical_json(prov)
    elif args.kind == "graph":
        out = accounting.export_graph(state, "json" if fmt == "json" else "dot")
    elif args.kind == "variance":
        root = Path(args.checkpoint)
        replica_dirs = sorted(root.glob("replica_*/latest"))
        if not replica_dirs:
            raise DataError(f"no replica checkpoints under {root}")
        accs: dict[str, list[float]] = {}
        spc: dict[str, int] = {}
        for d in replica_dirs:
            rep = persistence.load(d)
            for t, m in sorted(rep.retained_models.items()):
                if t == "root":
                    continue
                accs.setdefault(t, []).append(score_model(m, rep.tasks[t], rep.store, split="test"))
                spc[t] = rep.tasks[t].recipe.get("samples_per_class", 0)
        out = canonical_json(accounting.variance_summary(accs, spc))
    else:
        raise ConfigError(f"unknown report kind {args.kind!r}")
    if args.out:
        Path(args.out).write_text(out if out.endswith("\n") else out + "\n")
    else:
        print(out)
    return 0


def _resolve_checkpoint(path: str) -> Path:
    p = Path(path)
    if (p / persistence.MANIFEST).exists():
        return p
    if (p / "latest" / persistence.MANIFEST).exists():
        return p / "latest"
    raise DataError(f"no checkpoint at {path}")


def cmd_eval(args) -> int:
    state = persistence.load(_resolve_checkpoint(args.checkpoint))
    if args.task not in state.retained_models:
        raise ConfigError(f"no retained model for task {args.task!r}")
    if args.task not in state.tasks:
        raise ConfigError(f"task {args.task!r} not registered in this checkpoint")
    model = state.retained_models[args.task]
    acc = score_model(model, state.tasks[args.task], state.store, split=args.split)
    print(canonical_json({"task": args.task, "split": args.split, "accuracy": acc,
                          "model_id": model.model_id}))
    return 0


def cmd_gc(args) -> int:
    target = _resolve_checkpoint(args.checkpoint)
    state = persistence.load(target)
    removed = garbage_collect(state)
    persistence.save(state, target)
    print(canonical_json({"removed_layers": removed, "remaining": len(state.store)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evograft",
                                     description="evolutionary multitask model growth")
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="create a checkpoint with the root model")
    p_init.add_argument("--config", required=True)
    p_init.add_argument("--checkpoint", default=None, help="override output directory")
    p_init.add_argument("--seed", type=int, default=None)
    p_init.add_argument("--search-space", dest="search_space", default=None)
    p_init.set_defaults(func=cmd_init)

    p_run = sub.add_parser("run", help="execute the configured task schedule")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--checkpoint", default=None, help="override output directory")
    p_run.add_argument("--workers", type=int, default=1,
                       help="threads training each generation; not part of the experiment config")
    p_run.add_argument("--replicas", type=int, default=None)
    p_run.add_argument("--search-space", dest="search_space", default=None)
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="export reports from a checkpoint")
    p_rep.add_argument("kind", choices=["params", "provenance", "graph", "variance"])
    p_rep.add_argument("--checkpoint", required=True)
    p_rep.add_argument("--format", choices=["dot", "json", "csv"], default="json")
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_report)

    p_eval = sub.add_parser("eval", help="score a task's retained model")
    p_eval.add_argument("task")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=["train", "validation", "test"], default="test")
    p_eval.set_defaults(func=cmd_eval)

    p_gc = sub.add_parser("gc", help="collect unreachable layers in a checkpoint")
    p_gc.add_argument("--checkpoint", required=True)
    p_gc.set_defaults(func=cmd_gc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ValidationError, AclError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CorruptionError, InvariantError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except EvograftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception:  # unexpected: still honor the exit-code contract
        import traceback
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
