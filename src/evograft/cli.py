"""Operator CLI: configure and run experiments, inspect state, export reports.

Subcommands: init, run, report, eval, gc. The CLI is a thin shell over the
library; every behavior here is reachable through the module APIs.

Exit codes: 0 success, 2 config/usage error, 3 data error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import accounting, persistence
from .errors import AclError, ConfigError, DataError, EvograftError, ValidationError
from .evolution import EvolutionConfig, run_task_iteration, score_model
from .mutation import SearchSpace
from .nn.config import ArchConfig
from .store import SystemState, garbage_collect, provenance_report
from .system import build_root_state, register_task
from .tasks import RECIPE_FIELDS, ROOT_TASK, AccessPolicy, TaskSpec, model_allowed, plan_task
from .util import canonical_json, derive_seed, is_count, keep_heap


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _expect_known(fields: dict, allowed, prefix: str = "") -> None:
    for key in fields:
        _expect(key in allowed, prefix + key, f"unknown field (expected one of {sorted(allowed)})")


def _load_config(path: str) -> dict:
    p = Path(path)
    _expect(p.exists(), "config", f"file {path} does not exist")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: not valid JSON ({exc})") from exc
    _expect(isinstance(cfg, dict), "config", "top level must be an object")
    return cfg


def _parse_arch(cfg: dict) -> ArchConfig:
    fields = cfg.get("arch", {})
    _expect(isinstance(fields, dict), "arch", "must be an object")
    _expect_known(fields, ArchConfig.__dataclass_fields__, "arch.")
    for key, value in fields.items():
        _expect(is_count(value), f"arch.{key}", "must be a positive integer")
    try:  # the fields left out keep their defaults
        return ArchConfig(**fields)
    except ValidationError as exc:
        raise ConfigError(f"arch: {exc}") from exc


def _parse_experiment(cfg: dict):
    _expect_known(cfg, ("output_dir", "seed", "arch", "root", "tasks", "schedule", "evolution",
                        "replicas", "search_space"))
    _expect(isinstance(cfg.get("output_dir"), str) and cfg["output_dir"], "output_dir",
            "required, a directory path")
    seed = cfg.get("seed", 0)
    _expect(isinstance(seed, int) and not isinstance(seed, bool), "seed", "must be an integer")
    arch = _parse_arch(cfg)
    root = cfg.get("root", {"mode": "from-scratch-stripped"})
    _expect(isinstance(root, dict), "root", "must be an object")
    _expect_known(root, ("mode", "path"), "root.")
    _expect(root.get("mode") in ("from-scratch-stripped", "load-checkpoint"),
            "root.mode", "must be from-scratch-stripped or load-checkpoint")
    if root["mode"] == "load-checkpoint":
        _expect(isinstance(root.get("path"), str), "root.path",
                "load-checkpoint needs a checkpoint directory path")

    tasks = cfg.get("tasks", [])
    _expect(isinstance(tasks, list), "tasks", "must be a list")
    for i, t in enumerate(tasks):
        _expect(isinstance(t, dict) and "type" in t, f"tasks[{i}]", "must be an object with a type")
        _expect(isinstance(t["type"], str) and t["type"] in RECIPE_FIELDS, f"tasks[{i}].type",
                f"must be one of {sorted(RECIPE_FIELDS)}")
        # a raw entry names its directory; the dataset's header gives the rest of its recipe
        fields = ("path", "name") if t["type"] == "raw" else RECIPE_FIELDS[t["type"]]
        _expect_known(t, ("type", "acl", *fields), f"tasks[{i}].")
        if t["type"] == "synthetic_glyphs":
            for field in fields:
                _expect(field in t, f"tasks[{i}].{field}", "required")
        _expect(isinstance(t.get("name", ""), str), f"tasks[{i}].name", "must be a string")

    schedule = cfg.get("schedule", [])
    _expect(isinstance(schedule, list) and schedule, "schedule", "must be a non-empty list")
    for i, entry in enumerate(schedule):
        _expect(isinstance(entry, dict) and "task" in entry, f"schedule[{i}]", "needs a task")
        _expect_known(entry, ("task", "iterations"), f"schedule[{i}].")
        _expect(isinstance(entry["task"], str), f"schedule[{i}].task", "must be a task name")
        _expect(is_count(entry.get("iterations", 1)), f"schedule[{i}].iterations",
                "must be an integer >= 1")

    evo = cfg.get("evolution", {})
    for key in ("num_generations", "children_per_generation", "train_cycles", "samples_cap"):
        _expect(key in evo, f"evolution.{key}", "required")
    _expect_known(evo, EvolutionConfig.__dataclass_fields__, "evolution.")
    try:
        econfig = EvolutionConfig.from_dict(evo)
    except ConfigError as exc:
        raise ConfigError(f"evolution.{exc}") from exc
    replicas = cfg.get("replicas", 1)
    _expect(is_count(replicas), "replicas", "must be an integer >= 1")
    return arch, root, tasks, schedule, econfig, replicas


def _task_spec(index: int, entry: dict) -> TaskSpec:
    try:
        acl = AccessPolicy.from_dict(entry.get("acl", {"mode": "public"}))
        recipe = {k: v for k, v in entry.items() if k != "acl"}
        spec = plan_task(recipe, acl)
    except ConfigError as exc:  # a synthetic recipe's and the ACL's checks name the field
        raise ConfigError(f"tasks[{index}].{exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"tasks[{index}]: {exc!r}") from exc
    # a raw task takes its name from its header; a `name` key may only repeat it
    _expect(entry.get("name", spec.name) == spec.name, f"tasks[{index}].name",
            f"differs from the name {spec.name!r} in the dataset header")
    return spec


def _check_schedule(schedule: list, state: SystemState) -> None:
    for i, entry in enumerate(schedule):
        _expect(entry["task"] in state.tasks, f"schedule[{i}].task",
                f"unknown task {entry['task']!r}")


def _search_space(cfg: dict) -> SearchSpace:
    path = cfg.get("search_space")
    if not path:
        return SearchSpace.default()
    _expect(isinstance(path, str), "search_space", "must be a file path")
    try:
        return SearchSpace.from_file(path)
    except ConfigError as exc:
        raise ConfigError(f"search_space: {exc}") from exc


def _check_retained(state: SystemState, space: SearchSpace) -> None:
    """Every retained model must stay usable by `run`: its genome inside the search
    space, and each layer on its path admitted by the ACLs of the tasks that trained it."""
    for task, model in sorted(state.retained_models.items()):
        try:
            space.validate_genome(model.genome)
        except ValidationError as exc:
            raise ConfigError(f"search_space: the retained model of task {task!r} has {exc}") from exc
        # the root is never a registered task, and root-trained layers admit every task
        spec = state.tasks.get(task)
        if spec is not None and not model_allowed(spec, model.path, state.store, state.tasks):
            owners = sorted({owner for lid in model.path for owner, _ in state.store.get(lid).trained_on
                             if owner != ROOT_TASK and not state.tasks[owner].acl.admits(owner, task)})
            raise ConfigError(f"tasks: the retained model of task {task!r} holds layers trained on "
                              f"{owners}, whose ACL no longer admits {task!r}")


def cmd_init(args) -> int:
    cfg = _load_config(args.config)
    arch, root, tasks, schedule, _, _ = _parse_experiment(cfg)
    space = _search_space(cfg)
    if root["mode"] == "load-checkpoint":
        state = persistence.load(root["path"])
        _expect("arch" not in cfg or arch == state.arch, "arch",
                f"differs from the loaded checkpoint's {state.arch.to_dict()}")
        state.rng_seed = int(cfg.get("seed", state.rng_seed))
    else:
        state = build_root_state(arch, int(cfg.get("seed", 0)), space=space)
    for i, entry in enumerate(tasks):
        spec = _task_spec(i, entry)
        try:
            register_task(state, spec)
        except ConfigError as exc:
            raise ConfigError(f"tasks[{i}]: {exc}") from exc
    _check_schedule(schedule, state)
    _check_retained(state, space)
    out = Path(cfg["output_dir"]) / "latest"
    persistence.save(state, out)
    print(json.dumps({"checkpoint": str(out), "tasks": sorted(state.tasks),
                      "layers": len(state.store)}))
    return 0


def _score_replica(state: SystemState, accuracies: dict[str, list[float]],
                   samples_per_class: dict[str, int]) -> None:
    """Append the test accuracy of each retained model except the root to its
    task's list: the figures the `run` summary and replica variance compare."""
    for t, m in sorted(state.retained_models.items()):
        if t != ROOT_TASK:
            accuracies.setdefault(t, []).append(score_model(m, state.tasks[t], state.store, split="test"))
            samples_per_class[t] = state.tasks[t].recipe.get("samples_per_class", 0)


def cmd_run(args) -> int:
    _expect(args.workers >= 1, "--workers", "must be >= 1")
    cfg = _load_config(args.config)
    _, _, _, schedule, econfig, replicas = _parse_experiment(cfg)
    out_root = Path(cfg["output_dir"])
    latest = out_root / "latest"
    if not (latest / persistence.MANIFEST).exists():
        raise ConfigError(f"no initialized checkpoint at {latest}; run init first")
    space = _search_space(cfg)
    iterations = [entry["task"] for entry in schedule for _ in range(entry.get("iterations", 1))]
    accuracies: dict[str, list[float]] = {}
    samples_per_class: dict[str, int] = {}
    first = persistence.load(latest)
    _check_schedule(schedule, first)
    # build the data of every task this run trains or scores before any child
    # trains, so a changed dataset stops the run before it writes anything
    for t in sorted((set(iterations) | set(first.retained_models)) & set(first.tasks)):
        first.tasks[t].splits
    for r in range(replicas):
        rep = first if r == 0 else persistence.load(latest)
        rep.tasks = first.tasks  # every replica loads the same `latest`: they share its read-only data
        base = out_root
        if replicas > 1:
            rep.rng_seed = derive_seed(rep.rng_seed, "replica", r)
            base = out_root / f"replica_{r}"
        for i, task in enumerate(iterations):
            rows = run_task_iteration(rep, task, econfig, space=space, workers=args.workers)
            persistence.save(rep, base / "checkpoints" / f"{i:03d}_{task}")
            persistence.save(rep, base / "latest")
            (base / "reports").mkdir(parents=True, exist_ok=True)
            with open(base / "reports" / "children.jsonl", "a") as fh:
                fh.writelines(canonical_json(row) + "\n" for row in rows)
        _score_replica(rep, accuracies, samples_per_class)
    summary = {"replicas": replicas, "test_accuracy": accuracies}
    if replicas > 1:
        summary["variance"] = accounting.variance_summary(accuracies, samples_per_class)
    print(canonical_json(summary))
    return 0


REPORT_FORMATS = {"params": ("json", "csv"), "graph": ("json", "dot"),
                  "provenance": ("json",), "variance": ("json",)}


def cmd_report(args) -> int:
    formats = REPORT_FORMATS[args.kind]
    _expect(args.format in formats, "--format", f"report {args.kind} takes {' or '.join(formats)}")
    # the variance view scores the replicas' checkpoints and never reads the root's own
    state = None if args.kind == "variance" else persistence.load(_resolve_checkpoint(args.checkpoint))
    if args.kind == "params":
        report = accounting.param_report(state)
        out = accounting.params_csv(report) if args.format == "csv" else canonical_json(report.to_dict())
    elif args.kind == "provenance":
        prov = {t: provenance_report(m, state.store)
                for t, m in sorted(state.retained_models.items())}
        out = canonical_json(prov)
    elif args.kind == "graph":
        out = accounting.export_graph(state, args.format)
    else:  # variance
        root = Path(args.checkpoint)
        # replica order, as `run` scored them: replica_10 after replica_9
        replica_dirs = sorted(root.glob("replica_*/latest"),
                              key=lambda d: (len(d.parent.name), d.parent.name))
        if not replica_dirs:
            raise DataError(f"no replica checkpoints under {root}")
        accs: dict[str, list[float]] = {}
        spc: dict[str, int] = {}
        built: dict[str, TaskSpec] = {}
        for d in replica_dirs:
            rep = persistence.load(d)
            # as in `run`, a task's data is built once: a later replica with an equal recipe reuses it
            for name, spec in rep.tasks.items():
                if built.setdefault(name, spec).recipe == spec.recipe:
                    rep.tasks[name] = built[name]
            _score_replica(rep, accs, spc)
        out = canonical_json(accounting.variance_summary(accs, spc))
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
    if removed:
        persistence.save(state, target)
    else:
        # the load checked every listed blob against its hash: the files already hold this state
        persistence.sweep(target, state.store.ids())
    print(canonical_json({"removed_layers": removed, "remaining": len(state.store)}))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process. It names each command, and `main`
    finds the command's function at call time, so a replaced `cmd_*` is the one run."""
    parser = argparse.ArgumentParser(prog="evograft",
                                     description="evolutionary multitask model growth")
    sub = parser.add_subparsers(dest="command", required=True)

    p_init = sub.add_parser("init", help="create a checkpoint with the root model")
    p_init.add_argument("--config", required=True)

    p_run = sub.add_parser("run", help="execute the configured task schedule")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--workers", type=int, default=1,
                       help="threads training each generation; not part of the experiment config")

    p_rep = sub.add_parser("report", help="export reports from a checkpoint")
    p_rep.add_argument("kind", choices=list(REPORT_FORMATS))
    p_rep.add_argument("--checkpoint", required=True)
    p_rep.add_argument("--format", default="json",
                       help="params: json or csv; graph: json or dot; provenance, variance: json")
    p_rep.add_argument("--out", default=None)

    p_eval = sub.add_parser("eval", help="score a task's retained model")
    p_eval.add_argument("task")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=["train", "validation", "test"], default="test")

    p_gc = sub.add_parser("gc", help="collect unreachable layers in a checkpoint")
    p_gc.add_argument("--checkpoint", required=True)
    return parser


def main(argv=None) -> int:
    keep_heap()
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, ValidationError, AclError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EvograftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception:  # unexpected: still honor the exit-code contract
        import traceback
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
