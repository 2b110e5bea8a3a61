"""Benchmark workloads: inputs made from the workload seed, the operator
sessions that drive `evograft.cli.main` in-process, and their output checks.

Why these two (see README.md for the metric mapping):
- evolve_desk: the reference desk iteration on a stripped root. Almost nothing
  is frozen above the trainable layers, so train preprocessing and trainable
  forward/backward dominate. One worker: the single-worker baseline.
- evolve_deep: a deep frozen root, a public and a private task, two workers.
  Most compute runs through frozen layers (frozen-transformer backward,
  validation), and it exercises the generation thread pool, the ACL filter
  and per-iteration checkpointing.
Both follow each `run` with rounds of `eval` and `gc`, which put checkpoint
load, task rebuild, batch-64 forward and the full re-save on the blocking path.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from evograft import cli, persistence
from evograft.evolution import score_model
from evograft.nn.config import ArchConfig, LayerKind
from evograft.nn.layers import init_params
from evograft.store import LayerRecord, ModelRecord
from evograft.system import build_root_state
from evograft.util import derive_seed, make_rng


@dataclass(frozen=True)
class Spec:
    """One workload's fixed shape; the seed fills in every random choice."""

    name: str
    workers: int
    root_depth: int  # frozen random transformers under the root; 0 = stripped root
    tasks: tuple[tuple[str, int, dict], ...]  # (name, samples per class, acl)
    evolution: dict

    @property
    def children_per_run(self) -> int:
        e = self.evolution
        return len(self.tasks) * e["num_generations"] * e["children_per_generation"]


# The README's experiment seed. It fixes the root initialisation and every
# evolutionary draw; the workload seed varies the task data and the deep root's
# transformer weights. Across evolution seeds the desk reference iteration ends
# anywhere between 0.12 and 1.0 test accuracy and its run time varies 3x with
# the number of inserted layers, a spread no affordable run length averages out.
EVOLUTION_SEED = 20260808
SETUPS = 5  # set-ups (input draws 0..4) before the timed sessions; setup_s is their median
INSPECTIONS = 3  # eval + gc rounds after each `run`: more latency samples
PUBLIC, PRIVATE = {"mode": "public"}, {"mode": "private"}
SPECS = {s.name: s for s in (
    Spec("evolve_desk", workers=1, root_depth=0,
         tasks=(("desk", 30, PUBLIC),),
         evolution={"num_generations": 2, "children_per_generation": 8, "train_cycles": 4,
                    "samples_cap": 512, "batch_size": 16, "allow_insert": True}),
    Spec("evolve_deep", workers=2, root_depth=4,
         tasks=(("pub", 40, PUBLIC), ("priv", 40, PRIVATE)),
         evolution={"num_generations": 1, "children_per_generation": 8, "train_cycles": 2,
                    "samples_cap": 256, "batch_size": 16, "allow_insert": True}),
)}


def make_deep_root(directory: Path, seed: int, depth: int, arch: ArchConfig = ArchConfig()) -> None:
    """Checkpoint of the stripped root plus `depth` frozen transformers initialised
    from `seed`: a stand-in for a pretrained root, built from the public API.
    The stripped layers and the state's rng seed come from EVOLUTION_SEED."""
    state = build_root_state(arch, EVOLUTION_SEED)
    root = state.retained_models["root"]
    rng = make_rng(derive_seed(seed, "deep-root"))
    cfg = arch.layer_config(LayerKind.TRANSFORMER)
    body = tuple(state.store.insert(LayerRecord.create(
        kind=LayerKind.TRANSFORMER, config=cfg, params=init_params(cfg, rng),
        optimizer_state=None, cloned_from=None, trained_on=(), creator_task="root"))
        for _ in range(depth))
    path = root.path[:3] + body + root.path[3:]
    model_id = ModelRecord.make_id("root", path, root.genome, None, None, 0, root.created_seq)
    state.retained_models["root"] = ModelRecord(
        model_id=model_id, task="root", path=path, genome=root.genome, score=None,
        selection_counts={}, parent=None, train_steps_done=0, created_seq=root.created_seq)
    persistence.save(state, directory)


def experiment(spec: Spec, seed: int, out_dir: Path, root_dir: Path | None) -> dict:
    """The experiment config the operator would write; task data seeds come from `seed`."""
    draw = random.Random(seed)
    tasks = [{"type": "synthetic_glyphs", "name": name, "num_classes": 25,
              "samples_per_class": samples, "noise": 0.0, "seed": draw.randrange(2 ** 31),
              "resolution": 32, "patch_size": 4, "acl": acl}
             for name, samples, acl in spec.tasks]
    root = ({"mode": "load-checkpoint", "path": str(root_dir)} if root_dir
            else {"mode": "from-scratch-stripped"})
    return {"seed": EVOLUTION_SEED, "output_dir": str(out_dir), "root": root,
            "tasks": tasks, "schedule": [{"task": t["name"], "iterations": 1} for t in tasks],
            "evolution": spec.evolution}


@dataclass
class Command:
    """One in-process CLI call and what the checks made of it."""

    argv: list[str]
    seconds: float
    code: int
    stdout: str
    failures: list[str] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def failed(self) -> bool:
        return self.code != 0 or bool(self.failures)

    def result(self) -> dict:
        """The JSON object the command prints last, or {} if it printed none."""
        lines = self.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else {}
        except json.JSONDecodeError:
            return {}

    def check(self, cond: bool, what: str) -> None:
        if not cond:
            self.failures.append(what)


class Operator:
    """Issues CLI commands in-process, timing each and keeping every outcome."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.commands: list[Command] = []

    def __call__(self, *argv, traced: bool = False) -> Command:
        argv = [str(a) for a in argv]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()), self.tracer.recording(traced):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        cmd = Command(argv, seconds, code, out.getvalue())
        self.commands.append(cmd)
        return cmd


@dataclass
class Setup:
    draw: int
    seconds: float
    config: Path
    out: Path
    used: bool = False


@dataclass
class Session:
    draw: int
    seconds: float  # wall time of the session's commands
    manifest_hash: str


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def stale_blobs(out_root: Path) -> int:
    """Blob files in any checkpoint directory that its own manifest does not list."""
    stale = 0
    for manifest in out_root.rglob(persistence.MANIFEST):
        listed = {e["file"] for e in json.loads(manifest.read_text())["layers"].values()}
        stale += sum(1 for f in manifest.parent.glob("*.bin") if f.name not in listed)
    return stale


def check_retained(cmd: Command, manifest_dir: Path) -> None:
    """Forgetting immunity and ACL isolation of a checkpoint, charged to `cmd`.

    Every retained model re-scores exactly its recorded validation score, and
    no retained path holds a layer trained on a task whose ACL excludes the
    model's task. The ACL rule is read from the manifest, not from evograft.
    """
    state = persistence.load(manifest_dir)
    for task, model in sorted(state.retained_models.items()):
        if task != "root":
            cmd.check(score_model(model, state.tasks[task], state.store, "validation") == model.score,
                      f"forgetting: {task} no longer scores its recorded {model.score}")
    manifest = json.loads((manifest_dir / persistence.MANIFEST).read_text())
    acl = {name: t["acl"] for name, t in manifest["tasks"].items()}
    for task, model in manifest["retained_models"].items():
        for lid in model["path"]:
            for owner, _ in manifest["layers"][lid]["trained_on"]:
                rule = acl.get(owner, {"mode": "public"})
                admitted = (rule["mode"] == "public" or owner == task
                            or (rule["mode"] == "group" and task in rule["group"]))
                cmd.check(admitted, f"acl: {task} path holds layer {lid[:12]} trained on {owner}")


def check_round_trip(cmd: Command, manifest_dir: Path, scratch: Path) -> None:
    """Load then save reproduces the manifest hash."""
    persistence.save(persistence.load(manifest_dir), scratch)
    cmd.check(persistence.manifest_hash(scratch) == persistence.manifest_hash(manifest_dir),
              "round trip: load + save changed the manifest hash")
    shutil.rmtree(scratch)


class Workload:
    """Set-ups and timed sessions of one workload in its own work directory.

    A run draws several input sets from its seed (draw k uses seed
    derive_seed(seed, k)), so one run's figures average over several
    evolutionary trajectories instead of following one.
    """

    def __init__(self, spec: Spec, seed: int, work: Path, tracer):
        self.spec, self.seed, self.work = spec, seed, work
        self.op = Operator(tracer)
        self.setups: list[Setup] = []
        self.sessions: list[Session] = []
        self.run_seconds: list[float] = []  # wall of each `evograft run`
        self.disk_bytes: list[int] = []  # output root after each `evograft run`
        self.accuracy: list[float] = []  # test accuracy of every retained model
        self.layers_final: list[int] = []  # layers in each session's final checkpoint
        self.stale_blobs: list[int] = []  # and blob files its manifests do not list

    def setup(self, draw: int) -> Setup:
        """Inputs of one draw, then `evograft init`. Timed."""
        seed = derive_seed(self.seed, draw)
        base = self.work / f"setup{len(self.setups)}"
        base.mkdir(parents=True)
        start = time.perf_counter()
        root_dir = None
        if self.spec.root_depth:
            root_dir = base / "root"
            make_deep_root(root_dir, derive_seed(seed, "root"), self.spec.root_depth)
        config = base / "experiment.json"
        config.write_text(json.dumps(experiment(self.spec, seed, base / "out", root_dir)))
        setup = Setup(draw, time.perf_counter() - start, config, base / "out")
        setup.seconds += self.op("init", "--config", config).seconds
        self.setups.append(setup)
        return setup

    def session(self, draw: int, traced: bool) -> Session:
        """`run` on a fresh set-up of the draw, then rounds of `eval` per task and `gc`."""
        fresh = [s for s in self.setups if s.draw == draw and not s.used]
        setup = fresh[0] if fresh else self.setup(draw)
        setup.used = True
        n_before = len(self.op.commands)
        accuracy = self._run(setup, traced)
        for _ in range(INSPECTIONS):
            digest = self._inspect(setup.out, accuracy, traced)
        seconds = sum(c.seconds for c in self.op.commands[n_before:])
        latest = setup.out / "latest"
        check_round_trip(self.op.commands[-1], latest, self.work / "roundtrip")
        self.layers_final.append(len(json.loads((latest / persistence.MANIFEST).read_text())["layers"]))
        self.stale_blobs.append(stale_blobs(setup.out))
        self.accuracy += accuracy.values()
        shutil.rmtree(setup.out.parent)
        session = Session(draw, seconds, digest)
        self.sessions.append(session)
        return session

    def _inspect(self, out: Path, accuracy: dict[str, float], traced: bool) -> str:
        """`eval --split test` of every task, then `gc`; returns the manifest hash.
        Each accuracy must equal the one `run` reported for the task."""
        for task, expected in sorted(accuracy.items()):
            ev = self.op("eval", task, "--checkpoint", out, "--split", "test", traced=traced)
            ev.check(ev.result().get("accuracy") == expected,
                     f"eval {task}: test accuracy {ev.result().get('accuracy')} != {expected} from `run`")
        return self._gc(out, traced)

    def _run(self, setup: Setup, traced: bool) -> dict[str, float]:
        """`evograft run` plus its checks; returns the summary's test accuracies."""
        out = setup.out
        run = self.op("run", "--config", setup.config, "--workers", self.spec.workers, traced=traced)
        self.run_seconds.append(run.seconds)
        self.disk_bytes.append(dir_bytes(out))
        summary = run.result().get("test_accuracy", {})
        accuracy = {t: accs[0] for t, accs in summary.items()}
        run.check(sorted(accuracy) == sorted(name for name, _, _ in self.spec.tasks),
                  "run summary lacks a task's test accuracy")
        rows = out / "reports" / "children.jsonl"
        run.check(rows.exists() and len(rows.read_text().splitlines()) == self.spec.children_per_run,
                  "children.jsonl does not hold one row per trained child")
        if run.code == 0:
            check_retained(run, out / "latest")
        return accuracy

    def _gc(self, out: Path, traced: bool) -> str:
        """`evograft gc` on a collected checkpoint: nothing removed, hash unchanged."""
        latest = out / "latest"
        before = persistence.manifest_hash(latest)
        gc = self.op("gc", "--checkpoint", out, traced=traced)
        after = persistence.manifest_hash(latest)
        gc.check(gc.result().get("removed_layers") == 0, "gc removed layers from a collected checkpoint")
        gc.check(after == before, "gc changed the manifest hash of a collected checkpoint")
        return after
