"""Bit-exact checkpointing of the whole SystemState.

Layout: `manifest.json` (canonical JSON, written last via temp+rename) plus one
binary blob per layer named `<id>.bin`. Blob format: a 16-byte header
{magic "MU2L", version u32 LE, tensor-count u32 LE, reserved u32} followed by
the tensors as little-endian float32, row-major, in `param_shapes(config)`
order: every parameter, then the momentum of all of them or of none. A layer's
manifest entry holds its config, lineage, blob file and sha256 (re-verified on load).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, InvariantError, ValidationError
from .evolution import EvolutionConfig
from .mutation import Genome
from .nn.config import ArchConfig, LayerConfig
from .nn.layers import param_shapes
from .store import LayerRecord, LayerStore, ModelRecord, PendingIteration, SystemState
from .tasks import AccessPolicy, TaskSpec
from .util import canonical_json, sha256_hex

MAGIC = b"MU2L"
FORMAT_VERSION = 1
MANIFEST = "manifest.json"


def _blob_bytes(record: LayerRecord) -> bytes:
    order = param_shapes(record.config)
    tensors = [record.params[n] for n in order]
    tensors += [record.optimizer_state[n] for n in order if n in record.optimizer_state]
    header = MAGIC + struct.pack("<III", FORMAT_VERSION, len(tensors), 0)
    body = b"".join(np.ascontiguousarray(t, dtype="<f4").tobytes() for t in tensors)
    return header + body


def _layer_entry(record: LayerRecord, blob: bytes) -> dict:
    return {
        "file": f"{record.id}.bin",
        "config": record.config.to_dict(),
        "creator_task": record.creator_task,
        "cloned_from": record.cloned_from,
        "trained_on": [[t, s] for t, s in record.trained_on],
        "blob_sha256": sha256_hex(blob),
    }


def _model_dict(m: ModelRecord) -> dict:
    return {
        "model_id": m.model_id, "path": list(m.path),
        "genome": m.genome.to_dict(), "score": m.score,
        "selection_counts": {k: m.selection_counts[k] for k in sorted(m.selection_counts)},
        "parent": m.parent, "train_steps_done": m.train_steps_done,
        "created_seq": m.created_seq,
    }


def _model_from_dict(d: dict, task: str) -> ModelRecord:
    return ModelRecord(
        model_id=d["model_id"], task=task, path=tuple(d["path"]),
        genome=Genome.from_dict(d["genome"]), score=d["score"],
        selection_counts=dict(d["selection_counts"]), parent=d["parent"],
        train_steps_done=int(d["train_steps_done"]), created_seq=int(d["created_seq"]),
    )


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def sweep(directory, layer_ids) -> None:
    """Delete each `*.bin` in a checkpoint directory that is not the blob of one of
    `layer_ids`, and each `*.tmp` that an interrupted `_atomic_write` left."""
    directory = Path(directory)
    listed = {f"{lid}.bin" for lid in layer_ids}
    for path in directory.glob("*.bin"):
        if path.name not in listed:
            path.unlink()
    for path in directory.glob("*.tmp"):
        path.unlink()


def save(state: SystemState, directory) -> dict:
    """Write a complete checkpoint; the manifest lands last, so a partial write
    never yields a loadable directory. Then `sweep` the directory down to the
    manifest's blobs. Returns the manifest as a dict."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    layers = {}
    for lid in state.store.ids():
        record = state.store.get(lid)
        blob = _blob_bytes(record)
        _atomic_write(directory / f"{lid}.bin", blob)
        layers[lid] = _layer_entry(record, blob)
    manifest = {
        "format_version": FORMAT_VERSION,
        "rng_seed": state.rng_seed,
        "generation_counter": state.generation_counter,
        "model_seq": state.model_seq,
        "arch": state.arch.to_dict(),
        "tasks": {name: {"acl": spec.acl.to_dict(), "recipe": spec.recipe}
                  for name, spec in sorted(state.tasks.items())},
        "layers": layers,
        "retained_models": {t: _model_dict(m) for t, m in sorted(state.retained_models.items())},
        "pending": None if state.pending is None else {
            "task": state.pending.task,
            "generation_done": state.pending.generation_done,
            "econfig": asdict(state.pending.econfig),
            "active_models": [_model_dict(m) for m in state.pending.active_models],
        },
    }
    _atomic_write(directory / MANIFEST, canonical_json(manifest).encode())
    sweep(directory, layers)
    return manifest


def _read_blob(path: Path, sha256: str, config: LayerConfig, layer_id: str) -> tuple[dict, dict]:
    if not path.exists():
        raise DataError(f"missing blob for layer {layer_id}: {path.name}")
    blob = path.read_bytes()
    if sha256_hex(blob) != sha256:
        raise DataError(f"hash mismatch in blob for layer {layer_id} ({path.name})")
    if blob[:4] != MAGIC:
        raise DataError(f"bad magic in blob for layer {layer_id}")
    version, count, _ = struct.unpack("<III", blob[4:16])
    if version != FORMAT_VERSION:
        raise DataError(f"blob version {version} unsupported for layer {layer_id}")
    shapes = param_shapes(config)
    n = len(shapes)
    if count not in (n, 2 * n):  # the parameters, then the momentum of all of them or of none
        raise DataError(f"blob tensor count {count} for layer {layer_id} is neither {n} nor {2 * n}")
    offset = 16
    tensors = []
    for name, shape in list(shapes.items()) * (count // n):
        size = math.prod(shape)
        end = offset + 4 * size
        if end > len(blob):
            raise DataError(f"truncated blob for layer {layer_id}")
        # read-only views of the blob; the record built from them makes the one copy
        tensors.append((name, np.frombuffer(blob, dtype="<f4", count=size, offset=offset).reshape(shape)))
        offset = end
    if offset != len(blob):
        raise DataError(f"trailing bytes in blob for layer {layer_id}")
    return dict(tensors[:n]), dict(tensors[n:])


def load(directory) -> SystemState:
    """Load a checkpoint and re-validate its layers and, through
    `SystemState.check_model`, each retained and pending model.

    Tasks come back with their data deferred (see `TaskSpec`): this checks only
    what needs no image, namely that each task entry's ACL and recipe make a
    valid `TaskSpec` whose recipe names the task's key. Rendering, raw-file
    reads and the comparison of the rebuilt recipe with the stored one wait for
    the first read of a task's `splits`, which `run` makes for every task it
    trains or scores and `eval` for its one task; `gc` and `report params|graph|
    provenance` make none.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST
    if not manifest_path.exists():
        raise DataError(f"no checkpoint at {directory} (manifest.json missing)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError("malformed manifest: the top level must be an object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"checkpoint format version {version} not supported (want {FORMAT_VERSION})")

    for key in ("tasks", "layers"):
        if not isinstance(manifest.get(key, {}), dict):
            raise DataError(f"malformed manifest: {key!r} must be an object keyed by name")
    tasks: dict[str, TaskSpec] = {}
    for name, td in manifest.get("tasks", {}).items():
        try:
            spec = TaskSpec(td["recipe"], AccessPolicy.from_dict(td["acl"]))
            if spec.name != name:
                raise ValueError(f"its recipe names {spec.name!r}")
        except (AttributeError, KeyError, TypeError, ValueError, ConfigError, ValidationError) as exc:
            raise DataError(f"malformed manifest entry for task {name}: {exc!r}") from exc
        tasks[name] = spec

    store = LayerStore()
    for lid, entry in manifest.get("layers", {}).items():
        try:
            if entry["file"] != f"{lid}.bin":
                # `sweep` keeps a layer's blob by its id, so a blob must be named after its layer
                raise ValueError(f"blob file {entry['file']!r} is not {lid}.bin")
            config = LayerConfig.from_dict(entry["config"])
            params, opt = _read_blob(directory / entry["file"], entry["blob_sha256"], config, lid)
            record = LayerRecord.create(
                kind=config.kind, config=config, params=params, optimizer_state=opt,
                cloned_from=entry["cloned_from"],
                trained_on=[(t, int(s)) for t, s in entry["trained_on"]],
                creator_task=entry["creator_task"],
            )
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            raise DataError(f"malformed manifest entry for layer {lid}: {exc!r}") from exc
        if record.id != lid:
            raise DataError(f"layer {lid} content hash changed on disk (got {record.id})")
        store.insert(record)

    try:
        pending = None
        if manifest.get("pending"):
            p = manifest["pending"]
            pending = PendingIteration(task=p["task"], generation_done=int(p["generation_done"]),
                                       econfig=EvolutionConfig.from_dict(p["econfig"]),
                                       active_models=[_model_from_dict(m, p["task"])
                                                      for m in p["active_models"]])
        retained = {t: _model_from_dict(m, t) for t, m in manifest["retained_models"].items()}
        if pending is not None:
            # A retained model in the pending population is one record, so the selection
            # counts a resumed iteration adds reach both, as in an uninterrupted run.
            active = {m.model_id: m for m in pending.active_models}
            retained = {t: active.get(m.model_id, m) for t, m in retained.items()}
        state = SystemState(
            store=store,
            arch=ArchConfig.from_dict(manifest["arch"]),
            tasks=tasks,
            retained_models=retained,
            rng_seed=int(manifest["rng_seed"]),
            generation_counter=int(manifest["generation_counter"]),
            model_seq=int(manifest["model_seq"]),
            pending=pending,
        )
    except (KeyError, TypeError, ValueError, AttributeError, IndexError, ConfigError, ValidationError) as exc:
        raise DataError(f"malformed manifest: {exc!r}") from exc
    try:  # apart from the block above, so a head whose width disagrees with its task stays a ValidationError
        state.validate_references()
    except (TypeError, ValueError, InvariantError) as exc:
        raise DataError(f"malformed manifest: {exc!r}") from exc
    return state


def manifest_hash(directory) -> str:
    path = Path(directory) / MANIFEST
    if not path.exists():
        raise DataError(f"no checkpoint at {directory} (manifest.json missing)")
    return sha256_hex(path.read_bytes())
