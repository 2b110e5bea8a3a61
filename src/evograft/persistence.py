"""Bit-exact checkpointing of the whole SystemState.

Layout: `manifest.json` (canonical JSON, written last via temp+rename) plus one
binary blob per layer named `<id>.bin`. Blob format: a 16-byte header
{magic "MU2L", version u32 LE, tensor-count u32 LE, reserved u32} followed by
the tensors as little-endian float32, row-major, in the canonical per-kind
order (parameters, then optimizer state). Tensor names and shapes live in the
manifest index; every blob's sha256 is recorded and re-verified on load.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .mutation import Genome
from .nn.config import ArchConfig, LayerConfig, LayerKind
from .nn.layers import PARAM_ORDER
from .store import (ArchiveEntry, LayerRecord, LayerStore, ModelRecord, PendingIteration,
                    SystemState)
from .tasks import AccessPolicy, TaskSpec, build_task
from .util import canonical_json, sha256_hex

MAGIC = b"MU2L"
FORMAT_VERSION = 1
MANIFEST = "manifest.json"


def _blob_bytes(record: LayerRecord) -> bytes:
    order = PARAM_ORDER[record.kind]
    tensors = [record.params[n] for n in order]
    tensors += [record.optimizer_state[n] for n in order if n in record.optimizer_state]
    header = MAGIC + struct.pack("<III", FORMAT_VERSION, len(tensors), 0)
    body = b"".join(np.ascontiguousarray(t, dtype="<f4").tobytes() for t in tensors)
    return header + body


def _layer_entry(record: LayerRecord, blob: bytes) -> dict:
    order = PARAM_ORDER[record.kind]
    return {
        "file": f"{record.id}.bin",
        "kind": record.kind.value,
        "config": record.config.to_dict(),
        "creator_task": record.creator_task,
        "cloned_from": record.cloned_from,
        "trained_on": [[t, s] for t, s in record.trained_on],
        "params": [[n, list(record.params[n].shape)] for n in order],
        "opt_state": [[n, list(record.optimizer_state[n].shape)]
                      for n in order if n in record.optimizer_state],
        "blob_sha256": sha256_hex(blob),
    }


def _model_dict(m: ModelRecord) -> dict:
    return {
        "model_id": m.model_id, "task": m.task, "path": list(m.path),
        "genome": m.genome.to_dict(), "score": m.score,
        "selection_counts": {k: m.selection_counts[k] for k in sorted(m.selection_counts)},
        "parent": m.parent, "train_steps_done": m.train_steps_done,
        "created_seq": m.created_seq,
    }


def _model_from_dict(d: dict) -> ModelRecord:
    return ModelRecord(
        model_id=d["model_id"], task=d["task"], path=tuple(d["path"]),
        genome=Genome.from_dict(d["genome"]), score=d["score"],
        selection_counts=dict(d["selection_counts"]), parent=d["parent"],
        train_steps_done=int(d["train_steps_done"]), created_seq=int(d["created_seq"]),
    )


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def save(state: SystemState, directory) -> dict:
    """Write a complete checkpoint; the manifest lands last, so a partial write
    never yields a loadable directory. Returns the manifest as a dict."""
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
        "history_offset": state.history_offset,
        "arch": state.arch.to_dict(),
        "tasks": {
            name: {"num_classes": spec.num_classes, "input": list(spec.input_shape),
                   "acl": spec.acl.to_dict(), "recipe": spec.recipe}
            for name, spec in sorted(state.tasks.items())
        },
        "layers": layers,
        "retained_models": {t: _model_dict(m) for t, m in sorted(state.retained_models.items())},
        "archive": [
            {"model_id": a.model_id, "task": a.task, "parent": a.parent, "score": a.score,
             "path": list(a.path), "created_seq": a.created_seq}
            for a in state.archive
        ],
        "pending": None if state.pending is None else {
            "task": state.pending.task,
            "generation_done": state.pending.generation_done,
            "econfig": state.pending.econfig,
            "active_models": [_model_dict(m) for m in state.pending.active_models],
        },
    }
    _atomic_write(directory / MANIFEST, canonical_json(manifest).encode())
    return manifest


def _read_blob(path: Path, entry: dict, layer_id: str) -> tuple[dict, dict]:
    if not path.exists():
        raise DataError(f"missing blob for layer {layer_id}: {path.name}")
    blob = path.read_bytes()
    if sha256_hex(blob) != entry["blob_sha256"]:
        raise DataError(f"hash mismatch in blob for layer {layer_id} ({path.name})")
    if blob[:4] != MAGIC:
        raise DataError(f"bad magic in blob for layer {layer_id}")
    version, count, _ = struct.unpack("<III", blob[4:16])
    if version != FORMAT_VERSION:
        raise DataError(f"blob version {version} unsupported for layer {layer_id}")
    specs = list(entry["params"]) + list(entry["opt_state"])
    if count != len(specs):
        raise DataError(f"blob tensor count {count} != manifest {len(specs)} for layer {layer_id}")
    offset = 16
    tensors = []
    for name, shape in specs:
        n = int(np.prod(shape)) if shape else 1
        end = offset + 4 * n
        if end > len(blob):
            raise DataError(f"truncated blob for layer {layer_id}")
        tensors.append((name, np.frombuffer(blob, dtype="<f4", count=n, offset=offset)
                        .reshape([int(s) for s in shape]).copy()))
        offset = end
    if offset != len(blob):
        raise DataError(f"trailing bytes in blob for layer {layer_id}")
    n_params = len(entry["params"])
    params = dict(tensors[:n_params])
    opt = dict(tensors[n_params:])
    return params, opt


def load(directory) -> SystemState:
    """Load and fully re-validate a checkpoint (store invariants re-checked)."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST
    if not manifest_path.exists():
        raise DataError(f"no checkpoint at {directory} (manifest.json missing)")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"corrupt manifest: {exc}") from exc
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"checkpoint format version {version} not supported (want {FORMAT_VERSION})")

    tasks: dict[str, TaskSpec] = {}
    for name, td in manifest.get("tasks", {}).items():
        acl = AccessPolicy.from_dict(td["acl"])
        spec = build_task(td["recipe"], acl)
        if spec.num_classes != td["num_classes"] or list(spec.input_shape) != list(td["input"]):
            raise DataError(f"rebuilt task {name!r} does not match its manifest entry")
        tasks[name] = spec

    store = LayerStore()
    for lid, entry in manifest.get("layers", {}).items():
        try:
            params, opt = _read_blob(directory / entry["file"], entry, lid)
            record = LayerRecord.create(
                kind=LayerKind(entry["kind"]),
                config=LayerConfig.from_dict(entry["config"]), params=params, optimizer_state=opt,
                cloned_from=entry["cloned_from"],
                trained_on=[(t, int(s)) for t, s in entry["trained_on"]],
                creator_task=entry["creator_task"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed manifest entry for layer {lid}: {exc!r}") from exc
        if record.id != lid:
            raise DataError(f"layer {lid} content hash changed on disk (got {record.id})")
        store.insert(record)

    pending = None
    if manifest.get("pending"):
        p = manifest["pending"]
        pending = PendingIteration(task=p["task"], generation_done=int(p["generation_done"]),
                                   econfig=dict(p["econfig"]),
                                   active_models=[_model_from_dict(m) for m in p["active_models"]])

    state = SystemState(
        store=store,
        arch=ArchConfig.from_dict(manifest["arch"]),
        tasks=tasks,
        retained_models={t: _model_from_dict(m) for t, m in manifest["retained_models"].items()},
        archive=[ArchiveEntry(model_id=a["model_id"], task=a["task"], parent=a["parent"],
                              score=a["score"], path=tuple(a["path"]),
                              created_seq=int(a["created_seq"]))
                 for a in manifest.get("archive", [])],
        rng_seed=int(manifest["rng_seed"]),
        generation_counter=int(manifest["generation_counter"]),
        model_seq=int(manifest["model_seq"]),
        history_offset=int(manifest.get("history_offset", 0)),
        pending=pending,
    )
    state.validate_references()
    return state


def manifest_hash(directory) -> str:
    path = Path(directory) / MANIFEST
    if not path.exists():
        raise DataError(f"no checkpoint at {directory} (manifest.json missing)")
    return sha256_hex(path.read_bytes())
