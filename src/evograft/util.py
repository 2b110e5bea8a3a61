"""Hashing, seeding and canonical-JSON helpers.

Everything that feeds a hash goes through these functions so that ids,
manifests and derived seeds are stable across runs and platforms.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np


def canonical_json(obj: Any) -> str:
    """Serialize to the canonical JSON form used for hashing and manifests.

    Sorted keys, no whitespace padding, no NaN/Inf. This is the single
    serialization used anywhere a byte-stable document is required.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def derive_seed(*parts: Any) -> int:
    """Derive a 64-bit seed from an arbitrary tuple of hashable parts.

    Used for replica seeds and per-child seeds; the derivation is part of the
    determinism contract (same parts -> same child, independent of worker
    scheduling).
    """
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest()[:8], "little")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def freeze_array(arr: np.ndarray, dtype: str = "float32") -> np.ndarray:
    """Return a C-contiguous read-only copy; the only array form the store holds."""
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out is arr or out.base is arr:
        out = out.copy()
    out.setflags(write=False)
    return out
