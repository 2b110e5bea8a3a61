"""Hashing, seeding and canonical-JSON helpers, and the process allocator policy.

Everything that feeds a hash goes through these functions so that ids,
manifests and derived seeds are stable across runs and platforms.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
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


def is_count(value: Any, least: int = 1) -> bool:
    """An int >= least; bools are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def freeze_array(arr: np.ndarray, dtype: str = "float32") -> np.ndarray:
    """Return a C-contiguous read-only copy; the only array form the store holds."""
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out is arr or out.base is arr:
        out = out.copy()
    out.setflags(write=False)
    return out


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def keep_heap() -> bool:
    """Keep freed numpy temporaries in the heap between training steps (glibc only).

    By default glibc serves each block above ~128 KiB with its own mmap and
    returns it on free, so every step's activations are page-faulted in again.
    Routing every block below 32 MiB (glibc's ceiling) to the heap, trimming
    only above 128 MiB, and sharing one arena between worker threads keeps one
    step's freed tape mapped for the next while peak memory stays flat. Placement
    in memory never changes arithmetic. Does nothing, returning False, where
    `mallopt` is missing or when the environment already sets `GLIBC_TUNABLES`
    or a `MALLOC_*` variable.
    """
    if os.name != "posix" or any(k == "GLIBC_TUNABLES" or k.startswith("MALLOC_") for k in os.environ):
        return False
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    settings = ((_M_ARENA_MAX, 1), (_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 128 << 20))
    return all([mallopt(param, value) == 1 for param, value in settings])
