"""Task registry, dataset handling, synthetic desk-scale tasks, and knowledge ACLs.

The synthetic generator renders textured stroke bands on a patch-aligned cell
grid with horizontal whole-cell translation jitter. When there are at least
six classes, the last two ("twins") share their ink texture and differ only in
band placement (top vs bottom): any patch-pooled linear readout sees them as
identical, while one token-mixing layer separates them trivially. That gives
evolution a measurable reason to grow depth even on noise-free data.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigError, DataError, InvariantError, ValidationError
from .store import LayerRecord
from .util import is_count, make_rng

SPLITS = ("train", "validation", "test")
ROOT_TASK = "root"  # the root model's task: reserved, it has no dataset and no ACL


class AccessMode(str, Enum):
    PUBLIC = "public"
    PRIVATE = "private"
    GROUP = "group"


@dataclass(frozen=True)
class AccessPolicy:
    """Which tasks may reuse knowledge derived from the owning task's data."""

    mode: AccessMode = AccessMode.PUBLIC
    group: frozenset[str] = frozenset()

    def admits(self, owner: str, consumer: str) -> bool:
        if self.mode == AccessMode.PUBLIC:
            return True
        if self.mode == AccessMode.PRIVATE:
            return consumer == owner
        return consumer in self.group

    def to_dict(self) -> dict:
        d = {"mode": self.mode.value}
        if self.mode == AccessMode.GROUP:
            d["group"] = sorted(self.group)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AccessPolicy":
        try:
            return cls(mode=AccessMode(d["mode"]), group=frozenset(d.get("group", ())))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"acl: {exc!r}") from exc


@dataclass
class Dataset:
    """Immutable indexed image/label pairs; per-index access is pure."""

    images: np.ndarray  # [N, H, W, C] uint8
    labels: np.ndarray  # [N] uint16

    def __post_init__(self):
        self.images.setflags(write=False)
        self.labels.setflags(write=False)

    def __len__(self) -> int:
        return int(self.images.shape[0])

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(images [B,H,W,C] float32 in [0,1], labels [B] int64) at `indices`."""
        imgs = self.images[indices].astype(np.float32) / np.float32(255.0)
        return imgs, self.labels[indices].astype(np.int64)


class TaskSpec:
    """One classification task, stated by its recipe: the recipe gives the task's
    name, class count and input shape, and the ACL says who may reuse it.

    A TaskSpec is valid by construction: its recipe has a known type and every
    field that type needs, a group ACL includes the task, and given splits are
    all present, non-empty and labelled below the class count. `splits=None`
    defers the data, as `persistence.load` does: the first read of `splits`
    rebuilds the task through `build_task` and keeps its splits only if the
    rebuilt recipe equals this one. Any failure is a DataError, and the data
    stays unbuilt. The first read must come from one thread only.
    """

    def __init__(self, recipe: dict, acl: AccessPolicy, splits: dict[str, Dataset] | None = None):
        kind = recipe.get("type")
        if kind not in RECIPE_FIELDS:
            raise ConfigError(f"unknown task recipe type {kind!r}")
        missing = [f for f in RECIPE_FIELDS[kind] if f not in recipe]
        if missing:
            raise KeyError(missing[0])
        self.name = recipe["name"]
        self.num_classes = recipe["num_classes"]
        if kind == "raw":
            self.input_shape = tuple(recipe["shape"])
        else:
            self.input_shape = (recipe["resolution"], recipe["resolution"], 1)
        self.acl = acl
        self.recipe = recipe
        if self.num_classes < 2:
            raise ValidationError(f"task {self.name!r} needs >= 2 classes")
        if acl.mode == AccessMode.GROUP and self.name not in acl.group:
            raise ConfigError(f"acl: group policy of {self.name!r} must include it")
        if splits is not None:
            self._check_splits(splits)
        self._splits = splits

    def _check_splits(self, splits: dict[str, Dataset]) -> None:
        for s in SPLITS:
            if s not in splits or len(splits[s]) == 0:
                raise DataError(f"task {self.name!r} split {s!r} is missing or empty")
            top = int(splits[s].labels.max())
            if top >= self.num_classes:
                raise DataError(f"label out of range: split {s!r} contains label {top} "
                                f"for a {self.num_classes}-class task")

    @property
    def splits(self) -> dict[str, Dataset]:
        if self._splits is None:
            try:
                built = build_task(self.recipe, self.acl)
            except (KeyError, TypeError, ValueError, ConfigError) as exc:
                raise DataError(f"malformed manifest entry for task {self.name}: {exc!r}") from exc
            if built.recipe != self.recipe:
                raise DataError(f"rebuilt task {self.name!r} does not match its manifest entry")
            self._splits = built.splits
        return self._splits


def acl_allows(consumer: TaskSpec, layer: LayerRecord, registry: Mapping[str, TaskSpec]) -> bool:
    """True iff every task in the layer's training provenance admits the consumer."""
    for owner, _steps in layer.trained_on:
        if owner == ROOT_TASK:
            continue
        spec = registry.get(owner)
        if spec is None:
            raise InvariantError(f"layer {layer.id} provenance names unknown task {owner!r}")
        if not spec.acl.admits(owner, consumer.name):
            return False
    return True


def model_allowed(consumer: TaskSpec, path_ids, store, registry) -> bool:
    """A model is reusable iff every layer on its path passes the ACL."""
    return all(acl_allows(consumer, store.get(lid), registry) for lid in path_ids)


# ---------------------------------------------------------------------------
# synthetic glyph tasks

TEXTURE_DRAWS = 10_000  # rejections in a row before _binary_texture asks whether any tile fits


def _texture_fits(others: np.ndarray, min_diff: int) -> bool:
    """Whether some binary tile differs from every tile in `others` in at least
    min_diff pixels, found by checking all 2**(patch*patch) tiles."""
    n = others[0].size
    tiles = np.arange(2 ** n)
    popcount = ((tiles[:, None] >> np.arange(n)) & 1).sum(axis=1)
    fits = np.ones(2 ** n, dtype=bool)
    for other in others:
        code = int(((other.reshape(-1) > 0.5) << np.arange(n)).sum())
        fits &= popcount[tiles ^ code] >= min_diff
    return bool(fits.any())


def _binary_texture(patch: int, rng: np.random.Generator, existing: list[np.ndarray]):
    """High-contrast binary tile, resampled until it differs from every earlier
    tile in at least max(4, patch*patch // 3) pixels.

    After TEXTURE_DRAWS rejections in a row, a tile of at most 16 pixels checks
    every possible tile and raises ConfigError when none fits (when one does,
    drawing goes on as before); a larger tile has too many to check and raises.
    """
    others = np.stack(existing) if existing else np.empty((0, patch, patch))
    min_diff = max(4, patch * patch // 3)
    rejected = 0
    while True:
        bits = rng.integers(0, 2, size=(patch, patch)).astype(np.float64)
        tex = 0.15 + 0.85 * bits
        if (np.count_nonzero(tex != others, axis=(1, 2)) >= min_diff).all():
            return tex
        rejected += 1
        if rejected == TEXTURE_DRAWS and (patch * patch > 16 or not _texture_fits(others, min_diff)):
            raise ConfigError(
                f"num_classes: found no {patch}x{patch} texture for class {len(existing)} that differs from "
                f"every earlier class in >= {min_diff} pixels ({TEXTURE_DRAWS} draws rejected); "
                f"use fewer classes or a larger patch_size")


def _class_assets(num_classes: int, grid: int, patch: int, rng: np.random.Generator):
    """Per-class binary texture tile plus stroke-band cell rectangle (inset one cell)."""
    textures: list[np.ndarray] = []
    bands = []
    for _ in range(num_classes):
        textures.append(_binary_texture(patch, rng, textures))
        rh = int(rng.integers(3, min(5, grid - 2)))
        cw = int(rng.integers(4, grid - 1))
        r0 = int(rng.integers(1, grid - rh))
        c0 = int(rng.integers(1, grid - cw))
        bands.append((r0, c0, rh, cw))
    if num_classes >= 6:
        # Twins: shared texture, complementary top/bottom bands. Top/bottom (not
        # left/right) so horizontal flip augmentation cannot alias them, and equal
        # areas so patch-pooled features are exactly identical for the pair.
        textures[-1] = textures[-2]
        half = (grid - 2) // 2
        bands[-2] = (1, 1, half, grid - 2)
        bands[-1] = (1 + half, 1, half, grid - 2)
    return textures, bands


def _glyph_table(textures, bands, grid: int, patch: int) -> np.ndarray:
    """Noise-free float64 [class, shift, res, res] glyphs, each class jittered by a
    whole-cell horizontal shift of -1, 0 and +1.

    Cell-aligned translation keeps the texture tiling in phase with the patch
    grid, so within-class pixel variation is real while the per-class
    patch-pooled signature is exactly translation-invariant. Every cell is 0.0
    or 1.0, so the broadcast product equals kron(cells, ones) * tile(texture).
    """
    cells = np.zeros((len(bands), 3, grid, grid), dtype=np.float64)
    for c, (r0, c0, rh, cw) in enumerate(bands):
        for s, shift in enumerate((-1, 0, 1)):
            cells[c, s, r0: r0 + rh, c0 + shift: c0 + shift + cw] = 1.0
    tiles = np.stack(textures)[:, None, None, :, None, :]
    return (cells[:, :, :, None, :, None] * tiles).reshape(len(bands), 3, grid * patch, grid * patch)


def _quantize(img: np.ndarray) -> np.ndarray:
    return np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)[..., None]


def _glyph_plan(num_classes: int, samples_per_class: int, noise: float, seed: int,
                resolution: int, patch_size: int):
    """Everything of a glyph task but its samples, with every check that rendering
    them implies: (rng, glyph table, labels per split).

    This is the one owner of a synthetic recipe's checks, so `init` and a rebuild
    from a manifest refuse the same recipes; each message starts with the field.
    The class-asset draw must run here, since only drawing finds out whether
    every class gets a texture; the rng comes back positioned after it.
    """
    for field, value, least in (("num_classes", num_classes, 2), ("samples_per_class", samples_per_class, 10),
                                ("seed", seed, 0), ("resolution", resolution, 1), ("patch_size", patch_size, 1)):
        if not is_count(value, least):
            raise ConfigError(f"{field}: must be an integer >= {least}")
    if isinstance(noise, bool) or not isinstance(noise, (int, float)) or not 0 <= noise < math.inf:
        raise ConfigError("noise: must be a finite number >= 0")
    if resolution % patch_size != 0 or resolution // patch_size < 6:
        raise ConfigError("resolution: must be a multiple of patch_size with a grid of >= 6 cells")
    grid = resolution // patch_size
    rng = make_rng(seed)
    textures, bands = _class_assets(num_classes, grid, patch_size, rng)
    glyphs = _glyph_table(textures, bands, grid, patch_size)
    if not noise > 0:
        glyphs = _quantize(glyphs)

    n_tr = int(samples_per_class * 0.8)
    n_val = max(1, int(samples_per_class * 0.1))
    counts = {"train": n_tr, "validation": n_val, "test": samples_per_class - n_tr - n_val}
    labels = {split: np.repeat(np.arange(num_classes, dtype=np.uint16), counts[split])
              for split in SPLITS}
    return rng, glyphs, labels


def _render_split(glyphs, labels: np.ndarray, noise: float, rng: np.random.Generator) -> np.ndarray:
    """One split's images: per sample the rng draws the shift and, when noise > 0,
    the pixel noise, in that order."""
    images = []
    for c in labels:
        img = glyphs[c, int(rng.integers(-1, 2)) + 1]
        images.append(_quantize(img + rng.normal(0.0, noise, img.shape)) if noise > 0 else img)
    return np.stack(images)


def make_synthetic_glyph_task(name: str, num_classes: int, samples_per_class: int,
                              noise: float, seed: int, acl: AccessPolicy | None = None,
                              resolution: int = 32, patch_size: int = 4) -> TaskSpec:
    """Procedurally rendered glyph task, deterministic under seed, split 80/10/10.

    Each distinct (class, shift) glyph is rendered once; the splits are then
    rendered in order from the rng the class-asset draw left.
    """
    rng, glyphs, labels = _glyph_plan(num_classes, samples_per_class, noise, seed, resolution, patch_size)
    splits = {split: Dataset(images=_render_split(glyphs, labels[split], noise, rng), labels=labels[split])
              for split in SPLITS}
    recipe = {"type": "synthetic_glyphs", "name": name, "num_classes": num_classes,
              "samples_per_class": samples_per_class, "noise": noise, "seed": seed,
              "resolution": resolution, "patch_size": patch_size}
    return TaskSpec(recipe, acl or AccessPolicy(), splits)


# ---------------------------------------------------------------------------
# raw dataset files
#
# <dir>/header.json  {name, num_classes, shape [H,W,C], counts {split: n}, checksum}
# <dir>/<split>.bin  u8 pixels row-major, then u16 little-endian labels
# checksum = sha256 hex over the three blobs concatenated in (train, validation, test) order.

def save_raw_dataset(directory, name: str, num_classes: int, splits: dict[str, Dataset]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    shape = tuple(int(x) for x in splits["train"].images.shape[1:])
    digest = hashlib.sha256()
    blobs = {}
    for split in SPLITS:
        ds = splits[split]
        blob = ds.images.tobytes() + ds.labels.astype("<u2").tobytes()
        blobs[split] = blob
        digest.update(blob)
    header = {
        "name": name, "num_classes": num_classes, "shape": list(shape),
        "counts": {s: len(splits[s]) for s in SPLITS}, "checksum": digest.hexdigest(),
    }
    for split in SPLITS:
        (directory / f"{split}.bin").write_bytes(blobs[split])
    (directory / "header.json").write_text(json.dumps(header, sort_keys=True, indent=1))


def load_raw_dataset(directory, acl: AccessPolicy | None = None) -> TaskSpec:
    """Load and fully validate a raw dataset directory; never returns partial data."""
    directory = Path(directory)
    header_path = directory / "header.json"
    if not header_path.exists():
        raise DataError(f"malformed header: {header_path} missing")
    try:
        header = json.loads(header_path.read_text())
        name = header["name"]
        if not isinstance(name, str):
            raise TypeError(f"name must be a string, not {name!r}")
        num_classes = int(header["num_classes"])
        h, w, c = (int(x) for x in header["shape"])
        counts = {s: int(header["counts"][s]) for s in SPLITS}
        checksum = header["checksum"]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise DataError(f"malformed header: {exc}") from exc

    digest = hashlib.sha256()
    splits: dict[str, Dataset] = {}
    for split in SPLITS:
        blob_path = directory / f"{split}.bin"
        if not blob_path.exists():
            raise DataError(f"truncated payload: {blob_path} missing")
        blob = blob_path.read_bytes()
        n = counts[split]
        pixel_bytes = n * h * w * c
        expected = pixel_bytes + n * 2
        if len(blob) != expected:
            raise DataError(f"truncated payload: {split}.bin has {len(blob)} bytes, expected {expected}")
        digest.update(blob)
        images = np.frombuffer(blob, dtype=np.uint8, count=pixel_bytes).reshape(n, h, w, c)
        labels = np.frombuffer(blob[pixel_bytes:], dtype="<u2")
        splits[split] = Dataset(images=images.copy(), labels=labels.astype(np.uint16))
    if digest.hexdigest() != checksum:
        raise DataError("checksum mismatch: dataset blobs do not match header")

    recipe = {"type": "raw", "path": str(directory), "name": name, "num_classes": num_classes,
              "shape": [h, w, c], "counts": counts, "checksum": checksum}
    return TaskSpec(recipe, acl or AccessPolicy(), splits)


# the fields each recipe type needs: a synthetic recipe's are the generator's
# arguments, a raw recipe's are its directory and the header it found there
RECIPE_FIELDS = {
    "synthetic_glyphs": ("name", "num_classes", "samples_per_class", "noise", "seed",
                         "resolution", "patch_size"),
    "raw": ("path", "name", "num_classes", "shape", "counts", "checksum"),
}


def build_task(recipe: dict, acl: AccessPolicy) -> TaskSpec:
    """Rebuild a task from its persisted recipe (checkpoint restore path)."""
    kind = recipe.get("type")
    if kind == "synthetic_glyphs":
        return make_synthetic_glyph_task(**{f: recipe[f] for f in RECIPE_FIELDS[kind]}, acl=acl)
    if kind == "raw":
        return load_raw_dataset(recipe["path"], acl=acl)
    raise ConfigError(f"unknown task recipe type {kind!r}")


def plan_task(recipe: dict, acl: AccessPolicy) -> TaskSpec:
    """The task `build_task` would build, after the checks that building it makes,
    but with a synthetic task's samples left unrendered: as for a loaded task,
    its data is built the first time a command reads its splits. A raw task is
    loaded here, because its recipe holds the header's facts."""
    if recipe.get("type") != "synthetic_glyphs":
        return build_task(recipe, acl)
    fields = {f: recipe[f] for f in RECIPE_FIELDS["synthetic_glyphs"]}
    _glyph_plan(**{f: v for f, v in fields.items() if f != "name"})
    return TaskSpec({"type": "synthetic_glyphs", **fields}, acl)
