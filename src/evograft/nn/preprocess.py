"""Image preprocessing: random crop/flip/color jitter for training, pure resize for eval.

Conventions (the search-space file only parametrizes magnitudes):
brightness adds a constant, contrast scales about the per-image mean,
saturation scales about per-pixel Rec.601 luma, hue rotates the chroma plane
by delta * pi. Grayscale inputs skip saturation and hue entirely. Zero-delta
ops are skipped so the default configuration is an exact identity.

All ops are vectorized over the batch; per-image randomness is drawn as whole
arrays in a fixed op order, so a fixed rng seed reproduces batches byte for
byte regardless of batch size.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..errors import InvariantError

if TYPE_CHECKING:  # pragma: no cover
    from ..mutation import Genome

_LUMA = (0.299, 0.587, 0.114)


def _batch_crop_resize(images: np.ndarray, tops, lefts, heights, widths, out: int) -> np.ndarray:
    """Bilinear crop-and-resize of [B,H,W,C] with per-image boxes (align_corners=False)."""
    b, h, w, c = images.shape
    sy = heights.astype(np.float32) / out
    sx = widths.astype(np.float32) / out
    ys = (np.arange(out, dtype=np.float32)[None, :] + 0.5) * sy[:, None] - 0.5 + tops[:, None]
    xs = (np.arange(out, dtype=np.float32)[None, :] + 0.5) * sx[:, None] - 0.5 + lefts[:, None]
    ys = np.clip(ys, tops[:, None], (tops + heights - 1)[:, None])
    xs = np.clip(xs, lefts[:, None], (lefts + widths - 1)[:, None])
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, (tops + heights - 1)[:, None].astype(np.int64))
    x1 = np.minimum(x0 + 1, (lefts + widths - 1)[:, None].astype(np.int64))
    wy = (ys - y0).astype(np.float32)[:, :, None, None]
    wx = (xs - x0).astype(np.float32)[:, None, :, None]
    # One flat row gather per corner: pixel (img, y, x) is row (img*h + y)*w + x.
    pixels = images.reshape(b * h * w, c)
    rows = np.arange(b, dtype=np.int64)[:, None] * h
    row0 = ((rows + y0) * w)[:, :, None]
    row1 = ((rows + y1) * w)[:, :, None]
    tl = pixels.take(row0 + x0[:, None, :], axis=0)
    tr = pixels.take(row0 + x1[:, None, :], axis=0)
    bl = pixels.take(row1 + x0[:, None, :], axis=0)
    br = pixels.take(row1 + x1[:, None, :], axis=0)
    top = tl * (1 - wx) + tr * wx
    bot = bl * (1 - wx) + br * wx
    return (top * (1 - wy) + bot * wy).astype(np.float32)


def _eval_resize(images: np.ndarray, out: int) -> np.ndarray:
    """Deterministic center-square crop plus resize; exact copy when already sized."""
    b, h, w, _ = images.shape
    if (h, w) == (out, out):
        return images.copy()
    side = min(h, w)
    top = np.full(b, (h - side) // 2, np.float32)
    left = np.full(b, (w - side) // 2, np.float32)
    size = np.full(b, side, np.float32)
    return _batch_crop_resize(images, top, left, size, size, out)


def _rotate_hue(img: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rotate the YIQ chroma plane by per-image theta radians. img [B,H,W,3]."""
    to_yiq = np.array([[0.299, 0.587, 0.114],
                       [0.596, -0.274, -0.322],
                       [0.211, -0.523, 0.312]], np.float32)
    to_rgb = np.linalg.inv(to_yiq).astype(np.float32)
    cos_t = np.cos(theta).astype(np.float32)
    sin_t = np.sin(theta).astype(np.float32)
    b = img.shape[0]
    rot = np.zeros((b, 3, 3), np.float32)
    rot[:, 0, 0] = 1.0
    rot[:, 1, 1] = cos_t
    rot[:, 1, 2] = -sin_t
    rot[:, 2, 1] = sin_t
    rot[:, 2, 2] = cos_t
    m = np.einsum("ij,bjk,kl->bil", to_rgb, rot, to_yiq)
    return np.einsum("bhwc,bdc->bhwd", img, m)


def preprocess(images: np.ndarray, cfg: Genome | None, train_mode: bool,
               rng: np.random.Generator | None, resolution: int) -> np.ndarray:
    """Preprocess [B,H,W,C] images in [0,1] to a new [B, resolution, resolution, C] float32 array.

    Train mode augments with the genome's magnitudes: random crop (area ~
    U[crop_area_min, 1], aspect ~ U[crop_aspect_min, 1/crop_aspect_min],
    resized back), left/right flip with probability 0.5, then
    brightness/contrast/saturation/hue jitter, clamped to [0,1]. Eval mode is a
    pure center-resize and reads no genome. The input is never written.
    """
    if images.dtype != np.float32:
        images = images.astype(np.float32)
    if train_mode and (rng is None or cfg is None):
        raise InvariantError("train-mode preprocessing requires an rng and a genome")
    b, h, w, c = images.shape

    if not train_mode:
        return _eval_resize(images, resolution)

    if cfg.crop:
        area = rng.uniform(cfg.crop_area_min, 1.0, b) * (h * w)
        aspect = rng.uniform(cfg.crop_aspect_min, 1.0 / cfg.crop_aspect_min, b)
        cw = np.clip(np.round(np.sqrt(area * aspect)), 1, w)
        ch = np.clip(np.round(np.sqrt(area / aspect)), 1, h)
        tops = np.floor(rng.random(b) * (h - ch + 1))
        lefts = np.floor(rng.random(b) * (w - cw + 1))
        out = _batch_crop_resize(images, tops.astype(np.float32), lefts.astype(np.float32),
                                 ch.astype(np.float32), cw.astype(np.float32), resolution)
    else:
        out = _eval_resize(images, resolution)

    if cfg.flip_lr:
        flip = rng.random(b) < 0.5
        out[flip] = out[flip, :, ::-1, :]

    if cfg.brightness_delta > 0:
        delta = rng.uniform(-cfg.brightness_delta, cfg.brightness_delta, b).astype(np.float32)
        out = out + delta[:, None, None, None]
    if cfg.contrast_delta > 0:
        scale = (1.0 + rng.uniform(-cfg.contrast_delta, cfg.contrast_delta, b)).astype(np.float32)
        mean = out.mean(axis=(1, 2, 3), keepdims=True)
        out = mean + (out - mean) * scale[:, None, None, None]
    if c == 3:
        if cfg.saturation_delta > 0:
            scale = (1.0 + rng.uniform(-cfg.saturation_delta, cfg.saturation_delta, b)).astype(np.float32)
            luma = (out * np.asarray(_LUMA, np.float32)).sum(-1, keepdims=True)
            out = luma + (out - luma) * scale[:, None, None, None]
        if cfg.hue_delta > 0:
            theta = rng.uniform(-cfg.hue_delta, cfg.hue_delta, b) * math.pi
            out = _rotate_hue(out, theta)
    if cfg.brightness_delta > 0 or cfg.contrast_delta > 0 or (
            c == 3 and (cfg.saturation_delta > 0 or cfg.hue_delta > 0)):
        out = np.clip(out, 0.0, 1.0)
    return np.ascontiguousarray(out)
