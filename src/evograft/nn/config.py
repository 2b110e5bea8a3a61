"""Configuration types for the neural substrate: layer geometry, optimizer, preprocessing."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import ValidationError


class LayerKind(str, Enum):
    PATCH_EMBEDDING = "patch_embedding"
    CLASS_TOKEN = "class_token"
    POSITION_EMBEDDING = "position_embedding"
    TRANSFORMER = "transformer"
    HEAD = "head"


@dataclass(frozen=True)
class LayerConfig:
    """Geometry of one layer. Only the fields relevant to `kind` are set."""

    kind: LayerKind
    hidden_dim: int
    num_heads: int | None = None
    mlp_dim: int | None = None
    patch_size: int | None = None
    image_resolution: int | None = None
    channels: int | None = None
    num_classes: int | None = None

    def validate(self) -> None:
        if self.hidden_dim <= 0:
            raise ValidationError(f"hidden_dim must be positive, got {self.hidden_dim}")
        k = self.kind
        if k == LayerKind.PATCH_EMBEDDING:
            if not (self.patch_size and self.image_resolution and self.channels):
                raise ValidationError("patch embedding needs patch_size, image_resolution, channels")
            if self.image_resolution % self.patch_size != 0:
                raise ValidationError(
                    f"image_resolution {self.image_resolution} not divisible by patch_size {self.patch_size}"
                )
        elif k == LayerKind.POSITION_EMBEDDING:
            if not (self.patch_size and self.image_resolution):
                raise ValidationError("position embedding needs patch_size and image_resolution")
        elif k == LayerKind.TRANSFORMER:
            if not (self.num_heads and self.mlp_dim):
                raise ValidationError("transformer needs num_heads and mlp_dim")
            if self.hidden_dim % self.num_heads != 0:
                raise ValidationError(
                    f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
                )
        elif k == LayerKind.HEAD:
            if not self.num_classes or self.num_classes < 1:
                raise ValidationError("head needs num_classes >= 1")

    @property
    def num_tokens(self) -> int:
        """Sequence length after the class token is prepended."""
        if not (self.patch_size and self.image_resolution):
            raise ValidationError(f"{self.kind} has no token geometry")
        return (self.image_resolution // self.patch_size) ** 2 + 1

    def to_dict(self) -> dict:
        d = {"kind": self.kind.value, "hidden_dim": self.hidden_dim}
        for f in ("num_heads", "mlp_dim", "patch_size", "image_resolution", "channels", "num_classes"):
            v = getattr(self, f)
            if v is not None:
                d[f] = v
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LayerConfig":
        return cls(
            kind=LayerKind(d["kind"]),
            hidden_dim=int(d["hidden_dim"]),
            num_heads=d.get("num_heads"),
            mlp_dim=d.get("mlp_dim"),
            patch_size=d.get("patch_size"),
            image_resolution=d.get("image_resolution"),
            channels=d.get("channels"),
            num_classes=d.get("num_classes"),
        )


@dataclass(frozen=True)
class ArchConfig:
    """Model-wide geometry shared by every layer of a path (desk-scale defaults)."""

    hidden_dim: int = 32
    num_heads: int = 2
    mlp_dim: int = 64
    patch_size: int = 4
    image_resolution: int = 32
    channels: int = 1

    def layer_config(self, kind: LayerKind, num_classes: int | None = None) -> LayerConfig:
        if kind == LayerKind.PATCH_EMBEDDING:
            return LayerConfig(kind, self.hidden_dim, patch_size=self.patch_size,
                               image_resolution=self.image_resolution, channels=self.channels)
        if kind == LayerKind.CLASS_TOKEN:
            return LayerConfig(kind, self.hidden_dim)
        if kind == LayerKind.POSITION_EMBEDDING:
            return LayerConfig(kind, self.hidden_dim, patch_size=self.patch_size,
                               image_resolution=self.image_resolution)
        if kind == LayerKind.TRANSFORMER:
            return LayerConfig(kind, self.hidden_dim, num_heads=self.num_heads, mlp_dim=self.mlp_dim)
        if kind == LayerKind.HEAD:
            return LayerConfig(kind, self.hidden_dim, num_classes=num_classes)
        raise ValidationError(f"unknown layer kind {kind}")

    def to_dict(self) -> dict:
        return {
            "hidden_dim": self.hidden_dim, "num_heads": self.num_heads, "mlp_dim": self.mlp_dim,
            "patch_size": self.patch_size, "image_resolution": self.image_resolution,
            "channels": self.channels,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArchConfig":
        return cls(**{k: int(d[k]) for k in
                      ("hidden_dim", "num_heads", "mlp_dim", "patch_size", "image_resolution", "channels")})


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float
    warmup_ratio: float
    momentum: float
    nesterov: bool
    total_steps: int
    clip_norm: float = 1.0

    def validate(self) -> None:
        if self.learning_rate <= 0 or not (0 < self.warmup_ratio < 1):
            raise ValidationError("learning_rate must be > 0 and warmup_ratio in (0,1)")
        if not (0 <= self.momentum < 1) or self.clip_norm <= 0 or self.total_steps <= 0:
            raise ValidationError("momentum in [0,1), clip_norm > 0, total_steps > 0 required")


@dataclass(frozen=True)
class PreprocConfig:
    crop: bool = True
    crop_area_min: float = 0.05
    crop_aspect_min: float = 0.75
    flip_lr: bool = True
    brightness_delta: float = 0.0
    contrast_delta: float = 0.0
    saturation_delta: float = 0.0
    hue_delta: float = 0.0


@dataclass
class Batch:
    """A minibatch: images in [0,1], integer class labels."""

    images: np.ndarray  # [B, H, W, C] float32
    labels: np.ndarray  # [B] int64

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ValidationError(f"images must be [B,H,W,C], got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValidationError("labels must be one per image")
