from .config import ArchConfig, LayerConfig, LayerKind, OptimizerConfig
from .network import PathLayer, Tape, backward, forward, softmax_xent
from .optim import clip_by_global_norm, global_norm, lr_at, sgd_step
from .preprocess import preprocess

__all__ = [
    "ArchConfig", "LayerConfig", "LayerKind", "OptimizerConfig",
    "PathLayer", "Tape", "backward", "forward", "softmax_xent",
    "clip_by_global_norm", "global_norm", "lr_at", "sgd_step", "preprocess",
]
