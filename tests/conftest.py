import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evograft.nn.config import ArchConfig, LayerKind
from evograft.nn.layers import init_params
from evograft.store import LayerRecord, LayerStore


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def arch():
    return ArchConfig()


@pytest.fixture
def evograft_cli():
    """Run `python -m evograft.cli *args` in a fresh process, the entry point an
    operator runs, with this checkout's `src` on the path and one BLAS thread.
    Returns (exit code, stdout, stderr)."""
    def run(*args):
        env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-m", "evograft.cli", *map(str, args)],
                              env=env, capture_output=True, text=True, timeout=300)
        return proc.returncode, proc.stdout, proc.stderr
    return run


def make_record(kind: LayerKind, arch: ArchConfig, seed: int = 0, creator: str = "root",
                trained_on=(), cloned_from=None, num_classes: int = 4,
                opt_state=None) -> LayerRecord:
    cfg = arch.layer_config(kind, num_classes=num_classes if kind == LayerKind.HEAD else None)
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    return LayerRecord.create(kind=kind, config=cfg, params=params, optimizer_state=opt_state,
                              cloned_from=cloned_from, trained_on=trained_on, creator_task=creator)


def stripped_path_records(arch: ArchConfig, seed: int = 0, num_classes: int = 4,
                          creator: str = "root"):
    """patch-embed, class-token, pos-embed, head records sharing one init stream."""
    rng = np.random.default_rng(seed)
    records = []
    for kind in (LayerKind.PATCH_EMBEDDING, LayerKind.CLASS_TOKEN,
                 LayerKind.POSITION_EMBEDDING, LayerKind.HEAD):
        cfg = arch.layer_config(kind, num_classes=num_classes if kind == LayerKind.HEAD else None)
        records.append(LayerRecord.create(kind=kind, config=cfg, params=init_params(cfg, rng),
                                          optimizer_state=None, cloned_from=None,
                                          trained_on=(), creator_task=creator))
    return records
