"""Per-kind layer math: parameter shapes, initialization, forward and backward.

All functions are pure and dtype-following: float32 tensors run the production
path, float64 tensors run the oracle path used by the finite-difference tests.
Backward passes are hand-derived; the test suite checks every parameter tensor
of every kind against central differences.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import StructuralError, ValidationError
from .config import LayerConfig, LayerKind

LN_EPS = 1e-6
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# Canonical tensor order per kind; serialization, hashing and clipping iterate it.
PARAM_ORDER: dict[LayerKind, tuple[str, ...]] = {
    LayerKind.PATCH_EMBEDDING: ("w", "b"),
    LayerKind.CLASS_TOKEN: ("token",),
    LayerKind.POSITION_EMBEDDING: ("pos",),
    LayerKind.TRANSFORMER: (
        "ln1_gamma", "ln1_beta", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
        "ln2_gamma", "ln2_beta", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2",
    ),
    LayerKind.HEAD: ("w", "b"),
}


def param_shapes(cfg: LayerConfig) -> dict[str, tuple[int, ...]]:
    """Expected tensor shapes for a layer; the store validates inserts against this."""
    cfg.validate()
    d = cfg.hidden_dim
    k = cfg.kind
    if k == LayerKind.PATCH_EMBEDDING:
        return {"w": (cfg.patch_size * cfg.patch_size * cfg.channels, d), "b": (d,)}
    if k == LayerKind.CLASS_TOKEN:
        return {"token": (d,)}
    if k == LayerKind.POSITION_EMBEDDING:
        return {"pos": (cfg.num_tokens, d)}
    if k == LayerKind.TRANSFORMER:
        m = cfg.mlp_dim
        return {
            "ln1_gamma": (d,), "ln1_beta": (d,),
            "wq": (d, d), "bq": (d,), "wk": (d, d), "bk": (d,),
            "wv": (d, d), "bv": (d,), "wo": (d, d), "bo": (d,),
            "ln2_gamma": (d,), "ln2_beta": (d,),
            "mlp_w1": (d, m), "mlp_b1": (m,), "mlp_w2": (m, d), "mlp_b2": (d,),
        }
    if k == LayerKind.HEAD:
        return {"w": (d, cfg.num_classes), "b": (cfg.num_classes,)}
    raise ValidationError(f"unknown layer kind {k}")


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Truncated normal at +-2 std, resampling rejects (deterministic under rng)."""
    x = rng.standard_normal(shape) * std
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(x) > 2 * std
    return x.astype(np.float32)


def init_params(cfg: LayerConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fresh random initialization.

    Projection matrices use fan-in scaled truncated normal; with a fixed tiny
    std their output scale collapses at desk-scale widths and from-scratch
    training stalls. Embedding tables (position) keep std 0.02; class token
    and biases start at zero, layernorm gains at one.
    """
    shapes = param_shapes(cfg)
    params: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        if name in ("token",):
            params[name] = np.zeros(shape, np.float32)
        elif name.endswith("gamma"):
            params[name] = np.ones(shape, np.float32)
        elif name.startswith("b") or name.endswith("beta") or name in ("mlp_b1", "mlp_b2"):
            params[name] = np.zeros(shape, np.float32)
        elif name == "pos":
            params[name] = trunc_normal(rng, shape, std=0.02)
        else:
            params[name] = trunc_normal(rng, shape, std=1.0 / math.sqrt(shape[0]))
    return params


# ---------------------------------------------------------------------------
# primitive ops

def _layernorm_fwd(x, gamma, beta):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * gamma + beta, (xhat, inv)


def _layernorm_bwd(dy, gamma, cache):
    xhat, inv = cache
    dxhat = dy * gamma
    dgamma = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    dbeta = dy.sum(axis=tuple(range(dy.ndim - 1)))
    m1 = dxhat.mean(-1, keepdims=True)
    m2 = (dxhat * xhat).mean(-1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) * inv
    return dx, dgamma, dbeta


def _gelu_fwd(u):
    u2 = u * u
    t = np.tanh(u * (_GELU_C + (_GELU_C * _GELU_A) * u2))
    return 0.5 * u * (1.0 + t), t


def _gelu_bwd(du_out, u, t):
    inner = _GELU_C * (1.0 + 3.0 * _GELU_A * (u * u))
    return du_out * (0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * inner)


def _dense_fwd(x, w, b):
    # x [..., D] @ w [D, E] + b
    y = x @ w
    y += b
    return y


def _dense_bwd(x, w, dy):
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dw = x2.T @ dy2
    db = dy2.sum(0)
    dx = (dy2 @ w.T).reshape(x.shape)
    return dw, db, dx


def _softmax(x):
    z = x - x.max(-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(-1, keepdims=True)


def _patchify(images: np.ndarray, p: int) -> np.ndarray:
    b, r, r2, c = images.shape
    if r != r2:
        raise StructuralError(f"images must be square, got {images.shape}")
    if r % p != 0:
        raise StructuralError(f"resolution {r} not divisible by patch size {p}")
    g = r // p
    x = images.reshape(b, g, p, g, p, c).transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(b, g * g, p * p * c)


# ---------------------------------------------------------------------------
# per-kind forward / backward

def forward(cfg: LayerConfig, params: dict, x: np.ndarray):
    """Run one layer; returns (y, cache). cache is consumed by backward()."""
    k = cfg.kind
    if k == LayerKind.PATCH_EMBEDDING:
        if x.ndim != 4 or x.shape[1] != cfg.image_resolution or x.shape[3] != cfg.channels:
            raise StructuralError(
                f"patch embedding expects [B,{cfg.image_resolution},{cfg.image_resolution},{cfg.channels}], got {x.shape}"
            )
        patches = _patchify(x, cfg.patch_size)
        y = _dense_fwd(patches, params["w"], params["b"])
        return y, (patches,)

    if x.ndim != 3 or x.shape[-1] != cfg.hidden_dim:
        raise StructuralError(f"{k.value} expects [B,T,{cfg.hidden_dim}] tokens, got {x.shape}")

    if k == LayerKind.CLASS_TOKEN:
        b = x.shape[0]
        tok = np.broadcast_to(params["token"], (b, 1, cfg.hidden_dim))
        return np.concatenate([tok.astype(x.dtype), x], axis=1), None

    if k == LayerKind.POSITION_EMBEDDING:
        if x.shape[1] != params["pos"].shape[0]:
            raise StructuralError(
                f"position embedding table has {params['pos'].shape[0]} slots, sequence has {x.shape[1]}"
            )
        return x + params["pos"], None

    if k == LayerKind.TRANSFORMER:
        return _transformer_fwd(cfg, params, x)

    if k == LayerKind.HEAD:
        pooled = x.mean(axis=1)
        logits = _dense_fwd(pooled, params["w"], params["b"])
        return logits, (pooled, x.shape[1])

    raise ValidationError(f"unknown layer kind {k}")


def backward(cfg: LayerConfig, params: dict, cache, dy: np.ndarray,
             want_param_grads: bool, want_dx: bool):
    """Backward through one layer; returns (dparams | None, dx | None)."""
    k = cfg.kind

    if k == LayerKind.PATCH_EMBEDDING:
        # Bottom of every path: gradients never flow to raw pixels.
        if not want_param_grads:
            return None, None
        (patches,) = cache
        dw, db, _ = _dense_bwd(patches, params["w"], dy)
        return {"w": dw, "b": db}, None

    if k == LayerKind.CLASS_TOKEN:
        dparams = {"token": dy[:, 0, :].sum(0)} if want_param_grads else None
        dx = dy[:, 1:, :] if want_dx else None
        return dparams, dx

    if k == LayerKind.POSITION_EMBEDDING:
        dparams = {"pos": dy.sum(0)} if want_param_grads else None
        dx = dy if want_dx else None
        return dparams, dx

    if k == LayerKind.TRANSFORMER:
        return _transformer_bwd(cfg, params, cache, dy, want_param_grads, want_dx)

    if k == LayerKind.HEAD:
        pooled, t_len = cache
        dparams = None
        if want_param_grads:
            dparams = {"w": pooled.T @ dy, "b": dy.sum(0)}
        dx = None
        if want_dx:
            dpooled = dy @ params["w"].T
            dx = np.repeat(dpooled[:, None, :] / t_len, t_len, axis=1)
        return dparams, dx

    raise ValidationError(f"unknown layer kind {k}")


def _transformer_fwd(cfg: LayerConfig, params: dict, x: np.ndarray):
    nh = cfg.num_heads
    b, t, d = x.shape
    dh = d // nh
    scale = 1.0 / math.sqrt(dh)

    h, ln1_cache = _layernorm_fwd(x, params["ln1_gamma"], params["ln1_beta"])
    # One fused GEMM for q,k,v; the per-tensor parameters stay separate.
    w_qkv = np.concatenate([params["wq"], params["wk"], params["wv"]], axis=1)
    b_qkv = np.concatenate([params["bq"], params["bk"], params["bv"]])
    qkv = h.reshape(b * t, d) @ w_qkv + b_qkv

    def split(z):
        return np.ascontiguousarray(z.reshape(b, t, nh, dh).transpose(0, 2, 1, 3))  # [B,H,T,dh]

    qh = split(qkv[:, :d])
    kh = split(qkv[:, d:2 * d])
    vh = split(qkv[:, 2 * d:])
    scores = (qh @ kh.transpose(0, 1, 3, 2)) * scale
    attn = _softmax(scores)
    ctx = attn @ vh  # [B,H,T,dh]
    cat = ctx.transpose(0, 2, 1, 3).reshape(b, t, d)
    o = _dense_fwd(cat, params["wo"], params["bo"])
    x1 = x + o

    h2, ln2_cache = _layernorm_fwd(x1, params["ln2_gamma"], params["ln2_beta"])
    u = _dense_fwd(h2, params["mlp_w1"], params["mlp_b1"])
    g, t_gelu = _gelu_fwd(u)
    f = _dense_fwd(g, params["mlp_w2"], params["mlp_b2"])
    y = x1 + f

    cache = (ln1_cache, h, qh, kh, vh, attn, cat, ln2_cache, h2, u, t_gelu, g)
    return y, cache


def _transformer_bwd(cfg: LayerConfig, params: dict, cache, dy, want_param_grads, want_dx):
    ln1_cache, h, qh, kh, vh, attn, cat, ln2_cache, h2, u, t_gelu, g = cache
    nh = cfg.num_heads
    b, t, d = h.shape
    dh = d // nh
    scale = 1.0 / math.sqrt(dh)
    dparams: dict[str, np.ndarray] = {}

    # y = x1 + f(ln2(x1))
    dmlp_w2, dmlp_b2, dg = _dense_bwd(g, params["mlp_w2"], dy)
    du = _gelu_bwd(dg, u, t_gelu)
    dmlp_w1, dmlp_b1, dh2 = _dense_bwd(h2, params["mlp_w1"], du)
    dx1_ln, dln2_g, dln2_b = _layernorm_bwd(dh2, params["ln2_gamma"], ln2_cache)
    dx1 = dy + dx1_ln

    # x1 = x + o(attention(ln1(x)))
    do = dx1
    dwo, dbo, dcat = _dense_bwd(cat, params["wo"], do)
    dctx = dcat.reshape(b, t, nh, dh).transpose(0, 2, 1, 3)
    dattn = dctx @ vh.transpose(0, 1, 3, 2)
    dvh = attn.transpose(0, 1, 3, 2) @ dctx
    # softmax backward (rows of attn)
    dscores = attn * (dattn - (dattn * attn).sum(-1, keepdims=True))
    dscores *= scale
    dqh = dscores @ kh
    dkh = dscores.transpose(0, 1, 3, 2) @ qh

    def merge(z):
        return np.ascontiguousarray(z.transpose(0, 2, 1, 3)).reshape(b * t, d)

    dqkv = np.concatenate([merge(dqh), merge(dkh), merge(dvh)], axis=1)
    h2d = h.reshape(b * t, d)
    dw_qkv = h2d.T @ dqkv
    db_qkv = dqkv.sum(0)
    dwq, dwk, dwv = dw_qkv[:, :d], dw_qkv[:, d:2 * d], dw_qkv[:, 2 * d:]
    dbq, dbk, dbv = db_qkv[:d], db_qkv[d:2 * d], db_qkv[2 * d:]
    w_qkv = np.concatenate([params["wq"], params["wk"], params["wv"]], axis=1)
    dh_total = (dqkv @ w_qkv.T).reshape(b, t, d)
    dx_ln, dln1_g, dln1_b = _layernorm_bwd(dh_total, params["ln1_gamma"], ln1_cache)

    if want_param_grads:
        dparams = {
            "ln1_gamma": dln1_g, "ln1_beta": dln1_b,
            "wq": dwq, "bq": dbq, "wk": dwk, "bk": dbk, "wv": dwv, "bv": dbv,
            "wo": dwo, "bo": dbo,
            "ln2_gamma": dln2_g, "ln2_beta": dln2_b,
            "mlp_w1": dmlp_w1, "mlp_b1": dmlp_b1, "mlp_w2": dmlp_w2, "mlp_b2": dmlp_b2,
        }
    dx = dx1 + dx_ln if want_dx else None
    return (dparams if want_param_grads else None), dx
