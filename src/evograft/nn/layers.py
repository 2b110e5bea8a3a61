"""Per-kind layer math: parameter shapes, initialization, forward and backward.

All functions are dtype-following: float32 tensors run the production path,
float64 tensors run the oracle path used by the finite-difference tests.
Backward passes are hand-derived; the test suite checks every parameter tensor
of every kind against central differences.

A kernel overwrites only arrays it allocated itself. Its inputs, the layer's
params, `dy` and every tape (cache) entry are read-only, so a tape can be run
backward twice. The one exception is `_softmax`, which works in place on the
score buffer its caller allocated. In-place writes keep each operation's
operands and order, so every result has the bytes of the out-of-place
expression it replaces (tests/test_kernel_bytes.py keeps those expressions as
oracles). That holds when a layer's params share one dtype and `dy` has the
dtype of the layer's output, as on every network path; the transformer
backward refuses any other `dy`.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import InvariantError, ValidationError
from .config import LayerConfig, LayerKind

LN_EPS = 1e-6
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

def param_shapes(cfg: LayerConfig) -> dict[str, tuple[int, ...]]:
    """Expected tensor shapes for a layer, in the canonical tensor order that
    hashing and serialization iterate; the store validates inserts against this."""
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
    xc = x - x.mean(-1, keepdims=True)
    inv = (xc * xc).mean(-1, keepdims=True)
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xc *= inv  # xhat
    y = xc * gamma
    y += beta
    return y, (xc, inv)


def _layernorm_bwd(dy, gamma, cache, want_params=True, want_dx=True):
    """Returns (dx, dgamma, dbeta); the parts not wanted are None."""
    xhat, inv = cache
    dx = dgamma = dbeta = None
    if want_params:
        dgamma = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
        dbeta = dy.sum(axis=tuple(range(dy.ndim - 1)))
    if want_dx:
        dx = dy * gamma  # dxhat
        m1 = dx.mean(-1, keepdims=True)
        prod = dx * xhat
        m2 = prod.mean(-1, keepdims=True)
        dx -= m1
        dx -= np.multiply(xhat, m2, out=prod)
        dx *= inv
    return dx, dgamma, dbeta


def _gelu_fwd(u):
    """tanh-approximate GELU; returns (g, t), t being the tanh the backward needs."""
    # t = tanh(u * (C + (C*A) * u*u)); g = 0.5*u * (1 + t)
    t = u * u
    t *= _GELU_C * _GELU_A
    t += _GELU_C
    t *= u
    np.tanh(t, out=t)
    g = 0.5 * u
    g *= 1.0 + t
    return g, t


def _gelu_bwd(du_out, u, t):
    # du_out * (0.5*(1 + t) + 0.5*u * (1 - t*t) * inner), inner = C * (1 + 3A * u*u)
    inner = u * u
    inner *= 3.0 * _GELU_A
    inner += 1.0
    inner *= _GELU_C
    tail = 0.5 * u
    dt = t * t
    np.subtract(1.0, dt, out=dt)
    tail *= dt
    tail *= inner
    du = np.add(1.0, t, out=dt)
    du *= 0.5
    du += tail
    du *= du_out
    return du


def _dense_fwd(x, w, b):
    # x [..., D] @ w [D, E] + b
    y = x @ w
    y += b
    return y


def _dense_bwd(x, w, dy, want_params=True, want_dx=True):
    """Returns (dw, db, dx); the parts not wanted are None."""
    dy2 = dy.reshape(-1, dy.shape[-1])
    dw = db = dx = None
    if want_params:
        dw = x.reshape(-1, x.shape[-1]).T @ dy2
        db = dy2.sum(0)
    if want_dx:
        dx = (dy2 @ w.T).reshape(x.shape)
    return dw, db, dx


def _softmax(z):
    """Row softmax of z, computed in place in z (a buffer the caller allocated)."""
    z -= z.max(-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(-1, keepdims=True)
    return z


def _patchify(images: np.ndarray, p: int) -> np.ndarray:
    b, r, _, c = images.shape
    g = r // p
    x = images.reshape(b, g, p, g, p, c).transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(b, g * g, p * p * c)


# ---------------------------------------------------------------------------
# per-kind forward / backward

def forward(cfg: LayerConfig, params: dict, x: np.ndarray):
    """Run one layer; returns (y, cache). cache is consumed by backward()."""
    k = cfg.kind
    if k == LayerKind.PATCH_EMBEDDING:
        # the images come from a dataset; every other layer's input is its path's own output
        if x.shape[1:] != (cfg.image_resolution, cfg.image_resolution, cfg.channels):
            raise InvariantError(
                f"patch embedding expects [B,{cfg.image_resolution},{cfg.image_resolution},{cfg.channels}], got {x.shape}"
            )
        patches = _patchify(x, cfg.patch_size)
        y = _dense_fwd(patches, params["w"], params["b"])
        return y, (patches,)

    if k == LayerKind.CLASS_TOKEN:
        b = x.shape[0]
        tok = np.broadcast_to(params["token"], (b, 1, cfg.hidden_dim))
        return np.concatenate([tok.astype(x.dtype), x], axis=1), None

    if k == LayerKind.POSITION_EMBEDDING:
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
        dw, db, _ = _dense_bwd(patches, params["w"], dy, want_dx=False)
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
    qkv = h.reshape(b * t, d) @ w_qkv
    qkv += b_qkv
    # One copy splits q, k and v into heads: [3,B,H,T,dh].
    qh, kh, vh = np.ascontiguousarray(qkv.reshape(b, t, 3, nh, dh).transpose(2, 0, 3, 1, 4))
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores *= scale
    attn = _softmax(scores)
    ctx = attn @ vh  # [B,H,T,dh]
    cat = ctx.transpose(0, 2, 1, 3).reshape(b, t, d)
    x1 = _dense_fwd(cat, params["wo"], params["bo"])
    x1 += x

    h2, ln2_cache = _layernorm_fwd(x1, params["ln2_gamma"], params["ln2_beta"])
    u = _dense_fwd(h2, params["mlp_w1"], params["mlp_b1"])
    g, t_gelu = _gelu_fwd(u)
    y = _dense_fwd(g, params["mlp_w2"], params["mlp_b2"])
    y += x1

    cache = (ln1_cache, h, qh, kh, vh, attn, cat, ln2_cache, h2, u, t_gelu, g)
    return y, cache


def _transformer_bwd(cfg: LayerConfig, params: dict, cache, dy, want_param_grads, want_dx):
    """Computes only what is asked for: a frozen layer skips every parameter
    gradient, the lowest taped layer skips its input gradient."""
    if not (want_param_grads or want_dx):
        return None, None
    ln1_cache, h, qh, kh, vh, attn, cat, ln2_cache, h2, u, t_gelu, g = cache
    if dy.dtype != g.dtype:
        raise InvariantError(f"transformer backward needs dy of its output dtype {g.dtype}, got {dy.dtype}")
    nh = cfg.num_heads
    b, t, d = h.shape
    dh = d // nh
    scale = 1.0 / math.sqrt(dh)
    wp = want_param_grads

    # y = x1 + f(ln2(x1))
    dmlp_w2, dmlp_b2, dg = _dense_bwd(g, params["mlp_w2"], dy, wp)
    du = _gelu_bwd(dg, u, t_gelu)
    dmlp_w1, dmlp_b1, dh2 = _dense_bwd(h2, params["mlp_w1"], du, wp)
    dx1, dln2_g, dln2_b = _layernorm_bwd(dh2, params["ln2_gamma"], ln2_cache, wp)
    dx1 += dy

    # x1 = x + o(attention(ln1(x)))
    dwo, dbo, dcat = _dense_bwd(cat, params["wo"], dx1, wp)
    dctx = dcat.reshape(b, t, nh, dh).transpose(0, 2, 1, 3)
    dattn = dctx @ vh.transpose(0, 1, 3, 2)
    dheads = np.empty((3,) + qh.shape, dattn.dtype)  # dq, dk, dv
    np.matmul(attn.transpose(0, 1, 3, 2), dctx, out=dheads[2])
    # softmax backward (rows of attn)
    dscores = dattn
    dscores -= (dattn * attn).sum(-1, keepdims=True)
    dscores *= attn
    dscores *= scale
    np.matmul(dscores, kh, out=dheads[0])
    np.matmul(dscores.transpose(0, 1, 3, 2), qh, out=dheads[1])
    # One copy merges the heads back: [B*T, 3*D], columns q | k | v.
    dqkv = np.ascontiguousarray(dheads.transpose(1, 3, 0, 2, 4)).reshape(b * t, 3 * d)
    # LN1's gamma/beta gradients need dh_total even when dx is not wanted.
    w_qkv = np.concatenate([params["wq"], params["wk"], params["wv"]], axis=1)
    dh_total = (dqkv @ w_qkv.T).reshape(b, t, d)
    dx_ln, dln1_g, dln1_b = _layernorm_bwd(dh_total, params["ln1_gamma"], ln1_cache, wp, want_dx)
    dx = dx_ln
    if want_dx:
        dx += dx1
    if not wp:
        return None, dx

    dw_qkv = h.reshape(b * t, d).T @ dqkv
    db_qkv = dqkv.sum(0)
    dparams = {
        "ln1_gamma": dln1_g, "ln1_beta": dln1_b,
        "wq": dw_qkv[:, :d], "bq": db_qkv[:d],
        "wk": dw_qkv[:, d:2 * d], "bk": db_qkv[d:2 * d],
        "wv": dw_qkv[:, 2 * d:], "bv": db_qkv[2 * d:],
        "wo": dwo, "bo": dbo,
        "ln2_gamma": dln2_g, "ln2_beta": dln2_b,
        "mlp_w1": dmlp_w1, "mlp_b1": dmlp_b1, "mlp_w2": dmlp_w2, "mlp_b2": dmlp_b2,
    }
    return dparams, dx
