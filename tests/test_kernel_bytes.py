"""Byte equality of the transformer kernels against their out-of-place forms.

The functions under "oracles" are the out-of-place layer-norm, GELU, softmax and
transformer kernels, kept verbatim. The in-place kernels in
`evograft.nn.layers` must reproduce every output, tape tensor and gradient of
these byte for byte, must leave every array they were given unchanged, and must
follow the input dtype.
"""

import math

import numpy as np
import pytest

from evograft.errors import InvariantError
from evograft.nn import layers as L
from evograft.nn.config import ArchConfig, LayerConfig, LayerKind
from evograft.nn.layers import LN_EPS, _GELU_A, _GELU_C, _dense_bwd, _dense_fwd

# ---------------------------------------------------------------------------
# oracles

def _layernorm_fwd(x, gamma, beta):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * gamma + beta, (xhat, inv)


def _layernorm_bwd(dy, gamma, cache, want_params=True, want_dx=True):
    """Returns (dx, dgamma, dbeta); the parts not wanted are None."""
    xhat, inv = cache
    dx = dgamma = dbeta = None
    if want_params:
        dgamma = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
        dbeta = dy.sum(axis=tuple(range(dy.ndim - 1)))
    if want_dx:
        dxhat = dy * gamma
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


def _softmax(x):
    z = x - x.max(-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(-1, keepdims=True)


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
    """Computes only what is asked for: a frozen layer skips every parameter
    gradient, the lowest taped layer skips its input gradient."""
    if not (want_param_grads or want_dx):
        return None, None
    ln1_cache, h, qh, kh, vh, attn, cat, ln2_cache, h2, u, t_gelu, g = cache
    nh = cfg.num_heads
    b, t, d = h.shape
    dh = d // nh
    scale = 1.0 / math.sqrt(dh)
    wp = want_param_grads

    # y = x1 + f(ln2(x1))
    dmlp_w2, dmlp_b2, dg = _dense_bwd(g, params["mlp_w2"], dy, wp)
    du = _gelu_bwd(dg, u, t_gelu)
    dmlp_w1, dmlp_b1, dh2 = _dense_bwd(h2, params["mlp_w1"], du, wp)
    dx1_ln, dln2_g, dln2_b = _layernorm_bwd(dh2, params["ln2_gamma"], ln2_cache, wp)
    dx1 = dy + dx1_ln

    # x1 = x + o(attention(ln1(x)))
    dwo, dbo, dcat = _dense_bwd(cat, params["wo"], dx1, wp)
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
    # LN1's gamma/beta gradients need dh_total even when dx is not wanted.
    w_qkv = np.concatenate([params["wq"], params["wk"], params["wv"]], axis=1)
    dh_total = (dqkv @ w_qkv.T).reshape(b, t, d)
    dx_ln, dln1_g, dln1_b = _layernorm_bwd(dh_total, params["ln1_gamma"], ln1_cache, wp, want_dx)
    dx = dx1 + dx_ln if want_dx else None
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


# ---------------------------------------------------------------------------
# checks

CFG = ArchConfig().layer_config(LayerKind.TRANSFORMER)
FLAGS = [(True, True), (True, False), (False, True), (False, False)]


def leaves(tree):
    """Every array of a (nested) tape, dict of gradients or single result, in order."""
    if tree is None:
        return []
    if isinstance(tree, np.ndarray):
        return [tree]
    if isinstance(tree, dict):
        return [a for v in tree.values() for a in leaves(v)]
    return [a for item in tree for a in leaves(item)]


def assert_same_bytes(got, want):
    got, want = leaves(got), leaves(want)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.shape == b.shape, i
        assert a.tobytes() == b.tobytes(), i


def make_case(batch, seed, dtype=np.float32, param_dtype=None, x_scale=1.0):
    rng = np.random.default_rng(seed)
    params = {k: (v + rng.normal(0, 0.05, v.shape)).astype(param_dtype or dtype)
              for k, v in L.init_params(CFG, rng).items()}
    x = rng.normal(0, x_scale, (batch, 65, CFG.hidden_dim)).astype(dtype)
    return params, x, rng


def check_against_oracle(params, x, rng):
    y, cache = L.forward(CFG, params, x)
    y_ref, cache_ref = _transformer_fwd(CFG, params, x)
    assert_same_bytes((y, cache), (y_ref, cache_ref))
    dy = rng.normal(0, 1, y.shape).astype(y.dtype)
    for flags in FLAGS:
        assert_same_bytes(L.backward(CFG, params, cache, dy, *flags),
                          _transformer_bwd(CFG, params, cache_ref, dy, *flags))
    return cache


@pytest.mark.parametrize("batch", [1, 3, 16, 64])
@pytest.mark.parametrize("seed", range(3))
def test_transformer_matches_oracle_bytes(batch, seed):
    check_against_oracle(*make_case(batch, seed))


def test_softmax_underflow_matches_oracle_bytes():
    # Wide inputs: query/key weights scaled up so that most exp() underflow to 0.
    params, x, rng = make_case(16, 11, x_scale=4.0)
    for name in ("wq", "wk"):
        params[name] *= 30
    cache = check_against_oracle(params, x, rng)
    attn = cache[5]
    assert (attn == 0).mean() > 0.5 and (attn == 1).any()


def test_zero_variance_tokens_match_oracle_bytes():
    params, x, rng = make_case(3, 12)
    x[:, :7] = 0.25
    x[1] = -1.5
    cache = check_against_oracle(params, x, rng)
    (xhat, inv) = cache[0]
    assert np.all(inv[:, :7] == np.float32(1.0 / np.sqrt(np.float32(LN_EPS))))
    assert not xhat[:, :7].any()


@pytest.mark.parametrize("shape", [(4, 9), (2, 3, 65), (2, 2, 65, 65)])
def test_primitives_match_oracle_bytes(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.normal(0, 3, shape).astype(np.float32)
    x[..., 0, :] = x[..., 0, :1]  # a constant row: zero variance, uniform softmax
    gamma, beta = (rng.normal(1, 0.1, shape[-1:]).astype(np.float32) for _ in range(2))
    dy = rng.normal(0, 1, shape).astype(np.float32)
    ln, ln_cache = L._layernorm_fwd(x, gamma, beta)
    assert_same_bytes((ln, ln_cache), _layernorm_fwd(x, gamma, beta))
    for flags in FLAGS:
        assert_same_bytes(L._layernorm_bwd(dy, gamma, ln_cache, *flags),
                          _layernorm_bwd(dy, gamma, ln_cache, *flags))
    g, t = L._gelu_fwd(x)
    assert_same_bytes((g, t), _gelu_fwd(x))
    assert_same_bytes(L._gelu_bwd(dy, x, t), _gelu_bwd(dy, x, t))
    assert_same_bytes(L._softmax(80 * x), _softmax(80 * x))


def test_kernels_write_only_their_own_arrays():
    params, x, rng = make_case(3, 13)
    x_before = x.copy()
    params_before = {k: v.copy() for k, v in params.items()}
    y, cache = L.forward(CFG, params, x)
    tape_before = [a.copy() for a in leaves(cache)]
    dy = rng.normal(0, 1, y.shape).astype(np.float32)
    dy_before = dy.copy()
    for flags in FLAGS:
        first = L.backward(CFG, params, cache, dy, *flags)
        assert_same_bytes(L.backward(CFG, params, cache, dy, *flags), first)
    assert_same_bytes(x, x_before)
    assert_same_bytes(dy, dy_before)
    assert_same_bytes(params, params_before)
    assert_same_bytes(cache, tape_before)


@pytest.mark.parametrize("param_dtype", [np.float64, np.float32])
def test_float64_input_stays_float64(param_dtype):
    params, x, rng = make_case(3, 14, dtype=np.float64, param_dtype=param_dtype)
    y, cache = L.forward(CFG, params, x)
    dy = rng.normal(0, 1, y.shape)
    dparams, dx = L.backward(CFG, params, cache, dy, True, True)
    for a in leaves((y, cache, dparams, dx)):
        assert a.dtype == np.float64
    check_against_oracle(params, x, rng)


def test_backward_refuses_dy_of_another_dtype():
    params, x, rng = make_case(1, 15)
    y, cache = L.forward(CFG, params, x)
    with pytest.raises(InvariantError, match="dtype"):
        L.backward(CFG, params, cache, y.astype(np.float64), True, True)
