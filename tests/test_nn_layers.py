"""Layer math checks: finite-difference gradients, an independent float64
forward oracle, and the frozen/trainable tape contract."""

import math

import numpy as np
import pytest

from evograft.errors import StructuralError
from evograft.nn import layers as L
from evograft.nn.config import ArchConfig, LayerConfig, LayerKind
from evograft.nn.network import PathLayer, Tape, backward, forward, softmax_xent

D = 8
KIND_CASES = [
    (LayerConfig(LayerKind.PATCH_EMBEDDING, D, patch_size=2, image_resolution=4, channels=1), (3, 4, 4, 1)),
    (LayerConfig(LayerKind.CLASS_TOKEN, D), (3, 4, D)),
    (LayerConfig(LayerKind.POSITION_EMBEDDING, D, patch_size=2, image_resolution=4), (3, 5, D)),
    (LayerConfig(LayerKind.TRANSFORMER, D, num_heads=2, mlp_dim=16), (3, 5, D)),
    (LayerConfig(LayerKind.HEAD, D, num_classes=4), (3, 5, D)),
]


def rand_params(cfg, rng):
    params = {k: v.astype(np.float64) for k, v in L.init_params(cfg, rng).items()}
    # Perturb so gamma/beta/bias gradients are exercised away from init values.
    return {k: v + rng.normal(0, 0.05, v.shape) for k, v in params.items()}


def central_diff(loss_fn, arr, idx, eps=1e-3):
    orig = arr[idx]
    arr[idx] = orig + eps
    up = loss_fn()
    arr[idx] = orig - eps
    down = loss_fn()
    arr[idx] = orig
    return (up - down) / (2 * eps)


@pytest.mark.parametrize("cfg,x_shape", KIND_CASES, ids=[c.kind.value for c, _ in KIND_CASES])
def test_param_gradients_match_finite_differences(cfg, x_shape):
    worst = 0.0
    for inst in range(10):
        rng = np.random.default_rng(1000 + inst)
        params = rand_params(cfg, rng)
        x = rng.normal(0, 1, x_shape)

        def loss_fn():
            y, _ = L.forward(cfg, params, x)
            return float(np.sin(0.7 * y).sum())

        y, cache = L.forward(cfg, params, x)
        dy = 0.7 * np.cos(0.7 * y)
        dparams, _ = L.backward(cfg, params, cache, dy, want_param_grads=True, want_dx=True)
        for name, grad in dparams.items():
            arr = params[name]
            for _ in range(3):
                idx = tuple(rng.integers(0, s) for s in arr.shape)
                fd = central_diff(loss_fn, arr, idx)
                denom = max(abs(grad[idx]), abs(fd))
                if denom < 1e-3:
                    # Below the oracle's truncation floor only absolute
                    # agreement is certifiable.
                    assert abs(grad[idx] - fd) < 1e-6
                    continue
                rel = abs(grad[idx] - fd) / denom
                if rel > 1e-4:
                    # Truncation-zone recheck: refine the oracle, not the bound.
                    fd = central_diff(loss_fn, arr, idx, eps=1e-4)
                    rel = abs(grad[idx] - fd) / max(abs(grad[idx]), abs(fd))
                worst = max(worst, rel)
    assert worst < 1e-4


def test_input_gradients_match_finite_differences():
    for cfg, x_shape in KIND_CASES:
        if cfg.kind == LayerKind.PATCH_EMBEDDING:
            continue  # bottom layer: no input gradient path
        rng = np.random.default_rng(7)
        params = rand_params(cfg, rng)
        x = rng.normal(0, 1, x_shape)

        def loss_fn():
            y, _ = L.forward(cfg, params, x)
            return float(np.sin(0.7 * y).sum())

        y, cache = L.forward(cfg, params, x)
        dy = 0.7 * np.cos(0.7 * y)
        _, dx = L.backward(cfg, params, cache, dy, want_param_grads=False, want_dx=True)
        for _ in range(5):
            idx = tuple(rng.integers(0, s) for s in x.shape)
            fd = central_diff(loss_fn, x, idx)
            denom = max(abs(dx[idx]), abs(fd))
            if denom < 1e-7:
                continue
            assert abs(dx[idx] - fd) / denom < 1e-4, cfg.kind


def micro_path(arch, rng, depth=2, num_classes=3, trainable_all=True):
    layers = []
    for kind in (LayerKind.PATCH_EMBEDDING, LayerKind.CLASS_TOKEN, LayerKind.POSITION_EMBEDDING):
        cfg = arch.layer_config(kind)
        layers.append(PathLayer(cfg, L.init_params(cfg, rng), trainable_all))
    for _ in range(depth):
        cfg = arch.layer_config(LayerKind.TRANSFORMER)
        layers.append(PathLayer(cfg, L.init_params(cfg, rng), trainable_all))
    cfg = arch.layer_config(LayerKind.HEAD, num_classes=num_classes)
    layers.append(PathLayer(cfg, L.init_params(cfg, rng), True))
    return layers


MICRO_ARCH = ArchConfig(hidden_dim=8, num_heads=2, mlp_dim=16, patch_size=2,
                        image_resolution=4, channels=1)


def straight_line_forward(path, images):
    """Independent float64 re-implementation of the whole forward pass, written
    flat against the math definitions (no library calls)."""
    p = MICRO_ARCH.patch_size
    b = images.shape[0]
    g = MICRO_ARCH.image_resolution // p
    x = images.astype(np.float64)
    patches = x.reshape(b, g, p, g, p, 1).transpose(0, 1, 3, 2, 4, 5).reshape(b, g * g, p * p)
    pp = {i: {k: v.astype(np.float64) for k, v in pl.params.items()} for i, pl in enumerate(path)}
    h = patches @ pp[0]["w"] + pp[0]["b"]
    tok = np.tile(pp[1]["token"], (b, 1, 1))
    h = np.concatenate([tok, h], axis=1)
    h = h + pp[2]["pos"]

    def ln(z, gamma, beta):
        mu = z.mean(-1, keepdims=True)
        var = ((z - mu) ** 2).mean(-1, keepdims=True)
        return (z - mu) / np.sqrt(var + 1e-6) * gamma + beta

    def gelu(z):
        return 0.5 * z * (1 + np.tanh(math.sqrt(2 / math.pi) * (z + 0.044715 * z ** 3)))

    for i in range(3, len(path) - 1):
        w = pp[i]
        hn = ln(h, w["ln1_gamma"], w["ln1_beta"])
        q = hn @ w["wq"] + w["bq"]
        k = hn @ w["wk"] + w["bk"]
        v = hn @ w["wv"] + w["bv"]
        nh = MICRO_ARCH.num_heads
        dh = MICRO_ARCH.hidden_dim // nh
        t = h.shape[1]
        outs = []
        for head in range(nh):
            sl = slice(head * dh, (head + 1) * dh)
            s = q[:, :, sl] @ k[:, :, sl].transpose(0, 2, 1) / math.sqrt(dh)
            e = np.exp(s - s.max(-1, keepdims=True))
            a = e / e.sum(-1, keepdims=True)
            outs.append(a @ v[:, :, sl])
        att = np.concatenate(outs, axis=-1) @ w["wo"] + w["bo"]
        h = h + att
        hn2 = ln(h, w["ln2_gamma"], w["ln2_beta"])
        h = h + gelu(hn2 @ w["mlp_w1"] + w["mlp_b1"]) @ w["mlp_w2"] + w["mlp_b2"]

    pooled = h.mean(axis=1)
    return pooled @ pp[len(path) - 1]["w"] + pp[len(path) - 1]["b"]


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(42)
    path = micro_path(MICRO_ARCH, rng, depth=2, num_classes=3)
    path64 = [PathLayer(pl.config, {k: v.astype(np.float64) for k, v in pl.params.items()},
                        pl.trainable) for pl in path]
    images = rng.random((4, 4, 4, 1))
    tape = forward(path64, images)
    oracle = straight_line_forward(path64, images)
    np.testing.assert_allclose(tape.logits, oracle, rtol=1e-10, atol=1e-12)


def test_zero_weight_head_gives_zero_logits():
    rng = np.random.default_rng(0)
    path = micro_path(MICRO_ARCH, rng, depth=1)
    head = path[-1]
    head.params["w"] = np.zeros_like(head.params["w"])
    head.params["b"] = np.zeros_like(head.params["b"])
    tape = forward(path, rng.random((2, 4, 4, 1), np.float32).astype(np.float32))
    assert np.all(tape.logits == 0.0)


def test_stripped_model_produces_valid_logits():
    rng = np.random.default_rng(0)
    path = micro_path(MICRO_ARCH, rng, depth=0, num_classes=5)
    tape = forward(path, rng.random((3, 4, 4, 1)).astype(np.float32))
    assert tape.logits.shape == (3, 5)
    assert np.isfinite(tape.logits).all()


def test_head_only_gradient_equals_logistic_regression_on_frozen_features():
    rng = np.random.default_rng(5)
    path = micro_path(MICRO_ARCH, rng, depth=1, num_classes=3, trainable_all=False)
    images = rng.random((6, 4, 4, 1)).astype(np.float32)
    labels = rng.integers(0, 3, 6)
    tape = forward(path, images)
    loss, grads = backward(tape, labels)
    head_idx = len(path) - 1
    assert set(grads) == {head_idx}

    # Oracle: features from the frozen stack, analytic multinomial gradient.
    feature_path = [PathLayer(pl.config, pl.params, False) for pl in path[:-1]]
    feats = None
    x = images
    for pl in feature_path:
        x, _ = L.forward(pl.config, pl.params, x)
    feats = x.mean(axis=1)
    logits = feats @ path[-1].params["w"] + path[-1].params["b"]
    z = logits - logits.max(-1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(-1, keepdims=True)
    probs[np.arange(6), labels] -= 1.0
    probs /= 6
    np.testing.assert_allclose(grads[head_idx]["w"], feats.T @ probs, rtol=1e-5, atol=1e-7)
    np.testing.assert_allclose(grads[head_idx]["b"], probs.sum(0), rtol=1e-5, atol=1e-7)


def test_all_frozen_backward_is_a_contract_error():
    rng = np.random.default_rng(1)
    path = micro_path(MICRO_ARCH, rng, depth=1, trainable_all=False)
    path[-1].trainable = False
    tape = forward(path, rng.random((2, 4, 4, 1)).astype(np.float32))
    assert tape.caches == {}  # all-frozen evaluation tapes no activations
    with pytest.raises(StructuralError):
        backward(tape, np.zeros(2, np.int64))


def test_tape_retains_only_what_backward_needs():
    rng = np.random.default_rng(1)
    path = micro_path(MICRO_ARCH, rng, depth=2, trainable_all=False)
    # Only the head trains: caches exist from the head index upward only.
    tape = forward(path, rng.random((2, 4, 4, 1)).astype(np.float32))
    assert sorted(tape.caches) == [len(path) - 1]


def test_fully_trainable_path_grads_cover_every_layer():
    rng = np.random.default_rng(2)
    path = micro_path(MICRO_ARCH, rng, depth=1, trainable_all=True)
    tape = forward(path, rng.random((2, 4, 4, 1)).astype(np.float32))
    loss, grads = backward(tape, np.array([0, 1]))
    assert set(grads) == set(range(len(path)))
    for i, pl in enumerate(path):
        assert set(grads[i]) == set(pl.params)


def test_frozen_layers_receive_no_parameter_gradients():
    rng = np.random.default_rng(3)
    path = micro_path(MICRO_ARCH, rng, depth=2, trainable_all=False)
    path[3].trainable = True  # first transformer trains; layer 4 stays frozen above it
    tape = forward(path, rng.random((2, 4, 4, 1)).astype(np.float32))
    loss, grads = backward(tape, np.array([0, 1]))
    assert set(grads) == {3, len(path) - 1}
    assert math.isfinite(loss)


class TestPathValidation:
    def test_wrong_prefix_rejected(self):
        rng = np.random.default_rng(0)
        path = micro_path(MICRO_ARCH, rng)
        with pytest.raises(StructuralError):
            forward(path[1:], rng.random((2, 4, 4, 1)).astype(np.float32))

    def test_missing_head_rejected(self):
        rng = np.random.default_rng(0)
        path = micro_path(MICRO_ARCH, rng)
        with pytest.raises(StructuralError):
            forward(path[:-1], rng.random((2, 4, 4, 1)).astype(np.float32))

    def test_image_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        path = micro_path(MICRO_ARCH, rng)
        with pytest.raises(StructuralError):
            forward(path, rng.random((2, 8, 8, 1)).astype(np.float32))


def test_softmax_xent_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    logits = rng.normal(0, 2, (5, 7))
    labels = rng.integers(0, 7, 5)
    loss, dlogits = softmax_xent(logits.copy(), labels)
    for _ in range(10):
        idx = (int(rng.integers(0, 5)), int(rng.integers(0, 7)))
        fd = central_diff(lambda: softmax_xent(logits.copy(), labels)[0], logits, idx)
        assert abs(dlogits[idx] - fd) / max(abs(fd), abs(dlogits[idx]), 1e-8) < 1e-4
