import numpy as np
import pytest

from evograft.errors import InvariantError
from evograft.mutation import Genome
from evograft.nn.preprocess import _batch_crop_resize, preprocess


def rand_images(rng, b=4, h=32, w=32, c=1):
    return rng.random((b, h, w, c)).astype(np.float32)


IDENTITY = Genome(crop=False, flip_lr=False, brightness_delta=0.0, contrast_delta=0.0,
                  saturation_delta=0.0, hue_delta=0.0)


class TestIdentityAndEval:
    def test_all_ops_disabled_is_exact_identity(self):
        rng = np.random.default_rng(0)
        images = rand_images(rng)
        out = preprocess(images, IDENTITY, train_mode=True,
                         rng=np.random.default_rng(1), resolution=32)
        np.testing.assert_array_equal(out, images)

    def test_eval_mode_is_pure(self):
        rng = np.random.default_rng(0)
        images = rand_images(rng, h=48, w=48)
        a = preprocess(images, None, train_mode=False, rng=None, resolution=32)
        b = preprocess(images, None, train_mode=False, rng=None, resolution=32)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (4, 32, 32, 1)

    def test_eval_center_crops_non_square(self):
        images = np.zeros((1, 8, 16, 1), np.float32)
        images[0, :, 4:12, 0] = 1.0  # center square is all ones
        out = preprocess(images, None, train_mode=False, rng=None, resolution=8)
        np.testing.assert_allclose(out, 1.0)

    def test_train_mode_requires_rng(self):
        with pytest.raises(InvariantError):
            preprocess(np.zeros((1, 8, 8, 1), np.float32), Genome(),
                       train_mode=True, rng=None, resolution=8)
        with pytest.raises(InvariantError):  # and a genome for the magnitudes
            preprocess(np.zeros((1, 8, 8, 1), np.float32), None,
                       train_mode=True, rng=np.random.default_rng(0), resolution=8)


class TestInputIsNeverWritten:
    """The caller's arrays (a dataset batch) come in directly; results are new arrays."""

    def test_train_flip_without_crop(self):
        images = rand_images(np.random.default_rng(0), b=16)
        before = images.copy()
        # with crop off, the flip writes in place into the resized array
        out = preprocess(images, Genome(crop=False, flip_lr=True), train_mode=True,
                         rng=np.random.default_rng(4), resolution=32)
        assert not np.array_equal(out, before)  # some image flipped
        assert not np.shares_memory(out, images)
        np.testing.assert_array_equal(images, before)

    def test_eval_at_model_resolution(self):
        images = rand_images(np.random.default_rng(0))
        before = images.copy()
        out = preprocess(images, None, train_mode=False, rng=None, resolution=32)
        np.testing.assert_array_equal(out, before)
        assert not np.shares_memory(out, images)
        out += 1.0
        np.testing.assert_array_equal(images, before)


class TestColorOps:
    def test_brightness_bound_on_uniform_image(self):
        images = np.full((8, 16, 16, 1), 0.5, np.float32)
        cfg = Genome(crop=False, flip_lr=False, brightness_delta=0.2)
        out = preprocess(images, cfg, train_mode=True,
                         rng=np.random.default_rng(3), resolution=16)
        assert out.min() >= 0.3 - 1e-6
        assert out.max() <= 0.7 + 1e-6

    def test_contrast_scales_about_mean(self):
        rng = np.random.default_rng(0)
        # keep values away from [0,1] edges so clamping stays inactive
        images = rand_images(rng, b=1, h=8, w=8) * 0.5 + 0.25
        cfg = Genome(crop=False, flip_lr=False, contrast_delta=0.2)
        out = preprocess(images, cfg, train_mode=True,
                         rng=np.random.default_rng(5), resolution=8)
        # per-image mean is a fixed point of the contrast op
        assert out.mean() == pytest.approx(images.mean(), abs=1e-6)

    def test_grayscale_skips_saturation_and_hue(self):
        rng = np.random.default_rng(0)
        images = rand_images(rng, c=1)
        cfg = Genome(crop=False, flip_lr=False, saturation_delta=0.2, hue_delta=0.2)
        out = preprocess(images, cfg, train_mode=True,
                         rng=np.random.default_rng(7), resolution=32)
        np.testing.assert_array_equal(out, images)

    def test_rgb_saturation_preserves_luma(self):
        rng = np.random.default_rng(0)
        images = rand_images(rng, b=2, h=8, w=8, c=3) * 0.5 + 0.25
        cfg = Genome(crop=False, flip_lr=False, saturation_delta=0.2)
        out = preprocess(images, cfg, train_mode=True,
                         rng=np.random.default_rng(9), resolution=8)
        luma = np.asarray([0.299, 0.587, 0.114], np.float32)
        np.testing.assert_allclose((out * luma).sum(-1), (images * luma).sum(-1),
                                   atol=1e-5)

    def test_hue_rotation_preserves_luma(self):
        rng = np.random.default_rng(0)
        images = rand_images(rng, b=2, h=8, w=8, c=3) * 0.5 + 0.25
        cfg = Genome(crop=False, flip_lr=False, hue_delta=0.2)
        out = preprocess(images, cfg, train_mode=True,
                         rng=np.random.default_rng(9), resolution=8)
        luma = np.asarray([0.299, 0.587, 0.114], np.float32)
        np.testing.assert_allclose((out * luma).sum(-1), (images * luma).sum(-1),
                                   atol=1e-4)


class TestDeterminismAndRange:
    def test_fixed_seed_reproduces_batch_bytes(self):
        rng = np.random.default_rng(0)
        images = rand_images(rng, b=8)
        cfg = Genome(crop=True, flip_lr=True, brightness_delta=0.1, contrast_delta=0.1)
        a = preprocess(images, cfg, train_mode=True,
                       rng=np.random.default_rng(99), resolution=24)
        b = preprocess(images, cfg, train_mode=True,
                       rng=np.random.default_rng(99), resolution=24)
        assert a.tobytes() == b.tobytes()

    def test_outputs_always_in_unit_range(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            c = int(rng.choice([1, 3]))
            images = rng.random((3, 16, 16, c)).astype(np.float32)
            cfg = Genome(
                crop=bool(rng.integers(0, 2)), crop_area_min=float(rng.choice([0.05, 0.5, 1.0])),
                crop_aspect_min=float(rng.choice([0.25, 0.75, 1.0])),
                flip_lr=bool(rng.integers(0, 2)),
                brightness_delta=float(rng.choice([0.0, 0.1, 0.2])),
                contrast_delta=float(rng.choice([0.0, 0.2])),
                saturation_delta=float(rng.choice([0.0, 0.2])),
                hue_delta=float(rng.choice([0.0, 0.2])),
            )
            out = preprocess(images, cfg, train_mode=True,
                             rng=np.random.default_rng(trial), resolution=16)
            assert out.shape == (3, 16, 16, c)
            assert out.min() >= 0.0
            assert out.max() <= 1.0

    def test_crop_resizes_back_to_resolution(self):
        rng = np.random.default_rng(2)
        images = rand_images(rng, b=5, h=40, w=40)
        cfg = Genome(crop=True, crop_area_min=0.05, crop_aspect_min=0.75, flip_lr=False)
        out = preprocess(images, cfg, train_mode=True,
                         rng=np.random.default_rng(11), resolution=32)
        assert out.shape == (5, 32, 32, 1)


def reference_crop_resize(images, tops, lefts, heights, widths, out):
    """Crop-resize by 4-way multi-array fancy indexing; the flat gather must match it."""
    b = images.shape[0]
    idx_b = np.arange(b)[:, None, None]
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
    tl = images[idx_b, y0[:, :, None], x0[:, None, :]]
    tr = images[idx_b, y0[:, :, None], x1[:, None, :]]
    bl = images[idx_b, y1[:, :, None], x0[:, None, :]]
    br = images[idx_b, y1[:, :, None], x1[:, None, :]]
    top = tl * (1 - wx) + tr * wx
    bot = bl * (1 - wx) + br * wx
    return (top * (1 - wy) + bot * wy).astype(np.float32)


def test_crop_resize_matches_fancy_index_reference():
    rng = np.random.default_rng(12)
    for trial in range(200):
        b, h, w = (int(x) for x in rng.integers(1, 20, 3) + (0, 3, 3))
        c = int(rng.choice([1, 3]))
        out = int(rng.integers(2, 40))
        images = rng.random((b, h, w, c)).astype(np.float32)
        heights = np.floor(rng.random(b) * h) + 1
        widths = np.floor(rng.random(b) * w) + 1
        tops = np.floor(rng.random(b) * (h - heights + 1))
        lefts = np.floor(rng.random(b) * (w - widths + 1))
        boxes = [a.astype(np.float32) for a in (tops, lefts, heights, widths)]
        got = _batch_crop_resize(images, *boxes, out)
        want = reference_crop_resize(images, *boxes, out)
        assert got.shape == want.shape == (b, out, out, c), trial
        assert got.tobytes() == want.tobytes(), trial
