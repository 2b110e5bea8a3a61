import json

import numpy as np
import pytest

from evograft import tasks
from evograft.errors import ConfigError, DataError, InvariantError
from evograft.nn.config import LayerKind
from evograft.tasks import (SPLITS, AccessMode, AccessPolicy, Dataset, TaskSpec, _class_assets,
                            acl_allows, build_task, load_raw_dataset, make_synthetic_glyph_task,
                            save_raw_dataset)
from evograft.util import make_rng

from conftest import make_record


def small_task(name="t", seed=3, noise=0.0, classes=10, spc=20):
    return make_synthetic_glyph_task(name, num_classes=classes, samples_per_class=spc,
                                     noise=noise, seed=seed)


def reference_glyph_splits(num_classes, samples_per_class, noise, seed, resolution, patch_size):
    """Per-sample kron/tile renderer: the generator must reproduce its bytes."""
    grid = resolution // patch_size
    rng = make_rng(seed)
    textures, bands = _class_assets(num_classes, grid, patch_size, rng)
    n_tr = int(samples_per_class * 0.8)
    n_val = max(1, int(samples_per_class * 0.1))
    counts = {"train": n_tr, "validation": n_val, "test": samples_per_class - n_tr - n_val}
    splits = {}
    for split in SPLITS:
        images, labels = [], []
        for c in range(num_classes):
            r0, c0, rh, cw = bands[c]
            for _ in range(counts[split]):
                shift = int(rng.integers(-1, 2))
                cells = np.zeros((grid, grid), dtype=np.float64)
                cells[r0: r0 + rh, c0 + shift: c0 + shift + cw] = 1.0
                img = (np.kron(cells, np.ones((patch_size, patch_size)))
                       * np.tile(textures[c], (grid, grid)))
                if noise > 0:
                    img = img + rng.normal(0.0, noise, img.shape)
                img = np.clip(img, 0.0, 1.0)
                images.append(np.round(img * 255.0).astype(np.uint8)[..., None])
                labels.append(c)
        splits[split] = (np.stack(images), np.asarray(labels, dtype=np.uint16))
    return splits


def pairwise_texture(patch, rng, existing):
    """The texture rule written pair by pair: the vectorized check must draw the same tiles."""
    while True:
        tex = 0.15 + 0.85 * rng.integers(0, 2, size=(patch, patch)).astype(np.float64)
        if all(np.count_nonzero(tex != other) >= max(4, tex.size // 3) for other in existing):
            return tex


@pytest.mark.parametrize("classes", [3, 6, 25, 60])
@pytest.mark.parametrize("seed,patch", [(11, 4), (12, 4), (13, 8)])
def test_texture_separation_check_draws_the_pairwise_textures(monkeypatch, classes, seed, patch):
    textures, bands = _class_assets(classes, 8, patch, make_rng(seed))
    monkeypatch.setattr(tasks, "_binary_texture", pairwise_texture)
    want_textures, want_bands = _class_assets(classes, 8, patch, make_rng(seed))
    assert [t.tobytes() for t in textures] == [t.tobytes() for t in want_textures]
    assert bands == want_bands


def test_texture_fit_check_keeps_the_draws(monkeypatch):
    # Checking every tile after each first rejection must not change which tiles are drawn.
    textures, _ = _class_assets(25, 8, 4, make_rng(12))
    monkeypatch.setattr(tasks, "TEXTURE_DRAWS", 1)
    checked, _ = _class_assets(25, 8, 4, make_rng(12))
    assert [t.tobytes() for t in checked] == [t.tobytes() for t in textures]


@pytest.mark.parametrize("classes,resolution,patch,message", [
    (3, 16, 4, "grid of >= 6 cells"),
    (3, 20, 4, "grid of >= 6 cells"),
    (3, 16, 2, "found no 2x2 texture"),   # at most 2 tiles differ in all 4 pixels
    (25, 24, 3, "found no 3x3 texture"),  # at most 20 tiles of 9 bits differ pairwise in >= 4
])
def test_infeasible_glyph_geometry_is_a_config_error(classes, resolution, patch, message):
    with pytest.raises(ConfigError, match=message):
        make_synthetic_glyph_task("g", classes, 10, 0.0, 1, resolution=resolution, patch_size=patch)


@pytest.mark.parametrize("classes,spc,noise,seed,resolution,patch", [
    (3, 10, 0.0, 1, 32, 4),    # fewer than 6 classes: no twins
    (5, 12, 0.2, 2, 32, 4),
    (6, 20, 0.0, 3, 32, 4),    # twins
    (8, 15, 0.1, 4, 32, 4),
    (25, 30, 0.3, 100, 32, 4),
    (7, 10, 0.05, 5, 24, 3),
])
def test_generator_matches_per_sample_reference(classes, spc, noise, seed, resolution, patch):
    task = make_synthetic_glyph_task("ref", classes, spc, noise, seed,
                                     resolution=resolution, patch_size=patch)
    reference = reference_glyph_splits(classes, spc, noise, seed, resolution, patch)
    for split in SPLITS:
        images, labels = reference[split]
        got = task.splits[split]
        assert got.images.dtype == images.dtype and got.images.shape == images.shape
        assert got.images.tobytes() == images.tobytes(), split
        assert got.labels.dtype == labels.dtype and got.labels.tobytes() == labels.tobytes(), split


class TestGlyphGenerator:
    def test_same_seed_is_byte_identical(self):
        a = small_task(seed=5)
        b = small_task(seed=5)
        for split in ("train", "validation", "test"):
            assert a.splits[split].images.tobytes() == b.splits[split].images.tobytes()
            assert a.splits[split].labels.tobytes() == b.splits[split].labels.tobytes()

    def test_different_seeds_differ_in_class_zero(self):
        a = small_task(seed=5)
        b = small_task(seed=6)
        a0 = a.splits["train"].images[a.splits["train"].labels == 0]
        b0 = b.splits["train"].images[b.splits["train"].labels == 0]
        assert a0.tobytes() != b0.tobytes()

    def test_split_sizes_follow_80_10_10(self):
        t = small_task(classes=10, spc=20)
        assert len(t.splits["train"]) == 160
        assert len(t.splits["validation"]) == 20
        assert len(t.splits["test"]) == 20

    def test_labels_cover_all_classes_in_every_split(self):
        t = small_task(classes=7, spc=20)
        for split in ("train", "validation", "test"):
            assert set(t.splits[split].labels.tolist()) == set(range(7))

    def test_nearest_centroid_oracle_is_perfect_at_noise_zero(self):
        t = small_task(classes=12, spc=20, noise=0.0, seed=9)
        train, test = t.splits["train"], t.splits["test"]
        x = train.images.reshape(len(train), -1).astype(np.float64)
        y = train.labels.astype(int)
        centroids = np.stack([x[y == c].mean(axis=0) for c in range(12)])
        xt = test.images.reshape(len(test), -1).astype(np.float64)
        pred = ((xt[:, None, :] - centroids[None]) ** 2).sum(-1).argmin(1)
        assert (pred == test.labels.astype(int)).mean() == 1.0

    def test_noise_zero_images_identical_up_to_jitter(self):
        # with only 3 jitter offsets, a class has at most 3 distinct images
        t = small_task(classes=6, spc=30, noise=0.0, seed=4)
        imgs = t.splits["train"].images[t.splits["train"].labels == 2]
        distinct = {im.tobytes() for im in imgs}
        assert len(distinct) <= 3

    def test_noise_perturbs_pixels(self):
        t = small_task(classes=6, spc=20, noise=0.1, seed=4)
        imgs = t.splits["train"].images[t.splits["train"].labels == 2]
        assert len({im.tobytes() for im in imgs}) > 3

    def test_twins_share_ink_mass_per_patch_average(self):
        t = small_task(classes=8, spc=20, seed=13)
        tr = t.splits["train"]
        feats = []
        for c in (6, 7):  # the twin pair
            imgs = tr.images[tr.labels == c].astype(np.float64) / 255.0
            b, r, _, _ = imgs.shape
            p = 4
            g = r // p
            patches = imgs.reshape(b, g, p, g, p, 1).transpose(0, 1, 3, 2, 4, 5).reshape(b, g * g, -1)
            feats.append(patches.mean(axis=(0, 1)))
        np.testing.assert_allclose(feats[0], feats[1], atol=2e-3)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            make_synthetic_glyph_task("x", num_classes=1, samples_per_class=20, noise=0, seed=0)
        with pytest.raises(ConfigError):
            make_synthetic_glyph_task("x", num_classes=4, samples_per_class=5, noise=0, seed=0)


class TestAcl:
    def make_registry(self):
        return {
            "pub": small_task("pub", seed=1),
            "bangla": small_task("bangla", seed=2),
            "telugu": make_synthetic_glyph_task("telugu", 10, 20, 0.0, 3,
                                                acl=AccessPolicy(AccessMode.PRIVATE)),
            "grp_a": make_synthetic_glyph_task("grp_a", 10, 20, 0.0, 4,
                                               acl=AccessPolicy(AccessMode.GROUP,
                                                                frozenset({"grp_a", "grp_b"}))),
            "grp_b": small_task("grp_b", seed=5),
            "c": small_task("c", seed=6),
        }

    def test_public_provenance_admits_everyone(self, arch):
        reg = self.make_registry()
        layer = make_record(LayerKind.TRANSFORMER, arch, creator="pub", trained_on=(("pub", 10),))
        for consumer in reg.values():
            assert acl_allows(consumer, layer, reg)

    def test_private_provenance_admits_only_owner(self, arch):
        reg = self.make_registry()
        layer = make_record(LayerKind.TRANSFORMER, arch, creator="telugu",
                            trained_on=(("bangla", 5), ("telugu", 10)))
        assert acl_allows(reg["telugu"], layer, reg)
        assert not acl_allows(reg["bangla"], layer, reg)

    def test_group_membership(self, arch):
        reg = self.make_registry()
        layer = make_record(LayerKind.TRANSFORMER, arch, creator="grp_a",
                            trained_on=(("grp_a", 10),))
        assert acl_allows(reg["grp_b"], layer, reg)
        assert not acl_allows(reg["c"], layer, reg)

    def test_untrained_root_layers_are_public(self, arch):
        reg = self.make_registry()
        layer = make_record(LayerKind.PATCH_EMBEDDING, arch, creator="root", trained_on=())
        assert acl_allows(reg["telugu"], layer, reg)

    def test_unknown_provenance_task_is_hard_error(self, arch):
        reg = self.make_registry()
        layer = make_record(LayerKind.TRANSFORMER, arch, creator="ghost",
                            trained_on=(("ghost", 10),))
        with pytest.raises(InvariantError):
            acl_allows(reg["pub"], layer, reg)

    def test_monotone_composition(self, arch):
        # Cloning and training further can only extend provenance, never shrink it:
        # the clone's allowed-consumer set is a subset of the source's.
        reg = self.make_registry()
        src = make_record(LayerKind.TRANSFORMER, arch, creator="pub", trained_on=(("pub", 10),))
        clone = make_record(LayerKind.TRANSFORMER, arch, seed=1, creator="telugu",
                            cloned_from=src.id, trained_on=(("pub", 10), ("telugu", 5)))
        for consumer in reg.values():
            if acl_allows(consumer, clone, reg):
                assert acl_allows(consumer, src, reg)

    def test_group_policy_must_include_owner(self):
        with pytest.raises(ConfigError, match="acl: group policy of 'g' must include it"):
            make_synthetic_glyph_task("g", 10, 20, 0.0, 1,
                                      acl=AccessPolicy(AccessMode.GROUP, frozenset({"other"})))


class TestRawDatasets:
    def test_round_trip(self, tmp_path):
        t = small_task("rawtest", seed=8)
        save_raw_dataset(tmp_path / "ds", "rawtest", t.num_classes, t.splits)
        loaded = load_raw_dataset(tmp_path / "ds")
        assert loaded.name == "rawtest"
        assert loaded.num_classes == t.num_classes
        for split in ("train", "validation", "test"):
            assert loaded.splits[split].images.tobytes() == t.splits[split].images.tobytes()
            assert loaded.splits[split].labels.tolist() == t.splits[split].labels.tolist()

    def test_malformed_header(self, tmp_path):
        t = small_task("x", seed=8)
        save_raw_dataset(tmp_path / "ds", "x", t.num_classes, t.splits)
        header = json.loads((tmp_path / "ds" / "header.json").read_text())
        del header["num_classes"]
        (tmp_path / "ds" / "header.json").write_text(json.dumps(header))
        with pytest.raises(DataError, match="malformed header"):
            load_raw_dataset(tmp_path / "ds")

    def test_label_out_of_range(self, tmp_path):
        t = small_task("x", seed=8, classes=10)
        save_raw_dataset(tmp_path / "ds", "x", t.num_classes, t.splits)
        header = json.loads((tmp_path / "ds" / "header.json").read_text())
        header["num_classes"] = 3  # labels go up to 9
        (tmp_path / "ds" / "header.json").write_text(json.dumps(header))
        with pytest.raises(DataError, match="label out of range"):
            load_raw_dataset(tmp_path / "ds")

    def test_truncated_blob(self, tmp_path):
        t = small_task("x", seed=8)
        save_raw_dataset(tmp_path / "ds", "x", t.num_classes, t.splits)
        blob = (tmp_path / "ds" / "test.bin").read_bytes()
        (tmp_path / "ds" / "test.bin").write_bytes(blob[:-10])
        with pytest.raises(DataError, match="truncated payload"):
            load_raw_dataset(tmp_path / "ds")

    def test_checksum_mismatch(self, tmp_path):
        t = small_task("x", seed=8)
        save_raw_dataset(tmp_path / "ds", "x", t.num_classes, t.splits)
        blob = bytearray((tmp_path / "ds" / "train.bin").read_bytes())
        blob[0] ^= 0xFF
        (tmp_path / "ds" / "train.bin").write_bytes(bytes(blob))
        with pytest.raises(DataError, match="checksum"):
            load_raw_dataset(tmp_path / "ds")

    def test_recipe_rebuild_matches(self):
        t = small_task("re", seed=21)
        rebuilt = build_task(t.recipe, t.acl)
        for split in ("train", "validation", "test"):
            assert rebuilt.splits[split].images.tobytes() == t.splits[split].images.tobytes()


class TestDataset:
    def test_batch_scales_to_unit_range(self):
        t = small_task()
        images, labels = t.splits["train"].batch(np.arange(8))
        assert images.dtype == np.float32
        assert 0.0 <= images.min() and images.max() <= 1.0
        assert labels.dtype == np.int64 and labels.shape == (8,)

    def test_images_are_read_only(self):
        t = small_task()
        with pytest.raises(ValueError):
            t.splits["train"].images[0, 0, 0, 0] = 9
