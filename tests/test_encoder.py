"""Synthetic encoder behavior and the ISPF feature-file format."""

import numpy as np
import pytest

from hiwin import encoder
from hiwin.encoder import EncoderSpec, FeatureMap, encode, load_features, save_features
from hiwin.formats import DataFormatError
from hiwin.image_io import Image

from helpers import traced_peak


class TestEncode:
    def test_standard_dims(self):
        img = Image(np.zeros((336, 336, 3)))
        fmap = encode(img, EncoderSpec(channels=64, seed=0))
        assert fmap.data.shape == (24, 24, 64)
        assert fmap.level == 0

    def test_small_dims(self):
        fmap = encode(Image(np.zeros((112, 112, 3))), EncoderSpec(channels=16, seed=0))
        assert fmap.data.shape == (8, 8, 16)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        pixels = rng.uniform(0, 1, (56, 56, 3)).astype(np.float32)
        spec = EncoderSpec(channels=8, seed=11)
        a = encode(Image(pixels), spec)
        b = encode(Image(pixels.copy()), spec)
        np.testing.assert_array_equal(a.data, b.data)

    def test_constant_image_gives_constant_map(self):
        fmap = encode(Image(np.full((56, 56, 3), 0.3)), EncoderSpec(channels=8, seed=2))
        want = np.broadcast_to(fmap.data[0, 0], fmap.data.shape)
        np.testing.assert_allclose(fmap.data, want, atol=1e-7)

    def test_non_multiple_dims_rejected(self):
        with pytest.raises(ValueError):
            encode(Image(np.zeros((50, 56, 3))), EncoderSpec())

    def test_seed_changes_features(self):
        rng = np.random.default_rng(4)
        img = Image(rng.uniform(0, 1, (56, 56, 3)).astype(np.float32))
        a = encode(img, EncoderSpec(channels=8, seed=1))
        b = encode(img, EncoderSpec(channels=8, seed=2))
        assert not np.array_equal(a.data, b.data)

    def test_peak_memory_of_a_unit(self):
        # a 336x336 float32 unit is copied to float64 in patch order one
        # block of 2 patch rows at a time: measured peak 0.57 MiB; 3.15 MiB
        # while the whole unit was copied at once; 5.17 MiB while the
        # pixels were cast to float64 before the patch transpose copied
        # them again
        img = Image(np.random.default_rng(3).uniform(0, 1, (336, 336, 3)).astype(np.float32))
        spec = EncoderSpec(channels=64, seed=0)
        encode(img, spec)  # the patch projection is cached
        fmap, peak = traced_peak(lambda: encode(img, spec))
        assert fmap.data.shape == (24, 24, 64)
        assert peak < 0.7 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    def test_projection_is_drawn_once_with_the_seeded_bits(self):
        # cached per (seed, channels), read-only, and the draw it replaced
        encoder._patch_projection.cache_clear()
        w = encoder._patch_projection(7, 8)
        assert encoder._patch_projection(7, 8) is w
        assert not w.flags.writeable
        want = np.random.default_rng(7).uniform(-0.1, 0.1, (14 * 14 * 3, 8))
        assert np.array_equal(w, want)

    def test_feature_map_refuses_non_finite_values(self):
        data = np.ones((2, 3, 4), dtype=np.float32)
        data[1, 2, 3] = np.inf
        with pytest.raises(ValueError, match="FeatureMap values must be finite"):
            FeatureMap(data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", [0, -1], ids=["first", "last"])
    def test_feature_map_refuses_a_non_finite_first_or_last_entry(self, entry, bad):
        # the check reads min and max, not a mask: each must see every kind
        data = np.ones((2, 3, 4), dtype=np.float32)
        data.flat[entry] = bad
        with pytest.raises(ValueError, match="FeatureMap values must be finite"):
            FeatureMap(data)


class TestFeatureFiles:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        fmap = FeatureMap(rng.standard_normal((5, 7, 6)).astype(np.float32), level=0)
        path = tmp_path / "f.ispf"
        save_features(fmap, path)
        loaded = load_features(path)
        np.testing.assert_array_equal(loaded.data, fmap.data)
        # a second save writes the same bytes
        again = tmp_path / "g.ispf"
        save_features(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_load_holds_one_writable_copy_of_the_payload(self, tmp_path):
        # a 96x96x64 level is a 2.36 MB payload, read straight into its array
        # and checked for NaN and inf without a mask: measured peak 1.002x the
        # payload; 1.25x while the check built a boolean mask of it
        data = np.random.default_rng(10).standard_normal((96, 96, 64)).astype(np.float32)
        path = tmp_path / "l2.ispf"
        save_features(FeatureMap(data, level=2), path)
        loaded, peak = traced_peak(lambda: load_features(path))
        assert peak < 1.1 * data.nbytes, f"peak {peak / 1e6:.2f} MB"
        assert loaded.data.flags.writeable and loaded.data.flags.owndata
        np.testing.assert_array_equal(loaded.data, data)

    def test_level_retained(self, tmp_path):
        fmap = FeatureMap(np.zeros((2, 2, 4), dtype=np.float32), level=1)
        path = tmp_path / "lvl.ispf"
        save_features(fmap, path)
        assert load_features(path).level == 1

    def test_truncated_file_names_expected_bytes(self, tmp_path):
        fmap = FeatureMap(np.zeros((3, 3, 2), dtype=np.float32))
        path = tmp_path / "t.ispf"
        save_features(fmap, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DataFormatError) as err:
            load_features(path)
        assert "expected 72 bytes, got 64" in str(err.value)

    @pytest.mark.parametrize("field, shape", [("height", (0, 3, 2)), ("width", (3, 0, 2)), ("channels", (3, 3, 0))])
    def test_save_refuses_a_zero_dim(self, tmp_path, field, shape):
        # it wrote a file that load_features refuses
        path = tmp_path / "empty.ispf"
        with pytest.raises(ValueError, match=f"ISPF level-1 map has 0 {field}"):
            save_features(FeatureMap(np.zeros(shape, dtype=np.float32), level=1), path)
        assert not path.exists()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ispf"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(DataFormatError):
            load_features(path)
