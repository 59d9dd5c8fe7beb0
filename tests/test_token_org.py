"""Token-map stitching, flattening order, and the TOKS dump format."""

import struct

import numpy as np
import pytest

from hiwin.formats import DataFormatError
from hiwin.numerics import NumericalError
from hiwin.slicing import compute_slice_layout
from hiwin.token_org import AssembledTokens, assemble, flatten, load_tokens, save_index, save_tokens
from hiwin.window_attn import TokenMap


def coordinate_maps(layout, n=4, c=2):
    """Token value = its global (row, col) position, for order checks."""
    maps = []
    for i in range(layout.rows):
        for j in range(layout.cols):
            data = np.zeros((n, n, c), dtype=np.float32)
            rows = np.arange(n) + i * n
            cols = np.arange(n) + j * n
            data[:, :, 0] = rows[:, None]
            data[:, :, 1] = cols[None, :]
            maps.append(TokenMap(data, origin=f"slice:{i * layout.cols + j}"))
    return maps


class TestAssemble:
    def test_single_slice_equals_its_map(self):
        layout = compute_slice_layout(336, 336)
        rng = np.random.default_rng(0)
        m = TokenMap(rng.standard_normal((4, 4, 3)).astype(np.float32))
        overview = TokenMap(rng.standard_normal((4, 4, 3)).astype(np.float32))
        out = assemble([m], layout, overview)
        np.testing.assert_array_equal(out.global_map, m.data)
        np.testing.assert_array_equal(out.overview, overview.data)

    def test_3x2_layout_dims(self):
        layout = compute_slice_layout(1008, 672)  # 3 cols x 2 rows
        maps = [TokenMap(np.zeros((12, 12, 5), dtype=np.float32)) for _ in range(6)]
        overview = TokenMap(np.zeros((12, 12, 5), dtype=np.float32))
        out = assemble(maps, layout, overview)
        assert out.global_map.shape == (24, 36, 5)

    def test_blocks_are_globally_monotone(self):
        layout = compute_slice_layout(1008, 672)
        out = assemble(coordinate_maps(layout), layout, TokenMap(np.zeros((4, 4, 2), dtype=np.float32)))
        rows = out.global_map[:, :, 0]
        cols = out.global_map[:, :, 1]
        assert np.all(np.diff(rows, axis=0) > 0)
        assert np.all(np.diff(cols, axis=1) > 0)

    def test_count_mismatch_rejected(self):
        layout = compute_slice_layout(1008, 672)
        maps = [TokenMap(np.zeros((4, 4, 2), dtype=np.float32))] * 5
        with pytest.raises(ValueError):
            assemble(maps, layout, TokenMap(np.zeros((4, 4, 2), dtype=np.float32)))

    def test_splitting_recovers_block_contents(self):
        layout = compute_slice_layout(1008, 672)
        rng = np.random.default_rng(7)
        maps = [
            TokenMap(rng.standard_normal((4, 4, 3)).astype(np.float32)) for _ in range(6)
        ]
        out = assemble(maps, layout, TokenMap(np.zeros((4, 4, 3), dtype=np.float32)))
        for i in range(layout.rows):
            for j in range(layout.cols):
                block = out.global_map[i * 4 : (i + 1) * 4, j * 4 : (j + 1) * 4]
                np.testing.assert_array_equal(block, maps[i * layout.cols + j].data)


class TestFlatten:
    def test_single_slice_length(self):
        layout = compute_slice_layout(336, 336)
        maps = [TokenMap(np.zeros((12, 12, 2), dtype=np.float32))]
        out = assemble(maps, layout, TokenMap(np.zeros((12, 12, 2), dtype=np.float32)))
        seq = flatten(out)
        assert seq.tokens.shape == (288, 2)

    def test_3x2_length(self):
        layout = compute_slice_layout(1008, 672)
        maps = [TokenMap(np.zeros((12, 12, 2), dtype=np.float32)) for _ in range(6)]
        out = assemble(maps, layout, TokenMap(np.zeros((12, 12, 2), dtype=np.float32)))
        assert flatten(out).tokens.shape == (1008, 2)

    def test_horizontally_adjacent_tokens_stay_adjacent(self):
        layout = compute_slice_layout(1008, 672)
        out = assemble(coordinate_maps(layout), layout, TokenMap(np.zeros((4, 4, 2), dtype=np.float32)))
        seq = flatten(out)
        global_part = seq.tokens[16:]  # after the 4x4 overview
        width = out.global_map.shape[1]
        for r in range(out.global_map.shape[0]):
            row = global_part[r * width : (r + 1) * width]
            assert np.all(np.diff(row[:, 1]) == 1)  # col coordinate steps by 1

    def test_index_map_is_a_bijection(self):
        layout = compute_slice_layout(672, 672)
        maps = [TokenMap(np.zeros((4, 4, 2), dtype=np.float32)) for _ in range(layout.count)]
        out = assemble(maps, layout, TokenMap(np.zeros((4, 4, 2), dtype=np.float32)))
        seq = flatten(out)
        assert len(seq.entries) == seq.tokens.shape[0]
        assert len(set(seq.entries)) == len(seq.entries)
        for origin, row, col in seq.entries:
            if origin == "overview":
                assert 0 <= row < 4 and 0 <= col < 4
            else:
                assert 0 <= row < out.global_map.shape[0]
                assert 0 <= col < out.global_map.shape[1]


class TestToksFormat:
    def test_roundtrip(self, tmp_path):
        layout = compute_slice_layout(1008, 672)
        rng = np.random.default_rng(1)
        maps = [
            TokenMap(rng.standard_normal((12, 12, 3)).astype(np.float32)) for _ in range(6)
        ]
        out = assemble(maps, layout, TokenMap(rng.standard_normal((12, 12, 3)).astype(np.float32)))
        path = tmp_path / "tokens.toks"
        save_tokens(out, path)
        loaded = load_tokens(path)
        np.testing.assert_array_equal(loaded.global_map, out.global_map)
        np.testing.assert_array_equal(loaded.overview, out.overview)
        assert (loaded.rows, loaded.cols) == (2, 3)

    def test_truncation_detected(self, tmp_path):
        layout = compute_slice_layout(336, 336)
        maps = [TokenMap(np.zeros((4, 4, 2), dtype=np.float32))]
        out = assemble(maps, layout, TokenMap(np.zeros((4, 4, 2), dtype=np.float32)))
        path = tmp_path / "tokens.toks"
        save_tokens(out, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataFormatError):
            load_tokens(path)

    def test_header_larger_than_the_file_is_refused(self, tmp_path):
        # rows = cols = N = 2^32 - 1, C = 1
        path = tmp_path / "huge.toks"
        path.write_bytes(b"TOKS" + struct.pack("<5I", 1, *[2**32 - 1] * 3, 1) + bytes(16))
        with pytest.raises(DataFormatError, match="truncated TOKS overview payload"):
            load_tokens(path)

    @pytest.mark.parametrize("field", ["rows", "cols", "N", "C"])
    def test_header_with_a_zero_dim_is_refused(self, tmp_path, field):
        header = {"rows": 1, "cols": 1, "N": 2, "C": 2, field: 0}
        path = tmp_path / "empty.toks"
        path.write_bytes(b"TOKS" + struct.pack("<5I", 1, *header.values()) + bytes(64))
        with pytest.raises(DataFormatError, match=f"TOKS header has 0 {field}$"):
            load_tokens(path)

    @pytest.mark.parametrize("payload", ["overview", "global map"])
    def test_non_finite_payload_is_refused(self, tmp_path, payload):
        # save_tokens refuses NaN, so it is patched into the file
        out = assemble([TokenMap(np.zeros((2, 2, 2), dtype=np.float32))], compute_slice_layout(336, 336),
                       TokenMap(np.zeros((2, 2, 2), dtype=np.float32)))
        path = tmp_path / "nan.toks"
        save_tokens(out, path)
        blob = bytearray(path.read_bytes())
        at = 24 + (0 if payload == "overview" else 2 * 2 * 2 * 4)  # magic and five u32, then the overview
        blob[at : at + 4] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(blob))
        with pytest.raises(NumericalError, match=f"TOKS {payload} holds non-finite"):
            load_tokens(path)

    @pytest.mark.parametrize("field", ["rows", "cols", "N", "C"])
    def test_save_refuses_a_zero_dim(self, tmp_path, field):
        # it wrote a file that load_tokens refuses
        dims = {"rows": 1, "cols": 1, "N": 2, "C": 2, field: 0}
        n, c = dims["N"], dims["C"]
        tokens = AssembledTokens(
            global_map=np.zeros((n * dims["rows"], n * dims["cols"], c), dtype=np.float32),
            overview=np.zeros((n, n, c), dtype=np.float32),
            rows=dims["rows"],
            cols=dims["cols"],
        )
        path = tmp_path / "empty.toks"
        with pytest.raises(ValueError, match=f"TOKS tokens has 0 {field}$"):
            save_tokens(tokens, path)
        assert not path.exists()

    def test_save_refuses_a_global_map_the_header_does_not_imply(self, tmp_path):
        tokens = AssembledTokens(
            global_map=np.zeros((2, 4, 2), dtype=np.float32), overview=np.zeros((2, 2, 2), dtype=np.float32), rows=1, cols=1
        )
        path = tmp_path / "shape.toks"
        with pytest.raises(ValueError, match=r"TOKS global map has shape \(2, 4, 2\), header implies \(2, 2, 2\)"):
            save_tokens(tokens, path)
        assert not path.exists()

    def test_index_file_format(self, tmp_path):
        layout = compute_slice_layout(336, 336)
        maps = [TokenMap(np.zeros((2, 2, 2), dtype=np.float32))]
        out = assemble(maps, layout, TokenMap(np.zeros((2, 2, 2), dtype=np.float32)))
        path = tmp_path / "tokens.idx"
        save_index(flatten(out), path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "0 0 0 overview"
        assert lines[-1] == "7 1 1 global"
        assert len(lines) == 8
