"""Cube container, native binary layout, ENVI reading, synthetic cubes."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from hypercs import (
    CubeFormatError,
    HsiCube,
    build_dft_basis,
    extract_pixel,
    generate_synthetic_cube,
    load_cube,
    save_cube,
    to_sparse_domain,
)

from helpers import write_envi, write_native_f32


def small_cube():
    return HsiCube(data=np.arange(12.0).reshape(2, 2, 3))


class TestHsiCube:
    def test_dimension_properties(self):
        cube = small_cube()
        assert (cube.x, cube.y, cube.bands) == (2, 2, 3)

    def test_samples_flatten_x_major_band_fastest(self):
        np.testing.assert_array_equal(small_cube().samples, np.arange(12.0))

    def test_data_is_coerced_to_float64(self):
        cube = HsiCube(data=np.ones((1, 1, 2), dtype=np.float32))
        assert cube.data.dtype == np.float64

    def test_validation(self):
        with pytest.raises(ValueError):
            HsiCube(data=np.ones((2, 2)))
        with pytest.raises(ValueError):
            HsiCube(data=np.full((1, 1, 1), np.nan))

    def test_extract_pixel_returns_a_copy(self):
        cube = small_cube()
        pixel = extract_pixel(cube, 1, 0)
        np.testing.assert_array_equal(pixel, [6.0, 7.0, 8.0])
        pixel[0] = 99.0
        assert cube.data[1, 0, 0] == 6.0

    def test_extract_pixel_bounds(self):
        with pytest.raises(IndexError):
            extract_pixel(small_cube(), 2, 0)
        with pytest.raises(IndexError):
            extract_pixel(small_cube(), 0, -1)


class TestNativeFormat:
    def test_round_trip_is_exact(self, tmp_path):
        path = tmp_path / "cube.hsc"
        save_cube(small_cube(), path)
        loaded = load_cube(path)
        np.testing.assert_array_equal(loaded.data, small_cube().data)

    def test_on_disk_layout(self, tmp_path):
        path = tmp_path / "cube.hsc"
        save_cube(small_cube(), path)
        raw = path.read_bytes()
        assert raw[:4] == b"HSC1"
        assert struct.unpack("<III", raw[4:16]) == (2, 2, 3)
        np.testing.assert_array_equal(
            np.frombuffer(raw[16:], dtype="<f8"), np.arange(12.0)
        )

    def test_f32_payload_round_trip(self, tmp_path):
        path = tmp_path / "cube32.hsc"
        cube = HsiCube(data=np.linspace(0.0, 1.0, 12).reshape(2, 2, 3))
        write_native_f32(cube, path)
        # sniffed element size comes from the payload length
        loaded = load_cube(path)
        np.testing.assert_allclose(loaded.data, cube.data, atol=1e-6)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.hsc"
        path.write_bytes(b"NOPE" + struct.pack("<III", 1, 1, 1) + b"\0" * 8)
        with pytest.raises(CubeFormatError):
            load_cube(path)  # no HSC1 magic and no ENVI header next to it

    @pytest.mark.parametrize("size", [10, 12 * 8 + 16], ids=["truncated", "oversized"])
    def test_payload_of_the_wrong_size_rejected(self, tmp_path, size):
        path = tmp_path / "bad.hsc"
        path.write_bytes(b"HSC1" + struct.pack("<III", 2, 2, 3) + b"\0" * size)
        with pytest.raises(CubeFormatError):
            load_cube(path)

    def test_degenerate_dimensions_rejected(self, tmp_path):
        path = tmp_path / "zero.hsc"
        path.write_bytes(b"HSC1" + struct.pack("<III", 0, 2, 3))
        with pytest.raises(CubeFormatError):
            load_cube(path)

    def test_load_holds_one_copy_of_the_cube(self, tmp_path):
        # f8 samples are read straight into the cube's array, with no
        # file-sized byte string beside it
        path = tmp_path / "cube.hsc"
        save_cube(generate_synthetic_cube(20, 20, 198, kappa_true=4, seed=0), path)
        tracemalloc.start()
        try:
            cube = load_cube(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cube.data.shape == (20, 20, 198)
        assert peak < 1.5 * cube.data.nbytes

class TestEnviReader:
    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(7)
        return np.round(rng.uniform(0.0, 100.0, size=(3, 4, 5)), 3)

    @pytest.mark.parametrize("interleave", ["bsq", "bil", "bip"])
    def test_interleaves(self, tmp_path, data, interleave):
        path = write_envi(tmp_path, "cube", data, interleave=interleave)
        loaded = load_cube(path)
        np.testing.assert_allclose(loaded.data, data, atol=1e-12)

    @pytest.mark.parametrize("dtype", ["f4", "f8"])
    @pytest.mark.parametrize("byte_order", [0, 1])
    def test_dtypes_and_byte_orders(self, tmp_path, data, dtype, byte_order):
        path = write_envi(tmp_path, "cube", data, dtype=dtype, byte_order=byte_order)
        loaded = load_cube(path)
        np.testing.assert_allclose(loaded.data, data, atol=1e-3 if dtype == "f4" else 1e-12)

    def test_unsigned_16bit_samples(self, tmp_path):
        data = np.arange(24.0).reshape(2, 3, 4)
        path = write_envi(tmp_path, "cube", data, dtype="u2")
        loaded = load_cube(path)
        np.testing.assert_array_equal(loaded.data, data)

    def test_header_offset_skipped(self, tmp_path, data):
        path = write_envi(tmp_path, "cube", data, header_offset=100)
        np.testing.assert_allclose(load_cube(path).data, data, atol=1e-12)

    def test_replace_style_header_found(self, tmp_path, data):
        path = write_envi(tmp_path, "cube", data, header_style="replace")
        np.testing.assert_allclose(load_cube(path).data, data, atol=1e-12)

    def test_multiline_brace_field_is_read_past(self, tmp_path, data):
        extra = ["band names = {red, green, blue,", "  nir, swir}", "wavelength units = nm"]
        path = write_envi(tmp_path, "cube", data, extra_header=extra)
        np.testing.assert_allclose(load_cube(path).data, data, atol=1e-12)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "orphan.raw"
        path.write_bytes(b"\0" * 40)
        with pytest.raises(CubeFormatError):
            load_cube(path)

    def test_header_path_passed_directly_is_rejected(self, tmp_path, data):
        write_envi(tmp_path, "cube", data, header_style="replace")
        with pytest.raises(CubeFormatError):
            load_cube(tmp_path / "cube.hdr")

    def test_missing_required_key_rejected(self, tmp_path, data):
        path = write_envi(tmp_path, "cube", data)
        header = tmp_path / "cube.raw.hdr"
        header.write_text(header.read_text().replace("bands = 5\n", ""))
        with pytest.raises(CubeFormatError):
            load_cube(path)

    def test_unsupported_data_type_rejected(self, tmp_path, data):
        path = write_envi(tmp_path, "cube", data)
        header = tmp_path / "cube.raw.hdr"
        header.write_text(header.read_text().replace("data type = 5", "data type = 3"))
        with pytest.raises(CubeFormatError):
            load_cube(path)

    def test_negative_header_offset_rejected(self, tmp_path, data):
        path = write_envi(tmp_path, "cube", data)
        header = tmp_path / "cube.raw.hdr"
        header.write_text(header.read_text().replace("header offset = 0", "header offset = -16"))
        with pytest.raises(CubeFormatError):
            load_cube(path)

    def test_unsupported_byte_order_rejected(self, tmp_path, data):
        path = write_envi(tmp_path, "cube", data)
        header = tmp_path / "cube.raw.hdr"
        header.write_text(header.read_text().replace("byte order = 0", "byte order = 2"))
        with pytest.raises(CubeFormatError):
            load_cube(path)

    def test_short_data_file_rejected(self, tmp_path, data):
        path = write_envi(tmp_path, "cube", data)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(CubeFormatError):
            load_cube(path)


# SHA-256 of generate_synthetic_cube(x, y, bands, kappa_true, seed).data.tobytes():
# the three benchmark workload scenes, C6's desk cube, then bands 1 and 2, an
# odd kappa, kappa = bands for even and odd bands, odd bands and 1x5, 5x1 grids.
# Taken with numpy 2.4 and its bundled OpenBLAS on x86-64: a build that rounds
# the complex exponential or the inverse transform otherwise gives other bytes
PINNED_SCENES = [
    (8, 8, 64, 4, 1, "ae04ddcd15f4f9006c865373199c0070305d45ace0261c1a29917a62c4d3f243"),
    (16, 16, 128, 8, 1, "6acb9370e6aeff82604829c4734efa6d0f72704cf21e488dd0f115bd6030dae4"),
    (64, 64, 64, 6, 1, "c53b0c1ce6b2fdd1c63cd4b5f048ce42262097dc69a41a11b20a96fa5ef47170"),
    (16, 16, 64, 4, 0, "7c4116eeeb218edb96230b5f44fd994492c14ad705284949a0aefb36d46a2f8f"),
    (3, 4, 1, 1, 2, "cdf3bae949e3ab76b981bd8aec930f615fb9117c9d3461592da8f66bc86ef425"),
    (3, 4, 2, 1, 2, "571c3b3c83d45bb0515825849aaefa50417f00e9bf59e5ae075d75780aef0dc5"),
    (3, 4, 2, 2, 2, "8998c3f727c669c10e29dede001f4312e023d85c29ca8825908362a34e8b2b5b"),
    (3, 4, 16, 5, 2, "8ee4d4d88980e4fcf6210331559f532cc3bec7ee200b8e5b4c8de2e8c35d56b7"),
    (3, 4, 8, 8, 2, "10a4f1df9ef16ba9d8c3428549afad3dc03f31bd29ae1409f524315d9ac950cf"),
    (3, 4, 9, 9, 2, "0882d8be00510a4ecf3bcb2ee507d9f4811cd21acbc191aeda80ff03d64c49c0"),
    (3, 4, 63, 6, 2, "db6a91c814eedd08cdd7809d05469978b2b4c8d9d72172d0ff1a19793ea7b13e"),
    (1, 5, 12, 3, 2, "9890ca26d2a5892ff4242ae4ce0bd91daac488c11cebbc880e0b68605de79f80"),
    (5, 1, 12, 4, 2, "15a9c9dedaf5f47ae0be777107fce926127468786cd6bf846e096b7efcabf31b"),
]


class TestSyntheticCube:
    @pytest.mark.parametrize(
        "x, y, bands, kappa, seed, digest", PINNED_SCENES,
        ids=[f"{x}x{y}x{bands}-k{kappa}-s{seed}" for x, y, bands, kappa, seed, _ in PINNED_SCENES],
    )
    def test_scene_is_pinned_byte_for_byte(self, x, y, bands, kappa, seed, digest):
        # any change to the RNG draws or their order re-seeds every scene
        cube = generate_synthetic_cube(x, y, bands, kappa, seed=seed)
        assert hashlib.sha256(cube.data.tobytes()).hexdigest() == digest

    def test_deterministic_per_seed(self):
        a = generate_synthetic_cube(3, 2, 16, 3, seed=9)
        b = generate_synthetic_cube(3, 2, 16, 3, seed=9)
        c = generate_synthetic_cube(3, 2, 16, 3, seed=10)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_every_pixel_has_the_requested_sparsity(self):
        kappa = 5
        cube = generate_synthetic_cube(4, 3, 32, kappa, seed=0)
        basis = build_dft_basis(32)
        for ix in range(cube.x):
            for iy in range(cube.y):
                coeffs = to_sparse_domain(extract_pixel(cube, ix, iy), basis)
                mags = np.abs(coeffs)
                assert np.count_nonzero(mags > 1e-9) == kappa
                kept = np.sort(mags[mags > 1e-9])
                assert kept.min() >= 1.0 - 1e-9 and kept.max() <= 2.0 + 1e-9

    def test_supports_are_conjugate_symmetric(self):
        cube = generate_synthetic_cube(2, 2, 16, 4, seed=3)
        basis = build_dft_basis(16)
        for ix in range(2):
            for iy in range(2):
                coeffs = to_sparse_domain(extract_pixel(cube, ix, iy), basis)
                nz = set(np.flatnonzero(np.abs(coeffs) > 1e-9))
                assert nz == {(16 - j) % 16 for j in nz}

    def test_even_and_odd_sparsity_both_work(self):
        for kappa in (1, 2, 3, 4):
            cube = generate_synthetic_cube(1, 1, 12, kappa, seed=kappa)
            coeffs = to_sparse_domain(extract_pixel(cube, 0, 0), build_dft_basis(12))
            assert np.count_nonzero(np.abs(coeffs) > 1e-9) == kappa

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic_cube(0, 1, 8, 2, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic_cube(1, 1, 8, 9, seed=0)
