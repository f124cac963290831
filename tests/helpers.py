"""Shared builders for the test suite: planted sparse instances, tiny
ENVI files and float32 native cubes written from scratch (the library
only reads ENVI and writes float64 native cubes)."""

import struct
from pathlib import Path

import numpy as np

from hypercs import (
    build_dft_basis,
    build_dictionary,
    build_selection_mask,
    from_sparse_domain,
    generate_synthetic_cube,
    measure,
    sparsify,
    to_sparse_domain,
)

ENVI_DTYPE_CODES = {"f4": 4, "f8": 5, "u2": 12}


def partial_fourier(n, m, seed):
    """Dictionary from a seeded selection of m of n unitary-DFT rows."""
    mask = build_selection_mask(n, m / n, seed)
    assert mask.m == m
    return build_dictionary(build_dft_basis(n), mask)


def desk_scene(x, y, bands, kappa_true, seed, factor):
    """(dictionary, measurements) of a synthetic scene, sparsified with the
    given factor and compressed at ratio 0.4, as `bench --seed seed` does."""
    basis = build_dft_basis(bands)
    cube = generate_synthetic_cube(x, y, bands, kappa_true=kappa_true, seed=seed)
    kept, _ = sparsify(to_sparse_domain(cube.data, basis), factor)
    sparsified, _ = from_sparse_domain(kept, basis)
    mask = build_selection_mask(bands, 0.4, seed)
    return build_dictionary(basis, mask), measure(sparsified, mask)


def planted_instance(n, m, kappa, seed, coeffs="unit"):
    """(dictionary, x0, y) with y = A x0 and a known kappa-sparse x0.

    coeffs picks the nonzero law: "unit" for unit-modulus random phases,
    "mag" for magnitudes uniform in [1, 2] with random phases.
    """
    rng = np.random.default_rng(seed)
    dictionary = partial_fourier(n, m, seed)
    support = rng.choice(n, size=kappa, replace=False)
    x0 = np.zeros(n, dtype=np.complex128)
    phases = np.exp(2j * np.pi * rng.uniform(size=kappa))
    if coeffs == "unit":
        x0[support] = phases
    elif coeffs == "mag":
        x0[support] = rng.uniform(1.0, 2.0, size=kappa) * phases
    else:
        raise ValueError(coeffs)
    return dictionary, x0, dictionary.matrix @ x0


def write_envi(directory, stem, data, interleave="bip", dtype="f8",
               byte_order=0, header_offset=0, extra_header=None,
               header_style="append"):
    """Write an ENVI data file + header for a float array shaped (x, y, bands).

    Returns the data-file path.  header_style "append" produces stem.raw +
    stem.raw.hdr, "replace" produces stem.raw + stem.hdr.
    """
    directory = Path(directory)
    arr = np.asarray(data, dtype=np.float64)
    x, y, bands = arr.shape
    if interleave == "bsq":
        flat = arr.transpose(2, 1, 0)  # [band][line][sample]
    elif interleave == "bil":
        flat = arr.transpose(1, 2, 0)  # [line][band][sample]
    elif interleave == "bip":
        flat = arr.transpose(1, 0, 2)  # [line][sample][band]
    else:
        raise ValueError(interleave)
    np_dtype = np.dtype(("<" if byte_order == 0 else ">") + dtype)
    payload = np.ascontiguousarray(flat, dtype=np_dtype).tobytes()

    data_path = directory / f"{stem}.raw"
    data_path.write_bytes(b"\0" * header_offset + payload)

    lines = [
        "ENVI",
        f"samples = {x}",
        f"lines = {y}",
        f"bands = {bands}",
        f"data type = {ENVI_DTYPE_CODES[dtype]}",
        f"interleave = {interleave}",
        f"byte order = {byte_order}",
        f"header offset = {header_offset}",
    ]
    if extra_header:
        lines.extend(extra_header)
    if header_style == "append":
        header_path = directory / f"{stem}.raw.hdr"
    else:
        header_path = directory / f"{stem}.hdr"
    header_path.write_text("\n".join(lines) + "\n")
    return data_path


def write_native_f32(cube, path):
    """Write a cube in the native layout with float32 samples."""
    with open(path, "wb") as fh:
        fh.write(b"HSC1" + struct.pack("<III", cube.x, cube.y, cube.bands))
        np.ascontiguousarray(cube.data, dtype="<f4").tofile(fh)
