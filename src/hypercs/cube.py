"""Hyperspectral cube container and I/O.

Cubes are stored as float64 arrays of shape (x, y, bands); the flat sample
order is therefore x-major with the band index fastest.  The native binary
layout is a four-byte magic, the dimensions as little-endian uint32, then
the little-endian samples in C order: b"HSC1", (x, y, bands) and float64
samples for a cube (float32 files are read too).  The pipeline's
measurement files share it (see write_native).  ENVI cubes (BSQ/BIL/BIP,
data types 4, 5 and 12) are read-only.
"""

import os
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .transform import build_dft_basis, from_sparse_domain

NATIVE_MAGIC = b"HSC1"

ENVI_DTYPES = {4: "f4", 5: "f8", 12: "u2"}
ENVI_INTERLEAVES = ("bsq", "bil", "bip")


class CubeFormatError(Exception):
    """Malformed or unsupported cube file."""


@dataclass
class HsiCube:
    """In-memory cube: float64 samples indexed as data[x, y, band]."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError("cube data must be 3-D (x, y, band)")
        if min(self.data.shape) < 1:
            raise ValueError("cube dimensions must be >= 1")
        if not np.isfinite(self.data).all():
            raise ValueError("cube contains non-finite samples")

    @property
    def x(self):
        return int(self.data.shape[0])

    @property
    def y(self):
        return int(self.data.shape[1])

    @property
    def bands(self):
        return int(self.data.shape[2])

    @property
    def samples(self):
        """Flat sample vector in on-disk order (x-major, band fastest)."""
        return self.data.reshape(-1)


def extract_pixel(cube, x, y):
    """Spectrum of one pixel as a fresh length-`bands` float64 vector."""
    if not (0 <= x < cube.x and 0 <= y < cube.y):
        raise IndexError(f"pixel ({x}, {y}) outside {cube.x} x {cube.y} grid")
    return cube.data[x, y, :].copy()


def write_native(path, magic, dims, payload):
    """Write a file in the native layout: magic, dims, then the C-order payload."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(f"<{len(dims)}I", *dims))
        payload.tofile(fh)


def read_native(path, magic, ndims, dtypes, error):
    """(dims, flat payload) of a native file with ndims dimensions, each
    >= 1, whose payload is exactly dims[0] * dims[1] * dims[2] samples of
    one of dtypes, tried in order; anything else raises error."""
    offset = len(magic) + 4 * ndims
    with open(path, "rb") as fh:
        head = fh.read(offset)
        if len(head) < offset or head[: len(magic)] != magic:
            raise error(f"{path}: not a {magic.decode()} file")
        dims = struct.unpack_from(f"<{ndims}I", head, len(magic))
        if min(dims) < 1:
            raise error(f"{path}: degenerate dimensions {dims}")
        count = dims[0] * dims[1] * dims[2]
        size = os.fstat(fh.fileno()).st_size - offset
        for dtype in map(np.dtype, dtypes):
            if size == count * dtype.itemsize:
                return dims, np.fromfile(fh, dtype=dtype, count=count)
    raise error(f"{path}: payload holds {size} bytes, expected {count} samples")


def save_cube(cube, path):
    """Write a cube in the native binary layout with float64 samples."""
    write_native(path, NATIVE_MAGIC, cube.data.shape, np.ascontiguousarray(cube.data, dtype="<f8"))


def load_cube(path, kind=None):
    """Read a cube. kind is "native", "envi" or None, which sniffs the kind:
    native magic bytes first, otherwise a sibling ENVI header.  Native
    files with f32 samples are told from f64 ones by their payload size."""
    path = Path(path)
    if kind is None:
        with open(path, "rb") as fh:
            kind = "native" if fh.read(4) == NATIVE_MAGIC else "envi"
    if kind == "native":
        return _load_native(path)
    if kind == "envi":
        return _load_envi(path)
    raise ValueError(f"unknown cube format kind {kind!r}")


def _load_native(path):
    """The samples are read straight into the cube's array: f8 needs no copy."""
    dims, data = read_native(path, NATIVE_MAGIC, 3, ("<f8", "<f4"), CubeFormatError)
    try:
        return HsiCube(data=data.reshape(dims))
    except ValueError as exc:
        raise CubeFormatError(f"{path}: {exc}") from None


def _find_envi_header(path):
    path = Path(path)
    if path.suffix.lower() == ".hdr":
        raise CubeFormatError(
            f"{path}: pass the data file, the header is located next to it"
        )
    candidates = [path.with_suffix(path.suffix + ".hdr"), path.with_suffix(".hdr")]
    for cand in candidates:
        if cand.exists():
            return cand
    raise CubeFormatError(f"{path}: no ENVI header found next to the data file")


def _parse_envi_header(text, path):
    fields = {}
    # strip brace-delimited blocks onto one line first
    text = re.sub(r"\{[^}]*\}", lambda m: m.group(0).replace("\n", " "), text)
    for line in text.splitlines():
        line = line.strip()
        if not line or line.upper() == "ENVI" or line.startswith(";"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            continue
        fields[key.strip().lower()] = value.strip()
    required = ("samples", "lines", "bands", "interleave", "data type")
    missing = [key for key in required if key not in fields]
    if missing:
        raise CubeFormatError(f"{path}: header is missing {', '.join(missing)}")
    return fields


def _load_envi(path):
    header_path = _find_envi_header(path)
    try:
        text = header_path.read_text(errors="replace")
    except OSError as exc:
        raise CubeFormatError(f"{header_path}: unreadable header: {exc}") from None
    fields = _parse_envi_header(text, header_path)
    try:
        samples = int(fields["samples"])
        lines = int(fields["lines"])
        bands = int(fields["bands"])
        dtype_code = int(fields["data type"])
        offset = int(fields.get("header offset", 0))
        byte_order = int(fields.get("byte order", 0))
    except ValueError as exc:
        raise CubeFormatError(f"{header_path}: bad header value: {exc}") from None
    interleave = fields["interleave"].lower()
    if interleave not in ENVI_INTERLEAVES:
        raise CubeFormatError(f"{header_path}: unsupported interleave {interleave!r}")
    if dtype_code not in ENVI_DTYPES:
        raise CubeFormatError(f"{header_path}: unsupported data type {dtype_code}")
    if offset < 0:
        raise CubeFormatError(f"{header_path}: negative header offset {offset}")
    if byte_order not in (0, 1):
        raise CubeFormatError(f"{header_path}: unsupported byte order {byte_order}")
    dtype = np.dtype(("<" if byte_order == 0 else ">") + ENVI_DTYPES[dtype_code])

    size = Path(path).stat().st_size - offset
    count = samples * lines * bands
    if size < count * dtype.itemsize:
        raise CubeFormatError(
            f"{path}: file holds {size} bytes, header declares {count} samples"
        )
    flat = np.fromfile(path, dtype=dtype, count=count, offset=offset)
    if interleave == "bsq":
        data = flat.reshape(bands, lines, samples).transpose(2, 1, 0)
    elif interleave == "bil":
        data = flat.reshape(lines, bands, samples).transpose(2, 0, 1)
    else:  # bip
        data = flat.reshape(lines, samples, bands).transpose(1, 0, 2)
    try:
        # HsiCube's float64 C-order conversion is the one transposing copy
        return HsiCube(data=data)
    except ValueError as exc:
        raise CubeFormatError(f"{path}: {exc}") from None


def _symmetric_support(bands, kappa, rng):
    """Random index set of exactly kappa bins, closed under j -> (N - j) % N.

    Self-paired bins (0 and, for even N, N/2) count once; every other bin
    drags its mirror along.
    """
    self_bins = [0] + ([bands // 2] if bands % 2 == 0 else [])
    pair_bins = [j for j in range(1, (bands + 1) // 2)]
    n_self = kappa % 2
    if kappa - n_self > 2 * len(pair_bins):
        n_self += 2
    if n_self > len(self_bins):
        raise ValueError(f"cannot place {kappa} symmetric nonzeros in {bands} bands")
    chosen = list(rng.choice(len(self_bins), size=n_self, replace=False))
    support = [self_bins[i] for i in chosen]
    n_pairs = (kappa - n_self) // 2
    for i in rng.choice(len(pair_bins), size=n_pairs, replace=False):
        support.append(pair_bins[i])
        support.append(bands - pair_bins[i])
    return sorted(support)


def generate_synthetic_cube(x, y, bands, kappa_true, seed):
    """Cube whose every pixel has exactly kappa_true nonzero inverse-DFT
    coefficients (magnitudes in [1, 2], random phases, conjugate-symmetric
    so the spectra come out real).  Deterministic per seed."""
    if min(x, y, bands) < 1:
        raise ValueError("cube dimensions must be >= 1")
    if not 1 <= kappa_true <= bands:
        raise ValueError(f"kappa_true must be in [1, {bands}]")
    rng = np.random.default_rng(seed)
    basis = build_dft_basis(bands)
    data = np.empty((x, y, bands), dtype=np.float64)
    half = bands / 2.0
    for ix in range(x):
        coeffs = np.zeros((y, bands), dtype=np.complex128)
        for pixel in coeffs:
            for j in _symmetric_support(bands, kappa_true, rng):
                mirror = (bands - j) % bands
                if j == mirror:
                    # self-paired bin: the coefficient must be real
                    pixel[j] = rng.uniform(1.0, 2.0) * rng.choice((-1.0, 1.0))
                elif j < half:
                    mag = rng.uniform(1.0, 2.0)
                    phase = rng.uniform(0.0, 2.0 * np.pi)
                    pixel[j] = mag * np.exp(1j * phase)
                    pixel[mirror] = np.conj(pixel[j])
        data[ix], _ = from_sparse_domain(coeffs, basis)
    return HsiCube(data=data)
