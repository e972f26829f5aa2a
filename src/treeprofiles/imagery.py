"""Raster containers and I/O: PGM grayscale, raw BSQ multiband, label maps, PCA.

Interchange formats are deliberately minimal so tests can be bit-exact:
grayscale images travel as netpbm PGM (P2 plain or P5 binary, maxval up to
65535, 16-bit samples big-endian), multiband images as a raw little-endian
band-sequential blob next to a JSON sidecar header::

    <name>.json   {"width": W, "height": H, "bands": B,
                   "dtype": "u8" | "u16" | "f32", "interleave": "bsq"}
    <name>.raw    W*H*B samples, band 0 first, rows in row-major order

All containers are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RasterImage:
    """Single-band image with integer gray values in [0, levels - 1]."""

    values: np.ndarray  # (height, width), integer
    levels: int = 256

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.size == 0:
            raise DataError("RasterImage needs a non-empty 2-D value grid")
        if not np.issubdtype(v.dtype, np.integer):
            raise DataError("RasterImage values must be integers")
        if self.levels < 2 or self.levels > 65536:
            raise DataError("level count must be in [2, 65536]")
        if v.min() < 0 or v.max() >= self.levels:
            raise DataError("gray values outside [0, levels - 1]")
        object.__setattr__(self, "values", _freeze(v.astype(np.int64)))

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    def complement(self) -> "RasterImage":
        """Level-complemented image (levels - 1 - X)."""
        return RasterImage(self.levels - 1 - self.values, self.levels)


@dataclass(frozen=True)
class MultibandImage:
    """Stack of co-registered real-valued bands, shape (bands, height, width)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.size == 0:
            raise DataError("MultibandImage needs a (bands, height, width) array")
        if not np.isfinite(v).all():
            raise DataError("MultibandImage samples must be finite "
                            "(found NaN or infinity)")
        object.__setattr__(self, "values", _freeze(v))

    @property
    def bands(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]

    def band(self, index: int) -> np.ndarray:
        return self.values[index]


@dataclass(frozen=True)
class LabelMap:
    """Per-pixel class ids; 0 means unlabeled, 1..C are classes."""

    labels: np.ndarray  # (height, width), integer

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 2 or lab.size == 0:
            raise DataError("LabelMap needs a non-empty 2-D grid")
        if not np.issubdtype(lab.dtype, np.integer) or lab.min() < 0:
            raise DataError("labels must be non-negative integers")
        object.__setattr__(self, "labels", _freeze(lab.astype(np.int64)))

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    def samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(flat pixel indices, class ids) of every labeled pixel."""
        flat = self.labels.ravel()
        idx = np.flatnonzero(flat)
        return idx, flat[idx]


# ---------------------------------------------------------------------------
# PGM (netpbm P2 / P5)
# ---------------------------------------------------------------------------

def _read_pgm_tokens(data: bytes, start: int, count: int) -> tuple[list[int], int]:
    """Read `count` ASCII integer tokens skipping whitespace and # comments."""
    tokens: list[int] = []
    pos = start
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos] != 0x0A:
                pos += 1
            continue
        if pos >= n:
            raise FormatError("unexpected end of header", offset=pos)
        tok_start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        tok = data[tok_start:pos]
        try:
            tokens.append(int(tok))
        except ValueError:
            raise FormatError(f"expected integer, got {tok!r}", offset=tok_start)
    return tokens, pos


def load_grayscale(path: str | Path) -> RasterImage:
    """Load a PGM file (P2 or P5) as a RasterImage."""
    data = Path(path).read_bytes()
    if len(data) < 2:
        raise FormatError("file too short for a PGM header", offset=0)
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise FormatError(f"not a PGM file (magic {magic!r})", offset=0)
    (width, height, maxval), pos = _read_pgm_tokens(data, 2, 3)
    if width < 1 or height < 1:
        raise FormatError("non-positive image dimensions", offset=2)
    if maxval < 1 or maxval > 65535:
        raise FormatError(f"maxval {maxval} outside [1, 65535]", offset=2)
    npix = width * height
    if magic == b"P2":
        try:
            flat, _ = _read_pgm_tokens(data, pos, npix)
        except FormatError as exc:
            raise FormatError(
                f"raster truncated or malformed: {exc.reason}",
                offset=exc.offset,
            ) from None
        values = np.array(flat, dtype=np.int64)
    else:
        if pos >= len(data):
            raise FormatError("missing raster data", offset=pos)
        pos += 1  # single whitespace byte after maxval
        bytes_per = 1 if maxval < 256 else 2
        need = npix * bytes_per
        raster = data[pos : pos + need]
        if len(raster) < need:
            raise FormatError(
                f"raster truncated at pixel {len(raster) // bytes_per} of {npix}",
                offset=pos + len(raster),
            )
        dtype = np.dtype(">u2") if bytes_per == 2 else np.dtype("u1")
        values = np.frombuffer(raster, dtype=dtype).astype(np.int64)
    if values.size != npix:
        raise FormatError(f"raster has {values.size} pixels, header promised {npix}")
    if values.min() < 0 or values.max() > maxval:
        raise FormatError("sample value exceeds declared maxval")
    return RasterImage(values.reshape(height, width), levels=maxval + 1)


def save_pgm(image: RasterImage, path: str | Path, plain: bool = False) -> None:
    """Write a RasterImage as PGM; P5 binary by default, P2 when plain=True."""
    maxval = image.levels - 1
    header = f"{'P2' if plain else 'P5'}\n{image.width} {image.height}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if plain:
            lines = [" ".join(str(v) for v in row) for row in image.values]
            fh.write(("\n".join(lines) + "\n").encode("ascii"))
        else:
            dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
            fh.write(image.values.astype(dtype).tobytes())


def load_labels(path: str | Path, expected_dims: tuple[int, int]) -> LabelMap:
    """Load a PGM label file; expected_dims is (width, height) of the paired image."""
    img = load_grayscale(path)
    if (img.width, img.height) != tuple(expected_dims):
        raise DataError(
            f"label map is {img.width}x{img.height}, "
            f"expected {expected_dims[0]}x{expected_dims[1]}"
        )
    return LabelMap(img.values)


def save_labels(labels: LabelMap, path: str | Path) -> None:
    maxval = max(255, int(labels.labels.max()))
    save_pgm(RasterImage(labels.labels, levels=maxval + 1), path)


# ---------------------------------------------------------------------------
# Multiband BSQ (raw blob + JSON sidecar)
# ---------------------------------------------------------------------------

_DTYPES = {"u8": np.dtype("<u1"), "u16": np.dtype("<u2"), "f32": np.dtype("<f4")}


def _read_json_header(path: Path, keys: tuple[str, ...], what: str) -> dict:
    """A JSON object holding at least ``keys``; FormatError otherwise."""
    try:
        header = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not UTF-8", offset=exc.start) from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"invalid {what}: {exc}") from None
    if not isinstance(header, dict):
        raise FormatError(f"{what} is not a JSON object")
    for key in keys:
        if key not in header:
            raise FormatError(f"{what} missing field {key!r}")
    return header


def _positive_ints(header: dict, keys: tuple[str, ...], what: str) -> list[int]:
    """The header's values under ``keys``, each a positive integer."""
    values = [header[key] for key in keys]
    for key, value in zip(keys, values):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise FormatError(
                f"{what} field {key!r} must be a positive integer, "
                f"got {value!r}")
    return values


def load_multiband(header_path: str | Path) -> MultibandImage:
    """Load a band-sequential raster described by its JSON sidecar header."""
    header_path = Path(header_path)
    header = _read_json_header(
        header_path, ("width", "height", "bands", "dtype", "interleave"),
        "header")
    if header["interleave"] != "bsq":
        raise FormatError(f"unsupported interleave {header['interleave']!r}")
    dtype = _DTYPES.get(str(header["dtype"]))
    if dtype is None:
        raise FormatError(f"unsupported dtype {header['dtype']!r}")
    width, height, bands = _positive_ints(
        header, ("width", "height", "bands"), "header")
    blob_path = header_path.with_suffix(".raw")
    blob = blob_path.read_bytes()
    need = width * height * bands * dtype.itemsize
    if len(blob) != need:
        raise FormatError(
            f"blob {blob_path.name} is {len(blob)} bytes, header requires {need}",
            offset=min(len(blob), need),
        )
    values = np.frombuffer(blob, dtype=dtype).astype(np.float64)
    return MultibandImage(values.reshape(bands, height, width))


def save_multiband(
    image: MultibandImage, header_path: str | Path, dtype: str = "f32"
) -> None:
    header_path = Path(header_path)
    if dtype not in _DTYPES:
        raise FormatError(f"unsupported dtype {dtype!r}")
    header = {
        "width": image.width,
        "height": image.height,
        "bands": image.bands,
        "dtype": dtype,
        "interleave": "bsq",
    }
    header_path.write_text(json.dumps(header, sort_keys=True))
    header_path.with_suffix(".raw").write_bytes(
        np.ascontiguousarray(image.values).astype(_DTYPES[dtype]).tobytes()
    )


# ---------------------------------------------------------------------------
# PCA on band spectra
# ---------------------------------------------------------------------------

def pca_reduce(image: MultibandImage, n_components: int) -> MultibandImage:
    """Project mean-centered pixel spectra onto the leading principal axes.

    Component i is the projection onto the i-th unit eigenvector of the band
    covariance matrix (eigenvalues descending).  Each eigenvector's sign is
    fixed so that its largest-magnitude coordinate is positive.  Bands are
    centered but not variance-standardized.

    The eigenvectors come from LAPACK (``numpy.linalg.eigh``), ordered by a
    stable sort of descending eigenvalue.  The output bytes are reproducible
    on one machine; another LAPACK build may round the last bits differently.
    Where eigenvalues tie, the basis of their eigenspace is not unique and
    only the spanned subspace is determined.
    """
    if n_components < 1 or n_components > image.bands:
        raise DataError(
            f"n_components={n_components} outside [1, {image.bands}]"
        )
    npix = image.width * image.height
    if npix < n_components:
        raise DataError("fewer pixels than requested components")
    spectra = image.values.reshape(image.bands, npix).T  # (pixels, bands)
    centered = spectra - spectra.mean(axis=0)
    cov = centered.T @ centered / npix
    w, vecs = np.linalg.eigh(cov)
    vecs = vecs[:, np.argsort(-w, kind="stable")[:n_components]]
    flips = np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])])
    flips[flips == 0] = 1.0
    vecs = vecs * flips
    projected = centered @ vecs  # (pixels, components)
    return MultibandImage(projected.T.reshape(n_components, image.height, image.width))


def rescale_to_levels(
    image: MultibandImage, band: int, levels: int = 256
) -> RasterImage:
    """Affine min-max rescale of one band to integers in [0, levels - 1].

    Rounding is half-up; a constant band maps to all zeros.  The level count
    is checked against :class:`RasterImage`'s range before any arithmetic.
    """
    if levels < 2 or levels > 65536:
        raise DataError("level count must be in [2, 65536]")
    if band < 0 or band >= image.bands:
        raise DataError(f"band {band} outside [0, {image.bands})")
    values = image.band(band)
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        quantized = np.zeros(values.shape, dtype=np.int64)
    else:
        scaled = (values - lo) / (hi - lo) * (levels - 1)
        quantized = np.floor(scaled + 0.5).astype(np.int64)
    return RasterImage(quantized, levels=levels)
