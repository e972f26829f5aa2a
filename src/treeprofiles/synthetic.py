"""Synthetic classification scenes for demos and end-to-end checks.

The generated scene has three classes that share overlapping gray ranges and
differ mainly in region size and local variance, so single-pixel gray values
are a weak predictor while size- and texture-aware descriptors are strong:

* class 1: many small bright squares (tiny area, near-zero deviation),
* class 2: a few large smooth elliptical blobs (huge area, near-zero
  deviation),
* class 3: background of independent per-pixel noise (high local variance).

All randomness flows from the xorshift64* generator, so a seed pins the
scene bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .imagery import LabelMap, RasterImage
from .rng import Xorshift64Star, derive_seed

SQUARE_CLASS = 1
BLOB_CLASS = 2
BACKGROUND_CLASS = 3


def synthetic_scene(
    width: int = 128, height: int = 128, seed: int = 42, levels: int = 256
) -> tuple[RasterImage, LabelMap]:
    """Generate the three-class size/texture scene and its full label map."""
    rng = Xorshift64Star(derive_seed(seed, 0))
    values = np.fromiter(
        (rng.below(levels) for _ in range(width * height)),
        dtype=np.int64, count=width * height,
    ).reshape(height, width)
    labels = np.full((height, width), BACKGROUND_CLASS, dtype=np.int64)

    yy, xx = np.mgrid[0:height, 0:width]
    wobble = max(1, levels // 32)  # tiny in-region texture
    base_lo = levels // 4
    base_span = max(1, levels // 2)

    def flat_patch(mask, base):
        n = int(np.count_nonzero(mask))
        noise = np.fromiter(
            (rng.below(2 * wobble + 1) - wobble for _ in range(n)),
            dtype=np.int64, count=n,
        )
        values[mask] = np.clip(base + noise, 0, levels - 1)

    # large smooth blobs, roughly a third of the scene
    n_blobs = max(1, (width * height) // 2000)
    for _ in range(n_blobs):
        cx = rng.below(width)
        cy = rng.below(height)
        rx = max(4, width // 12 + rng.below(max(1, width // 10)))
        ry = max(4, height // 12 + rng.below(max(1, height // 10)))
        base = base_lo + rng.below(base_span)
        mask = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
        flat_patch(mask, base)
        labels[mask] = BLOB_CLASS

    # small bright-leaning squares sprinkled over remaining background
    n_squares = max(1, (width * height) // 260)
    placed = 0
    attempts = 0
    while placed < n_squares and attempts < n_squares * 30:
        attempts += 1
        side = 3 + rng.below(3)
        x0 = rng.below(max(1, width - side))
        y0 = rng.below(max(1, height - side))
        region = labels[y0:y0 + side, x0:x0 + side]
        if np.any(region != BACKGROUND_CLASS):
            continue
        base = levels * 3 // 8 + rng.below(base_span)
        mask = np.zeros_like(labels, dtype=bool)
        mask[y0:y0 + side, x0:x0 + side] = True
        flat_patch(mask, base)
        region[:] = SQUARE_CLASS
        placed += 1

    return RasterImage(values, levels=levels), LabelMap(labels)


def split_labels(
    labels: LabelMap, train_fraction: float, seed: int
) -> tuple[LabelMap, LabelMap]:
    """Random disjoint train/test label maps drawn from the labeled pixels."""
    if not 0.0 < train_fraction < 1.0:
        raise DataError("train_fraction must be in (0, 1)")
    flat = labels.labels.ravel()
    labeled = np.flatnonzero(flat)
    if len(labeled) == 0:
        raise DataError("split_labels needs at least one labeled pixel")
    n_train = max(1, int(round(len(labeled) * train_fraction)))
    rng = Xorshift64Star(derive_seed(seed, 1))
    train_idx = labeled[rng.sample_without_replacement(len(labeled), n_train)]
    train = np.zeros_like(flat)
    test = flat.copy()
    train[train_idx] = flat[train_idx]
    test[train_idx] = 0
    shape = labels.labels.shape
    return LabelMap(train.reshape(shape)), LabelMap(test.reshape(shape))
