"""Per-node attributes computed incrementally over any tree.

Each node's direct pixels are reduced along their run of
``Tree.attached_pixels``; then three child-to-parent folds
(``Tree.accumulate`` with sum, minimum and maximum over stacked columns)
give every node the pixel count, spatial moment sums, gray-level moment
sums, gray extrema and the bounding box of its full component (direct
pixels plus all descendants).  Gray statistics always refer to the source
image values, so features read from a pruned tree still describe the
original pixels inside each component.

Moments are accumulated in 64-bit integers; ``moment_of_inertia_all`` and
``std_dev_all`` turn them into per-node float vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .hierarchies import Tree
from .imagery import RasterImage


@dataclass
class AttributeTable:
    """Per-node accumulators; arrays are indexed by node id."""

    area: np.ndarray        # int64, pixels
    sum_x: np.ndarray       # int64
    sum_y: np.ndarray
    sum_xx: np.ndarray
    sum_yy: np.ndarray
    gray_sum: np.ndarray
    gray_sum_sq: np.ndarray
    gray_min: np.ndarray
    gray_max: np.ndarray
    bbox: np.ndarray        # int64 (N, 4): xmin, ymin, xmax, ymax

    @property
    def node_count(self) -> int:
        return len(self.area)


def compute_attributes(tree: Tree, image: RasterImage) -> AttributeTable:
    """Accumulate all per-node statistics bottom-up."""
    if (tree.width, tree.height) != (image.width, image.height):
        raise DataError("tree and image dimensions do not match")
    n = tree.node_count
    pix = tree.attached_pixels  # grouped by node, one run per node
    flat = image.values.ravel()[pix]
    xs = pix % tree.width
    ys = pix // tree.width
    # a node without direct pixels has an empty run: it keeps the identity
    held = np.diff(tree.attached_offsets) > 0
    starts = tree.attached_offsets[:-1][held]

    def scatter(ufunc, identity, columns):
        out = np.full((n, len(columns)), identity, dtype=np.int64)
        out[held] = ufunc.reduceat(np.stack(columns, axis=1), starts, axis=0)
        return out

    big = np.iinfo(np.int64).max
    sums = scatter(np.add, 0, [np.ones_like(pix), xs, ys, xs * xs, ys * ys,
                               flat, flat * flat])
    lows = scatter(np.minimum, big, [flat, xs, ys])
    highs = scatter(np.maximum, -big, [flat, xs, ys])

    area, sum_x, sum_y, sum_xx, sum_yy, gray_sum, gray_sum_sq = \
        tree.accumulate(sums, np.add).T
    gray_min, xmin, ymin = tree.accumulate(lows, np.minimum).T
    gray_max, xmax, ymax = tree.accumulate(highs, np.maximum).T
    return AttributeTable(
        area=area, sum_x=sum_x, sum_y=sum_y, sum_xx=sum_xx, sum_yy=sum_yy,
        gray_sum=gray_sum, gray_sum_sq=gray_sum_sq,
        # copies: a column view would keep its whole (N, 3) block alive
        gray_min=gray_min.copy(), gray_max=gray_max.copy(),
        bbox=np.stack([xmin, ymin, xmax, ymax], axis=1),
    )


def moment_of_inertia_all(table: AttributeTable) -> np.ndarray:
    """(mu20 + mu02) / area^2 for every node (float arithmetic)."""
    a = table.area.astype(np.float64)
    num = a * (table.sum_xx + table.sum_yy).astype(np.float64)
    num -= table.sum_x.astype(np.float64) ** 2
    num -= table.sum_y.astype(np.float64) ** 2
    return num / a**3


def std_dev_all(table: AttributeTable) -> np.ndarray:
    """Population standard deviation of each node's source gray values."""
    a = table.area.astype(np.float64)
    mean = table.gray_sum / a
    var = table.gray_sum_sq / a - mean * mean
    return np.sqrt(np.maximum(var, 0.0))


def dump_attributes(tree: Tree, table: AttributeTable) -> str:
    """Plain-text dump, one node per line: ``id area inertia stddev``."""
    inertia = moment_of_inertia_all(table)
    stddev = std_dev_all(table)
    lines = [
        f"{i} {table.area[i]} {inertia[i]:.12g} {stddev[i]:.12g}"
        for i in range(tree.node_count)
    ]
    return "\n".join(lines) + "\n"
