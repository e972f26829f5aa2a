"""Per-node attributes computed incrementally over any tree.

One native sweep per tree (``tp_attributes``) adds each pixel into the row
of its node in ``Tree.pixel_node``, then folds every node into its parent,
highest id first: each node gets the pixel count, spatial moment sums,
gray-level moment sums, gray extrema and the bounding box of its full
component (direct pixels plus all descendants).  Gray statistics always
refer to the source image values, so features read from a pruned tree
still describe the original pixels inside each component.

Moments are accumulated in 64-bit integers, wrapping as numpy's int64 does;
integer sums, minima and maxima are exact in any order, so the table is the
one per-pixel ``ufunc.at`` scatters and three ``accumulate`` folds give, to
the byte.  ``moment_of_inertia_all`` and ``std_dev_all`` turn the table
into per-node float vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._native import _kernel
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


def _sweep(tree: Tree, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One ``tp_attributes`` sweep of an int64 value per pixel: a (9, N)
    block of rows -- area, sums of x, y, x*x, y*y, v, v*v, then the minimum
    and the maximum of v -- and the (N, 4) bounding boxes (xmin, ymin, xmax,
    ymax).  The values need not be gray levels: the tree of shapes sweeps
    pixel ids, whose minimum is a node's first pixel in row-major order."""
    n = tree.node_count
    if len(tree.pixel_node) != len(values):
        raise DataError("tree's pixel map does not match the image")
    rows = np.empty((9, n), dtype=np.int64)
    bbox = np.empty((n, 4), dtype=np.int64)
    if _kernel().tp_attributes(
            np.ascontiguousarray(tree.parent, dtype=np.int64), n,
            np.ascontiguousarray(tree.pixel_node, dtype=np.int32), values,
            len(values), tree.width, rows, bbox):
        raise DataError("tree is not root-first or a pixel's node is out "
                        "of range")
    return rows, bbox


def compute_attributes(tree: Tree, image: RasterImage) -> AttributeTable:
    """Accumulate all per-node statistics bottom-up."""
    if (tree.width, tree.height) != (image.width, image.height):
        raise DataError("tree and image dimensions do not match")
    rows, bbox = _sweep(tree, np.ascontiguousarray(image.values.ravel(),
                                                   dtype=np.int64))
    (area, sum_x, sum_y, sum_xx, sum_yy, gray_sum, gray_sum_sq,
     gray_min, gray_max) = rows
    return AttributeTable(
        area=area, sum_x=sum_x, sum_y=sum_y, sum_xx=sum_xx, sum_yy=sum_yy,
        gray_sum=gray_sum, gray_sum_sq=gray_sum_sq, gray_min=gray_min,
        gray_max=gray_max, bbox=bbox,
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
