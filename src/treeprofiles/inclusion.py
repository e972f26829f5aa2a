"""Tree of shapes (inclusion tree) construction.

A shape is the saturation -- hole filling relative to the image border -- of
a connected component of an upper or lower level set.  Level-set components
use 4-adjacency, hole filling uses 8-adjacency for the background, the
Jordan-consistent pairing that avoids the connectivity paradox.

The image is conceptually surrounded by a one-pixel frame whose value is the
median of the border pixels.  Because the border pixel count is almost
always even, the median is taken at half-integer resolution (all levels are
doubled internally, the frame gets the sum of the two middle border values);
this makes the construction commute exactly with gray-level complementation.
The root is the shape containing the frame and may therefore sit at a
half-integer level.

Construction: every upper-set component is a max-tree node of the padded
image and every lower-set component a min-tree node, so both component trees
are built once and each node's component is saturated individually.  The
same pixel set can arise more than once; duplicates collapse to the highest
level on the upper side and the lowest level on the lower side, which is
exactly the per-threshold enumeration semantics.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .hierarchies import (
    Connectivity,
    Tree,
    TreeKind,
    _component_tree,
    accumulate,
    depth_layers,
)
from .imagery import RasterImage

_FILL_STRUCTURE = np.ones((3, 3), dtype=bool)


def _border_median_doubled(values: np.ndarray) -> int:
    """Sum of the two middle border values (= 2x the border median)."""
    h, w = values.shape
    if h == 1 or w == 1:
        border = values.ravel()
    else:
        border = np.concatenate(
            [values[0, :], values[-1, :], values[1:-1, 0], values[1:-1, -1]]
        )
    border = np.sort(border)
    n = len(border)
    return int(border[(n - 1) // 2]) + int(border[n // 2])


def _subtree_pixel_slices(tree: Tree):
    """Per-node component pixels as one shared array plus (lo, hi) bounds.

    Pixels are ordered by the preorder rank of their attaching node
    (children visited in ascending id order), so each node's full component
    is a contiguous slice.
    """
    n = tree.node_count
    size = tree.accumulate(np.ones(n, dtype=np.int64), np.add)
    # a child's rank is its parent's rank + 1 + the sizes of its lower-id
    # siblings; children sorted by parent are grouped, ascending within
    children = np.argsort(tree.parent[1:], kind="stable") + 1
    before = np.cumsum(size[children]) - size[children]
    first = np.diff(tree.parent[children], prepend=-1) != 0
    group_start = np.maximum.accumulate(np.where(first, np.arange(n - 1), 0))
    step = np.zeros(n, dtype=np.int64)
    step[children] = 1 + before - before[group_start]
    pre = tree.propagate(step, np.add)
    keys = pre[tree.pixel_node]
    pix_order = np.argsort(keys, kind="stable")
    cum = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n))))
    return pix_order, cum[pre], cum[pre + size]


def _frame_containing(tree: Tree, frame_idx: np.ndarray) -> np.ndarray:
    """Boolean mask of nodes whose component includes a frame pixel."""
    flags = np.zeros(tree.node_count, dtype=bool)
    flags[tree.pixel_node[frame_idx]] = True
    return tree.accumulate(flags, np.logical_or)


def _collect_shapes(tree: Tree, frame_idx: np.ndarray, upper: bool, registry: dict):
    pw = tree.width
    pix_order, lo, hi = _subtree_pixel_slices(tree)
    skip = _frame_containing(tree, frame_idx)
    level = tree.level
    for node in range(tree.node_count):
        if skip[node]:
            continue
        pixels = pix_order[lo[node]:hi[node]]
        ys = pixels // pw
        xs = pixels % pw
        y0, y1 = int(ys.min()), int(ys.max())
        x0, x1 = int(xs.min()), int(xs.max())
        mask = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
        mask[ys - y0, xs - x0] = True
        sat = ndimage.binary_fill_holes(mask, structure=_FILL_STRUCTURE)
        key = (y0, x0, sat.shape, np.packbits(sat).tobytes())
        lvl = int(level[node])
        entry = registry.get(key)
        if entry is None:
            registry[key] = [lvl if upper else None, None if upper else lvl, sat]
        elif upper:
            entry[0] = lvl if entry[0] is None else max(entry[0], lvl)
        else:
            entry[1] = lvl if entry[1] is None else min(entry[1], lvl)


def build_tree_of_shapes(image: RasterImage) -> Tree:
    """Inclusion tree of the image's shapes; root covers the whole domain."""
    h, w = image.height, image.width
    frame2 = _border_median_doubled(image.values)
    padded = np.full((h + 2, w + 2), frame2, dtype=np.int64)
    padded[1:-1, 1:-1] = 2 * image.values
    ph, pw = h + 2, w + 2
    flat = padded.ravel()

    frame_mask = np.zeros((ph, pw), dtype=bool)
    frame_mask[0, :] = frame_mask[-1, :] = True
    frame_mask[:, 0] = frame_mask[:, -1] = True
    frame_idx = np.flatnonzero(frame_mask.ravel())

    registry: dict = {}
    for kind in (TreeKind.MAX_TREE, TreeKind.MIN_TREE):
        side_tree = _component_tree(flat, pw, ph, 2, Connectivity.C4, kind)
        _collect_shapes(side_tree, frame_idx, kind is TreeKind.MAX_TREE,
                        registry)

    # order: largest first so painting leaves each pixel in its smallest shape
    entries = []
    for (y0, x0, shape, packed), (up_lvl, low_lvl, sat) in registry.items():
        level2 = up_lvl if up_lvl is not None else low_lvl
        entries.append((int(sat.sum()), level2, y0, x0, packed, sat))
    entries.sort(key=lambda e: (-e[0], e[1], e[2], e[3], e[4]))

    n_shapes = len(entries) + 1
    label = np.zeros((h, w), dtype=np.int32)  # 0 = root
    node_parent = np.zeros(n_shapes, dtype=np.int32)
    node_level2 = np.empty(n_shapes, dtype=np.int64)
    node_level2[0] = frame2
    for sid, (_, level2, y0, x0, _, sat) in enumerate(entries, start=1):
        ys, xs = np.nonzero(sat)
        gy = ys + (y0 - 1)  # padded -> original coordinates
        gx = xs + (x0 - 1)
        node_parent[sid] = label[gy[0], gx[0]]
        label[gy, gx] = sid
        node_level2[sid] = level2

    # Same-level upper and lower shapes can partially overlap through pixels
    # valued exactly at that level (the price of the polarity-symmetric
    # adjacency that keeps self-duality exact).  A node whose every pixel
    # was claimed by such crossing shapes would carry an empty component;
    # drop it so attribute accumulation stays well-defined.  Parents of
    # surviving nodes always survive (their subtrees are supersets).
    subtree = accumulate(node_parent, depth_layers(node_parent),
                         np.bincount(label.ravel(), minlength=n_shapes),
                         np.add)
    if not subtree.all():
        alive = subtree > 0
        new_id = np.cumsum(alive) - 1
        node_parent = new_id[node_parent[alive]].astype(np.int32)
        node_level2 = node_level2[alive]
        label = new_id[label].astype(np.int32)

    return Tree(
        kind=TreeKind.TREE_OF_SHAPES,
        width=w,
        height=h,
        levels=image.levels,
        parent=node_parent,
        level=node_level2.astype(np.float64) / 2.0,
        pixel_node=label.ravel(),
        rep_value=(node_level2 + 1) // 2,
    )
