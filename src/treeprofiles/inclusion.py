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
are built once, by the native Kruskal union-find of
:func:`~treeprofiles.hierarchies.kruskal`.  Each node's holes are counted,
not filled: a 4-connected set with 8-connected background has Euler number
pixels - 4-adjacent pairs + full 2x2 blocks = 1 - holes (Gray's bit-quad
counting), and each pair and block is tallied at one node and summed up the
tree.  A node without holes is its own shape, so its area, corner and pixels
come from tree-wide passes; only nodes with holes are filled, one by one on
their bounding box, by the native kernel's 8-connected flood of the
background from a one-pixel frame around the box.  The same shape can arise
more than once -- a filled node can equal a hole-free node or another filled
node -- and duplicates collapse to the highest level on the upper side and
the lowest level on the lower side, which is exactly the per-threshold
enumeration semantics.
"""

from __future__ import annotations

import numpy as np

from ._native import _kernel
from .hierarchies import (
    Connectivity,
    Tree,
    TreeKind,
    _component_tree,
    accumulate,
)
from .imagery import RasterImage


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


def _hole_counts(tree: Tree) -> np.ndarray:
    """Holes (bounded 8-connected background regions) of each node's
    component, for a max- or min-tree.

    A 4-connected set has Euler number V - E + F = 1 - holes, with V its
    pixels, E its 4-adjacent pixel pairs and F its full 2x2 blocks.  The
    most ancestral pixel node of a pair or block -- the smallest id -- holds
    all of its pixels, so the pair or block lies in a node's component
    exactly when that pixel node is in the node's subtree: each is tallied
    there and summed up the tree.
    """
    n = tree.node_count
    nodes = tree.pixel_node.reshape(tree.height, tree.width)
    pairs_x = np.minimum(nodes[:, :-1], nodes[:, 1:])
    pairs_y = np.minimum(nodes[:-1], nodes[1:])
    blocks = np.minimum(pairs_x[:-1], pairs_x[1:])

    def tally(ids):
        return np.bincount(ids.ravel(), minlength=n)

    euler = tally(nodes) - tally(pairs_x) - tally(pairs_y) + tally(blocks)
    return 1 - tree.accumulate(euler, np.add)


def _corners(tree: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Per node: its component's first pixel in row-major order and its
    smallest column."""
    # every component-tree node has pixels of its own, ascending per node
    pixels = tree.attached_pixels
    starts = tree.attached_offsets[:-1]
    direct = np.stack([pixels[starts],
                       np.minimum.reduceat(pixels % tree.width, starts)],
                      axis=1)
    first, x0 = tree.accumulate(direct, np.minimum).T
    return first, x0


def _bbox_mask(pixels: np.ndarray, width: int):
    """Top-left corner and bounding-box mask of a set of flat pixel ids."""
    ys, xs = np.divmod(pixels, width)
    y0, x0 = int(ys.min()), int(xs.min())
    mask = np.zeros((int(ys.max()) - y0 + 1, int(xs.max()) - x0 + 1),
                    dtype=bool)
    mask[ys - y0, xs - x0] = True
    return y0, x0, mask


def _fill_holes(mask: np.ndarray) -> np.ndarray:
    """The mask plus its holes: background not 8-connected to the outside.

    The native kernel's ``tp_fill_holes`` floods the background framed by a
    one-pixel border from that frame; what it does not reach is filled.
    """
    filled = np.empty_like(mask)
    if _kernel().tp_fill_holes(mask, *mask.shape, filled):
        raise MemoryError("tp_fill_holes: out of memory")
    return filled


def _shape_key(y0: int, x0: int, mask: np.ndarray) -> tuple:
    return (y0, x0, mask.shape, np.packbits(mask).tobytes())


def _register(registry: dict, key: tuple, pixels, level2: int, upper: bool,
              seen: int) -> None:
    """Record one node's saturation: [upper level, lower level, first visit,
    pixels], the upper level the highest and the lower level the lowest."""
    entry = registry.setdefault(key, [None, None, seen, pixels])
    side, pick = (0, max) if upper else (1, min)
    entry[side] = level2 if entry[side] is None else pick(entry[side], level2)
    entry[2] = min(entry[2], seen)


def _collect_shapes(tree: Tree, frame_idx: np.ndarray, side: int,
                    registry: dict):
    """Register the saturations of the tree's nodes that have holes, fold
    hole-free nodes equal to one of them into it, and return the pixels in
    preorder plus the other hole-free nodes as shape columns (area, level,
    y0, x0, visit, first pixel, start of the node's run of those pixels:
    a hole-free shape is its side-tree node's component)."""
    pw = tree.width
    n_pix = tree.width * tree.height
    upper = side == 0
    pix_order, lo, hi = _subtree_pixel_slices(tree)
    area = hi - lo
    first, x0 = _corners(tree)
    level2 = tree.level.astype(np.int64)
    seen = side * n_pix + np.arange(tree.node_count)  # visiting order
    inside = ~_frame_containing(tree, frame_idx)
    holed = inside & (_hole_counts(tree) > 0)

    for node in np.flatnonzero(holed).tolist():
        y, x, mask = _bbox_mask(pix_order[lo[node]:hi[node]], pw)
        sat = _fill_holes(mask)
        ys, xs = np.nonzero(sat)
        _register(registry, _shape_key(y, x, sat), (ys + y) * pw + (xs + x),
                  int(level2[node]), upper, int(seen[node]))

    # a hole-free component can only equal a saturation with its area and
    # first pixel; compare masks for those few
    hole_free = np.flatnonzero(inside & ~holed)
    probes = [len(e[3]) * n_pix + int(e[3][0]) for e in registry.values()]
    keep = np.ones(len(hole_free), dtype=bool)
    hits = np.isin(area[hole_free] * n_pix + first[hole_free], probes)
    for i in np.flatnonzero(hits).tolist():
        node = hole_free[i]
        key = _shape_key(*_bbox_mask(pix_order[lo[node]:hi[node]], pw))
        if key in registry:
            _register(registry, key, None, int(level2[node]), upper,
                      int(seen[node]))
            keep[i] = False
    nodes = hole_free[keep]
    columns = np.stack([area[nodes], level2[nodes], first[nodes] // pw,
                        x0[nodes], seen[nodes], first[nodes], lo[nodes]])
    return pix_order, columns


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
    blocks, runs, offset = [], [], 0
    for side, kind in enumerate((TreeKind.MAX_TREE, TreeKind.MIN_TREE)):
        side_tree = _component_tree(flat, pw, ph, 2, Connectivity.C4, kind)
        pix_order, columns = _collect_shapes(side_tree, frame_idx, side,
                                             registry)
        columns[6] += offset
        blocks.append(columns)
        runs.append(pix_order)
        offset += len(pix_order)
    rows = []
    for (y, x, _, _), (up, low, seen, px) in registry.items():
        rows.append((len(px), up if up is not None else low, y, x, seen,
                     int(px[0]), offset))
        runs.append(px)
        offset += len(px)
    blocks.append(np.array(rows, dtype=np.int64).reshape(-1, 7).T)
    area, level2, y0, x0, seen, first, start = np.concatenate(blocks, axis=1)
    pixels = np.concatenate(runs)

    # order: largest first so painting leaves each pixel in its smallest
    # shape; ties on (area, level, corner) fall back to the mask bytes, then
    # to the visiting order
    order = np.lexsort((seen, x0, y0, level2, -area))
    ranked = np.stack([area, level2, y0, x0])[:, order]
    starts = np.flatnonzero(np.concatenate(
        ([True], np.any(ranked[:, 1:] != ranked[:, :-1], axis=0))))
    sizes = np.diff(np.append(starts, len(order)))
    for s, size in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
        order[s:s + size] = sorted(
            order[s:s + size],
            key=lambda i: _shape_key(*_bbox_mask(
                pixels[start[i]:start[i] + area[i]], pw))[3])

    label = np.zeros(ph * pw, dtype=np.int32)  # 0 = root
    node_parent = np.empty(len(order) + 1, dtype=np.int32)
    if _kernel().tp_paint_shapes(pixels, len(pixels), start[order],
                                 start[order] + area[order], first[order],
                                 len(order), label, len(label), node_parent):
        raise IndexError("tp_paint_shapes: a shape pixel is out of range")
    node_level2 = np.concatenate(([frame2], level2[order])).astype(np.int64)
    label = label.reshape(ph, pw)[1:-1, 1:-1]

    # Same-level upper and lower shapes can partially overlap through pixels
    # valued exactly at that level (the price of the polarity-symmetric
    # adjacency that keeps self-duality exact).  A node whose every pixel
    # was claimed by such crossing shapes would carry an empty component;
    # drop it so attribute accumulation stays well-defined.  Parents of
    # surviving nodes always survive (their subtrees are supersets).
    subtree = accumulate(node_parent, np.bincount(
        label.ravel(), minlength=len(node_parent)), np.add)
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
