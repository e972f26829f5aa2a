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
tree.  Each node's first pixel in row-major order, bounding box and frame
contact come from one ``tp_attributes`` sweep per side tree, the sweep
behind :func:`~treeprofiles.attributes.compute_attributes`, with each
pixel's own id as its value: the smallest id is the first pixel, and the
padded image's outer rows and columns are all frame, so a node holds a
frame pixel exactly when its box reaches them.  A node without holes is
its own shape, so its area and pixels come from tree-wide passes; the
nodes with holes of each side tree are filled in one native call,
``tp_saturate``, by an 8-connected flood of the background from a
one-pixel frame around each node's bounding box; the flood fills whole
row runs at a time.  The
same shape can arise more than once -- nodes on one root path can share a
saturation -- and duplicates collapse to the highest level on the upper side
and the lowest level on the lower side, which is exactly the per-threshold
enumeration semantics.  Every sort here has small integer keys (node ids,
preorder ranks, doubled levels, areas, box corners) and is the native
stable :func:`~treeprofiles.hierarchies.counting_sort`.
"""

from __future__ import annotations

import numpy as np

from ._native import _kernel
from .attributes import _sweep
from .hierarchies import (
    Connectivity,
    Tree,
    TreeKind,
    _component_tree,
    accumulate,
    counting_sort,
    nearest_marked,
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
    children = counting_sort(tree.parent[1:]) + 1
    before = np.cumsum(size[children]) - size[children]
    first = np.diff(tree.parent[children], prepend=-1) != 0
    group_start = np.maximum.accumulate(np.where(first, np.arange(n - 1), 0))
    step = np.zeros(n, dtype=np.int64)
    step[children] = 1 + before - before[group_start]
    pre = tree.propagate(step, np.add)
    keys = pre[tree.pixel_node]
    pix_order = counting_sort(keys)
    cum = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=n))))
    return pix_order, cum[pre], cum[pre + size]


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


def _mask_bytes(pixels: np.ndarray, width: int) -> bytes:
    """Packed bits of a pixel set's mask on its bounding box."""
    ys, xs = np.divmod(pixels, width)
    y0, x0 = ys.min(), xs.min()
    mask = np.zeros((ys.max() - y0 + 1, xs.max() - x0 + 1), dtype=bool)
    mask[ys - y0, xs - x0] = True
    return np.packbits(mask).tobytes()


def _collect_shapes(tree: Tree):
    """The shapes of one side tree: their pixel runs -- the pixels in
    preorder, then the saturations of the nodes with holes -- and their
    columns (area, level, y0, x0, first pixel, start of the run).

    Saturation is monotone, and two nodes with one saturation are nested (a
    component inside another's hole saturates inside that hole), so the
    nodes sharing a saturation form a chain, each linked to its parent by
    an equal saturated area.  A chain is one shape, visited at its top and
    levelled at its bottom: the highest level on the upper side, the lowest
    on the lower.  A hole-free node is its own saturation, so it can only
    top a chain.  An upper and a lower shape never coincide -- the outer
    neighbours of one lie below its level, of the other above -- so the two
    side trees need no matching."""
    n_pix = tree.width * tree.height
    pix_order, lo, hi = _subtree_pixel_slices(tree)
    block = _sweep(tree, np.arange(n_pix, dtype=np.int64))
    first, box = block[:, 7], block[:, [9, 8, 11, 10]]
    # the padded image's outer rows and columns are all frame
    inside = (box[:, :2] > 0).all(axis=1) & \
        (box[:, 2] < tree.height - 1) & (box[:, 3] < tree.width - 1)
    holed = np.flatnonzero(inside & (_hole_counts(tree) > 0))
    cells = np.prod(box[holed, 2:] - box[holed, :2] + 1, axis=1).sum()
    sat = np.empty(int(cells), dtype=np.int64)
    offsets = np.empty(len(holed) + 1, dtype=np.int64)
    if _kernel().tp_saturate(pix_order, n_pix, lo[holed], hi[holed],
                             box[holed], len(holed), tree.width, tree.height,
                             sat, len(sat), offsets):
        raise IndexError("tp_saturate: an index is out of range")
    area, start = hi - lo, lo.copy()
    area[holed] = np.diff(offsets)
    start[holed] = n_pix + offsets[:-1]

    parent = tree.parent
    joins = inside & inside[parent] & (area == area[parent])
    top = nearest_marked(tree, ~joins)
    has_joining_child = np.zeros(tree.node_count, dtype=bool)
    has_joining_child[parent[joins]] = True
    bottom = np.flatnonzero(inside & ~has_joining_child)
    level2 = tree.level.astype(np.int64)
    level2[top[bottom]] = level2[bottom]
    tops = np.flatnonzero(inside & ~joins)
    columns = np.stack([area[tops], level2[tops], box[tops, 0], box[tops, 1],
                        first[tops], start[tops]])
    return np.concatenate([pix_order, sat[:offsets[-1]]]), columns


def build_tree_of_shapes(image: RasterImage) -> Tree:
    """Inclusion tree of the image's shapes; root covers the whole domain."""
    h, w = image.height, image.width
    frame2 = _border_median_doubled(image.values)
    padded = np.full((h + 2, w + 2), frame2, dtype=np.int64)
    padded[1:-1, 1:-1] = 2 * image.values
    ph, pw = h + 2, w + 2
    flat = padded.ravel()

    blocks, runs, offset = [], [], 0
    for kind in (TreeKind.MAX_TREE, TreeKind.MIN_TREE):
        side_tree = _component_tree(flat, pw, ph, 2, Connectivity.C4, kind)
        pixels, columns = _collect_shapes(side_tree)
        columns[5] += offset
        blocks.append(columns)
        runs.append(pixels)
        offset += len(pixels)
    area, level2, y0, x0, first, start = np.concatenate(blocks, axis=1)
    pixels = np.concatenate(runs)

    # order: largest first so painting leaves each pixel in its smallest
    # shape; ties on (area, level, corner) fall back to the mask bytes, then
    # to the visiting order (the upper side first, each side's tops in node
    # order), which the LSD passes of a stable sort keep
    order = counting_sort(y0 * pw + x0)
    order = counting_sort(level2, order)
    order = counting_sort(area, order, descending=True)
    ranked = np.stack([area, level2, y0, x0])[:, order]
    starts = np.flatnonzero(np.concatenate(
        ([True], np.any(ranked[:, 1:] != ranked[:, :-1], axis=0))))
    sizes = np.diff(np.append(starts, len(order)))
    for s, size in zip(starts[sizes > 1].tolist(), sizes[sizes > 1].tolist()):
        order[s:s + size] = sorted(
            order[s:s + size],
            key=lambda i: _mask_bytes(pixels[start[i]:start[i] + area[i]],
                                      pw))

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
    )
