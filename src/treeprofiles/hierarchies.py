"""Unified tree container plus max-tree / min-tree construction.

Every hierarchy in the package (component trees, tree of shapes, alpha and
omega trees) is stored as the same parent-array structure:

* node 0 is the root and ``parent[i] < i`` for every other node, so
  ascending node order is already a root-first topological order;
* ``level[i]`` is the node's characteristic value: a gray level for
  component and inclusion trees, a dissimilarity for partition trees;
* ``pixel_node[p]`` maps each pixel to the smallest node containing it, and
  the CSR pair (``attached_pixels``, ``attached_offsets``) lists each node's
  directly attached pixels;
* ``rep_value[i]`` is the gray value a pixel falls back to when the tree is
  pruned down to node i (the level for component/inclusion trees, the
  rounded component mean for partition trees).

Every per-node pass goes through two kernels, after Higra's
``accumulate_sequential`` / ``propagate_sequential``: ``accumulate`` folds
values child to parent (areas, moments, extrema, flags) and ``propagate``
parent to child (pruning, nearest retained ancestor, preorder ranks).  Both
run one numpy call per depth layer, so their cost grows with tree depth.
The layers come from pointer doubling and are cached on each ``Tree``;
builders that have only a parent array pass them in explicitly.

Component trees are built with union-find over pixels sorted by gray value
(path compression plus a canonicalization pass), which keeps construction
near-linear per sorted bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DataError
from .imagery import RasterImage


class Connectivity(str, Enum):
    C4 = "c4"
    C8 = "c8"

    @property
    def offsets(self) -> tuple[tuple[int, int], ...]:
        if self is Connectivity.C4:
            return ((0, 1), (1, 0), (0, -1), (-1, 0))
        return (
            (0, 1), (1, 0), (0, -1), (-1, 0),
            (1, 1), (1, -1), (-1, 1), (-1, -1),
        )


def as_connectivity(value) -> Connectivity:
    if isinstance(value, Connectivity):
        return value
    return Connectivity(str(value).lower())


class TreeKind(str, Enum):
    MAX_TREE = "max"
    MIN_TREE = "min"
    TREE_OF_SHAPES = "tos"
    ALPHA_TREE = "alpha"
    OMEGA_TREE = "omega"


def depth_layers(parent: np.ndarray) -> list[np.ndarray]:
    """Non-root node ids of a root-first parent array grouped by depth,
    shallowest layer first, each layer in ascending id order.

    Depths come from pointer doubling: every round adds the depth gained by
    each node's current ancestor and jumps to that ancestor's ancestor.
    """
    parent = np.asarray(parent, dtype=np.int64)
    depth = (parent != np.arange(len(parent))).astype(np.int64)
    up = parent
    while np.any(up != 0):
        depth += depth[up]
        up = up[up]
    order = np.argsort(depth, kind="stable")
    bounds = np.cumsum(np.bincount(depth))
    return np.split(order, bounds[:-1])[1:]


def accumulate(parent: np.ndarray, layers: list[np.ndarray],
               values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """Fold ``values`` (shape (N,) or (N, k)) from children into parents,
    deepest layer first: afterwards each node holds ``ufunc`` over its whole
    subtree.  Returns a new array."""
    out = np.array(values, copy=True)
    for layer in reversed(layers):
        ufunc.at(out, parent[layer], out[layer])
    return out


def propagate(parent: np.ndarray, layers: list[np.ndarray],
              values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """Fold ``values`` from parents into children, shallowest layer first:
    afterwards each node holds ``ufunc`` over its root path, root first.
    Returns a new array."""
    out = np.array(values, copy=True)
    for layer in layers:
        out[layer] = ufunc(out[parent[layer]], out[layer])
    return out


@dataclass
class Tree:
    """Single-rooted hierarchy over the pixels of one image."""

    kind: TreeKind
    width: int
    height: int
    levels: int                  # gray-level count of the source image
    parent: np.ndarray           # (N,) int32, parent[0] == 0
    level: np.ndarray            # (N,) float64
    pixel_node: np.ndarray       # (H*W,) int32
    rep_value: np.ndarray        # (N,) int64
    attached_pixels: np.ndarray = field(repr=False, default=None)
    attached_offsets: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if self.attached_pixels is None:
            order = np.argsort(self.pixel_node, kind="stable")
            counts = np.bincount(self.pixel_node, minlength=self.node_count)
            self.attached_pixels = order.astype(np.int64)
            self.attached_offsets = np.concatenate(
                ([0], np.cumsum(counts))
            ).astype(np.int64)
        for name in ("parent", "level", "pixel_node", "rep_value",
                     "attached_pixels", "attached_offsets"):
            getattr(self, name).setflags(write=False)

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def direct_pixels(self, node: int) -> np.ndarray:
        """Flat indices of pixels attached directly to this node."""
        lo, hi = self.attached_offsets[node], self.attached_offsets[node + 1]
        return self.attached_pixels[lo:hi]

    @cached_property
    def layers(self) -> list[np.ndarray]:
        """Non-root node ids grouped by depth, shallowest layer first."""
        return depth_layers(self.parent)

    def accumulate(self, values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
        """Child-to-parent fold; see the module-level ``accumulate``."""
        return accumulate(self.parent, self.layers, values, ufunc)

    def propagate(self, values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
        """Parent-to-child fold; see the module-level ``propagate``."""
        return propagate(self.parent, self.layers, values, ufunc)

    def validate(self) -> None:
        """Cheap structural sanity checks; raises DataError on violation."""
        n = self.node_count
        if self.parent[0] != 0 or np.any(self.parent[1:] >= np.arange(1, n)):
            raise DataError("parent array is not root-first topological")
        if np.count_nonzero(self.parent == np.arange(n)) != 1:
            raise DataError("tree must have exactly one root")
        if self.pixel_node.min() < 0 or self.pixel_node.max() >= n:
            raise DataError("pixel_node out of range")
        child_level = self.level[1:]
        parent_level = self.level[self.parent[1:]]
        if self.kind is TreeKind.MAX_TREE:
            ok = np.all(child_level > parent_level)
        elif self.kind in (TreeKind.MIN_TREE, TreeKind.ALPHA_TREE,
                           TreeKind.OMEGA_TREE):
            ok = np.all(child_level < parent_level)
        else:
            ok = True  # inclusion tree levels may repeat along a branch
        if n > 1 and not ok:
            raise DataError(f"level ordering violated for {self.kind.value} tree")


# ---------------------------------------------------------------------------
# Component tree construction (union-find on sorted pixels)
# ---------------------------------------------------------------------------

def _sorted_pixel_order(values: np.ndarray, brightest_first: bool) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    return order[::-1] if brightest_first else order


def _component_tree_arrays(
    values_flat, width: int, height: int,
    connectivity: Connectivity, brightest_first: bool,
):
    """Berger-style union-find pass. Returns (pixel_parent, processing order)."""
    n = width * height
    order = _sorted_pixel_order(values_flat, brightest_first)
    parent = [-1] * n
    zpar = [-1] * n
    offsets = connectivity.offsets

    def find(p: int) -> int:
        root = p
        while zpar[root] != root:
            root = zpar[root]
        while zpar[p] != root:  # path compression
            zpar[p], p = root, zpar[p]
        return root

    for p in order.tolist():
        parent[p] = p
        zpar[p] = p
        x, y = p % width, p // width
        for dy, dx in offsets:
            nx, ny = x + dx, y + dy
            if nx < 0 or ny < 0 or nx >= width or ny >= height:
                continue
            q = ny * width + nx
            if zpar[q] < 0:
                continue
            r = find(q)
            if r != p:
                parent[r] = p
                zpar[r] = p
    # canonicalization: walk root-side first so ancestors are already flat
    vals = values_flat.tolist() if isinstance(values_flat, np.ndarray) else values_flat
    for p in order[::-1].tolist():
        q = parent[p]
        if vals[parent[q]] == vals[q]:
            parent[p] = parent[q]
    return parent, order


def _tree_from_pixel_parents(
    values_flat: np.ndarray, parent: list[int], order: np.ndarray,
    width: int, height: int, levels: int, kind: TreeKind,
) -> Tree:
    n = width * height
    vals = values_flat.tolist()
    node_of = [-1] * n
    canonical: list[int] = []
    for p in order[::-1].tolist():  # root first
        if parent[p] == p or vals[parent[p]] != vals[p]:
            node_of[p] = len(canonical)
            canonical.append(p)
        else:
            node_of[p] = node_of[parent[p]]
    node_parent = np.empty(len(canonical), dtype=np.int32)
    node_level = np.empty(len(canonical), dtype=np.float64)
    for i, c in enumerate(canonical):
        node_parent[i] = node_of[parent[c]]
        node_level[i] = vals[c]
    pixel_node = np.array(node_of, dtype=np.int32)
    return Tree(
        kind=kind, width=width, height=height, levels=levels,
        parent=node_parent, level=node_level, pixel_node=pixel_node,
        rep_value=node_level.astype(np.int64),
    )


def _component_tree(
    values_flat: np.ndarray, width: int, height: int, levels: int,
    connectivity: Connectivity | str, kind: TreeKind,
) -> Tree:
    parent, order = _component_tree_arrays(
        values_flat, width, height, as_connectivity(connectivity),
        brightest_first=kind is TreeKind.MAX_TREE,
    )
    return _tree_from_pixel_parents(
        values_flat, parent, order, width, height, levels, kind
    )


def build_max_tree(
    image: RasterImage, connectivity: Connectivity | str = Connectivity.C4
) -> Tree:
    """Hierarchy of connected components of the upper level sets of the image."""
    return _component_tree(image.values.ravel(), image.width, image.height,
                           image.levels, connectivity, TreeKind.MAX_TREE)


def build_min_tree(
    image: RasterImage, connectivity: Connectivity | str = Connectivity.C4
) -> Tree:
    """Hierarchy of connected components of the lower level sets of the image.

    Structurally equal to the max-tree of the level-complemented image with
    levels mapped back to the original scale.
    """
    return _component_tree(image.values.ravel(), image.width, image.height,
                           image.levels, connectivity, TreeKind.MIN_TREE)


def nearest_marked(tree: Tree, mask: np.ndarray) -> np.ndarray:
    """For each node, itself if marked, else its nearest marked ancestor.

    Ids grow along every root-to-leaf path, so that node is the largest
    marked id on the node's root path.  The root must be marked.
    """
    if not mask[0]:
        raise DataError("the root must be retained")
    ids = np.arange(tree.node_count)
    return tree.propagate(np.where(mask, ids, 0), np.maximum)


def smallest_node(tree: Tree, pixel: tuple[int, int]) -> int:
    """Id of the smallest (canonical) node containing the pixel (x, y)."""
    x, y = pixel
    if x < 0 or y < 0 or x >= tree.width or y >= tree.height:
        raise DataError(f"pixel {pixel} outside {tree.width}x{tree.height} image")
    return int(tree.pixel_node[y * tree.width + x])


def node_areas(tree: Tree) -> np.ndarray:
    """Pixel count per node (direct pixels plus all descendants)."""
    counts = np.bincount(tree.pixel_node, minlength=tree.node_count)
    return tree.accumulate(counts.astype(np.int64), np.add)


def _format_level(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def dump_tree(tree: Tree) -> str:
    """Plain-text dump, one node per line: ``id parent level area``."""
    areas = node_areas(tree)
    lines = [
        f"{i} {tree.parent[i]} {_format_level(tree.level[i])} {areas[i]}"
        for i in range(tree.node_count)
    ]
    return "\n".join(lines) + "\n"
