"""Unified tree container plus the Kruskal builder of max-, min- and
alpha-trees.

Every hierarchy in the package (component trees, tree of shapes, alpha and
omega trees) is stored as the same three arrays, which hold its structure
only:

* node 0 is the root and ``parent[i] < i`` for every other node, so
  ascending node order is already a root-first topological order;
* ``level[i]`` is the node's characteristic value: a gray level for
  component and inclusion trees, a dissimilarity for partition trees;
* ``pixel_node[p]`` maps each pixel to the smallest node containing it;
  it is the tree's only pixel-to-node map, and every per-node pixel
  statistic (``node_areas``, ``attributes.compute_attributes``, and from
  that table the gray value a pruned pixel takes) is a sweep over it.

The generic per-node passes go through two kernels, after Higra's
``accumulate_sequential`` / ``propagate_sequential``: ``accumulate`` folds
values child to parent (areas, hole counts) and ``propagate`` parent to
child (pruning, nearest marked ancestor, preorder ranks); attribute tables
and filter ladders have their own sweeps (``tp_attributes``, ``tp_ladder``).
Because ``parent[i] < i``, each is one linear sweep over the node ids in the
native kernel, whatever the tree's depth.  Folds of int64 or bool values by
sum, min, max, logical and or logical or are exact in any fold order.

Component trees and alpha-trees come from one Kruskal union-find over the
adjacent pixel pairs (Najman, Cousty & Perret, *Playing with Kruskal*, ISMM
2013): a max-tree merges pairs weighted min(f(p), f(q)) in descending order
with each pixel entering at f(p), a min-tree mirrors it, and an alpha-tree
merges pairs weighted |f(p) - f(q)| in ascending order from level 0.  The
merge loop runs in the package's native kernel (:mod:`treeprofiles._native`),
with union by size and path halving over at most 2n - 1 records, and
resolves the aliases it made; numpy then numbers the nodes.  Every sort in
tree building has small integer keys (levels, pixel ids, node ids), so it
is the native stable ``counting_sort``: the edge order here, and the node
numbering of the component trees by (level, first pixel) as two passes,
first pixel first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._native import _kernel
from .errors import DataError
from .imagery import RasterImage


class Connectivity(str, Enum):
    C4 = "c4"
    C8 = "c8"


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


# native fold op codes (0 add, 1 minimum, 2 maximum) of the value dtypes and
# ufuncs the folds accept; any other raises TypeError
_FOLD_OPS = {
    np.dtype(np.int64): {np.add: 0, np.minimum: 1, np.maximum: 2},
    np.dtype(np.bool_): {np.minimum: 1, np.maximum: 2, np.logical_and: 1,
                         np.logical_or: 2},
}


def _fold(entry: str, parent: np.ndarray, values: np.ndarray,
          ufunc: np.ufunc) -> np.ndarray:
    """Run the native fold ``entry`` on a copy of ``values``."""
    values = np.asarray(values)
    op = _FOLD_OPS.get(values.dtype, {}).get(ufunc)
    if op is None:
        raise TypeError(f"cannot fold {values.dtype} values exactly with "
                        f"{getattr(ufunc, '__name__', ufunc)}")
    parent = np.ascontiguousarray(parent, dtype=np.int64)
    if values.ndim not in (1, 2) or len(values) != len(parent):
        raise ValueError("fold values must be (N,) or (N, k) for N nodes")
    out = np.array(values, dtype=np.int64, order="C")
    k = out.shape[1] if out.ndim == 2 else 1
    if getattr(_kernel(), entry)(parent, len(parent), out, k, op):
        raise DataError("parent array is not root-first topological")
    return out.astype(values.dtype, copy=False)


def accumulate(parent: np.ndarray, values: np.ndarray,
               ufunc: np.ufunc) -> np.ndarray:
    """Fold int64 or bool ``values`` of shape (N,) or (N, k) from children
    into parents, highest id first: afterwards each node holds ``ufunc``
    (add, minimum, maximum, or logical and/or on bool) over its whole
    subtree.  Returns a new array."""
    return _fold("tp_accumulate", parent, values, ufunc)


def propagate(parent: np.ndarray, values: np.ndarray,
              ufunc: np.ufunc) -> np.ndarray:
    """Fold ``values`` from parents into children, lowest id first:
    afterwards each node holds ``ufunc`` over its root path, root first.
    Values and ufuncs as for ``accumulate``.  Returns a new array."""
    return _fold("tp_propagate", parent, values, ufunc)


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

    def __post_init__(self):
        for name in ("parent", "level", "pixel_node"):
            getattr(self, name).setflags(write=False)

    @property
    def node_count(self) -> int:
        return len(self.parent)

    def accumulate(self, values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
        """Child-to-parent fold; see the module-level ``accumulate``."""
        return accumulate(self.parent, values, ufunc)

    def propagate(self, values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
        """Parent-to-child fold; see the module-level ``propagate``."""
        return propagate(self.parent, values, ufunc)

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
# Kruskal construction: one union-find for component and partition trees
# ---------------------------------------------------------------------------

def counting_sort(key: np.ndarray, order: np.ndarray | None = None,
                  descending: bool = False) -> np.ndarray:
    """The ids ``order`` (default ``0, ..., len(key) - 1``) stably sorted by
    the integer ``key[id]``, ascending or descending: equal keys keep their
    order in ``order``, so the default ascending order is
    ``np.argsort(key, kind="stable")``.  The keys are shifted into
    ``[0, max - min]`` and counted by the native ``tp_counting_sort`` in
    O(len(order) + max - min) time."""
    ids = (np.arange(len(key)) if order is None
           else np.ascontiguousarray(order, dtype=np.int64))
    out = np.empty(len(ids), dtype=np.int64)
    if not len(ids):
        return out
    low, high = int(key.min()), int(key.max())
    shifted = np.ascontiguousarray(high - key if descending else key - low,
                                   dtype=np.int64)
    status = _kernel().tp_counting_sort(shifted, len(shifted), ids, len(ids),
                                        high - low + 1, out)
    if status == -2:
        raise MemoryError("tp_counting_sort: out of memory")
    if status:
        raise IndexError("counting_sort: an id is out of range")
    return out


def adjacent_pairs(width: int, height: int, connectivity: Connectivity):
    """Flat indices (a, b) of every unordered adjacent pixel pair: right,
    down, then for c8 down-right and down-left neighbours."""
    idx = np.arange(width * height).reshape(height, width)
    pairs = [(idx[:, :-1], idx[:, 1:]), (idx[:-1, :], idx[1:, :])]
    if connectivity is Connectivity.C8:
        pairs += [(idx[:-1, :-1], idx[1:, 1:]), (idx[:-1, 1:], idx[1:, :-1])]
    return (np.concatenate([a.ravel() for a, _ in pairs]),
            np.concatenate([b.ravel() for _, b in pairs]))


def kruskal(a: np.ndarray, b: np.ndarray, weight: np.ndarray,
            order: np.ndarray, leaf_level: np.ndarray):
    """Merge the edges (a, b) in ``order`` into a hierarchy of records.

    Records 0..n-1 are the pixels at ``leaf_level``.  An edge joining two
    components at weight w aliases their top records when both sit at w,
    lets a top at w absorb the other, and otherwise makes a new record at w
    above both.  Returns ``(records, parent, level, pixel_record)``: the
    ids of the un-aliased records in ascending order, then each record's
    parent and level and each pixel's record, all with aliases resolved.
    The merge loop is the native kernel's ``tp_kruskal``; levels and
    weights are float64, exact for every integer level up to 2**53.
    """
    a, b, order = (np.ascontiguousarray(v, dtype=np.int64)
                   for v in (a, b, order))
    weight = np.ascontiguousarray(weight, dtype=np.float64)
    leaf_level = np.ascontiguousarray(leaf_level, dtype=np.float64)
    if not len(a) == len(b) == len(weight):
        raise ValueError("kruskal needs one endpoint pair per edge weight")
    n = len(leaf_level)
    cap = max(2 * n - 1, 0)
    parent, alias = np.empty(cap, np.int64), np.empty(cap, np.int64)
    level = np.empty(cap)
    count = _kernel().tp_kruskal(a, b, weight, len(weight), order, len(order),
                                 leaf_level, n, parent, level, alias)
    if count == -2:
        raise MemoryError("tp_kruskal: out of memory")
    if count < 0:
        raise IndexError("kruskal: an edge order entry or endpoint is out "
                         "of range")
    alias = alias[:count]
    records = np.flatnonzero(alias == np.arange(count))
    return records, alias[parent[:count]], level[:count], alias[:n]


def number_nodes(nodes: np.ndarray, parent: np.ndarray, level: np.ndarray,
                 pixel_record: np.ndarray):
    """Renumber the records ``nodes`` (root first) as nodes 0..N-1; returns
    the node ``parent``, ``level`` and ``pixel_node`` arrays."""
    new_id = np.empty(len(parent), dtype=np.int32)
    new_id[nodes] = np.arange(len(nodes), dtype=np.int32)
    return new_id[parent[nodes]], level[nodes], new_id[pixel_record]


def _component_tree(
    values_flat: np.ndarray, width: int, height: int, levels: int,
    connectivity: Connectivity | str, kind: TreeKind,
) -> Tree:
    """Max-tree: Kruskal over edges weighted min(f(p), f(q)) in descending
    order, each pixel entering at f(p); the min-tree mirrors it.  Nodes are
    numbered by level from the root side, ties by the node's first direct
    pixel in that direction (smallest index for a max-tree, largest for a
    min-tree).  That numbering fixes every byte of the tree, so the order of
    equal-weight edges does not matter."""
    a, b = adjacent_pairs(width, height, as_connectivity(connectivity))
    upper = kind is TreeKind.MAX_TREE
    sign = 1 if upper else -1
    weight = (np.minimum if upper else np.maximum)(values_flat[a],
                                                   values_flat[b])
    records, parent, level, pixel_record = kruskal(
        a, b, weight, counting_sort(weight, descending=upper), values_flat)
    first = np.full(len(parent), width * height, dtype=np.int64)
    np.minimum.at(first, pixel_record, sign * np.arange(width * height))
    by_first = counting_sort(first[records])
    nodes = records[counting_sort(level[records].astype(np.int64), by_first,
                                  descending=not upper)]
    node_parent, node_level, pixel_node = number_nodes(
        nodes, parent, level, pixel_record)
    return Tree(
        kind=kind, width=width, height=height, levels=levels,
        parent=node_parent, level=node_level, pixel_node=pixel_node,
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
