"""Alpha-tree (quasi-flat-zone hierarchy) and omega-tree construction.

The alpha-tree comes from ``hierarchies.kruskal``: adjacent pixel pairs
weighted by absolute gray difference are merged in ascending weight order,
collapsing chains of equal-weight merges so that child level < parent level
strictly.  Leaves of the canonical tree are 0-flat zones, not individual
pixels; nodes are numbered in descending record id, which is root first.
Record ids follow the merge order, so equal weights must keep their edge
order: the edges are ordered by ``hierarchies.counting_sort``, which is
stable and gives ``np.argsort(weight, kind="stable")``.

The omega-tree is derived from the alpha-tree: a node survives when its
global gray range is strictly below its parent's, its level becomes that
range, and parents are re-linked through the surviving ancestors.  Ties
where several nested components share a range collapse to the largest, which
gives the constrained-connectivity semantics directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attributes import compute_attributes
from .errors import DataError
from .hierarchies import (
    Connectivity,
    Tree,
    TreeKind,
    adjacent_pairs,
    as_connectivity,
    counting_sort,
    kruskal,
    nearest_marked,
    number_nodes,
)
from .imagery import RasterImage


@dataclass(frozen=True)
class EdgeList:
    """Adjacent pixel pairs with non-negative dissimilarity weights."""

    a: np.ndarray
    b: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return len(self.weight)


def edge_list(
    image: RasterImage, connectivity: Connectivity | str = Connectivity.C4
) -> EdgeList:
    """One edge per unordered adjacent pair, weight |X(a) - X(b)|."""
    a, b = adjacent_pairs(image.width, image.height,
                          as_connectivity(connectivity))
    flat = image.values.ravel()
    return EdgeList(a=a, b=b, weight=np.abs(flat[a] - flat[b]))


def build_alpha_tree(
    image: RasterImage, connectivity: Connectivity | str = Connectivity.C4
) -> Tree:
    """Quasi-flat-zone hierarchy; an internal node at level a is the maximal
    set of pixels mutually reachable through steps of dissimilarity <= a."""
    edges = edge_list(image, connectivity)
    n = image.width * image.height
    records, parent, level, pixel_record = kruskal(
        edges.a, edges.b, edges.weight,
        counting_sort(edges.weight), np.zeros(n))
    # records are made after the ones they cover: descending id is root first
    parent, level, pixel_node = number_nodes(
        records[::-1], parent, level, pixel_record)

    return Tree(
        kind=TreeKind.ALPHA_TREE,
        width=image.width,
        height=image.height,
        levels=image.levels,
        parent=parent,
        level=level,
        pixel_node=pixel_node,
    )


def build_omega_tree(alpha_tree: Tree, image: RasterImage) -> Tree:
    """Constrained-connectivity hierarchy derived from an alpha-tree.

    Node level is the component's global gray range; a pixel's component at
    bound w is the largest alpha component containing it with range <= w.
    """
    if alpha_tree.kind is not TreeKind.ALPHA_TREE:
        raise DataError("build_omega_tree needs an alpha-tree")
    if (alpha_tree.width, alpha_tree.height) != (image.width, image.height):
        raise DataError("alpha-tree and image dimensions do not match")
    n_alpha = alpha_tree.node_count
    table = compute_attributes(alpha_tree, image)
    rng = table.gray_max - table.gray_min

    parent = alpha_tree.parent
    keep = np.zeros(n_alpha, dtype=bool)
    keep[0] = True
    keep[1:] = rng[1:] < rng[parent[1:]]
    new_id = np.cumsum(keep) - 1  # surviving nodes keep topological order
    omega_of = new_id[nearest_marked(alpha_tree, keep)].astype(np.int32)

    survivors = np.flatnonzero(keep)
    n_nodes = len(survivors)
    omega_parent = np.empty(n_nodes, dtype=np.int32)
    omega_parent[0] = 0
    omega_parent[1:] = omega_of[parent[survivors[1:]]]

    return Tree(
        kind=TreeKind.OMEGA_TREE,
        width=image.width,
        height=image.height,
        levels=image.levels,
        parent=omega_parent,
        level=rng[survivors].astype(np.float64),
        pixel_node=omega_of[alpha_tree.pixel_node],
    )


def partition_at(tree: Tree, threshold: float) -> np.ndarray:
    """Label image of the partition obtained by cutting at level <= threshold.

    Each pixel is labeled with the id of the highest ancestor of its node
    whose level does not exceed the threshold.
    """
    if tree.kind not in (TreeKind.ALPHA_TREE, TreeKind.OMEGA_TREE):
        raise DataError("partition_at applies to partition trees only")
    top = np.ones(tree.node_count, dtype=bool)  # highest node of its block
    top[1:] = tree.level[tree.parent[1:]] > threshold
    labels = nearest_marked(tree, top).astype(np.int32)[tree.pixel_node]
    return labels.reshape(tree.height, tree.width)
