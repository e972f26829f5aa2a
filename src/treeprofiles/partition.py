"""Alpha-tree (quasi-flat-zone hierarchy) and omega-tree construction.

The alpha-tree is built Kruskal-style: 4-adjacent pixel pairs weighted by
absolute gray difference are merged in ascending weight order with
union-find, collapsing chains of equal-weight merges so that child level <
parent level strictly.  Leaves of the canonical tree are 0-flat zones, not
individual pixels.

The omega-tree is derived from the alpha-tree: a node survives when its
global gray range is strictly below its parent's, its level becomes that
range, and parents are re-linked through the surviving ancestors.  Ties
where several nested components share a range collapse to the largest, which
gives the constrained-connectivity semantics directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .hierarchies import (
    Connectivity,
    Tree,
    TreeKind,
    accumulate,
    as_connectivity,
    depth_layers,
    nearest_marked,
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


def _adjacent_pairs(width: int, height: int, conn: Connectivity):
    idx = np.arange(width * height).reshape(height, width)
    pairs_a, pairs_b = [], []
    pairs_a.append(idx[:, :-1].ravel())  # right
    pairs_b.append(idx[:, 1:].ravel())
    pairs_a.append(idx[:-1, :].ravel())  # down
    pairs_b.append(idx[1:, :].ravel())
    if conn is Connectivity.C8:
        pairs_a.append(idx[:-1, :-1].ravel())  # down-right
        pairs_b.append(idx[1:, 1:].ravel())
        pairs_a.append(idx[:-1, 1:].ravel())  # down-left
        pairs_b.append(idx[1:, :-1].ravel())
    return np.concatenate(pairs_a), np.concatenate(pairs_b)


def edge_list(
    image: RasterImage, connectivity: Connectivity | str = Connectivity.C4
) -> EdgeList:
    """One edge per unordered adjacent pair, weight |X(a) - X(b)|."""
    conn = as_connectivity(connectivity)
    a, b = _adjacent_pairs(image.width, image.height, conn)
    flat = image.values.ravel()
    return EdgeList(a=a, b=b, weight=np.abs(flat[a] - flat[b]))


def build_alpha_tree(
    image: RasterImage, connectivity: Connectivity | str = Connectivity.C4
) -> Tree:
    """Quasi-flat-zone hierarchy; an internal node at level a is the maximal
    set of pixels mutually reachable through steps of dissimilarity <= a."""
    edges = edge_list(image, connectivity)
    n = image.width * image.height
    flat = image.values.ravel()

    # pixel union-find
    pix_parent = list(range(n))

    def pix_find(p: int) -> int:
        root = p
        while pix_parent[root] != root:
            root = pix_parent[root]
        while pix_parent[p] != root:
            pix_parent[p], p = root, pix_parent[p]
        return root

    # node records; ids 0..n-1 are per-pixel singletons at level 0
    node_level: list[float] = [0.0] * n
    node_parent: list[int] = list(range(n))
    node_alias: list[int] = list(range(n))
    top_of = list(range(n))  # valid at pixel-UF roots only

    def node_find(i: int) -> int:
        root = i
        while node_alias[root] != root:
            root = node_alias[root]
        while node_alias[i] != root:
            node_alias[i], i = root, node_alias[i]
        return root

    order = np.argsort(edges.weight, kind="stable")
    ea = edges.a.tolist()
    eb = edges.b.tolist()
    ew = edges.weight.tolist()
    for e in order.tolist():
        ra, rb = pix_find(ea[e]), pix_find(eb[e])
        if ra == rb:
            continue
        w = float(ew[e])
        ta, tb = node_find(top_of[ra]), node_find(top_of[rb])
        la, lb = node_level[ta], node_level[tb]
        if la == w and lb == w:
            node_alias[tb] = ta
            survivor = ta
        elif la == w:
            node_parent[tb] = ta
            survivor = ta
        elif lb == w:
            node_parent[ta] = tb
            survivor = tb
        else:
            survivor = len(node_level)
            node_level.append(w)
            node_parent.append(survivor)
            node_alias.append(survivor)
            node_parent[ta] = survivor
            node_parent[tb] = survivor
        pix_parent[rb] = ra
        top_of[ra] = survivor

    # compact: drop aliased nodes, renumber so parents come first
    total = len(node_level)
    keep = [i for i in range(total) if node_find(i) == i]
    new_id = [-1] * total
    for rank, i in enumerate(reversed(keep)):
        new_id[i] = rank
    n_nodes = len(keep)
    parent = np.empty(n_nodes, dtype=np.int32)
    level = np.empty(n_nodes, dtype=np.float64)
    for i in keep:
        nid = new_id[i]
        parent[nid] = new_id[node_find(node_parent[node_find(i)])]
        level[nid] = node_level[i]
    pixel_node = np.fromiter(
        (new_id[node_find(p)] for p in range(n)), dtype=np.int32, count=n
    )

    # reconstruction representative: rounded component mean gray
    stats = np.zeros((n_nodes, 2), dtype=np.int64)
    np.add.at(stats, pixel_node, np.stack([np.ones_like(flat), flat], axis=1))
    area, gray_sum = accumulate(parent, depth_layers(parent), stats, np.add).T
    rep = gray_sum // area + ((gray_sum % area) * 2 >= area)

    return Tree(
        kind=TreeKind.ALPHA_TREE,
        width=image.width,
        height=image.height,
        levels=image.levels,
        parent=parent,
        level=level,
        pixel_node=pixel_node,
        rep_value=rep.astype(np.int64),
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
    flat = image.values.ravel()
    gmin = np.full(n_alpha, np.iinfo(np.int64).max, dtype=np.int64)
    gmax = np.full(n_alpha, np.iinfo(np.int64).min, dtype=np.int64)
    np.minimum.at(gmin, alpha_tree.pixel_node, flat)
    np.maximum.at(gmax, alpha_tree.pixel_node, flat)
    rng = alpha_tree.accumulate(gmax, np.maximum) \
        - alpha_tree.accumulate(gmin, np.minimum)

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
        rep_value=alpha_tree.rep_value[survivors].copy(),
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
