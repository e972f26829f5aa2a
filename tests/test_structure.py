"""Structural checks of the trees at scene size (ROADMAP item 15), each a
near-linear pass in ``tests/oracles.py`` that shares no code with tree
building: every node's subtree pixel set is connected
(``disconnected_nodes``); in a component tree every pixel sits at its
node's level and every adjacent pair's lowest common ancestor at the
pair's lower (min-tree: higher) value (``misleveled_pixels``,
``misleveled_component_pairs``); every pair leaving an alpha-tree node
weighs more than its level (``leaky_alpha_nodes``); every omega-tree
node's gray range is strictly below its parent's
(``omega_range_inversions``).  Each checker is held to a brute force over
every node's pixel set on small images, built trees and random ones."""

import numpy as np
import pytest

from treeprofiles import (
    RasterImage,
    Tree,
    TreeKind,
    build_tree,
    synthetic_scene,
)

from conftest import random_image
from oracles import (
    adjacent_pixel_pairs,
    connected_components,
    disconnected_nodes,
    leaky_alpha_nodes,
    misleveled_component_pairs,
    misleveled_pixels,
    omega_range_inversions,
    tree_component_pixels,
)


def smooth_image(side: int = 128) -> RasterImage:
    """A smooth 256-level field: long gray ramps, hence deep trees with
    many nodes one level apart."""
    yy, xx = np.mgrid[0:side, 0:side]
    field = 127.5 + 127.5 * np.sin(xx / 9.0) * np.cos(yy / 13.0)
    return RasterImage(np.floor(field).astype(np.int64), levels=256)


def brute_force_disconnected(tree, connectivity):
    bad = []
    for i, pixels in enumerate(tree_component_pixels(tree)):
        mask = np.zeros(tree.width * tree.height, dtype=bool)
        mask[pixels] = True
        comps = connected_components(mask.reshape(tree.height, tree.width),
                                     connectivity)
        if len(comps) != 1:
            bad.append(i)
    return bad


class TestChecker:
    @pytest.mark.parametrize("connectivity", ["c4", "c8"])
    def test_pairs_are_every_adjacent_pair_once(self, connectivity):
        h, w = 4, 5
        a, b = adjacent_pixel_pairs(w, h, connectivity)
        got = sorted(zip(a.tolist(), b.tolist()))
        want = sorted((y * w + x, (y + dy) * w + x + dx)
                      for y in range(h) for x in range(w)
                      for dy, dx in ((0, 1), (1, 0), (1, 1), (1, -1))
                      [:2 if connectivity == "c4" else 4]
                      if 0 <= y + dy < h and 0 <= x + dx < w)
        assert got == want

    def test_hand_built_trees(self):
        # 1x4 image; node 1 holds pixels 0 and 2, which are not adjacent
        split = Tree(kind=TreeKind.MAX_TREE, width=4, height=1, levels=2,
                     parent=np.array([0, 0, 1]), level=np.array([0., 1, 2]),
                     pixel_node=np.array([1, 0, 2, 0]))
        assert disconnected_nodes(split).tolist() == [1]
        # node 2 holds no pixel at all
        empty = Tree(kind=TreeKind.MAX_TREE, width=2, height=1, levels=2,
                     parent=np.array([0, 0, 1]), level=np.array([0., 1, 2]),
                     pixel_node=np.array([0, 1]))
        assert disconnected_nodes(empty).tolist() == [2]
        # a diagonal pair is 8- but not 4-connected
        diagonal = Tree(kind=TreeKind.MAX_TREE, width=2, height=2, levels=2,
                        parent=np.array([0, 0]), level=np.array([0., 1]),
                        pixel_node=np.array([1, 0, 0, 1]))
        assert disconnected_nodes(diagonal, "c4").tolist() == [1]
        assert disconnected_nodes(diagonal, "c8").tolist() == []

    def test_matches_flood_fill_of_every_node(self, rng):
        # the tree of shapes is included: its disconnected nodes, rare on
        # these images, are what the checker must find
        found = 0
        for _ in range(40):
            img = random_image(rng, 12, 256, min_side=3)
            for kind in TreeKind:
                tree = build_tree(img, kind)
                for connectivity in ("c4", "c8"):
                    got = disconnected_nodes(tree, connectivity).tolist()
                    assert got == brute_force_disconnected(tree,
                                                           connectivity)
                    found += len(got)
        assert found > 0


def ancestors(tree, node):
    path = [node]
    while path[-1]:
        path.append(int(tree.parent[path[-1]]))
    return path


def brute_force_misleveled_pairs(tree, values, connectivity):
    flat = values.ravel()
    bad = []
    for e, (p, q) in enumerate(zip(*adjacent_pixel_pairs(
            tree.width, tree.height, connectivity))):
        above_p = set(ancestors(tree, tree.pixel_node[p]))
        lca = next(i for i in ancestors(tree, tree.pixel_node[q])
                   if i in above_p)
        join = min if tree.kind is TreeKind.MAX_TREE else max
        if tree.level[lca] != join(flat[p], flat[q]):
            bad.append(e)
    return bad


def brute_force_leaky(tree, values, connectivity):
    flat = values.ravel().astype(np.int64)
    pairs = list(zip(*adjacent_pixel_pairs(tree.width, tree.height,
                                           connectivity)))
    bad = []
    for i, pixels in enumerate(tree_component_pixels(tree)):
        inside = set(pixels)
        if any((p in inside) != (q in inside) and
               abs(flat[p] - flat[q]) <= tree.level[i] for p, q in pairs):
            bad.append(i)
    return bad


def brute_force_inversions(tree, values):
    flat = values.ravel()
    span = [flat[pixels].max() - flat[pixels].min() if pixels else -1
            for pixels in tree_component_pixels(tree)]
    return [i for i in range(1, tree.node_count)
            if span[i] >= span[tree.parent[i]]]


def random_tree(rng, kind, width, height):
    """A root-first tree of random shape, pixel map and levels, so that the
    checks below have violations to find."""
    n = int(rng.integers(1, 2 * width * height + 1))
    parent = [0] + [int(rng.integers(0, i)) for i in range(1, n)]
    return Tree(kind=kind, width=width, height=height, levels=8,
                parent=np.array(parent), level=rng.integers(0, 8, n) * 1.0,
                pixel_node=rng.integers(0, n, width * height))


class TestLevelCheckers:
    @pytest.mark.parametrize("kind", ["max", "min", "alpha", "omega"])
    def test_match_brute_force(self, rng, kind):
        found = 0
        for _ in range(15):
            img = random_image(rng, 7, 8, min_side=2)
            values = img.values
            for connectivity in ("c4", "c8"):
                built = build_tree(img, kind, connectivity)
                for tree in (built, random_tree(rng, built.kind, img.width,
                                                img.height)):
                    if kind in ("max", "min"):
                        got = misleveled_component_pairs(tree, values,
                                                         connectivity)
                        want = brute_force_misleveled_pairs(tree, values,
                                                            connectivity)
                        pixels = misleveled_pixels(tree, values).tolist()
                        assert pixels == [
                            p for p in range(img.width * img.height)
                            if tree.level[tree.pixel_node[p]] !=
                            values.ravel()[p]]
                        found += len(pixels)
                    elif kind == "alpha":
                        got = leaky_alpha_nodes(tree, values, connectivity)
                        want = brute_force_leaky(tree, values, connectivity)
                    else:
                        got = omega_range_inversions(tree, values)
                        want = brute_force_inversions(tree, values)
                    assert got.tolist() == want
                    if tree is built:
                        assert want == []
                    found += len(want)
        assert found > 0


SCENES = {"synthetic_scene": lambda: synthetic_scene(128, 128)[0],
          "smooth": smooth_image}


@pytest.mark.parametrize("scene", list(SCENES))
@pytest.mark.parametrize("kind", ["max", "min", "alpha", "omega"])
def test_every_node_connected_at_scene_size(scene, kind):
    tree = build_tree(SCENES[scene](), kind)
    assert disconnected_nodes(tree, "c4").tolist() == []


@pytest.mark.parametrize("scene", list(SCENES))
@pytest.mark.parametrize("kind", ["max", "min", "alpha", "omega"])
def test_levels_at_scene_size(scene, kind):
    image = SCENES[scene]()
    tree = build_tree(image, kind)
    if kind in ("max", "min"):
        assert misleveled_pixels(tree, image.values).tolist() == []
        assert misleveled_component_pairs(tree, image.values).tolist() == []
    elif kind == "alpha":
        assert leaky_alpha_nodes(tree, image.values).tolist() == []
    else:
        assert omega_range_inversions(tree, image.values).tolist() == []
