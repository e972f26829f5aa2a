"""Structural checks of the trees at scene size (ROADMAP item 15): every
node's subtree pixel set is connected, checked by ``disconnected_nodes``,
a near-linear union-find pass in ``tests/oracles.py`` that shares no code
with tree building.  The checker itself is held to a brute-force flood
fill of every node's pixel set on small images."""

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


SCENES = {"synthetic_scene": lambda: synthetic_scene(128, 128)[0],
          "smooth": smooth_image}


@pytest.mark.parametrize("scene", list(SCENES))
@pytest.mark.parametrize("kind", ["max", "min", "alpha", "omega"])
def test_every_node_connected_at_scene_size(scene, kind):
    tree = build_tree(SCENES[scene](), kind)
    assert disconnected_nodes(tree, "c4").tolist() == []
