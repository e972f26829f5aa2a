"""The tree of shapes against the per-node saturation reference, and the
Euler hole count against connected-component labelling."""

import numpy as np
import pytest
from scipy import ndimage

from treeprofiles import RasterImage, build_tree_of_shapes
from treeprofiles.hierarchies import build_max_tree, build_min_tree
from treeprofiles.inclusion import _hole_counts

from conftest import random_image
from oracles import tree_component_pixels, tree_of_shapes_per_node


def assert_same_tree(got, want):
    assert (got.kind, got.width, got.height, got.levels) == \
        (want.kind, want.width, want.height, want.levels)
    for name in ("parent", "level", "pixel_node"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def block_and_l(complement: bool) -> RasterImage:
    """Two disjoint 9-pixel shapes at one level with the same bounding-box
    corner: a 3x3 block and an L whose 5x5 box wraps around it."""
    values = np.zeros((8, 8), dtype=int)
    values[1:4, 1:4] = 1             # block, box (1, 1)-(3, 3)
    values[1:6, 5] = 1               # L, box (1, 1)-(5, 5)
    values[5, 1:5] = 1
    img = RasterImage(values, levels=2)
    return img.complement() if complement else img


def touching_one_side(side: str) -> np.ndarray:
    """A ring around a one-pixel hole and a plain 2x2 block on a zero
    background (so the frame is at 0), both touching the image's ``side``
    and no other."""
    values = np.zeros((7, 9), dtype=int)
    values[0:3, 1:4] = 2
    values[1, 2] = 1
    values[0:2, 5:7] = 3
    return np.rot90(values, ("top", "left", "bottom", "right").index(side))


class TestPerNodeReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_images(self, seed):
        rng = np.random.default_rng(9100 + seed)
        for _ in range(45):
            assert_same_tree(*self._both(random_image(rng, 13, 7)))
        for _ in range(5):  # 1xN and Nx1
            n = int(rng.integers(1, 14))
            levels = int(rng.integers(2, 8))
            values = rng.integers(0, levels, size=(1, n))
            for v in (values, values.T):
                assert_same_tree(*self._both(RasterImage(v, levels=levels)))

    @pytest.mark.parametrize("side", ["top", "bottom", "left", "right",
                                      "1xN", "Nx1"])
    @pytest.mark.parametrize("complement", [False, True])
    def test_frame_contact_on_each_side(self, side, complement):
        # a component on the image's edge lies one pixel inside the frame,
        # so its box touches the padded image's outer ring only if it holds
        # frame pixels
        if side in ("1xN", "Nx1"):
            values = np.array([[3, 0, 6, 6, 2, 5, 1, 4, 4, 0, 3]])
            img = RasterImage(values if side == "1xN" else values.T, levels=7)
        else:
            img = RasterImage(touching_one_side(side), levels=4)
        img = img.complement() if complement else img
        got, want = self._both(img)
        assert_same_tree(got, want)
        if side not in ("1xN", "Nx1"):  # root, ring, hole, block
            assert got.node_count == 4

    def test_ring_shares_one_shape_with_its_block(self):
        # the upper ring at 2 saturates to the 3x3 block, the hole-free max
        # node at 1: one node, at the higher level
        values = np.zeros((5, 5), dtype=int)
        values[1:4, 1:4] = 2
        values[2, 2] = 1
        got, want = self._both(RasterImage(values, levels=4))
        assert_same_tree(got, want)
        assert got.node_count == 3
        assert sorted(got.level.tolist()) == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("complement", [False, True])
    def test_tie_on_area_level_and_corner(self, complement):
        img = block_and_l(complement)
        got, want = self._both(img)
        assert_same_tree(got, want)
        comps = tree_component_pixels(got)
        w = got.width
        keys = [(len(c), float(got.level[i]), min(p // w for p in c),
                 min(p % w for p in c)) for i, c in enumerate(comps)]
        assert keys[1] == keys[2]  # the two shapes tie on all four keys

    @staticmethod
    def _both(img):
        return build_tree_of_shapes(img), tree_of_shapes_per_node(img)


def concentric_rings(shape: str, side: int, width: int) -> np.ndarray:
    """Alternating 0/1 rings ``width`` pixels wide around the centre of a
    ``side`` x ``side`` image, square (by Chebyshev distance) or round."""
    c = (side - 1) / 2
    y, x = np.mgrid[0:side, 0:side] - c
    dist = np.maximum(abs(y), abs(x)) if shape == "square" else np.hypot(y, x)
    return (dist // width).astype(int) % 2


@pytest.mark.parametrize("complement", [False, True])
@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("side", [9, 17, 25, 33])
@pytest.mark.parametrize("shape", ["square", "disc"])
def test_nested_rings(shape, side, width, complement):
    # a chain of holed nodes whose boxes span nearly the whole padded
    # image, so the hole floods run along the last columns of their grids
    img = RasterImage(concentric_rings(shape, side, width), levels=2)
    img = img.complement() if complement else img
    got = build_tree_of_shapes(img)
    assert_same_tree(got, tree_of_shapes_per_node(img))
    assert got.node_count > side // (2 * width)


def background_holes(mask: np.ndarray) -> int:
    """Bounded 8-connected background components of a pixel mask."""
    _, count = ndimage.label(np.pad(~mask, 1, constant_values=True),
                             structure=np.ones((3, 3), dtype=bool))
    return count - 1


@pytest.mark.parametrize("build", [build_max_tree, build_min_tree])
def test_euler_hole_count_matches_labelling(build):
    rng = np.random.default_rng(77)
    seen_holes = 0
    for _ in range(40):
        img = random_image(rng, 12, 5)
        tree = build(img)
        holes = _hole_counts(tree)
        for node, pixels in enumerate(tree_component_pixels(tree)):
            mask = np.zeros(img.width * img.height, dtype=bool)
            mask[pixels] = True
            want = background_holes(mask.reshape(img.height, img.width))
            assert holes[node] == want
            seen_holes += want > 0
    assert seen_holes > 0
