import hashlib

import numpy as np
import pytest

from treeprofiles import (
    RasterImage,
    build_max_tree,
    build_tree_of_shapes,
    node_areas,
    synthetic_scene,
)

from treeprofiles import inclusion
from treeprofiles._native import _kernel

from conftest import random_image
from oracles import (
    fill_holes_label,
    tree_component_pixels,
    tree_of_shapes_per_node,
    tree_of_shapes_shapes,
)


def shape_set(tree):
    comps = tree_component_pixels(tree)
    width = tree.width
    return {
        (float(tree.level[i]),
         frozenset((p // width, p % width) for p in comps[i]))
        for i in range(tree.node_count)
    }


def ring_image():
    values = np.zeros((5, 5), dtype=int)
    values[1:4, 1:4] = 2
    values[2, 2] = 1
    return RasterImage(values, levels=4)


class TestTreeOfShapes:
    def test_ring_with_hole(self):
        tree = build_tree_of_shapes(ring_image())
        areas = node_areas(tree)
        got = sorted(zip(tree.level.tolist(), areas.tolist()))
        assert got == [(0.0, 25), (1.0, 1), (2.0, 9)]
        assert tree.parent.tolist() == [0, 0, 1]

    def test_constant(self):
        tree = build_tree_of_shapes(RasterImage(np.full((3, 4), 5, int), levels=8))
        assert tree.node_count == 1
        assert tree.level[0] == 5.0

    def test_no_holes_matches_max_tree(self):
        values = np.zeros((6, 6), dtype=int)
        values[2:4, 2:5] = 7
        img = RasterImage(values, levels=8)
        tos = shape_set(build_tree_of_shapes(img))
        mx = build_max_tree(img)
        comps = tree_component_pixels(mx)
        max_sets = {
            (float(mx.level[i]),
             frozenset((p // 6, p % 6) for p in comps[i]))
            for i in range(mx.node_count)
        }
        assert tos == max_sets

    def test_shape_sort_keys_never_tie(self, monkeypatch, rng):
        # the shape sort keeps no visiting-order column: no two shapes of
        # the two side trees tie on (area, level, corner, mask bytes), so
        # the order they arrive in never decides
        keys, collect = [], inclusion._collect_shapes

        def spy(tree):
            pixels, columns = collect(tree)
            for area, level2, y0, x0, _, start in columns.T:
                keys.append((area, level2, y0, x0, inclusion._mask_bytes(
                    pixels[start:start + area], tree.width)))
            return pixels, columns

        monkeypatch.setattr(inclusion, "_collect_shapes", spy)
        for _ in range(25):
            keys.clear()
            build_tree_of_shapes(random_image(rng, 10, 6))
            assert len(set(keys)) == len(keys) > 0

    def test_matches_saturation_oracle(self, rng):
        for _ in range(25):
            img = random_image(rng, 10, 6)
            assert shape_set(build_tree_of_shapes(img)) == \
                tree_of_shapes_shapes(img.values)

    def test_self_duality(self, rng):
        for _ in range(25):
            img = random_image(rng, 10, 6)
            shapes = shape_set(build_tree_of_shapes(img))
            flipped = shape_set(build_tree_of_shapes(img.complement()))
            complemented = {(img.levels - 1 - lvl, comp) for lvl, comp in flipped}
            assert shapes == complemented

    def test_shape_nesting(self, rng):
        img = random_image(rng, 9, 5)
        tree = build_tree_of_shapes(img)
        comps = [frozenset(c) for c in tree_component_pixels(tree)]
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                if comps[i] & comps[j]:
                    assert comps[i] <= comps[j] or comps[j] <= comps[i]

    def test_reconstruction_identity(self, rng):
        for _ in range(25):
            img = random_image(rng, 10, 6)
            tree = build_tree_of_shapes(img)
            flat = img.values.ravel()
            levels = tree.level[tree.pixel_node]
            assert np.array_equal(levels, flat.astype(float))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1)])
    def test_degenerate_geometries(self, rng, shape):
        values = rng.integers(0, 5, size=shape)
        img = RasterImage(values, levels=5)
        tree = build_tree_of_shapes(img)
        assert shape_set(tree) == tree_of_shapes_shapes(img.values)

    def test_crossing_level_lines_regression(self):
        """An upper and a lower shape at the same level can share exactly the
        pixels valued at that level (here: an upper saturation through (3,3)
        and the lower component {(2,3),(3,3),(4,3),(4,4)} at level 3).  The
        symmetric adjacency convention keeps self-duality exact at the price
        of such rare partial overlaps, so full shape masks are not always
        recoverable as subtree unions; the tree-level guarantees below must
        survive regardless."""
        values = np.array([
            [6, 0, 1, 3, 1, 0, 5, 0, 2, 0, 4, 3, 0],
            [2, 4, 1, 5, 0, 0, 0, 1, 0, 3, 6, 3, 6],
            [6, 3, 5, 0, 4, 3, 3, 6, 3, 2, 4, 1, 6],
            [0, 5, 4, 3, 6, 3, 0, 0, 3, 2, 6, 0, 6],
            [6, 6, 4, 1, 0, 6, 5, 3, 5, 0, 2, 2, 5],
            [0, 3, 5, 4, 6, 0, 5, 6, 1, 1, 5, 6, 2],
            [6, 2, 5, 4, 1, 1, 6, 4, 4, 0, 5, 4, 6],
            [2, 4, 1, 4, 1, 2, 3, 3, 4, 0, 3, 2, 4],
            [0, 6, 6, 6, 3, 3, 2, 1, 2, 0, 1, 5, 0],
            [6, 0, 2, 4, 0, 5, 5, 0, 2, 0, 4, 6, 2],
            [0, 1, 0, 6, 0, 2, 0, 0, 2, 3, 1, 0, 2],
            [6, 3, 4, 0, 2, 5, 4, 4, 6, 0, 6, 4, 5],
            [0, 3, 6, 2, 3, 6, 1, 4, 5, 1, 6, 6, 5],
            [2, 4, 2, 0, 2, 3, 2, 6, 4, 5, 2, 3, 1],
        ])
        img = RasterImage(values, levels=7)
        tree = build_tree_of_shapes(img)
        ref = tree_of_shapes_shapes(values)
        # one node per oracle shape, at the oracle level
        assert sorted(tree.level.tolist()) == sorted(l for l, _ in ref)
        # every pixel belongs to exactly one node and takes its level back
        counts = np.bincount(tree.pixel_node, minlength=tree.node_count)
        assert counts.sum() == values.size
        assert np.array_equal(tree.level[tree.pixel_node],
                              values.ravel().astype(float))
        # self-duality is unaffected
        flipped = build_tree_of_shapes(img.complement())
        assert sorted(tree.level.tolist()) == \
            sorted(float(img.levels - 1 - l) for l in flipped.level)

    def test_nodes_emptied_by_crossing_shapes_are_dropped(self, monkeypatch):
        """On this smooth 256-level scene two of the 570 painted shapes lose
        every pixel to crossing same-level shapes; the empty-node pass drops
        them and renumbers the rest, keeping ids root-first."""
        subtrees = []
        accumulate = inclusion.accumulate

        def recording(*args):
            subtrees.append(accumulate(*args))
            return subtrees[-1]

        monkeypatch.setattr(inclusion, "accumulate", recording)
        img = synthetic_scene(24, 24, seed=38)[0]
        tree = build_tree_of_shapes(img)
        assert [(len(s), int(np.count_nonzero(s == 0)))
                for s in subtrees] == [(570, 2)]
        assert tree.node_count == 568
        assert tree.parent[0] == 0
        assert np.all(tree.parent[1:] < np.arange(1, tree.node_count))
        held = np.bincount(tree.pixel_node, minlength=tree.node_count)
        assert np.all(tree.accumulate(held, np.add) > 0)
        assert np.array_equal(tree.level[tree.pixel_node],
                              img.values.ravel().astype(float))
        digest = hashlib.sha256()
        for array, dtype in ((tree.parent, "<i8"), (tree.level, "<f8"),
                             (tree.pixel_node, "<i8")):
            digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
        assert digest.hexdigest() == (
            "72eb51956f97a30ff50c82170da3b8b179eb34c4a25a92647790f59771f81688")


def two_holed_shapes() -> np.ndarray:
    """Two disjoint 24-pixel components at one level, each with a one-pixel
    hole, whose 25-pixel saturations share the box corner (1, 1): a 5x5
    block and a hooked line whose box wraps around it."""
    values = np.zeros((11, 15), dtype=int)
    values[1:6, 1:6] = 1
    values[3, 3] = 0
    values[1:8, 7] = values[7, 1:8] = values[7:10, 5:8] = 1
    values[8, 6] = 0
    values[1, 8:14] = 1
    return values


class TestTieOrder:
    @pytest.mark.parametrize("complement", [False, True])
    def test_saturations_tied_on_area_level_and_corner(self, monkeypatch,
                                                       complement):
        img = RasterImage(two_holed_shapes(), levels=2)
        img = img.complement() if complement else img
        tied, mask_bytes = [], inclusion._mask_bytes

        def spy(pixels, width):
            tied.append(len(pixels))
            return mask_bytes(pixels, width)

        monkeypatch.setattr(inclusion, "_mask_bytes", spy)
        got, want = build_tree_of_shapes(img), tree_of_shapes_per_node(img)
        assert tied == [25, 25]
        for name in ("parent", "level", "pixel_node"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


# a 3x3 ring on a 5x5 grid, in the box (1, 1)-(3, 3)
RING = [6, 7, 8, 11, 13, 16, 17, 18]


def saturate(pix_order, lo, hi, box, width, height, n_out):
    """(status, out, offsets) of one native ``tp_saturate`` call; out and
    offsets start as -7 so that refused calls can be seen to write
    nothing."""
    pix_order, lo, hi, box = (np.array(v, dtype=np.int64).reshape(shape)
                              for v, shape in ((pix_order, -1), (lo, -1),
                                               (hi, -1), (box, (-1, 4))))
    out = np.full(n_out, -7, dtype=np.int64)
    offsets = np.full(len(lo) + 1, -7, dtype=np.int64)
    status = _kernel().tp_saturate(pix_order, len(pix_order), lo, hi, box,
                                   len(lo), width, height, out, n_out,
                                   offsets)
    return status, out, offsets


def saturate_masks(masks, width=48):
    """Each mask's saturation from one batched ``tp_saturate`` call, the
    masks laid on a width x width grid at staggered corners with their
    array extent as the box and their pixels in reverse order."""
    runs, boxes, expected, lo = [], [], [], [0]
    for k, mask in enumerate(masks):
        y, x = k % 5, k % 7
        h, w = mask.shape
        ys, xs = np.nonzero(mask)
        runs.append(((ys + y) * width + xs + x)[::-1])
        lo.append(lo[-1] + len(ys))
        boxes.append((y, x, y + h - 1, x + w - 1))
        fy, fx = np.nonzero(fill_holes_label(mask))
        expected.append((fy + y) * width + fx + x)
    n_out = sum(m.size for m in masks)
    status, out, offsets = saturate(
        np.concatenate(runs), lo[:-1], lo[1:], boxes, width, width, n_out)
    assert status == 0 and offsets[0] == 0
    got = [out[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
    return got, expected


class TestFillHoles:
    """``tp_saturate``'s flood fill equals the ``ndimage.label`` fill."""

    @staticmethod
    def masks():
        rng = np.random.default_rng(19)
        masks = [rng.random(rng.integers(1, 41, size=2)) < rng.uniform(0.2, 0.95)
                 for _ in range(500)]
        return masks + [rng.random((1, 37)) < 0.5, rng.random((37, 1)) < 0.5,
                        np.ones((1, 40), bool), np.ones((40, 1), bool),
                        np.ones((40, 40), bool), np.ones((1, 1), bool),
                        np.zeros((1, 1), bool), np.pad([[True]], 3)]

    def test_matches_label_fill(self):
        for mask in self.masks():
            (got,), (want,) = saturate_masks([mask])
            assert np.array_equal(got, want)

    def test_matches_label_fill_batched(self):
        masks = self.masks()
        got, want = saturate_masks(masks)
        assert len(got) == len(want) == 508
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @staticmethod
    def scanline_masks():
        """Masks whose background leaks diagonally past the end of a row
        run, where a row-run flood must scan one cell beyond each end."""
        yy, xx = np.indices((9, 11))
        masks = []
        for k in (2, 3, 4):
            masks += [xx - yy == 0, (xx + yy) % k == 0, (xx - yy) % k == 0,
                      xx >= k * yy, xx + k * yy >= 10]          # staircases
        for width in (5, 8):
            ring = np.ones((7, width), bool)
            ring[1:-1, 1:-1] = False
            for gap in ((0, 0), (0, width - 1), (6, 0), (6, width - 1)):
                corner = ring.copy()
                corner[gap] = False      # the inside reaches it diagonally
                masks.append(corner)
            stepped = ring.copy()
            stepped[0, 2], stepped[1, 3] = False, True  # one-pixel offset
            masks += [ring, stepped]
        for shape in ((1, 1), (2, 2), (5, 5), (6, 9), (9, 6)):
            board = np.indices(shape).sum(axis=0) % 2 == 0
            masks += [board, ~board]
            boxed = np.pad(board, 1, constant_values=True)
            masks += [boxed, np.pad(~board, 1, constant_values=True)]
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 9, 40):
            masks += [np.ones((1, n), bool), np.ones((n, 1), bool),
                      np.arange(n)[None] % 2 == 0,
                      np.arange(n)[:, None] % 3 > 0,
                      rng.random((1, n)) < 0.5, rng.random((n, 1)) < 0.5]
        spiral = np.zeros((11, 11), bool)
        for k in range(0, 6, 2):
            spiral[k, k:11 - k] = spiral[k:11 - k, 10 - k] = True
            spiral[10 - k, k:11 - k] = spiral[k + 2:11 - k, k] = True
            spiral[k + 2, k:k + 2] = True
        closed = spiral.copy()
        closed[1, 0] = True              # the whole winding becomes a hole
        return masks + [spiral, ~spiral, closed]

    def test_scanline_leaks_match_label_fill(self):
        masks = self.scanline_masks()
        assert any(fill_holes_label(m).sum() > m.sum() for m in masks)
        for mask in masks:
            (got,), (want,) = saturate_masks([mask])
            assert np.array_equal(got, want)
        got, want = saturate_masks(masks)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_diagonal_ring_has_no_hole(self):
        # the centre's background reaches the outside through the corners
        ring = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=bool)
        (got,), _ = saturate_masks([ring], width=3)
        assert got.tolist() == [1, 3, 5, 7]

    def test_four_closed_ring_has_one_hole(self):
        ring = np.ones((3, 3), dtype=bool)
        ring[1, 1] = False
        (got,), _ = saturate_masks([ring], width=3)
        assert got.tolist() == list(range(9))

    @pytest.mark.parametrize("pixels, lo, hi, box", [
        (RING[:-1] + [25], 8, 16, [1, 1, 3, 3]),    # pixel id too large
        (RING[:-1] + [-1], 8, 16, [1, 1, 3, 3]),    # negative pixel id
        (RING, 13, 12, [1, 1, 3, 3]),               # lo > hi
        (RING, 8, 17, [1, 1, 3, 3]),                # run past pix_order
        (RING, -1, 16, [1, 1, 3, 3]),               # run before it
        (RING, 8, 16, [1, 1, 3, 2]),                # pixel outside its box
        (RING, 8, 16, [1, 1, 5, 3]),                # box outside the grid
        (RING, 8, 16, [2, 1, 1, 3]),                # y1 < y0
    ])
    def test_bad_index_refused(self, pixels, lo, hi, box):
        # a valid ring comes first: it would be written if checks came late
        status, out, offsets = saturate(RING + pixels, [0, lo], [8, hi],
                                        [[1, 1, 3, 3], box], 5, 5, 18)
        assert status == -3
        assert (out == -7).all() and (offsets == -7).all()

    def test_small_output_refused(self):
        status, out, offsets = saturate(RING, [0], [8], [1, 1, 3, 3], 5, 5, 8)
        assert status == -1
        assert (out == -7).all() and (offsets == -7).all()
        status, out, offsets = saturate(RING, [0], [8], [1, 1, 3, 3], 5, 5, 9)
        assert status == 0 and offsets.tolist() == [0, 9]


def paint(pixels, start, end, first, n_label=9):
    """(status, parent, label) of one native ``tp_paint_shapes`` call."""
    pixels, start, end, first = (np.array(v, dtype=np.int64)
                                 for v in (pixels, start, end, first))
    label = np.zeros(n_label, dtype=np.int32)
    parent = np.full(len(start) + 1, -7, dtype=np.int32)
    status = _kernel().tp_paint_shapes(pixels, len(pixels), start, end, first,
                                       len(start), label, n_label, parent)
    return status, parent, label


class TestPaintShapes:
    def test_parent_is_label_at_first_pixel(self):
        # the whole 3x3 grid, then its centre, then its top-left pair
        status, parent, label = paint(
            list(range(9)) + [4, 0, 1], [0, 9, 10], [9, 10, 12], [0, 4, 0])
        assert status == 0
        assert parent.tolist() == [0, 0, 1, 1]
        assert label.tolist() == [3, 3, 1, 1, 2, 1, 1, 1, 1]

    @pytest.mark.parametrize("pixels, start, end, first", [
        ([9], [0], [1], [0]),
        ([-1], [0], [1], [0]),
        ([0], [0], [2], [0]),
        ([0], [1], [0], [0]),
        ([0], [-1], [1], [0]),
        ([0], [0], [1], [9]),
    ])
    def test_out_of_range_refused(self, pixels, start, end, first):
        assert paint(pixels, start, end, first)[0] == -3
