import numpy as np
import pytest

from treeprofiles import (
    DataError,
    RasterImage,
    build_alpha_tree,
    build_max_tree,
    build_min_tree,
    build_omega_tree,
    build_tree_of_shapes,
    compute_attributes,
    dump_attributes,
)
from treeprofiles.attributes import moment_of_inertia_all, std_dev_all

from conftest import random_image
from oracles import stats_from_pixels, tree_component_pixels, two_pass_std


def center_spot():
    values = np.ones((3, 3), dtype=int)
    values[1, 1] = 3
    return RasterImage(values, levels=4)


def all_trees(img):
    alpha = build_alpha_tree(img)
    return [
        build_max_tree(img),
        build_min_tree(img),
        build_tree_of_shapes(img),
        alpha,
        build_omega_tree(alpha, img),
    ]


class TestComputeAttributes:
    def test_center_spot(self):
        img = center_spot()
        tree = build_max_tree(img)
        table = compute_attributes(tree, img)
        assert table.area.tolist() == [9, 1]
        assert table.gray_sum.tolist() == [11, 3]

    def test_constant(self):
        img = RasterImage(np.full((4, 4), 5, int), levels=8)
        table = compute_attributes(build_max_tree(img), img)
        assert table.area[0] == 16
        assert table.gray_sum[0] == 80
        assert table.gray_min[0] == table.gray_max[0] == 5

    def test_root_bbox(self, rng):
        img = random_image(rng, 10, 6, min_side=2)
        for tree in all_trees(img):
            table = compute_attributes(tree, img)
            assert table.bbox[0].tolist() == [0, 0, img.width - 1, img.height - 1]

    def test_mismatch_error(self):
        img = center_spot()
        other = RasterImage(np.zeros((2, 2), int), levels=2)
        with pytest.raises(DataError):
            compute_attributes(build_max_tree(img), other)

    def test_matches_subtree_walk(self, rng):
        for _ in range(8):
            img = random_image(rng, 10, 6)
            for tree in all_trees(img):
                table = compute_attributes(tree, img)
                comps = tree_component_pixels(tree)
                flat = img.values.ravel()
                for i in range(tree.node_count):
                    ref = stats_from_pixels(comps[i], img.width, flat)
                    assert table.area[i] == ref["area"]
                    assert table.sum_x[i] == ref["sum_x"]
                    assert table.sum_xx[i] == ref["sum_xx"]
                    assert table.sum_yy[i] == ref["sum_yy"]
                    assert table.gray_sum[i] == ref["gray_sum"]
                    assert table.gray_sum_sq[i] == ref["gray_sum_sq"]
                    assert table.gray_min[i] == ref["gray_min"]
                    assert table.gray_max[i] == ref["gray_max"]
                    assert tuple(table.bbox[i]) == ref["bbox"]


class TestAttrAccessors:
    def test_area_examples(self):
        img = center_spot()
        table = compute_attributes(build_max_tree(img), img)
        assert table.area[1] == 1
        assert table.area[0] == 9

    def test_root_area_full_scene_dims(self):
        img = RasterImage(np.zeros((700, 628), int), levels=2)
        table = compute_attributes(build_max_tree(img), img)
        assert table.area[0] == 439600

    def test_moment_examples(self):
        # single pixel
        img = center_spot()
        table = compute_attributes(build_max_tree(img), img)
        assert moment_of_inertia_all(table)[1] == 0.0
        # 2x1 horizontal domino
        img = RasterImage(np.array([[1, 1, 0]]), levels=2)
        table = compute_attributes(build_max_tree(img), img)
        domino = int(np.argwhere(table.area == 2)[0, 0])
        assert moment_of_inertia_all(table)[domino] == pytest.approx(0.125)
        # 3x1 segment
        img = RasterImage(np.array([[1, 1, 1, 0]]), levels=2)
        table = compute_attributes(build_max_tree(img), img)
        seg = int(np.argwhere(table.area == 3)[0, 0])
        assert moment_of_inertia_all(table)[seg] == pytest.approx(2.0 / 9.0)

    def test_std_examples(self):
        img = RasterImage(np.array([[1, 3]]), levels=4)
        table = compute_attributes(build_alpha_tree(img), img)
        root = 0
        assert std_dev_all(table)[root] == pytest.approx(1.0)
        img = RasterImage(np.array([[0, 0, 0, 4]]), levels=8)
        table = compute_attributes(build_alpha_tree(img), img)
        assert std_dev_all(table)[0] == pytest.approx(np.sqrt(3.0))
        img = RasterImage(np.full((2, 2), 7, int), levels=8)
        table = compute_attributes(build_max_tree(img), img)
        assert std_dev_all(table)[0] == 0.0


class TestProperties:
    def test_area_strictly_increasing_to_root(self, rng):
        for _ in range(10):
            img = random_image(rng, 12, 8)
            for tree in all_trees(img):
                table = compute_attributes(tree, img)
                for i in range(1, tree.node_count):
                    assert table.area[i] < table.area[tree.parent[i]]

    def test_moment_not_monotone(self, rng):
        found = False
        for _ in range(60):
            img = random_image(rng, 12, 8, min_side=3)
            tree = build_max_tree(img)
            table = compute_attributes(tree, img)
            inertia = moment_of_inertia_all(table)
            for i in range(1, tree.node_count):
                if inertia[i] > inertia[tree.parent[i]] + 1e-12:
                    found = True
                    break
            if found:
                break
        assert found, "expected some child with larger moment than its parent"

    def test_incremental_std_matches_two_pass(self, rng):
        for _ in range(10):
            img = random_image(rng, 10, 8)
            tree = build_max_tree(img)
            table = compute_attributes(tree, img)
            comps = tree_component_pixels(tree)
            flat = img.values.ravel()
            stds = std_dev_all(table)
            for i in range(tree.node_count):
                ref = two_pass_std([int(flat[p]) for p in comps[i]])
                assert stds[i] == pytest.approx(ref, rel=1e-9, abs=1e-12)

    def test_dump_format(self):
        img = center_spot()
        tree = build_max_tree(img)
        table = compute_attributes(tree, img)
        lines = dump_attributes(tree, table).splitlines()
        assert lines[1].startswith("1 1 0 ")


class TestAttributesKernel:
    """``tp_attributes``: one native sweep per tree, against the oracle's
    per-component sums, and its refusals of malformed trees."""

    def test_sixteen_bit_image(self, rng):
        # gray values up to 65535: each g*g is near 2**32, their sums above
        for _ in range(3):
            h, w = (int(v) for v in rng.integers(3, 8, size=2))
            values = rng.choice([0, 1, 40000, 65534, 65535], size=(h, w))
            img = RasterImage(values, levels=65536)
            flat = img.values.ravel()
            for tree in all_trees(img):
                table = compute_attributes(tree, img)
                comps = tree_component_pixels(tree)
                for i in range(tree.node_count):
                    ref = stats_from_pixels(comps[i], img.width, flat)
                    for name, want in ref.items():
                        got = getattr(table, name)[i]
                        got = tuple(got) if name == "bbox" else got
                        assert got == want, name
                assert table.gray_sum_sq[0] > 2**32

    def test_malformed_tree_refused_before_any_write(self):
        from dataclasses import replace

        from treeprofiles._native import _kernel

        img = RasterImage(np.arange(12).reshape(3, 4) % 5, levels=5)
        tree = build_max_tree(img)
        n = tree.node_count
        good = dict(parent=tree.parent.astype(np.int64),
                    pixel_node=tree.pixel_node.astype(np.int32))
        gray = img.values.ravel().astype(np.int64)

        def call(**change):
            arrays = {**good, **change}
            out = np.full((9, n), 7, dtype=np.int64)
            bbox = np.full((n, 4), 7, dtype=np.int64)
            status = _kernel().tp_attributes(
                arrays["parent"], n, arrays["pixel_node"], gray, len(gray),
                img.width, out, bbox)
            return status, out, bbox

        status, out, bbox = call()
        assert status == 0 and out[0, 0] == 12
        assert bbox[0].tolist() == [0, 0, 3, 2]
        parent_loop, parent_root = good["parent"].copy(), good["parent"].copy()
        parent_loop[-1] = n - 1
        parent_root[0] = 1
        node_high, node_low = (good["pixel_node"].copy() for _ in range(2))
        node_high[3] = n
        node_low[0] = -1
        for change in (dict(parent=parent_loop), dict(parent=parent_root),
                       dict(pixel_node=node_high), dict(pixel_node=node_low)):
            status, out, bbox = call(**change)
            assert status == -3
            assert np.all(out == 7) and np.all(bbox == 7)
        # the kernel reads one gray value per pixel_node entry, so a map of
        # another length is refused before the call
        for pixel_node in (tree.pixel_node[:-1], np.append(tree.pixel_node, 0)):
            with pytest.raises(DataError, match="pixel map"):
                compute_attributes(replace(tree, pixel_node=pixel_node), img)

    def test_non_topological_tree_is_a_data_error(self):
        from treeprofiles import Tree, TreeKind

        img = RasterImage(np.array([[0, 1, 2]]), levels=3)
        tree = Tree(kind=TreeKind.MAX_TREE, width=3, height=1, levels=3,
                    parent=np.array([0, 2, 0], dtype=np.int32),
                    level=np.array([0.0, 2.0, 1.0]),
                    pixel_node=np.array([0, 2, 1], dtype=np.int32))
        with pytest.raises(DataError, match="root-first"):
            compute_attributes(tree, img)
