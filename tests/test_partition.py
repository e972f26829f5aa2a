import numpy as np
import pytest

from treeprofiles import (
    DataError,
    RasterImage,
    build_alpha_tree,
    build_omega_tree,
    edge_list,
    node_areas,
    partition_at,
)

from conftest import random_image
from oracles import alpha_partition, tree_component_pixels


def labels_to_partition(labels: np.ndarray):
    parts = {}
    for y in range(labels.shape[0]):
        for x in range(labels.shape[1]):
            parts.setdefault(int(labels[y, x]), set()).add((y, x))
    return {frozenset(p) for p in parts.values()}


class TestEdgeList:
    def test_weights_and_count(self):
        img = RasterImage(np.array([[0, 1], [3, 4]]), levels=8)
        edges = edge_list(img, "c4")
        assert len(edges) == 4
        weights = sorted(edges.weight.tolist())
        assert weights == [1, 1, 3, 3]
        assert len(edge_list(img, "c8")) == 6


class TestAlphaTree:
    def test_row_example(self):
        img = RasterImage(np.array([[0, 1, 3, 4]]), levels=8)
        tree = build_alpha_tree(img)
        tree.validate()
        areas = node_areas(tree)
        got = sorted(zip(tree.level.tolist(), areas.tolist()))
        assert got == [(0.0, 1)] * 4 + [(1.0, 2), (1.0, 2), (2.0, 4)]

    def test_constant(self):
        tree = build_alpha_tree(RasterImage(np.full((3, 3), 4, int), levels=8))
        assert tree.node_count == 1

    def test_zero_cut_is_flat_zones(self, rng):
        for _ in range(15):
            img = random_image(rng, 10, 5)
            tree = build_alpha_tree(img)
            got = labels_to_partition(partition_at(tree, 0))
            assert got == set(alpha_partition(img.values, 0))

    def test_cut_matches_flood_fill_every_alpha(self, rng):
        for _ in range(15):
            img = random_image(rng, 9, 6)
            tree = build_alpha_tree(img)
            for alpha in range(img.levels):
                got = labels_to_partition(partition_at(tree, alpha))
                assert got == set(alpha_partition(img.values, alpha))

    def test_partition_and_refinement(self, rng):
        img = random_image(rng, 12, 8)
        tree = build_alpha_tree(img)
        previous = None
        for alpha in range(img.levels):
            labels = partition_at(tree, alpha)
            assert labels.shape == (img.height, img.width)  # total partition
            parts = labels_to_partition(labels)
            if previous is not None:
                for fine in previous:
                    assert any(fine <= coarse for coarse in parts)
            previous = parts


class TestOmegaTree:
    def test_row_example(self):
        img = RasterImage(np.array([[0, 1, 3, 4]]), levels=8)
        omega = build_omega_tree(build_alpha_tree(img), img)
        omega.validate()
        areas = node_areas(omega)
        got = sorted(zip(omega.level.tolist(), areas.tolist()))
        assert got == [(0.0, 1)] * 4 + [(1.0, 2), (1.0, 2), (4.0, 4)]
        # the 2-bounded component of pixel 0 is {0, 1}: cutting at 2 must not
        # reach the root whose range is 4
        labels = partition_at(omega, 2)
        assert labels_to_partition(labels) == {
            frozenset({(0, 0), (0, 1)}), frozenset({(0, 2), (0, 3)})
        }

    def test_single_merge_row(self):
        img = RasterImage(np.array([[0, 2, 4]]), levels=8)
        omega = build_omega_tree(build_alpha_tree(img), img)
        got = sorted(zip(omega.level.tolist(), node_areas(omega).tolist()))
        assert got == [(0.0, 1)] * 3 + [(4.0, 3)]

    def test_constant(self):
        img = RasterImage(np.full((2, 5), 1, int), levels=4)
        omega = build_omega_tree(build_alpha_tree(img), img)
        assert omega.node_count == 1

    def test_mismatch_error(self):
        img = RasterImage(np.zeros((2, 2), int), levels=2)
        other = RasterImage(np.zeros((3, 3), int), levels=2)
        alpha = build_alpha_tree(img)
        with pytest.raises(DataError):
            build_omega_tree(alpha, other)
        with pytest.raises(DataError):
            build_omega_tree(build_omega_tree(alpha, img), img)

    def test_range_invariant(self, rng):
        for _ in range(20):
            img = random_image(rng, 12, 8)
            omega = build_omega_tree(build_alpha_tree(img), img)
            comps = tree_component_pixels(omega)
            flat = img.values.ravel()
            for i in range(omega.node_count):
                grays = flat[np.array(comps[i], dtype=int)]
                rng_i = int(grays.max() - grays.min())
                assert rng_i <= omega.level[i]
                if i > 0:
                    parent_grays = flat[np.array(comps[omega.parent[i]], dtype=int)]
                    assert parent_grays.max() - parent_grays.min() > omega.level[i]

    def test_omega_refines_alpha(self, rng):
        for _ in range(10):
            img = random_image(rng, 10, 6)
            alpha = build_alpha_tree(img)
            omega = build_omega_tree(alpha, img)
            for bound in range(img.levels):
                alpha_parts = labels_to_partition(partition_at(alpha, bound))
                omega_parts = labels_to_partition(partition_at(omega, bound))
                for part in omega_parts:
                    assert any(part <= coarse for coarse in alpha_parts)
