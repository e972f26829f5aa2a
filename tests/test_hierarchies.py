import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprofiles import (
    Attribute,
    DataError,
    FilterRule,
    RasterImage,
    TreeKind,
    build_alpha_tree,
    build_max_tree,
    build_min_tree,
    build_tree,
    build_tree_of_shapes,
    compute_attributes,
    dump_tree,
    filter_tree,
    node_areas,
    partition_at,
    reconstruct,
    smallest_node,
)
from treeprofiles._native import _kernel
from treeprofiles.hierarchies import (
    accumulate,
    adjacent_pairs,
    as_connectivity,
    counting_sort,
    kruskal,
    nearest_marked,
    propagate,
)
from treeprofiles.inclusion import (
    _border_median_doubled,
    _subtree_pixel_slices,
)

from conftest import random_image
from oracles import (
    accumulate_layered,
    accumulate_loop,
    alpha_tree_union_find,
    component_tree_nodes,
    component_tree_union_find,
    depth_layers,
    kruskal_loop,
    min_rule_loop,
    nearest_retained_loop,
    partition_labels_loop,
    preorder_dfs,
    propagate_layered,
    propagate_loop,
    tree_component_pixels,
    tree_of_shapes_per_node,
)


def center_spot_image():
    values = np.ones((3, 3), dtype=int)
    values[1, 1] = 3
    return RasterImage(values, levels=4)


def node_sets(tree):
    width = tree.width
    comps = tree_component_pixels(tree)
    return {
        (int(tree.level[i]),
         frozenset((p // width, p % width) for p in comps[i]))
        for i in range(tree.node_count)
    }


class TestMaxTree:
    def test_center_spot(self):
        tree = build_max_tree(center_spot_image(), "c4")
        tree.validate()
        areas = node_areas(tree)
        assert tree.node_count == 2
        assert (int(tree.level[0]), int(areas[0])) == (1, 9)
        assert (int(tree.level[1]), int(areas[1])) == (3, 1)

    def test_constant(self):
        tree = build_max_tree(RasterImage(np.full((4, 5), 2, int), levels=8))
        assert tree.node_count == 1

    def test_row_profile(self):
        tree = build_max_tree(RasterImage(np.array([[0, 2, 1, 2]]), levels=4))
        areas = node_areas(tree)
        got = sorted(zip(tree.level.astype(int), areas.astype(int)))
        assert got == [(0, 4), (1, 3), (2, 1), (2, 1)]

    @pytest.mark.parametrize("connectivity", ["c4", "c8"])
    def test_matches_flood_fill_oracle(self, rng, connectivity):
        for _ in range(40):
            img = random_image(rng, 12, 8)
            tree = build_max_tree(img, connectivity)
            assert node_sets(tree) == component_tree_nodes(
                img.values, connectivity, upper=True
            )

    def test_reconstruction_identity(self, rng):
        for _ in range(500):
            img = random_image(rng, 32, 16)
            for conn in ("c4", "c8"):
                for build in (build_max_tree, build_min_tree):
                    tree = build(img, conn)
                    full = np.ones(tree.node_count, dtype=bool)
                    assert np.array_equal(reconstruct(tree, full).values,
                                          img.values)

    def test_single_pixel_image(self):
        img = RasterImage(np.array([[5]]), levels=8)
        for build in (build_max_tree, build_min_tree):
            tree = build(img)
            assert tree.node_count == 1
            assert tree.level[0] == 5

    def test_nesting(self, rng):
        img = random_image(rng, 10, 6)
        tree = build_max_tree(img)
        comps = [frozenset(c) for c in tree_component_pixels(tree)]
        ancestors = [set() for _ in comps]
        for i in range(1, tree.node_count):
            ancestors[i] = ancestors[tree.parent[i]] | {int(tree.parent[i])}
        for i in range(tree.node_count):
            for j in range(i + 1, tree.node_count):
                inter = comps[i] & comps[j]
                nested = comps[i] <= comps[j] or comps[j] <= comps[i]
                related = i in ancestors[j] or j in ancestors[i]
                if inter:
                    assert nested and related
                else:
                    assert not related


class TestMinTree:
    def test_center_spot(self):
        tree = build_min_tree(center_spot_image(), "c4")
        tree.validate()
        areas = node_areas(tree)
        assert tree.node_count == 2
        assert (int(tree.level[0]), int(areas[0])) == (3, 9)
        assert (int(tree.level[1]), int(areas[1])) == (1, 8)

    def test_constant(self):
        tree = build_min_tree(RasterImage(np.zeros((3, 3), int), levels=2))
        assert tree.node_count == 1

    def test_duality_with_complemented_max_tree(self, rng):
        for _ in range(30):
            img = random_image(rng, 12, 8)
            tmin = build_min_tree(img)
            tmax = build_max_tree(img.complement())
            assert tmin.kind is TreeKind.MIN_TREE
            sets_min = {comp for _, comp in node_sets(tmin)}
            sets_max = {comp for _, comp in node_sets(tmax)}
            assert sets_min == sets_max
            # levels complement pairwise
            by_comp = {comp: lvl for lvl, comp in node_sets(tmax)}
            for lvl, comp in node_sets(tmin):
                assert lvl == img.levels - 1 - by_comp[comp]


class TestSmallestNode:
    def test_examples(self):
        tree = build_max_tree(center_spot_image())
        assert smallest_node(tree, (1, 1)) == 1
        assert smallest_node(tree, (0, 0)) == 0

    def test_constant_image(self):
        tree = build_max_tree(RasterImage(np.full((2, 2), 5, int), levels=8))
        assert smallest_node(tree, (1, 0)) == 0

    def test_out_of_bounds(self):
        tree = build_max_tree(center_spot_image())
        with pytest.raises(DataError):
            smallest_node(tree, (3, 0))


class TestDump:
    def test_format(self):
        tree = build_max_tree(center_spot_image())
        assert dump_tree(tree) == "0 0 1 9\n1 0 3 1\n"


def kernel_inputs(rng, n):
    """(values, ufuncs) cases: int64, bool and stacked (n, 3) int64."""
    ints = rng.integers(-50, 50, size=n)
    flags = rng.random(n) < 0.3
    stacked = rng.integers(-50, 50, size=(n, 3))
    return [(ints, INT_UFUNCS), (stacked, INT_UFUNCS), (flags, BOOL_UFUNCS)]


INT_UFUNCS = (np.add, np.minimum, np.maximum)
BOOL_UFUNCS = (np.logical_or, np.logical_and, np.minimum, np.maximum)
FOLD_FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


def assert_folds_match_references(parent, values, ufunc):
    """The native folds equal the per-node loops and the layered folds."""
    layers = depth_layers(parent)
    cases = [
        (accumulate(parent, values, ufunc),
         accumulate_loop(parent, values, ufunc),
         accumulate_layered(parent, layers, values, ufunc)),
        (propagate(parent, values, ufunc),
         propagate_loop(parent, values, ufunc),
         propagate_layered(parent, layers, values, ufunc)),
    ]
    for got, loop, layered in cases:
        assert got.dtype == values.dtype
        assert np.array_equal(got, loop)
        assert np.array_equal(got, layered)


@st.composite
def random_folds(draw):
    """(parent, values): parent[i] drawn from [0, i), values (N,) or (N, k)
    int64 or bool."""
    n = draw(st.integers(1, 40))
    parent = np.array([0] + [draw(st.integers(0, i - 1))
                             for i in range(1, n)], dtype=np.int32)
    shape = (n,) if draw(st.booleans()) else (n, draw(st.integers(1, 4)))
    size = int(np.prod(shape))
    if draw(st.booleans()):
        items = st.booleans()
    else:
        items = st.integers(-2**40, 2**40)
    values = np.array(draw(st.lists(items, min_size=size, max_size=size)))
    return parent, values.reshape(shape)


def hand_built_parents():
    chain = np.concatenate(([0], np.arange(299))).astype(np.int32)
    star = np.zeros(40, dtype=np.int32)
    return {"single": np.zeros(1, dtype=np.int32), "chain": chain, "star": star}


@pytest.fixture
def builder_trees(rng):
    """(image, kind, tree) for every tree kind on four random images."""
    images = [random_image(rng, 12, 6, min_side=4) for _ in range(4)]
    return [(img, kind, build_tree(img, kind))
            for img in images for kind in TreeKind]


class TestTraversalKernels:
    @pytest.mark.parametrize("shape", ["single", "chain", "star"])
    def test_hand_built_match_loops(self, rng, shape):
        parent = hand_built_parents()[shape]
        layers = depth_layers(parent)
        assert sum(len(layer) for layer in layers) == len(parent) - 1
        assert len(layers) == {"single": 0, "chain": 299, "star": 1}[shape]
        for values, ufuncs in kernel_inputs(rng, len(parent)):
            for ufunc in ufuncs:
                assert_folds_match_references(parent, values, ufunc)

    def test_builder_trees_match_loops(self, rng, builder_trees):
        for _, _, tree in builder_trees:
            layers = depth_layers(tree.parent)
            for layer_above, layer in zip(layers, layers[1:]):
                assert np.isin(tree.parent[layer], layer_above).all()
            for values, ufuncs in kernel_inputs(rng, tree.node_count):
                for ufunc in ufuncs:
                    assert_folds_match_references(tree.parent, values, ufunc)
                    assert np.array_equal(tree.accumulate(values, ufunc),
                                          accumulate(tree.parent, values,
                                                     ufunc))
                    assert np.array_equal(tree.propagate(values, ufunc),
                                          propagate(tree.parent, values,
                                                    ufunc))

    def test_deep_ramp_chain_matches_loops(self):
        """A 16-bit ramp's max-tree is one chain of 65,536 nodes."""
        ramp = RasterImage(np.arange(256 * 256).reshape(256, 256),
                           levels=256 * 256)
        tree = build_max_tree(ramp)
        assert tree.node_count == 256 * 256
        assert np.array_equal(node_areas(tree),
                              256 * 256 - np.arange(256 * 256))
        marks = np.zeros(tree.node_count, dtype=bool)
        marks[::1000] = True
        for values, ufunc in ((np.arange(tree.node_count) % 7, np.add),
                              (marks, np.logical_or)):
            assert_folds_match_references(tree.parent, values, ufunc)

    @given(random_folds())
    @FOLD_FUZZ
    def test_random_parents_match_loops(self, fold):
        parent, values = fold
        ufuncs = BOOL_UFUNCS if values.dtype == bool else INT_UFUNCS
        for ufunc in ufuncs:
            assert_folds_match_references(parent, values, ufunc)

    def test_kernels_leave_input_unchanged(self, rng):
        parent = hand_built_parents()["chain"]
        values = rng.integers(0, 9, size=len(parent))
        before = values.copy()
        accumulate(parent, values, np.add)
        propagate(parent, values, np.add)
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("parent", [
        [1, 0], [0, 1], [0, 0, 2], [0, -1, 0], [0, 0, 5], [0, 2**40]])
    def test_bad_parent_refused(self, parent):
        values = np.arange(len(parent))
        for fold in (accumulate, propagate):
            with pytest.raises(DataError, match="not root-first topological"):
                fold(np.array(parent), values, np.add)

    @pytest.mark.parametrize("values, ufunc", [
        (np.arange(3.0), np.add),
        (np.arange(3, dtype=np.float32), np.maximum),
        (np.arange(3).astype(object), np.add),
        (np.arange(3, dtype=np.int32), np.add),
        (np.arange(3), np.multiply),
        (np.arange(3), np.logical_or),
        (np.ones(3, dtype=bool), np.add),
    ])
    def test_inexact_fold_refused(self, values, ufunc):
        for fold in (accumulate, propagate):
            with pytest.raises(TypeError, match="cannot fold"):
                fold(np.zeros(3, dtype=np.int32), values, ufunc)

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 2, 1), ()])
    def test_values_not_one_row_per_node_refused(self, shape):
        for fold in (accumulate, propagate):
            with pytest.raises(ValueError):
                fold(np.zeros(3, dtype=np.int32),
                     np.zeros(shape, dtype=np.int64), np.add)

    def test_tree_passes_match_loops(self, rng, builder_trees):
        for img, kind, tree in builder_trees:
            mask = rng.random(tree.node_count) < 0.4
            mask[0] = True
            assert np.array_equal(nearest_marked(tree, mask),
                                  nearest_retained_loop(tree.parent, mask))
            table = compute_attributes(tree, img)
            keep = table.area >= 3
            keep[0] = True
            assert np.array_equal(
                filter_tree(tree, table, Attribute.AREA, 3, FilterRule.MIN),
                min_rule_loop(tree.parent, keep))
            if kind in (TreeKind.ALPHA_TREE, TreeKind.OMEGA_TREE):
                for threshold in np.unique(tree.level):
                    assert np.array_equal(
                        partition_at(tree, threshold),
                        partition_labels_loop(tree, threshold))

    def test_subtree_pixel_slices_match_dfs(self, builder_trees):
        for _, _, tree in builder_trees:
            pre, post = preorder_dfs(tree.parent)
            keys = pre[tree.pixel_node]
            cum = np.concatenate(
                ([0], np.cumsum(np.bincount(keys, minlength=tree.node_count))))
            pix_order, lo, hi = _subtree_pixel_slices(tree)
            assert np.array_equal(pix_order, np.argsort(keys, kind="stable"))
            assert np.array_equal(lo, cum[pre])
            assert np.array_equal(hi, cum[post])


TREE_ARRAYS = ("parent", "level", "pixel_node", "rep_value")


def assert_same_tree(tree, ref):
    assert (tree.kind, tree.width, tree.height, tree.levels) == \
        (ref.kind, ref.width, ref.height, ref.levels)
    for name in TREE_ARRAYS:
        got, want = getattr(tree, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def edge_case_images(rng):
    return [
        RasterImage(np.array([[5]]), levels=8),
        RasterImage(np.full((4, 6), 3, int), levels=8),
        RasterImage(rng.integers(0, 6, size=(1, 23)), levels=6),
        RasterImage(rng.integers(0, 6, size=(23, 1)), levels=6),
    ]


def kruskal_inputs(image, connectivity):
    """``kruskal``'s (a, b, weight, order, leaf_level) for the max-, min- and
    alpha-tree edge orders: the counting-sort orders that ``build_max_tree``,
    ``build_min_tree`` and ``build_alpha_tree`` pass, and for the max- and
    min-tree also an unstable argsort, which orders equal weights
    differently."""
    flat = image.values.ravel()
    a, b = adjacent_pairs(image.width, image.height,
                          as_connectivity(connectivity))
    low, high = np.minimum(flat[a], flat[b]), np.maximum(flat[a], flat[b])
    diff = np.abs(flat[a] - flat[b])
    alpha_order = counting_sort(diff)
    assert np.array_equal(alpha_order, np.argsort(diff, kind="stable"))
    return [(a, b, low, np.argsort(-low), flat),
            (a, b, low, counting_sort(low, descending=True), flat),
            (a, b, high, np.argsort(high), flat),
            (a, b, high, counting_sort(high), flat),
            (a, b, diff, alpha_order, np.zeros(len(flat)))]


def native_counting_sort(key, ids, size):
    """(status, out) of one ``tp_counting_sort`` call; out starts as -7 so
    that a refused call can be seen to write nothing."""
    key, ids = (np.array(v, dtype=np.int64) for v in (key, ids))
    out = np.full(len(ids), -7, dtype=np.int64)
    status = _kernel().tp_counting_sort(key, len(key), ids, len(ids), size,
                                        out)
    return status, out


class TestCountingSort:
    """The native counting sort is ``np.argsort(kind="stable")``."""

    @pytest.mark.parametrize("size", [1, 2, 7, 300, 131071])
    def test_random_keys(self, size):
        rng = np.random.default_rng(size)
        for n in (0, 1, 2, 17, 1000):
            key = rng.integers(0, size, size=n)
            assert np.array_equal(counting_sort(key),
                                  np.argsort(key, kind="stable"))
            assert np.array_equal(counting_sort(key, descending=True),
                                  np.argsort(-key, kind="stable"))
            order = rng.permutation(n)
            assert np.array_equal(
                counting_sort(key, order),
                order[np.argsort(key[order], kind="stable")])
            status, out = native_counting_sort(key, order, size)
            assert status == 0
            assert np.array_equal(
                out, order[np.argsort(key[order], kind="stable")])

    def test_negative_keys_are_shifted(self):
        key = np.array([3, -5, 0, -5, 3, 2])
        assert counting_sort(key).tolist() == [1, 3, 2, 5, 0, 4]
        assert counting_sort(key, descending=True).tolist() == \
            [0, 4, 5, 2, 1, 3]

    def test_lsd_passes_are_lexsort(self):
        rng = np.random.default_rng(4)
        major, minor = rng.integers(0, 5, size=(2, 400))
        order = counting_sort(major, counting_sort(minor))
        assert np.array_equal(order, np.lexsort((minor, major)))

    @pytest.mark.parametrize("key, ids, size, want", [
        ([], [], 0, []),
        ([], [], 5, []),
        ([0, 0, 0], [2, 0, 1], 1, [2, 0, 1]),
        ([4, 4, 4, 4], [3, 1, 2, 0], 5, [3, 1, 2, 0]),
        ([4, 0, 4, 1], [0, 1, 2, 3], 5, [1, 3, 0, 2]),
        ([4, 0, 4, 1], [2, 3, 0], 5, [3, 2, 0]),
    ])
    def test_edge_cases(self, key, ids, size, want):
        status, out = native_counting_sort(key, ids, size)
        assert status == 0
        assert out.tolist() == want

    @pytest.mark.parametrize("key, ids, size", [
        ([0, 1, -1], [0, 1, 2], 2),     # negative key
        ([0, 1, 2], [0, 1, 2], 2),      # key equal to the range
        ([0, 9, 1], [0, 1, 2], 2),      # key past the range
        ([0, 1, 1], [0, 1, 2], 0),      # empty range
        ([0, 1, 1], [0, 1, 2], -1),     # negative range
        ([0, 1, 1], [0, 1, 3], 2),      # id past the keys
        ([0, 1, 1], [0, -1, 2], 2),     # negative id
    ])
    def test_bad_key_or_id_refused(self, key, ids, size):
        # the valid entries come first: they would be written if checks
        # came late
        status, out = native_counting_sort(key, ids, size)
        assert status == -3
        assert (out == -7).all()


def assert_same_records(got, want):
    for name, g, w in zip(("records", "parent", "level", "pixel_record"),
                          got, want):
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


class TestKruskalMatchesUnionFind:
    """The Kruskal builders reproduce the pixel-sorted union-find (max/min)
    and the record union-find (alpha) exactly: arrays, dtypes and ids."""

    @pytest.fixture(scope="class")
    def images(self):
        rng = np.random.default_rng(8)
        return ([random_image(rng, 13, 8) for _ in range(300)]
                + edge_case_images(rng))

    @pytest.mark.parametrize("connectivity", ["c4", "c8"])
    def test_component_and_alpha_trees(self, images, connectivity):
        for img in images:
            assert_same_tree(build_max_tree(img, connectivity),
                             component_tree_union_find(img, connectivity, True))
            assert_same_tree(build_min_tree(img, connectivity),
                             component_tree_union_find(img, connectivity,
                                                       False))
            assert_same_tree(build_alpha_tree(img, connectivity),
                             alpha_tree_union_find(img, connectivity))

    @pytest.mark.parametrize("connectivity", ["c4", "c8"])
    def test_sixteen_bit_ramp(self, connectivity):
        ramp = RasterImage(np.arange(256 * 256).reshape(256, 256),
                           levels=256 * 256)
        assert_same_tree(build_max_tree(ramp, connectivity),
                         component_tree_union_find(ramp, connectivity, True))
        assert_same_tree(build_min_tree(ramp, connectivity),
                         component_tree_union_find(ramp, connectivity, False))
        assert_same_tree(build_alpha_tree(ramp, connectivity),
                         alpha_tree_union_find(ramp, connectivity))

    def test_tree_of_shapes(self, images):
        for img in images:
            assert_same_tree(build_tree_of_shapes(img),
                             tree_of_shapes_per_node(img))

    @staticmethod
    def sixteen_bit_images():
        """Small images over the gray values 0, 1, 40000, 65534 and 65535,
        whose doubled levels reach 131,070, the widest key range sorted in
        tree construction; the first has the half-level border median
        (1 + 40000) / 2."""
        values = np.array([0, 1, 40000, 65534, 65535])
        half = np.array([[0, 0, 0, 1, 1],
                         [1, 65535, 40000, 0, 0],
                         [40000, 1, 65534, 1, 40000],
                         [65534, 65535, 65535, 65535, 65534]])
        rng = np.random.default_rng(16)
        return [RasterImage(half, levels=65536)] + [
            RasterImage(rng.choice(values, size=rng.integers(1, 9, size=2)),
                        levels=65536)
            for _ in range(60)]

    @pytest.mark.parametrize("complement", [False, True])
    def test_sixteen_bit_tree_of_shapes_and_alpha_tree(self, complement):
        images = self.sixteen_bit_images()
        assert _border_median_doubled(images[0].values) == 40001
        for img in images:
            img = img.complement() if complement else img
            assert_same_tree(build_tree_of_shapes(img),
                             tree_of_shapes_per_node(img))
            for connectivity in ("c4", "c8"):
                assert_same_tree(build_alpha_tree(img, connectivity),
                                 alpha_tree_union_find(img, connectivity))

    @pytest.mark.parametrize("connectivity", ["c4", "c8"])
    def test_kernel_matches_python_loop(self, images, connectivity):
        assert images[-4].values.shape == (1, 1)  # a pixel, no edges
        for img in images:
            for args in kruskal_inputs(img, connectivity):
                assert_same_records(kruskal(*args), kruskal_loop(*args))

    @pytest.mark.parametrize("connectivity", ["c4", "c8"])
    def test_kernel_matches_python_loop_on_ramp(self, connectivity):
        ramp = RasterImage(np.arange(256 * 256).reshape(256, 256),
                           levels=256 * 256)
        for args in kruskal_inputs(ramp, connectivity):
            assert_same_records(kruskal(*args), kruskal_loop(*args))

    def test_kernel_rejects_out_of_range_indices(self):
        image = RasterImage(np.arange(6).reshape(2, 3), levels=6)
        a, b, weight, order, leaf = kruskal_inputs(image, "c4")[0]
        for bad in ((a, b + 6, weight, order, leaf),
                    (a - 1 - a.max(), b, weight, order, leaf),
                    (a, b, weight, order + len(order), leaf),
                    (a, b, weight, order - len(order), leaf)):
            with pytest.raises(IndexError):
                kruskal(*bad)
