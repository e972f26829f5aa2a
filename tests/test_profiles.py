from dataclasses import replace

import numpy as np
import pytest

from treeprofiles import (
    Attribute,
    AttributeTable,
    DataError,
    Feature,
    FilterRule,
    FilterSpec,
    ProfileStack,
    ProfileTrees,
    RasterImage,
    Tree,
    TreeKind,
    build_alpha_tree,
    build_ap,
    build_fp,
    build_max_tree,
    build_min_tree,
    build_tree,
    build_tree_of_shapes,
    compute_attributes,
    feature_map,
    filter_tree,
    reconstruct,
    tree_bundle,
)
from treeprofiles._native import _kernel
from treeprofiles.profiles import _LADDER_RULES, _node_values, profile_dim

from conftest import random_image
from oracles import (
    area_opening,
    border_median,
    profile_per_column,
    rounded_mean_gray,
    two_pass_std,
)


def center_spot():
    values = np.ones((3, 3), dtype=int)
    values[1, 1] = 3
    return RasterImage(values, levels=4)


def chain_fixture():
    """Hand-built 3-node chain with area attribute [9, 1, 5] root to leaf."""
    tree = Tree(
        kind=TreeKind.MAX_TREE, width=5, height=3, levels=8,
        parent=np.array([0, 0, 1], dtype=np.int32),
        level=np.array([0.0, 1.0, 2.0]),
        pixel_node=np.array([0] * 8 + [1] * 4 + [2] * 3, dtype=np.int32),
    )
    zeros = np.zeros(3, dtype=np.int64)
    table = AttributeTable(
        area=np.array([9, 1, 5], dtype=np.int64),
        sum_x=zeros, sum_y=zeros, sum_xx=zeros, sum_yy=zeros,
        gray_sum=zeros, gray_sum_sq=zeros,
        gray_min=zeros, gray_max=zeros,
        bbox=np.zeros((3, 4), dtype=np.int64),
    )
    return tree, table


class TestFilterTree:
    def test_min_rule_prunes_small(self):
        img = center_spot()
        tree = build_max_tree(img)
        table = compute_attributes(tree, img)
        mask = filter_tree(tree, table, Attribute.AREA, 2, FilterRule.MIN)
        assert mask.tolist() == [True, False]

    def test_identity_below_min_attribute(self):
        img = center_spot()
        tree = build_max_tree(img)
        table = compute_attributes(tree, img)
        mask = filter_tree(tree, table, Attribute.AREA, 1, FilterRule.MIN)
        assert mask.all()

    def test_rules_on_chain(self):
        tree, table = chain_fixture()
        direct = filter_tree(tree, table, Attribute.AREA, 2, FilterRule.DIRECT)
        assert direct.tolist() == [True, False, True]
        prune = filter_tree(tree, table, Attribute.AREA, 2, FilterRule.MIN)
        assert prune.tolist() == [True, False, False]


class TestReconstruct:
    def test_center_spot_filtered(self):
        img = center_spot()
        tree = build_max_tree(img)
        table = compute_attributes(tree, img)
        mask = filter_tree(tree, table, Attribute.AREA, 2, FilterRule.MIN)
        assert np.all(reconstruct(tree, mask, table).values == 1)

    def test_identity_mask(self, rng):
        img = random_image(rng, 12, 8)
        tree = build_max_tree(img)
        mask = np.ones(tree.node_count, dtype=bool)
        table = compute_attributes(tree, img)
        assert np.array_equal(reconstruct(tree, mask, table).values,
                              img.values)

    def test_alpha_root_mean(self):
        img = RasterImage(np.array([[0, 1, 3, 4]]), levels=8)
        tree = build_alpha_tree(img)
        mask = np.zeros(tree.node_count, dtype=bool)
        mask[0] = True
        table = compute_attributes(tree, img)
        assert np.all(reconstruct(tree, mask, table).values == 2)

    def test_alpha_half_mean_rounds_up(self):
        # the root's mean is 18 / 4 = 4.5, {1, 2}'s 1.5 and {6, 9}'s 7.5
        img = RasterImage(np.array([[1, 2, 6, 9]]), levels=10)
        tree = build_alpha_tree(img)
        table = compute_attributes(tree, img)
        assert tree.level[:3].tolist() == [4.0, 3.0, 1.0]
        root = np.zeros(tree.node_count, dtype=bool)
        root[0] = True
        assert reconstruct(tree, root, table).values.tolist() == [[5] * 4]
        regions = root.copy()
        regions[1:3] = True
        assert reconstruct(tree, regions, table).values.tolist() == \
            [[2, 2, 8, 8]]

    def test_tree_of_shapes_half_level_root_rounds_up(self):
        # the border median of 0, 1, 1, 0 is 0.5, and no pixel sits there
        img = RasterImage(np.array([[0, 1], [1, 0]]), levels=2)
        tree = build_tree_of_shapes(img)
        table = compute_attributes(tree, img)
        assert tree.level[0] == 0.5
        assert _node_values(tree, table, "gray")[0] == 0.5
        root = np.zeros(tree.node_count, dtype=bool)
        root[0] = True
        assert np.all(reconstruct(tree, root, table).values == 1)

    def test_root_must_stay(self):
        img = center_spot()
        tree = build_max_tree(img)
        mask = np.zeros(tree.node_count, dtype=bool)
        with pytest.raises(DataError):
            reconstruct(tree, mask, compute_attributes(tree, img))


class TestTableOfAnotherTree:
    """A table whose node count is not the tree's is refused wherever a
    per-node table is read."""

    def test_refused(self, rng):
        img = RasterImage(rng.integers(0, 8, size=(24, 24)), levels=8)
        max_tree, min_tree = build_max_tree(img), build_min_tree(img)
        assert max_tree.node_count != min_tree.node_count
        min_table = compute_attributes(min_tree, img)
        mask = np.ones(max_tree.node_count, dtype=bool)
        with pytest.raises(DataError, match="does not match tree"):
            feature_map(max_tree, mask, min_table, "area")
        with pytest.raises(DataError, match="does not match tree"):
            reconstruct(max_tree, mask, min_table)
        with pytest.raises(DataError, match="does not match tree"):
            filter_tree(max_tree, min_table, "area", 2, "min")


class TestFeatureMap:
    def test_area_identity_mask(self):
        img = center_spot()
        tree = build_max_tree(img)
        table = compute_attributes(tree, img)
        mask = np.ones(tree.node_count, dtype=bool)
        fm = feature_map(tree, mask, table, Feature.AREA)
        assert fm[1, 1] == 1.0
        assert fm[0, 0] == 9.0

    def test_area_after_pruning(self):
        img = center_spot()
        tree = build_max_tree(img)
        table = compute_attributes(tree, img)
        mask = filter_tree(tree, table, Attribute.AREA, 2, FilterRule.MIN)
        assert np.all(feature_map(tree, mask, table, Feature.AREA) == 9.0)

    def test_constant_stddev(self):
        img = RasterImage(np.full((4, 4), 3, int), levels=8)
        tree = build_max_tree(img)
        table = compute_attributes(tree, img)
        mask = np.ones(tree.node_count, dtype=bool)
        assert np.all(feature_map(tree, mask, table, Feature.STD_DEV) == 0.0)

    def test_level_feature_equals_reconstruct(self, rng):
        """Each pixel's area feature and reconstructed value come from the
        first retained node on a walk up ``tree.parent``."""
        for _ in range(10):
            img = random_image(rng, 10, 6)
            for kind in TreeKind:
                tree = build_tree(img, kind)
                table = compute_attributes(tree, img)
                mask = filter_tree(tree, table, Attribute.AREA, 3, FilterRule.MIN)
                retained = []
                for node in tree.pixel_node.tolist():
                    while not mask[node]:
                        node = tree.parent[node]
                    retained.append(node)
                retained = np.array(retained).reshape(img.height, img.width)
                fm = feature_map(tree, mask, table, Feature.AREA)
                assert np.array_equal(fm, table.area[retained].astype(float))
                if kind in (TreeKind.ALPHA_TREE, TreeKind.OMEGA_TREE):
                    gray = rounded_mean_gray(tree, img)
                else:
                    gray = np.ceil(tree.level).astype(np.int64)
                assert np.array_equal(reconstruct(tree, mask, table).values,
                                      gray[retained])


def spec_area(k: int) -> FilterSpec:
    return FilterSpec(Attribute.AREA, tuple(float(2 + i) for i in range(k)))


class TestGivenAlphaTree:
    def test_partition_trees_from_given_alpha(self, rng):
        for _ in range(5):
            img = random_image(rng, 9, 8, min_side=2)
            alpha = build_alpha_tree(img)
            assert build_tree(img, "alpha", alpha=alpha) is alpha
            for kind in ("alpha", "omega"):
                fresh, given = build_tree(img, kind), \
                    tree_bundle([img], kind, alphas=[alpha]).pairs[0][0][0]
                for field in ("parent", "level", "pixel_node"):
                    assert np.array_equal(getattr(fresh, field),
                                          getattr(given, field))

    def test_alpha_must_be_this_images_alpha_tree(self, rng):
        img = random_image(rng, 6, 8, min_side=6)
        with pytest.raises(DataError):
            build_tree(img, "omega", alpha=build_max_tree(img))
        other = RasterImage(np.zeros((2, 3), int), levels=8)
        with pytest.raises(DataError):
            build_tree(img, "alpha", alpha=build_alpha_tree(other))


class TestBuildAp:
    def test_component_pair_dim(self, rng):
        img = random_image(rng, 8, 6, min_side=4)
        stack = build_ap(tree_bundle([img], ProfileTrees.COMPONENT_PAIR),
                         [spec_area(4)])
        assert stack.dim == 9
        polarity = [c.polarity for c in stack.layout]
        assert polarity == ["thickening"] * 4 + ["original"] + ["thinning"] * 4
        # thickenings ordered from the largest threshold inward
        assert [c.threshold for c in stack.layout[:4]] == [5.0, 4.0, 3.0, 2.0]

    def test_selfdual_dim(self, rng):
        img = random_image(rng, 8, 6, min_side=4)
        for kind in (ProfileTrees.TOS, ProfileTrees.ALPHA, ProfileTrees.OMEGA):
            stack = build_ap(tree_bundle([img], kind), [spec_area(4)])
            assert stack.dim == 5
            assert stack.layout[0].polarity == "original"

    def test_identity_profile(self, rng):
        img = random_image(rng, 8, 6)
        spec = FilterSpec(Attribute.AREA, (0.5,))
        stack = build_ap(tree_bundle([img], ProfileTrees.COMPONENT_PAIR),
                         [spec])
        original = img.values.ravel().astype(float)
        for c in range(stack.dim):
            assert np.array_equal(stack.data[:, c], original)

    def test_anti_extensive_and_extensive(self, rng):
        for _ in range(10):
            img = random_image(rng, 12, 8)
            stack = build_ap(tree_bundle([img], ProfileTrees.COMPONENT_PAIR),
                             [spec_area(3)])
            original = img.values.ravel().astype(float)
            for col, desc in zip(stack.data.T, stack.layout):
                if desc.polarity == "thinning":
                    assert np.all(col <= original)
                elif desc.polarity == "thickening":
                    assert np.all(col >= original)

    def test_area_opening_matches_oracle(self, rng):
        for _ in range(30):
            img = random_image(rng, 12, 8)
            tree = build_max_tree(img)
            table = compute_attributes(tree, img)
            for lam in (2, 4, 9):
                mask = filter_tree(tree, table, Attribute.AREA, lam,
                                   FilterRule.MIN)
                got = reconstruct(tree, mask, table).values
                assert np.array_equal(got, area_opening(img.values, lam, "c4"))

    def test_absorption_across_thresholds(self, rng):
        for _ in range(10):
            img = random_image(rng, 10, 6)
            t1, t2 = 3, 7
            tree = build_max_tree(img)
            table = compute_attributes(tree, img)
            m1 = filter_tree(tree, table, Attribute.AREA, t1, FilterRule.MIN)
            once = reconstruct(tree, m1, table)
            tree2 = build_max_tree(once)
            table2 = compute_attributes(tree2, once)
            m2 = filter_tree(tree2, table2, Attribute.AREA, t2, FilterRule.MIN)
            twice = reconstruct(tree2, m2, table2)
            direct = reconstruct(
                tree, filter_tree(tree, table, Attribute.AREA, t2,
                                  FilterRule.MIN), table)
            assert np.array_equal(twice.values, direct.values)

    def test_selfdual_invariance_tos(self, rng):
        for _ in range(10):
            img = random_image(rng, 10, 6)
            spec = spec_area(3)
            ap = build_ap(tree_bundle([img], ProfileTrees.TOS), [spec])
            ap_c = build_ap(tree_bundle([img.complement()], ProfileTrees.TOS),
                            [spec])
            assert np.allclose(ap.data, (img.levels - 1) - ap_c.data)


class TestBuildFp:
    def test_component_pair_dims(self, rng):
        img = random_image(rng, 8, 6, min_side=4)
        stack = build_fp(tree_bundle([img], ProfileTrees.COMPONENT_PAIR),
                         [spec_area(4)], [Feature.STD_DEV, Feature.AREA])
        assert stack.dim == 18
        # central column of each block is the raw gray value
        original = img.values.ravel().astype(float)
        for block in (0, 1):
            center = stack.layout[block * 9 + 4]
            assert center.polarity == "original"
            assert np.array_equal(stack.data[:, block * 9 + 4], original)

    def test_alpha_single_feature(self, rng):
        img = random_image(rng, 8, 6, min_side=4)
        stack = build_fp(tree_bundle([img], ProfileTrees.ALPHA),
                         [spec_area(4)], [Feature.AREA])
        assert stack.dim == 5

    def test_constant_image_features(self):
        img = RasterImage(np.full((4, 5), 2, int), levels=4)
        stack = build_fp(tree_bundle([img], ProfileTrees.COMPONENT_PAIR),
                         [spec_area(2)], [Feature.STD_DEV, Feature.AREA])
        for col, desc in zip(stack.data.T, stack.layout):
            if desc.feature == "stddev":
                assert np.all(col == 0.0)
            elif desc.feature == "area":
                assert np.all(col == 20.0)

    def test_needs_feature(self, rng):
        img = random_image(rng, 6, 4)
        with pytest.raises(DataError):
            build_fp(tree_bundle([img], ProfileTrees.COMPONENT_PAIR),
                     [spec_area(2)], [])


class TestLayoutMatrix:
    @pytest.mark.parametrize("kind", list(ProfileTrees))
    @pytest.mark.parametrize("attribute", list(Attribute))
    @pytest.mark.parametrize("mode", ["ap", "fp"])
    def test_column_counts(self, rng, kind, attribute, mode):
        img = random_image(rng, 8, 6, min_side=4)
        k = 3
        if attribute is Attribute.AREA:
            spec = FilterSpec(attribute, (2.0, 3.0, 5.0))
        else:
            spec = FilterSpec(attribute, (0.1, 0.2, 0.3))
        per_tree = 2 * k + 1 if kind is ProfileTrees.COMPONENT_PAIR else k + 1
        if mode == "ap":
            stack = build_ap(tree_bundle([img], kind), [spec])
            assert stack.dim == per_tree
        else:
            stack = build_fp(tree_bundle([img], kind), [spec],
                             [Feature.STD_DEV, Feature.AREA])
            assert stack.dim == 2 * per_tree
        assert len(stack.layout) == stack.dim


def assert_matches_reference(bundle, spec):
    """AP and FP stacks equal ``profile_per_column`` as float32, to the byte."""
    for features in (None, ["stddev", "area"]):
        if features is None:
            stack = build_ap(bundle, [spec])
        else:
            stack = build_fp(bundle, [spec], features)
        layout, data = profile_per_column(bundle, spec, features)
        assert stack.layout == layout
        assert stack.data.tobytes() == data.astype(np.float32).tobytes()


class TestPerColumnReference:
    """Each (tree, threshold) is resolved once and shared by every feature;
    the stacks equal the old one-resolution-per-column path, rounded to the
    stacks' float32, exactly."""

    @pytest.mark.parametrize("rule", list(FilterRule))
    @pytest.mark.parametrize("kind", list(ProfileTrees))
    def test_area_thresholds_equal_to_node_areas(self, rng, kind, rule):
        # a node whose area equals a threshold passes it (``>=``)
        for _ in range(5):
            img = random_image(rng, 9, 12, min_side=2)
            bundle = tree_bundle([img], kind)
            areas = np.unique(np.concatenate(
                [table.area for _, table in bundle.pairs[0]]))
            picked = areas[::max(1, len(areas) // 4)]
            spec = FilterSpec(Attribute.AREA,
                              tuple(float(a) for a in picked), rule)
            assert_matches_reference(bundle, spec)

    @pytest.mark.parametrize("kind", list(ProfileTrees))
    def test_direct_rule_keeps_a_child_under_a_dropped_parent(self, rng,
                                                              kind):
        spec = FilterSpec(Attribute.MOMENT, (0.2, 0.3, 0.4, 0.5),
                          FilterRule.DIRECT)
        seen = 0
        for _ in range(10):
            img = random_image(rng, 9, 12, min_side=3)
            bundle = tree_bundle([img], kind)
            for tree, table in bundle.pairs[0]:
                for lam in spec.thresholds:
                    keep = filter_tree(tree, table, spec.attribute, lam,
                                       spec.rule)
                    seen += int(np.count_nonzero(
                        keep[1:] & ~keep[tree.parent[1:]]))
            assert_matches_reference(bundle, spec)
        assert seen > 0

    @pytest.mark.parametrize("kind", list(ProfileTrees))
    def test_matches_reference(self, rng, kind):
        specs = [FilterSpec(Attribute.AREA, (2.0, 3.0, 7.0), rule)
                 for rule in FilterRule] + \
                [FilterSpec(Attribute.MOMENT, (0.1, 0.25), rule)
                 for rule in FilterRule]
        feature_sets = (None, ["stddev"], ["area"], ["stddev", "area"],
                        ["area", "stddev"])
        for _ in range(12):
            img = random_image(rng, 9, 7)
            bundle = tree_bundle([img], kind)
            for spec in specs:
                for features in feature_sets:
                    if features is None:
                        stack = build_ap(bundle, [spec])
                    else:
                        stack = build_fp(bundle, [spec], features)
                    layout, data = profile_per_column(bundle, spec, features)
                    data = data.astype(np.float32)
                    assert stack.layout == layout
                    assert stack.data.dtype == data.dtype
                    assert np.array_equal(stack.data, data)


class TestLadderKernel:
    """``tp_ladder`` writes each (tree, threshold)'s gathers straight into
    the stack's float32 columns: the stacks equal the one-column-at-a-time
    oracle rounded to float32 byte for byte, wherever their columns live."""

    @pytest.mark.parametrize("kind", list(ProfileTrees))
    def test_thresholds_at_and_beyond_the_image_area(self, rng, kind):
        for _ in range(5):
            img = random_image(rng, 9, 12, min_side=2)
            n = img.values.size
            bundle = tree_bundle([img], kind)
            for rule in FilterRule:
                for spec in (
                        FilterSpec(Attribute.AREA, (1.0, n - 1.0, float(n),
                                                    n + 1.0, 4.0 * n), rule),
                        FilterSpec(Attribute.MOMENT, (0.05, 0.2, 1e6), rule)):
                    for features in (None, ["stddev"], ["area"],
                                     ["area", "stddev"]):
                        if features is None:
                            stack = build_ap(bundle, [spec])
                        else:
                            stack = build_fp(bundle, [spec], features)
                        layout, data = profile_per_column(bundle, spec,
                                                          features)
                        assert stack.layout == layout
                        assert stack.dim == profile_dim(
                            kind, [spec], len(features or ["gray"]))
                        assert stack.data.tobytes() == \
                            data.astype(np.float32).tobytes()

    @pytest.mark.parametrize("kind", list(ProfileTrees))
    def test_written_into_a_column_slice(self, rng, kind):
        img = random_image(rng, 10, 12, min_side=3)
        spec = FilterSpec(Attribute.AREA, (2.0, 5.0, 9.0))
        bundle = tree_bundle([img], kind)
        for features in (None, ["stddev", "area"]):
            build = (lambda **kw: build_ap(bundle, [spec], **kw)) \
                if features is None else \
                (lambda **kw: build_fp(bundle, [spec], features, **kw))
            want = build()
            big = np.full((img.values.size, want.dim + 5), np.nan,
                          dtype=np.float32)
            got = build(out=big[:, 2:2 + want.dim])
            assert got.data.base is big
            assert got.layout == want.layout
            assert np.ascontiguousarray(got.data).tobytes() == \
                want.data.tobytes()
            assert np.isnan(big[:, :2]).all() and np.isnan(big[:, -3:]).all()

    @pytest.mark.parametrize("bad", ["narrow", "float64", "strided",
                                     "fortran", "read-only"])
    def test_bad_out_refused_before_any_write(self, rng, bad):
        img = random_image(rng, 8, 12, min_side=3)
        spec = FilterSpec(Attribute.AREA, (2.0, 5.0))
        n, dim = img.values.size, profile_dim("component", [spec], 2)
        big = np.full((n, 2 * dim + 1), -1.0, dtype=np.float32)
        out = {
            "narrow": big[:, :dim - 1],
            "float64": np.full((n, dim), -1.0),
            "strided": big[:, :2 * dim:2],
            "fortran": np.asfortranarray(np.full((n, dim), -1.0, np.float32)),
            "read-only": np.full((n, dim), -1.0, dtype=np.float32),
        }[bad]
        out.setflags(write=bad != "read-only")
        with pytest.raises(ValueError, match="out must be"):
            build_fp(tree_bundle([img], "component"), [spec],
                     ["stddev", "area"],
                     out=out)
        assert np.all(out == -1.0) and np.all(big == -1.0)

    def test_kernel_refuses_before_any_write(self):
        img = RasterImage(np.arange(20).reshape(4, 5) % 7, levels=7)
        tree = build_max_tree(img)
        table = compute_attributes(tree, img)
        n, npix = tree.node_count, img.values.size
        good = dict(
            parent=tree.parent.astype(np.int64),
            thresholds=np.array([2.0, 5.0]), rule=0,
            pixel_node=tree.pixel_node.astype(np.int32),
            cols=np.array([[0, 1], [2, 3]], dtype=np.int64), stride=4)
        tables = np.stack([tree.level, table.area.astype(np.float64)])

        def call(**change):
            a = {**good, **change}
            out = np.full((npix, 4), -1.0, dtype=np.float32)
            status = _kernel().tp_ladder(
                a["parent"], n, table.area.astype(np.float64),
                a["thresholds"], 2, a["rule"], a["pixel_node"], npix, tables,
                2, a["cols"], out.ctypes.data, a["stride"], 4)
            return status, out

        status, out = call()
        assert status == 0
        for t, lam in enumerate((2.0, 5.0)):
            owner = nearest_owner(tree, filter_tree(tree, table, "area", lam,
                                                    "min"))
            assert out[:, t].tolist() == tree.level[owner].tolist()
            assert out[:, 2 + t].tolist() == table.area[owner].tolist()
        loop = good["parent"].copy()
        loop[1] = 1
        high, low = good["pixel_node"].copy(), good["pixel_node"].copy()
        high[4] = n
        low[0] = -1
        refusals = {
            "parent loop": dict(parent=loop),
            "pixel node high": dict(pixel_node=high),
            "pixel node low": dict(pixel_node=low),
            "column high": dict(cols=good["cols"] + 1),
            "narrow stride": dict(stride=3),
            "NaN threshold": dict(thresholds=np.array([2.0, np.nan])),
            "infinite threshold": dict(thresholds=np.array([2.0, np.inf])),
            "negative infinite threshold":
                dict(thresholds=np.array([-np.inf, 5.0])),
            "equal thresholds": dict(thresholds=np.array([2.0, 2.0])),
            "descending thresholds": dict(thresholds=np.array([5.0, 2.0])),
            "rule 2": dict(rule=2),
            "rule -1": dict(rule=-1),
        }
        for bad, change in refusals.items():
            status, out = call(**change)
            assert status == -3, bad
            assert np.all(out == -1.0), bad

    def test_values_rounded_to_nearest_float(self):
        # a table value that is no float32 is written rounded to the nearest
        # one: 0.1 up, 2**24 + 1 and 2**24 + 3 (both halfway) to even
        values = np.array([0.1, 2.0**24 + 1, 2.0**24 + 3, -1 / 3, 1e-50])
        n = len(values)  # a root and its n - 1 children, one pixel each
        out = np.zeros((n, 1), dtype=np.float32)
        status = _kernel().tp_ladder(
            np.zeros(n, np.int64), n, np.ones(n), np.array([1.0]), 1, 1,
            np.arange(n, dtype=np.int32), n, values[None], 1,
            np.zeros((1, 1), np.int64), out.ctypes.data, 1, 1)
        assert status == 0
        assert out[:, 0].tolist() == [np.float32(0.1).item(), 2.0**24,
                                      2.0**24 + 4, np.float32(-1 / 3).item(),
                                      0.0]
        assert out.tobytes() == values.astype(np.float32).tobytes()

    @pytest.mark.parametrize("rule", list(FilterRule))
    def test_nan_value_is_never_retained(self, rng, rule):
        # filter_tree's float64 ``values >= threshold`` is False for NaN,
        # so a NaN node is dropped at every threshold (the root is kept);
        # the gathered table is the node ids, exact in float32
        thresholds = np.array([-1.0, 1.0, 3.0])
        k = len(thresholds)
        for _ in range(10):
            img = random_image(rng, 8, 10, min_side=2)
            tree = build_max_tree(img)
            n, npix = tree.node_count, img.values.size
            values = compute_attributes(tree, img).area.astype(np.float64)
            values[rng.random(n) < 0.3] = np.nan
            values[0] = np.nan
            out = np.full((npix, k), -1.0, dtype=np.float32)
            status = _kernel().tp_ladder(
                tree.parent.astype(np.int64), n, values, thresholds, k,
                _LADDER_RULES[rule], tree.pixel_node.astype(np.int32), npix,
                np.arange(n, dtype=np.float64)[None], 1,
                np.arange(k, dtype=np.int64)[None], out.ctypes.data, k, k)
            assert status == 0
            for t, lam in enumerate(thresholds):
                keep = values >= lam
                keep[0] = True
                if rule is FilterRule.MIN:
                    keep = tree.propagate(keep, np.logical_and)
                assert not keep[1:][np.isnan(values[1:])].any()
                assert out[:, t].tolist() == \
                    nearest_owner(tree, keep).tolist()


class TestBundleOfBands:
    """One bundle holds a family's trees on every band, and one call writes
    every band's block of every spec, band first, then spec, then feature:
    each block is the one-column-at-a-time oracle's, to the byte."""

    @pytest.mark.parametrize("kind", list(ProfileTrees))
    def test_equal_to_the_oracle_per_band_and_spec(self, rng, kind):
        bands = [RasterImage(rng.integers(0, levels, size=(9, 11)), levels)
                 for levels in (5, 16, 64)]
        specs = [FilterSpec(Attribute.AREA, (2.0, 5.0, 13.0)),
                 FilterSpec(Attribute.MOMENT, (0.1, 0.25))]
        bundle = tree_bundle(bands, kind)
        for features in (None, ["stddev", "area"]):
            layout, blocks = [], []
            for band, pair in zip(bundle.bands, bundle.pairs):
                one = replace(bundle, bands=[band], pairs=[pair])
                for spec in specs:
                    block_layout, block = profile_per_column(one, spec,
                                                             features)
                    layout += block_layout
                    blocks.append(block.astype(np.float32))
            want = np.concatenate(blocks, axis=1)
            assert want.shape[1] == 3 * profile_dim(
                kind, specs, len(features or ["gray"]))
            big = np.full((99, want.shape[1] + 4), np.nan, np.float32)
            out = big[:, 1:-3]
            stack = build_ap(bundle, specs, out) if features is None else \
                build_fp(bundle, specs, features, out)
            assert stack.data is out
            assert stack.layout == layout
            assert np.ascontiguousarray(out).tobytes() == want.tobytes()
            assert np.isnan(big[:, :1]).all() and np.isnan(big[:, -3:]).all()

    def test_refused_before_any_tree_or_column(self, monkeypatch, rng):
        from treeprofiles import profiles

        img = random_image(rng, 8, 12, min_side=3)
        other = RasterImage(np.zeros((img.height + 1, img.width), int), 2)
        bundle = tree_bundle([img], ProfileTrees.COMPONENT_PAIR)
        alpha = build_alpha_tree(img)
        built = []
        monkeypatch.setattr(profiles, "build_tree",
                            lambda *args: built.append(args))
        for bands, alphas in (([], None), ([img, other], None),
                              ([img, img], [alpha]), ([img], [alpha] * 2)):
            with pytest.raises(DataError):
                tree_bundle(bands, ProfileTrees.OMEGA, alphas=alphas)
        assert built == []
        out = np.full((img.values.size, 5), -1.0, dtype=np.float32)
        with pytest.raises(DataError):
            build_ap(bundle, [], out)
        with pytest.raises(DataError):
            build_fp(bundle, [], ["stddev"], out)
        assert np.all(out == -1.0)


def nearest_owner(tree, mask):
    """Each pixel's smallest retained node, one pixel at a time."""
    owners = []
    for node in tree.pixel_node:
        while not mask[node]:
            node = tree.parent[node]
        owners.append(node)
    return np.array(owners)


class TestThresholdsBeyondImageArea:
    """An area threshold above the pixel count removes every node but the
    root, so every filtered column is the root's value at every pixel."""

    @pytest.mark.parametrize("rule", list(FilterRule))
    @pytest.mark.parametrize("kind", list(ProfileTrees))
    def test_columns_take_the_root_value(self, rng, kind, rule):
        for _ in range(5):
            img = random_image(rng, 9, 12, min_side=2)
            values = img.values
            n = values.size
            spec = FilterSpec(Attribute.AREA, (n + 1.0, 2.0 * n), rule)
            if kind is ProfileTrees.COMPONENT_PAIR:
                gray = {"thickening": values.max(), "thinning": values.min()}
            elif kind is ProfileTrees.TOS:
                gray = {"selfdual": border_median(values)}
            else:  # rounded mean, halves up
                gray = {"selfdual": (2 * int(values.sum()) + n) // (2 * n)}
            expected = {"area": float(n),
                        "stddev": two_pass_std(values.ravel().tolist())}
            bundle = tree_bundle([img], kind)
            stacks = (build_ap(bundle, [spec]), build_fp(
                bundle, [spec], [Feature.STD_DEV, Feature.AREA]))
            for stack in stacks:
                for col, desc in zip(stack.data.T, stack.layout):
                    if desc.polarity == "original":
                        continue
                    assert np.all(col == col[0])
                    if desc.feature == "gray":
                        assert col[0] == gray[desc.polarity]
                    elif desc.feature == "area":
                        assert col[0] == expected["area"]
                    else:
                        assert col[0] == pytest.approx(expected["stddev"],
                                                       rel=1e-9, abs=1e-12)


class TestProfileStackIo:
    def test_roundtrip(self, tmp_path, rng):
        img = random_image(rng, 8, 8, min_side=4)
        stack = build_fp(tree_bundle([img], ProfileTrees.COMPONENT_PAIR),
                         [spec_area(2)], [Feature.STD_DEV])
        stack.save(tmp_path / "p")
        back = ProfileStack.load(tmp_path / "p")
        assert back.dim == stack.dim
        assert [c.to_json() for c in back.layout] == \
            [c.to_json() for c in stack.layout]
        assert back.data.dtype == stack.data.dtype == np.float32
        assert back.data.tobytes() == stack.data.tobytes()

    def test_spec_validation(self):
        with pytest.raises(DataError):
            FilterSpec(Attribute.AREA, ())
        with pytest.raises(DataError):
            FilterSpec(Attribute.AREA, (3.0, 2.0))
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(DataError):
                FilterSpec(Attribute.AREA, (bad, 5.0))
