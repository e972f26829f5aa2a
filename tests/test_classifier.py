import hashlib
import itertools
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from treeprofiles import (
    Attribute,
    DataError,
    Feature,
    FilterSpec,
    ForestModel,
    ProfileTrees,
    build_fp,
    default_area_thresholds,
    default_moment_thresholds,
    evaluate,
    load_model,
    model_from_bytes,
    model_to_bytes,
    predict,
    save_model,
    split_labels,
    synthetic_scene,
    train_forest,
    tree_bundle,
)
from treeprofiles import _native, classifier
from treeprofiles.classifier import DecisionTree
from treeprofiles.rng import Xorshift64Star, derive_seed

import oracles
from oracles import best_split_per_feature


def separable_blobs(rng, n_per_class=50, margin=4.0, radius=1.0):
    a = rng.normal(scale=radius, size=(n_per_class, 2))
    b = rng.normal(scale=radius, size=(n_per_class, 2)) + margin
    x = np.vstack([a, b])
    y = np.array([1] * n_per_class + [2] * n_per_class)
    return x, y


def fp_training_set():
    """FP stack of a 64x64 synthetic scene and its 10 % training split: ties,
    constant columns and deep trees, unlike the tiny hand-made datasets."""
    img, labels = synthetic_scene(64, 64, seed=5)
    train, _ = split_labels(labels, 0.10, seed=5)
    idx, y = train.samples()
    bundle = tree_bundle([img], ProfileTrees.COMPONENT_PAIR)
    specs = (FilterSpec(Attribute.AREA, default_area_thresholds(64 * 64)),
             FilterSpec(Attribute.MOMENT, default_moment_thresholds()))
    fp = build_fp(bundle, specs, [Feature.STD_DEV, Feature.AREA]).data
    return fp[idx], y


def kernel_split(x, y, n_classes, cands, samples=None):
    """The kernel's search of the node holding rows ``samples`` (default:
    all rows) of a training set on all of ``x``: (feature, threshold) or
    None."""
    data = classifier._training_set(x, y, n_classes, seed=0)
    if samples is None:
        samples = np.arange(len(y))
    samples = np.asarray(samples, dtype=np.int32)
    thr = np.zeros(1)
    row = _native._kernel().tp_best_split(
        data.rank, data.level, data.n_levels, data.y_idx, len(y),
        len(data.rank),
        n_classes, samples, len(samples), np.array(cands, dtype=np.int32),
        len(cands), thr)
    assert row >= -1
    return None if row == -1 else (cands[row], thr[0])


class TestTraining:
    def test_separable_blobs(self, rng):
        x, y = separable_blobs(rng)
        x_test, y_test = separable_blobs(rng)
        model = train_forest(x, y, n_trees=100, seed=7)
        assert np.array_equal(predict(model, x), y)
        held_out = np.mean(predict(model, x_test) == y_test)
        assert held_out >= 0.95

    def test_determinism_same_seed(self, rng):
        x, y = separable_blobs(rng)
        probe = rng.normal(size=(200, 2)) * 3
        m1 = train_forest(x, y, n_trees=20, seed=3)
        m2 = train_forest(x, y, n_trees=20, seed=3)
        assert np.array_equal(predict(m1, probe), predict(m2, probe))
        assert model_to_bytes(m1) == model_to_bytes(m2)

    def test_different_seeds_differ(self, rng):
        x, y = separable_blobs(rng)
        m1 = train_forest(x, y, n_trees=5, seed=1)
        m2 = train_forest(x, y, n_trees=5, seed=2)
        assert model_to_bytes(m1) != model_to_bytes(m2)

    def test_single_class_error(self):
        with pytest.raises(DataError):
            train_forest(np.zeros((5, 2)), np.ones(5, dtype=int))

    def test_empty_and_nan_error(self):
        with pytest.raises(DataError):
            train_forest(np.zeros((0, 2)), np.zeros(0, dtype=int))
        x = np.zeros((4, 2))
        x[1, 1] = np.nan
        with pytest.raises(DataError):
            train_forest(x, np.array([1, 1, 2, 2]))

    @pytest.mark.parametrize("n_trees", [0, -3])
    def test_no_trees_error(self, rng, n_trees):
        x, y = separable_blobs(rng, n_per_class=5)
        with pytest.raises(DataError):
            train_forest(x, y, n_trees=n_trees)

    def test_batched_split_matches_per_feature_scan(self, rng):
        # exact equality: same Gini floats, same tie-breaking, for class
        # counts on both sides of numpy's 8-wide pairwise summation
        for _ in range(300):
            m = int(rng.integers(2, 120))
            n_features = int(rng.integers(1, 12))
            n_classes = int(rng.integers(2, 13))
            x = rng.integers(0, int(rng.integers(1, 6)), size=(m, n_features))
            x = x * rng.choice([0.1, 1.0, 3.7])
            y = rng.integers(0, n_classes, size=m)
            k = int(rng.integers(1, n_features + 1))
            cands = list(rng.permutation(n_features)[:k])
            got = kernel_split(x, y, n_classes, cands)
            want = best_split_per_feature(x, y, n_classes, cands)
            assert got == want

    def test_one_and_three_threads_same_bytes(self, monkeypatch):
        x, y = fp_training_set()
        blobs = []
        for cpus in (1, 3):  # 3: more threads than this host may have cores
            monkeypatch.setattr(classifier, "_usable_cpus", lambda c=cpus: c)
            model = train_forest(x, y, n_trees=10, seed=5)
            blobs.append(model_to_bytes(model))
        assert blobs[0] == blobs[1]

    def test_concurrent_calls_match_serial(self, monkeypatch):
        # two forests growing at once on 3 threads each share the kernel but
        # no buffers; a short switch interval interleaves them finely
        monkeypatch.setattr(classifier, "_usable_cpus", lambda: 3)
        x, y = fp_training_set()
        seeds = (5, 6)
        serial = [model_to_bytes(train_forest(x, y, n_trees=10, seed=s))
                  for s in seeds]
        start = threading.Barrier(len(seeds))

        def train(seed):
            start.wait(timeout=60)
            return model_to_bytes(train_forest(x, y, n_trees=10, seed=seed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(seeds)) as pool:
                concurrent = list(pool.map(train, seeds, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == serial
        assert serial[0] != serial[1]

    def test_monotone_transform_invariance(self, rng):
        x, y = separable_blobs(rng, n_per_class=30)
        # rank-preserving integer remap of column 0 over the value universe
        column = x[:, 0]
        ranks = np.argsort(np.argsort(column))
        remapped = x.copy()
        remapped[:, 0] = ranks * 3 + 1
        m_orig = train_forest(x, y, n_trees=10, seed=11)
        m_remap = train_forest(remapped, y, n_trees=10, seed=11)
        assert np.array_equal(predict(m_orig, x), predict(m_remap, remapped))


class TestSplitSearchBranches:
    """A node's ranks are counted when they span at most 4 ranks per sample
    of a node of more than 16, and sorted otherwise; both give the
    per-feature scan's split.  Nodes here are subsets of a larger training
    set, so their ranks are sparse or dense on the node."""

    @staticmethod
    def check(x, y, n_classes, samples, cands):
        got = kernel_split(x, y, n_classes, cands, samples)
        want = best_split_per_feature(x[samples], y[samples], n_classes, cands)
        assert got == want

    @pytest.mark.parametrize("m", [2, 15, 16, 17, 31, 33, 64, 300])
    @pytest.mark.parametrize("distinct", [3, 40, 2000])
    def test_subset_nodes(self, rng, m, distinct):
        n = 1000
        for _ in range(15):
            n_features = int(rng.integers(1, 8))
            n_classes = int(rng.integers(2, 13))
            x = rng.integers(0, distinct, size=(n, n_features))
            x = x * rng.choice([0.1, 1.0, -3.7])
            y = rng.integers(0, n_classes, size=n)
            # with replacement, as a bootstrap draws them, or without
            samples = rng.choice(n, m, replace=bool(rng.random() < 0.5))
            cands = list(rng.permutation(n_features)[:int(
                rng.integers(1, n_features + 1))])
            self.check(x, y, n_classes, samples, cands)

    @pytest.mark.parametrize("m", [16, 17, 20, 40])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_span_at_the_dense_edge(self, rng, m, extra):
        # feature 0's ranks on the node span exactly 4m + extra
        n, span = 400, 4 * m + extra
        for _ in range(20):
            n_classes = int(rng.integers(2, 13))
            x = np.stack([rng.permutation(n) for _ in range(3)], axis=1)
            x = x * rng.choice([0.5, 1.0, -2.0])
            y = rng.integers(0, n_classes, size=n)
            low = int(rng.integers(0, n - span + 1))
            ranks = np.concatenate([
                [low, low + span - 1],
                rng.integers(low, low + span, size=m - 2)])
            samples = np.argsort(x[:, 0])[ranks]  # the row of each rank
            self.check(x, y, n_classes, samples, [0, 1, 2])
            self.check(x, y, n_classes, samples, [2, 0])

    @pytest.mark.parametrize("n_classes", [16, 130])
    def test_many_classes(self, rng, n_classes):
        # a side's squared class fractions are summed pairwise as numpy
        # does: 8 at a time from 16 classes, halved above 128
        n = 1500
        for _ in range(8):
            n_features = int(rng.integers(1, 5))
            x = rng.integers(0, int(rng.choice([5, 60, 3000])),
                             size=(n, n_features)) * 0.5
            y = rng.integers(0, n_classes, size=n)
            for m in (40, 600):
                samples = rng.choice(n, m, replace=True)
                self.check(x, y, n_classes, samples,
                           list(rng.permutation(n_features)))

    @pytest.mark.parametrize("n, top", [
        (70000, 70000),  # three moving radix passes: the keys end in tmp
        (70000, 32768),  # the third digit is 0 for every key: pass skipped
    ])
    def test_radix_passes(self, rng, n, top):
        # keys are a rank (17 bits for 70,000 rows) over 1 class bit, so
        # three 8-bit digits; 40 samples over ranks [0, top) are far too
        # sparse to count
        x = rng.permutation(n)[:, None] * 0.25
        y = rng.integers(0, 2, size=n)
        for _ in range(10):
            ranks = rng.choice(top, 40, replace=False)
            samples = np.argsort(x[:, 0])[ranks]
            self.check(x, y, 2, samples, [0])

    @pytest.mark.parametrize("m", [17, 40])
    @pytest.mark.parametrize("step", [1, 50])  # ranks counted, then sorted
    @pytest.mark.parametrize("alone, next_to", [(0, 1), (-1, -2)])
    def test_split_isolating_one_sample(self, m, step, alone, next_to):
        # the only pure split leaves the lowest or the highest sample alone
        x = np.arange(50.0 * m)[:, None]
        y = np.zeros(len(x), dtype=int)
        samples = np.arange(m) * step
        y[samples[alone]] = 1
        lo, hi = sorted(x[samples[[alone, next_to]], 0])
        assert kernel_split(x, y, 2, [0], samples) == (0, (lo + hi) / 2)
        self.check(x, y, 2, samples, [0])

    @pytest.mark.parametrize("m", [10, 17, 100])
    def test_candidates_constant_on_the_node(self, rng, m):
        # features 0 and 1 vary over the set but not over the node's rows
        n = 400
        x = np.stack([np.arange(n) // 100, np.arange(n) % 100 < 50,
                      rng.integers(0, 5, size=n)], axis=1) * 1.0
        y = rng.integers(0, 12, size=n)
        samples = rng.integers(0, 50, size=m)
        assert kernel_split(x, y, 12, [0, 1], samples) is None
        self.check(x, y, 12, samples, [0, 1])
        self.check(x, y, 12, samples, [1, 2, 0])


class TestRepeatedSamples:
    """A bootstrap draws samples with repeats; every copy counts in the
    node's class counts and split scans, as in the reference."""

    def test_tiny_duplicated_bootstraps(self, rng):
        # n draws from n <= 8 samples: most samples are drawn 0 or 2+ times
        for n in range(2, 9):
            for _ in range(25):
                n_classes = int(rng.integers(2, 5))
                x, y_idx = random_training_set(rng, n, n_classes)
                seed = int(rng.integers(0, 2**63))
                data = classifier._training_set(x, y_idx, n_classes, seed)
                for i in range(3):
                    got = classifier._grow_indexed(data, i)
                    want = oracles.grow_indexed_tree(x, y_idx, n_classes,
                                                     seed, i)
                    got = (got.feature, got.threshold, got.left, got.right,
                           got.probs)
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype and a.shape == b.shape
                        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("repeats", [1, 40, 70000])
    @pytest.mark.parametrize("values", [20, 100000])  # counted, sorted
    def test_many_copies_of_a_sample(self, rng, repeats, values):
        # a node of up to 70,000 copies of two samples, through both scan
        # branches
        n, n_classes = 300, 3
        for _ in range(8):
            x = rng.integers(0, values, size=(n, 3)) * 0.5
            y = rng.integers(0, n_classes, size=n)
            distinct = rng.choice(n, 40, replace=False)
            samples = np.concatenate([distinct,
                                      np.repeat(distinct[:2], repeats),
                                      rng.choice(distinct, 25)])
            TestSplitSearchBranches.check(x, y, n_classes, samples,
                                          [0, 1, 2])

    def test_distinct_value_counts(self, rng):
        x = np.stack([np.full(50, 2.5), rng.integers(0, 7, size=50) * 1.0,
                      np.arange(50.0)], axis=1)
        data = classifier._training_set(x, np.arange(50) % 2, 2, seed=0)
        assert data.n_levels.dtype == np.int32
        assert data.n_levels.tolist() == [1, len(np.unique(x[:, 1])), 50]


def leaf_tree(probs) -> DecisionTree:
    return DecisionTree(feature=np.array([-1], dtype=np.int32),
                        threshold=np.zeros(1),
                        left=np.array([-1], dtype=np.int32),
                        right=np.array([-1], dtype=np.int32),
                        probs=np.array([probs], dtype=np.float64))


class TestSettledVotes:
    """A row stops summing once its leader's margin over every other class
    exceeds what the remaining trees can add, and never at or below it."""

    @staticmethod
    def votes(trees, rows=3):
        model = ForestModel(trees=trees, classes=np.arange(1, 1 + len(
            trees[0].probs[0])), n_features=1, seed=0)
        x = np.zeros((rows, 1))
        got, summed = classifier._votes(model, x)
        return got, summed, predict(model, x)

    def test_margin_at_the_bound_sums_every_tree(self):
        # class 2 leads by 1.0 after tree 0, just what tree 1 can take back;
        # the full sums tie, and the tie goes to the smaller class id
        votes, summed, labels = self.votes([leaf_tree([0.0, 1.0]),
                                            leaf_tree([1.0, 0.0])])
        assert summed.tolist() == [2, 2, 2]
        assert votes.tolist() == [[1.0, 1.0]] * 3
        assert labels.tolist() == [1, 1, 1]

    def test_margin_at_the_bound_three_classes(self):
        # lead 0.75 - 0.25 = 0.5 equals tree 1's spread 0.5 - 0.0
        votes, summed, labels = self.votes([leaf_tree([0.0, 0.25, 0.75]),
                                            leaf_tree([0.5, 0.0, 0.5])])
        assert summed.tolist() == [2, 2, 2]
        assert votes.tolist() == [[0.5, 0.25, 1.25]] * 3
        assert labels.tolist() == [3, 3, 3]

    def test_margin_above_the_bound_stops(self):
        votes, summed, labels = self.votes([leaf_tree([0.0, 1.0]),
                                            leaf_tree([0.6, 0.4]),
                                            leaf_tree([0.55, 0.45])])
        assert summed.tolist() == [1, 1, 1]
        assert votes.tolist() == [[0.0, 1.0]] * 3
        assert labels.tolist() == [2, 2, 2]

    def test_exact_tie_goes_to_the_smaller_class(self):
        votes, summed, labels = self.votes([leaf_tree([0.5, 0.5])] * 4)
        assert summed.tolist() == [4, 4, 4]
        assert labels.tolist() == [1, 1, 1]

    def test_labels_match_full_sums_on_a_trained_forest(self, rng):
        x, y = fp_training_set()
        model = train_forest(x, y, n_trees=30, seed=4)
        probe = np.vstack([x, x + rng.normal(size=x.shape) * x.std(axis=0)])
        _, summed = classifier._votes(model, probe)
        full = sum(oracles.tree_probs(t.feature, t.threshold, t.left,
                                      t.right, t.probs, probe)
                   for t in model.trees)
        assert np.array_equal(predict(model, probe),
                              model.classes[np.argmax(full, axis=1)])
        assert summed.min() < 30 and summed.max() == 30

    @pytest.mark.parametrize("rows", [0, 4])
    def test_malformed_node_off_every_path(self, rows):
        # every row goes left at node 0; node 2, on the right, names a
        # feature the rows lack and children outside the tree
        bad = DecisionTree(feature=np.array([0, -1, 5], dtype=np.int32),
                           threshold=np.array([1e300, 0.0, 0.0]),
                           left=np.array([1, -1, 9], dtype=np.int32),
                           right=np.array([2, -1, 9], dtype=np.int32),
                           probs=np.array([[0.0, 0.0], [1.0, 0.0],
                                           [0.0, 0.0]]))
        model = ForestModel(trees=[leaf_tree([0.5, 0.5]), bad],
                            classes=np.array([1, 2]), n_features=1, seed=0)
        with pytest.raises(DataError, match="tree 1 of the model"):
            predict(model, np.zeros((rows, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probability_refused(self, bad):
        trees = [leaf_tree([0.5, 0.5]), leaf_tree([0.5, 0.5])]
        trees[1].probs[0, 1] = bad
        model = ForestModel(trees=trees, classes=np.array([1, 2]),
                            n_features=1, seed=0)
        with pytest.raises(DataError, match="tree 1 of the model"):
            predict(model, np.zeros((2, 1)))


class TestPredict:
    def test_single_leaf_forest(self):
        leaf = DecisionTree(
            feature=np.array([-1], dtype=np.int32),
            threshold=np.zeros(1),
            left=np.array([-1], dtype=np.int32),
            right=np.array([-1], dtype=np.int32),
            probs=np.array([[0.9, 0.1]]),
        )
        model = ForestModel(trees=[leaf], classes=np.array([1, 2]),
                            n_features=3, seed=0)
        out = predict(model, np.zeros((4, 3)))
        assert np.all(out == 1)

    def test_dim_mismatch(self, rng):
        x, y = separable_blobs(rng)
        model = train_forest(x, y, n_trees=2, seed=0)
        with pytest.raises(DataError):
            predict(model, np.zeros((3, 5)))

    def test_nan_error(self, rng):
        x, y = separable_blobs(rng)
        model = train_forest(x, y, n_trees=2, seed=0)
        probe = np.zeros((3, 2))
        probe[2, 1] = np.nan
        with pytest.raises(DataError):
            predict(model, probe)

    @pytest.mark.parametrize("rows", [0, 1, 2, 257])
    def test_votes_independent_of_block_count(self, rng, monkeypatch, rows):
        # 2 rows against 3 CPUs: fewer rows than CPUs, so one block per row
        x, y = separable_blobs(rng, n_per_class=30)
        model = train_forest(x, y, n_trees=7, seed=3)
        probe = rng.normal(size=(rows, 2)) * 4
        votes, labels = [], []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(classifier, "_usable_cpus", lambda c=cpus: c)
            votes.append([a.tobytes()
                          for a in classifier._votes(model, probe)])
            labels.append(predict(model, probe))
        assert votes[0] == votes[1] == votes[2]
        assert all(np.array_equal(labels[0], got) for got in labels[1:])
        assert labels[0].shape == (rows,)

    def test_malformed_tree_named_alike_for_any_block_count(self,
                                                           monkeypatch):
        # tree 0 breaks on rows routed right, tree 1 on rows routed left: a
        # block of left rows alone would name tree 1, the whole batch tree 0
        def stump(left, right):
            return DecisionTree(
                feature=np.array([0, -1], dtype=np.int32),
                threshold=np.zeros(2),
                left=np.array([left, -1], dtype=np.int32),
                right=np.array([right, -1], dtype=np.int32),
                probs=np.array([[0.0, 0.0], [1.0, 0.0]]))

        model = ForestModel(trees=[stump(1, 7), stump(7, 1)],
                            classes=np.array([1, 2]), n_features=1, seed=0)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(classifier, "_usable_cpus", lambda c=cpus: c)
            with pytest.raises(DataError, match="tree 0 of the model"):
                predict(model, np.array([[-1.0], [-1.0], [1.0], [1.0]]))

    def test_leaf_probabilities_sum_to_one(self, rng):
        x, y = separable_blobs(rng)
        model = train_forest(x, y, n_trees=5, seed=0)
        for tree in model.trees:
            leaves = tree.feature == -1
            sums = tree.probs[leaves].sum(axis=1)
            assert np.allclose(sums, 1.0, atol=1e-9)


class TestPredictRows:
    """``predict(model, x, rows)`` labels rows of ``x`` picked by index and
    read in place: the labels of ``predict(model, x[rows])``, with no copy
    of ``x``, and the same checks on exactly the indexed rows."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 257])
    def test_rows_match_gathered_rows(self, rng, monkeypatch, cpus):
        x, y = fp_training_set()
        model = train_forest(x, y, n_trees=30, seed=4)
        probe = np.vstack([x, x + rng.normal(size=x.shape) * x.std(axis=0)])
        rows = rng.integers(0, len(probe), size=600)  # unsorted, repeated
        rows[:3] = rows[3]
        monkeypatch.setattr(classifier, "_usable_cpus", lambda: cpus)
        votes, summed = classifier._votes(model, probe, rows)
        want = classifier._votes(model, probe[rows])
        assert votes.tobytes() == want[0].tobytes()
        assert summed.tobytes() == want[1].tobytes()
        assert summed.min() < 30  # some rows settle early
        assert np.array_equal(predict(model, probe, rows),
                              predict(model, probe[rows]))
        assert np.array_equal(predict(model, probe, None),
                              predict(model, probe))

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_index_out_of_range(self, rng, monkeypatch, bad):
        x, y = separable_blobs(rng)
        model = train_forest(x, y, n_trees=3, seed=0)
        probe = np.zeros((6, 2))
        for cpus in (1, 2, 3):
            monkeypatch.setattr(classifier, "_usable_cpus", lambda c=cpus: c)
            with pytest.raises(DataError, match=r"outside \[0, 6\)"):
                predict(model, probe, [0, 1, 2, 3, bad])
        for rows in ([[0, 1]], [0.0, 1.0], [True, False]):
            with pytest.raises(DataError, match="1-D array of row indices"):
                predict(model, probe, rows)

    def test_index_checked_before_any_vote(self):
        trees = [leaf_tree([0.5, 0.5]), leaf_tree([0.25, 0.75])]
        offset = np.array([0, 1, 2], dtype=np.int64)
        flat = [np.concatenate([getattr(t, a).ravel() for t in trees])
                for a in ("feature", "threshold", "left", "right", "probs")]
        cases = ([0, 2, 1], 0), ([0, 2, 3], -3), ([-1, 0], -3)
        for x, (rows, code) in itertools.product(
                (np.zeros((3, 1)), np.zeros((3, 1), np.float32)), cases):
            rows = np.array(rows, dtype=np.int64)
            votes = np.full((len(rows), 2), -7.0)
            summed = np.full(len(rows), -7, dtype=np.int32)
            assert _native._kernel().tp_forest_votes(
                x.ctypes.data, x.dtype == np.float64, len(x), rows,
                len(rows), 1, 2, 2, offset, *flat, votes, summed) == code
            assert (votes == -7.0).all() == (code != 0)
            assert (summed == -7).all() == (code != 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_checked_only_when_indexed(self, rng, bad):
        x, y = separable_blobs(rng)
        model = train_forest(x, y, n_trees=3, seed=0)
        for probe in (rng.normal(size=(5, 2)),
                      rng.normal(size=(5, 2)).astype(np.float32)):
            probe[3, 1] = bad
            assert np.array_equal(predict(model, probe, [4, 0, 2]),
                                  predict(model, probe[[4, 0, 2]]))
            with pytest.raises(DataError, match="^prediction features "
                                                "contain NaN or infinity$"):
                predict(model, probe, [4, 3, 0])

    def test_features_error_wins_over_malformed_tree(self, monkeypatch):
        # tree 1's right child lies outside the tree; the NaN row is in the
        # last block, so the earlier blocks see only the malformed tree
        stump = DecisionTree(feature=np.array([0, -1], dtype=np.int32),
                             threshold=np.zeros(2),
                             left=np.array([1, -1], dtype=np.int32),
                             right=np.array([7, -1], dtype=np.int32),
                             probs=np.array([[0.0, 0.0], [1.0, 0.0]]))
        model = ForestModel(trees=[leaf_tree([0.5, 0.5]), stump],
                            classes=np.array([1, 2]), n_features=1, seed=0)
        x = np.array([[-1.0], [-1.0], [1.0], [np.nan]])
        with pytest.raises(DataError, match="tree 1 of the model"):
            predict(model, x, [0, 1, 2])
        for cpus in (1, 2, 3):
            monkeypatch.setattr(classifier, "_usable_cpus", lambda c=cpus: c)
            with pytest.raises(DataError, match="NaN or infinity"):
                predict(model, x, [0, 1, 2, 3])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rows_read_in_place(self, rng, dtype):
        x, y = separable_blobs(rng)
        model = train_forest(np.tile(x, 32), y, n_trees=5, seed=0)
        big = rng.normal(size=(20_000, 64)).astype(dtype)
        rows = rng.permutation(20_000)[:15_000]
        tracemalloc.start()
        try:
            predict(model, big, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000  # a gather of the rows is 7.68 MB


class TestEvaluate:
    def test_hand_confusion(self):
        pred = np.array([1] * 40 + [2] * 10 + [1] * 20 + [2] * 30)
        truth = np.array([1] * 50 + [2] * 50)
        confusion, oa, kappa = evaluate(pred, truth)
        assert confusion.counts.tolist() == [[40, 10], [20, 30]]
        assert oa == pytest.approx(0.70, abs=1e-12)
        assert kappa == pytest.approx(0.40, abs=1e-12)

    def test_perfect(self):
        labels = np.array([1, 2, 3, 1, 2, 3])
        _, oa, kappa = evaluate(labels, labels)
        assert oa == 1.0 and kappa == 1.0

    def test_uniform_prediction_balanced(self):
        truth = np.array([1] * 50 + [2] * 50)
        pred = np.ones(100, dtype=int)
        _, oa, kappa = evaluate(pred, truth)
        assert oa == pytest.approx(0.5)
        assert kappa == pytest.approx(0.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            evaluate(np.array([1, 2]), np.array([1]))

    def test_permutation_invariance(self, rng):
        pred = rng.integers(1, 5, size=200)
        truth = rng.integers(1, 5, size=200)
        _, oa, kappa = evaluate(pred, truth)
        perm = rng.permutation(200)
        _, oa2, kappa2 = evaluate(pred[perm], truth[perm])
        assert oa == oa2 and kappa == kappa2

    def test_kappa_at_most_oa(self, rng):
        for _ in range(200):
            c = int(rng.integers(2, 6))
            counts = rng.integers(0, 30, size=(c, c))
            if counts.sum() == 0:
                continue
            pred, truth = [], []
            for t in range(c):
                for p in range(c):
                    pred.extend([p + 1] * counts[t, p])
                    truth.extend([t + 1] * counts[t, p])
            _, oa, kappa = evaluate(np.array(pred), np.array(truth))
            assert kappa <= oa + 1e-12


class TestSerialization:
    def test_roundtrip(self, rng, tmp_path):
        x, y = separable_blobs(rng, n_per_class=20)
        model = train_forest(x, y, n_trees=4, seed=5)
        save_model(model, tmp_path / "m.bin")
        back = load_model(tmp_path / "m.bin")
        assert back.n_features == model.n_features
        assert np.array_equal(back.classes, model.classes)
        probe = rng.normal(size=(50, 2)) * 4
        assert np.array_equal(predict(back, probe), predict(model, probe))
        assert model_to_bytes(back) == model_to_bytes(model)

    def test_golden_digest(self):
        # fixed tiny dataset; the digest pins cross-platform determinism of
        # the PRNG, the split search and the serialization format
        x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 3.0], [3.0, 2.0],
                      [0.5, 2.5], [2.5, 0.5], [1.5, 1.5], [3.0, 0.0]])
        y = np.array([1, 1, 2, 2, 1, 2, 1, 2])
        model = train_forest(x, y, n_trees=3, seed=42)
        digest = hashlib.sha256(model_to_bytes(model)).hexdigest()
        assert digest == (
            "bf472e555db671018a213578d0cdc25c44423f3634797f3ade646983432352f2"
        )

    def test_golden_digest_fp_stack(self):
        # a realistic stack exercises ties between candidate features and
        # split positions, which the 8-sample digest above cannot reach; the
        # stack is float32, as a saved one is
        x, y = fp_training_set()
        model = train_forest(x, y, n_trees=10, seed=5)
        digest = hashlib.sha256(model_to_bytes(model)).hexdigest()
        assert digest == (
            "af6192cb026172b4b275c1ca36339a241dfc48d38e54936f1c744fb2ef89bbc5"
        )

    def test_bad_magic(self):
        with pytest.raises(Exception):
            model_from_bytes(b"XXXX" + bytes(32))


def random_training_set(rng, n, n_classes):
    """x with ties, duplicated rows and constant columns; y_idx may miss
    classes."""
    n_features = int(rng.integers(1, 12))
    x = rng.integers(0, int(rng.integers(1, 8)), size=(n, n_features))
    x = x * rng.choice([0.1, 1.0, 3.7, -2.5])
    if rng.random() < 0.3:
        x = x + rng.normal(size=x.shape) * (rng.random(n_features) < 0.5)
    if n > 1:
        dup = rng.integers(0, n, size=n // 3)
        x[rng.integers(0, n, size=len(dup))] = x[dup]
    x[:, rng.random(n_features) < 0.2] = 1.5
    return x, rng.integers(0, n_classes, size=n)


class TestKernelMatchesReference:
    """The compiled kernel against the numpy forest in ``tests/oracles.py``:
    the same trees and votes, byte for byte."""

    def test_trees(self, rng):
        for trial in range(62):
            if trial < 60:
                n = 1 if trial == 0 else int(rng.integers(2, 301))
                n_classes = int(rng.integers(2, 13))
                x, y_idx = random_training_set(rng, n, n_classes)
            else:  # large nodes, continuous then coarse: ranks are both
                n_classes = 3  # counted and sorted on the way down
                x = rng.normal(size=(2000, 8))
                x = x if trial == 60 else np.round(x * 4)
                y_idx = rng.integers(0, n_classes, size=len(x))
            seed = int(rng.integers(0, 2**63))
            data = classifier._training_set(x, y_idx, n_classes, seed)
            for i in range(2):
                got = classifier._grow_indexed(data, i)
                want = oracles.grow_indexed_tree(x, y_idx, n_classes, seed, i)
                got = (got.feature, got.threshold, got.left, got.right,
                       got.probs)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()

    def test_votes(self, rng):
        """Each row's votes are the oracle's sum, in tree order, over the
        trees the kernel reports it summed; the labels are the argmax of
        the oracle's sums over every tree."""
        stopped = 0
        for _ in range(12):
            n_classes = int(rng.integers(2, 13))
            x, y = random_training_set(rng, int(rng.integers(20, 200)),
                                       n_classes)
            y[:2] = [0, 1]  # at least two classes
            model = train_forest(x, y, n_trees=7, seed=int(rng.integers(99)))
            probe = np.vstack([x, x + rng.normal(size=x.shape)])
            got, summed = classifier._votes(model, probe)
            want = np.zeros((len(probe), model.n_classes))
            full = np.zeros_like(want)
            for i, t in enumerate(model.trees):
                probs = oracles.tree_probs(t.feature, t.threshold, t.left,
                                           t.right, t.probs, probe)
                want[summed > i] += probs[summed > i]
                full += probs
            assert got.tobytes() == want.tobytes()
            assert 1 <= summed.min() and summed.max() <= 7
            assert np.array_equal(predict(model, probe),
                                  model.classes[np.argmax(full, axis=1)])
            stopped += int(np.count_nonzero(summed < 7))
        assert stopped > 0

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1,
                                      derive_seed(5, 3)])
    def test_prng_stream(self, seed):
        rng = Xorshift64Star(seed)
        state = np.array([rng.state], dtype=np.uint64)
        out = np.zeros(500, dtype=np.uint64)
        _native._kernel().tp_xorshift_fill(state, out, len(out))
        assert out.tolist() == [rng.next_u64() for _ in range(len(out))]
        assert int(state[0]) == rng.state


class TestDegenerateSplits:
    """Inputs whose midpoint threshold once sent every sample to one child,
    so the same node split forever."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_feature_rejected(self, bad):
        x = np.array([[0.0, 1.0], [bad, 2.0], [1.0, 3.0], [2.0, 4.0]])
        y = np.array([1, 2, 1, 2])
        with pytest.raises(DataError, match="infinity"):
            train_forest(x, y, n_trees=3)
        x[1, 0] = 0.5
        model = train_forest(x, y, n_trees=3)
        x[1, 0] = bad
        with pytest.raises(DataError, match="infinity"):
            predict(model, x)

    @pytest.mark.parametrize("lo, hi", [
        (np.nextafter(1.0, 0.0), 1.0),    # midpoint rounds up to hi
        (1e308, 1.5e308),                 # midpoint overflows to inf
        (-1.5e308, -1e308),               # ... and to -inf
        (5e-324, 1e-323),                 # subnormals: rounds up to hi
    ])
    def test_threshold_falls_back_to_lower_value(self, lo, hi):
        x = np.array([[lo], [hi]] * 4)
        y = np.array([1, 2] * 4)
        model = train_forest(x, y, n_trees=4, seed=1)
        for tree in model.trees:
            assert np.all(tree.threshold[tree.feature >= 0] == lo)
        assert np.array_equal(predict(model, x), y)
        assert model_to_bytes(model) == model_to_bytes(ForestModel(
            trees=[DecisionTree(*oracles.grow_indexed_tree(x, y - 1, 2, 1, i))
                   for i in range(4)],
            classes=model.classes, n_features=1, seed=1))

    def test_node_capacity_refused(self):
        x = np.array([[0.0], [1.0]] * 3)
        data = classifier._training_set(x, np.array([0, 1] * 3), 2, 0)
        arrays = [np.empty(2, np.int32), np.empty(2), np.empty(2, np.int32),
                  np.empty(2, np.int32), np.empty((2, 2))]
        state = np.array([Xorshift64Star(7).state], dtype=np.uint64)
        count = _native._kernel().tp_grow_tree(
            data.rank, data.level, data.n_levels, data.y_idx, 6, 1,
            2, 1, state,
            *arrays, 2)
        assert count == -1  # a split needs 3 nodes; the arrays hold 2
