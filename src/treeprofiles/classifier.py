"""Deterministic random-forest classifier and evaluation metrics.

CART trees with Gini impurity splits, bootstrap resamples of the full
training size, ceil(sqrt(dim)) candidate features drawn without replacement
per node, grown to purity with minimum node size 1 and no depth cap.  Split
thresholds sit at the midpoint of consecutive distinct sorted values; among
equally good splits the first one found wins, scanning candidate features in
draw order.  Samples route left when ``value <= threshold``.

All randomness comes from the package's xorshift64* generator (see
:mod:`treeprofiles.rng`); tree i uses the derived seed ``derive_seed(seed,
i)``, so training is reproducible bit-for-bit across platforms and is
independent of any scheduling order.

Trees grow across up to ``min(usable CPUs, n_trees)`` worker processes
(forked where the platform can fork, else one after another in process) and
are collected in index order, so the model bytes do not depend on the worker
count.  A node searches all its candidate features in one vectorised pass.

Model serialization (little-endian throughout)::

    magic b"TPFM", u32 version=1, u32 n_classes, u32 n_features,
    u64 seed, u32 n_trees, i64 class ids,
    per tree: u32 n_nodes, i32 feature[n] (-1 for leaves), f64 threshold[n],
              i32 left[n], i32 right[n], f64 probs[n * n_classes]
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError
from .rng import Xorshift64Star, derive_seed

_MAGIC = b"TPFM"
_VERSION = 1


@dataclass
class DecisionTree:
    """Flat node arrays; internal nodes carry (feature, threshold, children),
    leaves carry a class-probability row (feature == -1)."""

    feature: np.ndarray    # int32
    threshold: np.ndarray  # float64
    left: np.ndarray       # int32
    right: np.ndarray      # int32
    probs: np.ndarray      # float64 (n_nodes, n_classes); zero rows internally


@dataclass
class ForestModel:
    trees: list[DecisionTree]
    classes: np.ndarray    # sorted original class ids
    n_features: int
    seed: int

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def _best_split(xs: np.ndarray, y_node: np.ndarray, n_classes: int):
    """Best Gini split of a node; returns (row of xs, threshold) or None.

    ``xs`` holds the node's values of the candidate features, one row per
    feature in draw order.  All rows are searched in one pass.  Gini is
    evaluated only where consecutive sorted values differ, and the first
    minimum in (row, position) order wins: earlier-drawn features win ties,
    then lower thresholds.
    """
    m = len(y_node)
    order = np.argsort(xs, axis=1, kind="stable")
    vs = xs[np.arange(len(xs))[:, None], order]
    rows, pos = np.nonzero(vs[:, :-1] < vs[:, 1:])
    if len(rows) == 0:
        return None
    onehot = y_node[order][:, :, None] == np.arange(n_classes)
    cum = np.cumsum(onehot, axis=1, dtype=np.float64)
    left = cum[rows, pos]
    right = cum[rows, -1] - left
    nl = (pos + 1).astype(np.float64)
    nr = m - nl
    gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
    gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
    weighted = (nl * gini_l + nr * gini_r) / m
    k = int(np.argmin(weighted))  # first minimum
    row, p = rows[k], pos[k]
    return row, (vs[row, p] + vs[row, p + 1]) / 2.0


def _grow_tree(xt: np.ndarray, y: np.ndarray, n_classes: int, mtry: int,
               rng: Xorshift64Star) -> DecisionTree:
    """``xt`` is the (n_features, n_samples) transposed training matrix."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    probs: list[np.ndarray] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        probs.append(np.zeros(n_classes))
        return len(feature) - 1

    n_features = len(xt)
    root = new_node()
    # preorder, left subtree first, so PRNG consumption is schedule-free
    stack = [(root, np.arange(len(y)))]
    while stack:
        node, idx = stack.pop()
        y_node = y[idx]
        counts = np.bincount(y_node, minlength=n_classes)
        if len(idx) == 1 or np.count_nonzero(counts) == 1:
            probs[node] = counts / counts.sum()
            continue
        candidates = rng.sample_without_replacement(n_features, mtry)
        xs = xt[np.array(candidates, dtype=np.intp)[:, None], idx]
        split = _best_split(xs, y_node, n_classes)
        if split is None:  # all candidate features constant here
            probs[node] = counts / counts.sum()
            continue
        row, thr = split
        go_left = xs[row] <= thr
        feature[node] = candidates[row]
        threshold[node] = thr
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id
        stack.append((right_id, idx[~go_left]))
        stack.append((left_id, idx[go_left]))
    return DecisionTree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        probs=np.stack(probs),
    )


@dataclass
class _TrainingSet:
    xt: np.ndarray         # (n_features, n_samples): rows gather contiguously
    y_idx: np.ndarray      # class indices 0..n_classes-1
    n_classes: int
    mtry: int
    seed: int


def _grow_indexed(data: _TrainingSet, i: int) -> DecisionTree:
    """Tree ``i`` of the forest: its own seed stream draws the bootstrap
    resample, then the candidate features of every node."""
    rng = Xorshift64Star(derive_seed(data.seed, i))
    n = len(data.y_idx)
    boot = np.fromiter((rng.below(n) for _ in range(n)), dtype=np.int64,
                       count=n)
    return _grow_tree(data.xt[:, boot], data.y_idx[boot], data.n_classes,
                      data.mtry, rng)


_worker_data: _TrainingSet | None = None  # set in each pool worker only


def _init_worker(data: _TrainingSet) -> None:
    global _worker_data
    _worker_data = data


def _grow_in_worker(i: int) -> DecisionTree:
    return _grow_indexed(_worker_data, i)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def train_forest(
    x: np.ndarray, y: np.ndarray, n_trees: int = 100, seed: int = 0
) -> ForestModel:
    """Grow ``n_trees`` CART trees on bootstrap resamples of (x, y).

    Trees grow in up to ``min(usable CPUs, n_trees)`` forked processes; the
    model does not depend on how many.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if n_trees < 1:
        raise DataError(f"a forest needs at least one tree, got {n_trees}")
    if x.ndim != 2 or len(x) != len(y) or len(y) == 0:
        raise DataError("training needs matching non-empty x (2-D) and y")
    if np.any(np.isnan(x)):
        raise DataError("training features contain NaN")
    classes = np.unique(y)
    if len(classes) < 2:
        raise DataError("training needs at least two classes")
    data = _TrainingSet(xt=np.ascontiguousarray(x.T),
                        y_idx=np.searchsorted(classes, y),
                        n_classes=len(classes),
                        mtry=math.ceil(math.sqrt(x.shape[1])), seed=seed)
    workers = min(_usable_cpus(), n_trees)
    if workers == 1 or "fork" not in mp.get_all_start_methods():
        trees = [_grow_indexed(data, i) for i in range(n_trees)]
    else:
        # forked workers inherit ``data`` through initargs without pickling
        with ProcessPoolExecutor(workers, mp_context=mp.get_context("fork"),
                                 initializer=_init_worker,
                                 initargs=(data,)) as pool:
            trees = list(pool.map(_grow_in_worker, range(n_trees)))
    return ForestModel(trees=trees, classes=classes, n_features=x.shape[1],
                       seed=seed)


def _tree_probs(tree: DecisionTree, x: np.ndarray) -> np.ndarray:
    node = np.zeros(len(x), dtype=np.int64)
    while True:
        internal = tree.feature[node] >= 0
        if not internal.any():
            break
        sel = np.flatnonzero(internal)
        cur = node[sel]
        go_left = x[sel, tree.feature[cur]] <= tree.threshold[cur]
        node[sel] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.probs[node]


def predict(model: ForestModel, x: np.ndarray) -> np.ndarray:
    """Majority vote over summed tree probabilities; ties go to the smaller
    class id."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise DataError(
            f"feature dimension {x.shape[-1] if x.ndim else 0} does not match "
            f"model ({model.n_features})"
        )
    if np.any(np.isnan(x)):
        raise DataError("prediction features contain NaN")
    votes = np.zeros((len(x), model.n_classes))
    for tree in model.trees:
        votes += _tree_probs(tree, x)
    return model.classes[np.argmax(votes, axis=1)]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class ConfusionMatrix:
    """counts[t, p] = samples of true class t+1 predicted as class p+1."""

    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def evaluate(
    pred: np.ndarray, truth: np.ndarray
) -> tuple[ConfusionMatrix, float, float]:
    """Confusion matrix, overall accuracy and Cohen's kappa.

    Labels are 1..C; kappa uses the marginal-product chance agreement
    p_e = sum_c row_c * col_c / total^2.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1 or len(pred) == 0:
        raise DataError("evaluate needs equal-length non-empty label vectors")
    if truth.min() < 1 or pred.min() < 1:
        raise DataError("labels must be in 1..C")
    c = int(max(truth.max(), pred.max()))
    counts = np.zeros((c, c), dtype=np.int64)
    np.add.at(counts, (truth - 1, pred - 1), 1)
    total = counts.sum()
    oa = float(np.trace(counts) / total)
    pe = float(np.sum(counts.sum(axis=1) * counts.sum(axis=0)) / total**2)
    if pe >= 1.0:
        kappa = 1.0 if oa == 1.0 else 0.0
    else:
        kappa = (oa - pe) / (1.0 - pe)
    return ConfusionMatrix(counts=counts), oa, kappa


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def model_to_bytes(model: ForestModel) -> bytes:
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<IIIQ I", _VERSION, model.n_classes, model.n_features,
                       model.seed & (2**64 - 1), len(model.trees))
    out += model.classes.astype("<i8").tobytes()
    for tree in model.trees:
        out += struct.pack("<I", len(tree.feature))
        out += tree.feature.astype("<i4").tobytes()
        out += tree.threshold.astype("<f8").tobytes()
        out += tree.left.astype("<i4").tobytes()
        out += tree.right.astype("<i4").tobytes()
        out += tree.probs.astype("<f8").tobytes()
    return bytes(out)


def model_from_bytes(blob: bytes) -> ForestModel:
    if blob[:4] != _MAGIC:
        raise FormatError("not a forest model file", offset=0)
    version, n_classes, n_features, seed, n_trees = struct.unpack_from(
        "<IIIQ I", blob, 4
    )
    if version != _VERSION:
        raise FormatError(f"unsupported model version {version}")
    pos = 4 + struct.calcsize("<IIIQ I")
    classes = np.frombuffer(blob, dtype="<i8", count=n_classes, offset=pos)
    pos += n_classes * 8
    trees = []
    for _ in range(n_trees):
        (n_nodes,) = struct.unpack_from("<I", blob, pos)
        pos += 4

        def take(dtype, count):
            nonlocal pos
            arr = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
            pos += arr.nbytes
            return arr

        feature = take("<i4", n_nodes).astype(np.int32)
        threshold = take("<f8", n_nodes).astype(np.float64)
        left = take("<i4", n_nodes).astype(np.int32)
        right = take("<i4", n_nodes).astype(np.int32)
        probs = take("<f8", n_nodes * n_classes).astype(np.float64)
        trees.append(DecisionTree(
            feature=feature, threshold=threshold, left=left, right=right,
            probs=probs.reshape(n_nodes, n_classes),
        ))
    return ForestModel(trees=trees, classes=classes.astype(np.int64),
                       n_features=n_features, seed=seed)


def save_model(model: ForestModel, path: str | Path) -> None:
    Path(path).write_bytes(model_to_bytes(model))


def load_model(path: str | Path) -> ForestModel:
    return model_from_bytes(Path(path).read_bytes())
