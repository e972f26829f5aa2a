"""Deterministic random-forest classifier and evaluation metrics.

CART trees with Gini impurity splits, bootstrap resamples of the full
training size, ceil(sqrt(dim)) candidate features drawn without replacement
per node, grown to purity with minimum node size 1 and no depth cap.  Split
thresholds sit at the midpoint of consecutive distinct sorted values, or at
the lower value when the midpoint rounds up to the upper one or overflows;
among equally good splits the first one found wins, scanning candidate
features in draw order.  Samples route left when ``value <= threshold``.
Features must be finite.

All randomness comes from the package's xorshift64* generator (see
:mod:`treeprofiles.rng`); tree i uses the derived seed ``derive_seed(seed,
i)``, so training is reproducible bit-for-bit across platforms and is
independent of any scheduling order.

The bootstrap, the per-node feature draws, the split search and the vote sum
of :func:`predict` run in the package's native kernel (see
:mod:`treeprofiles._native`), which performs the numpy reference's
floating-point operations one for one (``tests/oracles.py``), so the model
bytes are the reference's.  Each feature is ranked once per forest, and a
feature with one value on the whole training set is skipped without a look
at the node's samples.  A node searches a candidate by counting its samples
per (rank, class) when their ranks are dense on the node (more than 16
samples, at most four ranks per sample), and by sorting them otherwise.  Both visit the same boundaries in
ascending order with the same class counts, so the Gini values, the
first-minimum tie rule and the model bytes do not depend on the branch.

Both kernel calls release the GIL, so the forest runs on threads: trees grow
on up to ``min(usable CPUs, n_trees)`` threads and are collected in index
order, and :func:`predict` splits the rows into up to one contiguous block
per usable CPU, each row summing its votes in tree order until its label is
settled (see :func:`predict`).  Neither the model bytes nor the predictions
depend on the thread or block count.

Model serialization (little-endian throughout)::

    magic b"TPFM", u32 version=1, u32 n_classes, u32 n_features,
    u64 seed, u32 n_trees, i64 class ids,
    per tree: u32 n_nodes, i32 feature[n] (-1 for leaves), f64 threshold[n],
              i32 left[n], i32 right[n], f64 probs[n * n_classes]
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._native import _kernel
from .errors import DataError, FormatError
from .rng import Xorshift64Star, derive_seed

_MAGIC = b"TPFM"
_VERSION = 1
# tp_forest_votes' failure codes (TP_* in _kernels.c)
_NO_MEMORY, _BAD_INDEX, _NON_FINITE = -2, -3, -4


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


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class _TrainingSet:
    """Feature-major (n_features, n_samples) tables, as ``tp_grow_tree`` reads
    them: the dense rank of each value within its feature and the value of
    each rank; and each feature's count of distinct values."""

    rank: np.ndarray       # int32
    level: np.ndarray      # float64
    n_levels: np.ndarray   # int32 (n_features,)
    y_idx: np.ndarray      # int32 class indices 0..n_classes-1
    n_classes: int
    mtry: int
    seed: int


def _training_set(x: np.ndarray, y_idx: np.ndarray, n_classes: int,
                  seed: int) -> _TrainingSet:
    xt = np.ascontiguousarray(x.T, dtype=np.float64)
    order = np.argsort(xt, axis=1)
    ordered = np.take_along_axis(xt, order, axis=1)
    sorted_rank = np.zeros(xt.shape, dtype=np.int32)
    np.cumsum(ordered[:, 1:] > ordered[:, :-1], axis=1, out=sorted_rank[:, 1:])
    rank = np.empty_like(sorted_rank)
    np.put_along_axis(rank, order, sorted_rank, axis=1)
    level = np.zeros_like(xt)
    np.put_along_axis(level, sorted_rank, ordered, axis=1)
    return _TrainingSet(rank=rank, level=level,
                        n_levels=sorted_rank[:, -1] + 1,
                        y_idx=np.ascontiguousarray(y_idx, dtype=np.int32),
                        n_classes=n_classes,
                        mtry=math.ceil(math.sqrt(len(xt))), seed=seed)


def _grow_indexed(data: _TrainingSet, i: int) -> DecisionTree:
    """Tree ``i`` of the forest: its own seed stream draws the bootstrap
    resample, then the candidate features of every node."""
    n = len(data.y_idx)
    cap = 2 * n - 1
    state = np.array([Xorshift64Star(derive_seed(data.seed, i)).state],
                     dtype=np.uint64)
    tree = DecisionTree(feature=np.empty(cap, np.int32),
                        threshold=np.empty(cap), left=np.empty(cap, np.int32),
                        right=np.empty(cap, np.int32),
                        probs=np.empty((cap, data.n_classes)))
    count = _kernel().tp_grow_tree(
        data.rank, data.level, data.n_levels, data.y_idx, n,
        len(data.rank), data.n_classes, data.mtry, state, tree.feature,
        tree.threshold, tree.left, tree.right, tree.probs, cap)
    if count == -2:
        raise MemoryError("forest kernel: out of memory")
    if count < 0:
        raise RuntimeError(f"forest kernel: tree {i} outgrew {cap} nodes")
    return DecisionTree(*(a[:count].copy() for a in (
        tree.feature, tree.threshold, tree.left, tree.right, tree.probs)))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def train_forest(
    x: np.ndarray, y: np.ndarray, n_trees: int = 100, seed: int = 0
) -> ForestModel:
    """Grow ``n_trees`` CART trees on bootstrap resamples of (x, y).

    Trees grow on up to ``min(usable CPUs, n_trees)`` threads; the model
    does not depend on how many.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if n_trees < 1:
        raise DataError(f"a forest needs at least one tree, got {n_trees}")
    if x.ndim != 2 or len(x) != len(y) or len(y) == 0:
        raise DataError("training needs matching non-empty x (2-D) and y")
    if not np.isfinite(x).all():
        raise DataError("training features contain NaN or infinity")
    classes = np.unique(y)
    if len(classes) < 2:
        raise DataError("training needs at least two classes")
    data = _training_set(x, np.searchsorted(classes, y), len(classes), seed)
    _kernel()  # loaded here, so no worker thread builds it
    with ThreadPoolExecutor(min(_usable_cpus(), n_trees)) as pool:
        trees = list(pool.map(lambda i: _grow_indexed(data, i),
                              range(n_trees)))
    return ForestModel(trees=trees, classes=classes, n_features=x.shape[1],
                       seed=seed)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def _votes(model: ForestModel, x: np.ndarray,
           rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(len(rows), n_classes) sums of the trees' leaf probabilities for rows
    ``rows`` of ``x`` (default: every row), added in tree order, one thread
    per block of rows, and per row the number of trees summed: a row stops
    once its vote is settled (see ``predict``), so its sum covers the
    forest's first trees only.  ``x`` is read in place as float32, else
    as float64 (copied when it is neither or not C-ordered)."""
    x = np.ascontiguousarray(x, np.float32 if x.dtype == np.float32 else float)
    rows = np.arange(len(x)) if rows is None else np.asarray(rows)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise DataError("prediction rows must be a 1-D array of row indices")
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    trees = model.trees
    offset = np.cumsum([0] + [len(t.feature) for t in trees], dtype=np.int64)

    def flat(name, dtype):
        parts = [np.ravel(getattr(t, name)) for t in trees]
        return np.ascontiguousarray(
            np.concatenate(parts) if parts else np.empty(0), dtype=dtype)

    probs = flat("probs", np.float64)
    if len(probs) != offset[-1] * model.n_classes or any(
            len(getattr(t, a)) != len(t.feature)
            for t in trees for a in ("threshold", "left", "right")):
        raise DataError("model node arrays disagree in length")
    kernel = _kernel()  # loaded here, so no worker thread builds it
    arrays = (offset, flat("feature", np.int32), flat("threshold", np.float64),
              flat("left", np.int32), flat("right", np.int32), probs)
    n = len(rows)
    votes = np.zeros((n, model.n_classes))
    summed = np.empty(n, dtype=np.int32)
    blocks = max(1, min(_usable_cpus(), n))

    def block(k: int) -> int:
        lo, hi = n * k // blocks, n * (k + 1) // blocks
        return kernel.tp_forest_votes(
            x.ctypes.data, x.dtype == np.float64, len(x), rows[lo:hi], hi - lo,
            model.n_features, model.n_classes, len(trees), *arrays,
            votes[lo:hi], summed[lo:hi])

    with ThreadPoolExecutor(blocks) as pool:
        status = list(pool.map(block, range(blocks)))
    # every block checks its indices, then its rows, then every tree; the
    # first failing check over all blocks is the one a single block names
    if _NO_MEMORY in status:
        raise MemoryError("forest kernel: out of memory")
    if _BAD_INDEX in status:
        raise DataError(f"prediction row index outside [0, {len(x)})")
    if _NON_FINITE in status:
        raise DataError("prediction features contain NaN or infinity")
    if any(status):  # every block checks every tree, so all name the first
        raise DataError(f"tree {min(status) - 1} of the model is malformed")
    return votes, summed


def predict(model: ForestModel, x: np.ndarray,
            rows: np.ndarray | None = None) -> np.ndarray:
    """Labels of rows ``rows`` of ``x``, in their order (default: every
    row): majority vote over summed tree probabilities; ties go to the
    smaller class id.

    The rows, float32 or float64, are picked by index and read in place, so
    labelling a subset of a matrix copies none of it; an index may repeat.

    A row stops summing once no remaining tree can change its leader: its
    lead over every other class exceeds the sum, over the remaining trees,
    of each tree's largest leaf probability minus its smallest, plus an
    allowance for float rounding (derived in ``_kernels.c``).  Such a
    row's full sum would keep the same strict leader, so the labels are the
    full sums' labels; rows still tied or close sum every tree in tree
    order, as before.  Before any vote is summed, DataError is raised, in
    this order, for an index outside ``[0, len(x))``, a NaN or infinite
    feature in an indexed row (other rows are not read), and a model with
    a malformed tree or a NaN or infinite probability."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise DataError(
            f"feature dimension {x.shape[-1] if x.ndim else 0} does not match "
            f"model ({model.n_features})"
        )
    return model.classes[np.argmax(_votes(model, x, rows)[0], axis=1)]


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
