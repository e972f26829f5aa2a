"""Independent brute-force reference implementations used by the tests.

The brute-force references work by per-threshold flood fill on plain Python
data structures; nothing is shared with the library's union-find or
hole-filling code paths, so agreement between the two is meaningful.  The
sections at the end keep paths the library replaced (per-node loops,
per-node hole filling, per-column profile resolution, the cyclic Jacobi
eigensolver, the numpy random forest, the pixel-sorted and alpha union-find
builders, the Python Kruskal loop and the ``ndimage.label`` hole fill) as
exact references for the faster code.
"""

import math
from collections import deque

import numpy as np

C4_OFFSETS = ((0, 1), (1, 0), (0, -1), (-1, 0))
C8_OFFSETS = C4_OFFSETS + ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _offsets(connectivity: str):
    return C4_OFFSETS if str(connectivity).lower().endswith("4") else C8_OFFSETS


def connected_components(mask: np.ndarray, connectivity: str = "c4"):
    """CCs of a boolean grid as frozensets of (y, x), BFS flood fill."""
    offs = _offsets(connectivity)
    h, w = mask.shape
    seen = np.zeros_like(mask, dtype=bool)
    components = []
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or seen[sy, sx]:
                continue
            queue = deque([(sy, sx)])
            seen[sy, sx] = True
            comp = []
            while queue:
                y, x = queue.popleft()
                comp.append((y, x))
                for dy, dx in offs:
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] \
                            and not seen[ny, nx]:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
            components.append(frozenset(comp))
    return components


def component_tree_nodes(values: np.ndarray, connectivity: str, upper: bool):
    """{(level, pixelset)} of canonical max-tree (upper) / min-tree nodes.

    A set occurring at several thresholds is kept at its extreme level:
    the highest for upper sets, the lowest for lower sets.
    """
    best: dict = {}
    for lam in np.unique(values):
        mask = values >= lam if upper else values <= lam
        for comp in connected_components(mask, connectivity):
            lam_i = int(lam)
            if comp not in best:
                best[comp] = lam_i
            else:
                best[comp] = max(best[comp], lam_i) if upper \
                    else min(best[comp], lam_i)
    return {(lvl, comp) for comp, lvl in best.items()}


def area_opening(values: np.ndarray, min_area: float, connectivity: str):
    """Pointwise max over thresholds of upper-set CCs with area >= min_area."""
    out = np.full(values.shape, int(values.min()), dtype=np.int64)
    for lam in np.unique(values):
        for comp in connected_components(values >= lam, connectivity):
            if len(comp) >= min_area:
                for (y, x) in comp:
                    out[y, x] = max(out[y, x], int(lam))
    return out


# ---------------------------------------------------------------------------
# Tree of shapes
# ---------------------------------------------------------------------------

def border_median(values: np.ndarray) -> float:
    h, w = values.shape
    if h == 1 or w == 1:
        border = values.ravel()
    else:
        border = np.concatenate(
            [values[0, :], values[-1, :], values[1:-1, 0], values[1:-1, -1]]
        )
    border = np.sort(border)
    n = len(border)
    return (float(border[(n - 1) // 2]) + float(border[n // 2])) / 2.0


def _saturate(comp: frozenset, shape: tuple[int, int]) -> frozenset:
    """comp plus its C8-complement regions that do not reach the array border."""
    h, w = shape
    outside = set()
    queue = deque()
    for y in range(h):
        for x in range(w):
            if (y == 0 or x == 0 or y == h - 1 or x == w - 1) \
                    and (y, x) not in comp:
                outside.add((y, x))
                queue.append((y, x))
    while queue:
        y, x = queue.popleft()
        for dy, dx in C8_OFFSETS:
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w and (ny, nx) not in comp \
                    and (ny, nx) not in outside:
                outside.add((ny, nx))
                queue.append((ny, nx))
    filled = {(y, x) for y in range(h) for x in range(w)
              if (y, x) not in outside}
    return frozenset(filled)


def tree_of_shapes_shapes(values: np.ndarray):
    """{(level, pixelset-in-original-coords)} of all shapes, root included.

    Shapes are saturations of C4 components of upper and lower level sets of
    the image padded with a frame at the border median; components touching
    the frame collapse into the root.
    """
    h, w = values.shape
    m = border_median(values)
    padded = np.full((h + 2, w + 2), m, dtype=np.float64)
    padded[1:-1, 1:-1] = values
    ph, pw = h + 2, w + 2
    frame = {(y, x) for y in range(ph) for x in range(pw)
             if y in (0, ph - 1) or x in (0, pw - 1)}

    best: dict = {}
    for upper in (True, False):
        for lam in np.unique(padded):
            mask = padded >= lam if upper else padded <= lam
            for comp in connected_components(mask, "c4"):
                if comp & frame:
                    continue  # saturates to the root
                sat = _saturate(comp, (ph, pw))
                lam_f = float(lam)
                entry = best.setdefault(sat, [None, None])
                side = 0 if upper else 1
                if entry[side] is None:
                    entry[side] = lam_f
                else:
                    entry[side] = max(entry[side], lam_f) if upper \
                        else min(entry[side], lam_f)

    shapes = set()
    for sat, (up_lvl, low_lvl) in best.items():
        level = up_lvl if up_lvl is not None else low_lvl
        restricted = frozenset((y - 1, x - 1) for (y, x) in sat)
        shapes.add((level, restricted))
    everything = frozenset((y, x) for y in range(h) for x in range(w))
    shapes.add((m, everything))
    return shapes


# ---------------------------------------------------------------------------
# Alpha partitions
# ---------------------------------------------------------------------------

def alpha_partition(values: np.ndarray, alpha: float, connectivity: str = "c4"):
    """Partition into maximal components linked by steps of |diff| <= alpha."""
    offs = _offsets(connectivity)
    h, w = values.shape
    seen = np.zeros((h, w), dtype=bool)
    parts = []
    for sy in range(h):
        for sx in range(w):
            if seen[sy, sx]:
                continue
            queue = deque([(sy, sx)])
            seen[sy, sx] = True
            comp = []
            while queue:
                y, x = queue.popleft()
                comp.append((y, x))
                for dy, dx in offs:
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and not seen[ny, nx] \
                            and abs(int(values[ny, nx]) - int(values[y, x])) <= alpha:
                        seen[ny, nx] = True
                        queue.append((ny, nx))
            parts.append(frozenset(comp))
    return parts


# ---------------------------------------------------------------------------
# Attribute recomputation
# ---------------------------------------------------------------------------

def stats_from_pixels(pixels, width: int, values_flat: np.ndarray) -> dict:
    """Recompute every accumulator of one component from its raw pixel list."""
    xs = [p % width for p in pixels]
    ys = [p // width for p in pixels]
    grays = [int(values_flat[p]) for p in pixels]
    return {
        "area": len(pixels),
        "sum_x": sum(xs),
        "sum_y": sum(ys),
        "sum_xx": sum(x * x for x in xs),
        "sum_yy": sum(y * y for y in ys),
        "gray_sum": sum(grays),
        "gray_sum_sq": sum(g * g for g in grays),
        "gray_min": min(grays),
        "gray_max": max(grays),
        "bbox": (min(xs), min(ys), max(xs), max(ys)),
    }


def two_pass_std(grays) -> float:
    mean = sum(grays) / len(grays)
    return (sum((g - mean) ** 2 for g in grays) / len(grays)) ** 0.5


def tree_component_pixels(tree) -> list[list[int]]:
    """Full component pixel list per node, by child-to-parent accumulation."""
    comp = [[] for _ in range(tree.node_count)]
    for p, node in enumerate(tree.pixel_node.tolist()):
        comp[node].append(p)
    for i in range(tree.node_count - 1, 0, -1):
        comp[tree.parent[i]].extend(comp[i])
    return comp


def best_split_per_feature(x_node: np.ndarray, y_node: np.ndarray,
                           n_classes: int, feature_ids: list[int]):
    """Forest split search one candidate feature at a time, in draw order:
    (feature, threshold) of the first minimum weighted Gini, or None."""
    n = len(y_node)
    onehot = np.equal(y_node[:, None], np.arange(n_classes)[None, :])
    best_gini = np.inf
    best = None
    for f in feature_ids:
        v = x_node[:, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        splits = np.flatnonzero(vs[:-1] < vs[1:])
        if len(splits) == 0:
            continue
        cum = np.cumsum(onehot[order], axis=0, dtype=np.float64)
        nl = (splits + 1).astype(np.float64)
        nr = n - nl
        left = cum[splits]
        right = cum[-1][None, :] - left
        gini_l = 1.0 - np.sum((left / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right / nr[:, None]) ** 2, axis=1)
        weighted = (nl * gini_l + nr * gini_r) / n
        k = int(np.argmin(weighted))
        if weighted[k] < best_gini:
            best_gini = weighted[k]
            pos = splits[k]
            best = (f, split_threshold(vs[pos], vs[pos + 1]))
    return best


def split_threshold(lo, hi):
    """Midpoint of two consecutive distinct values, or ``lo`` where the
    midpoint rounds or overflows out of [lo, hi)."""
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return mid if lo <= mid < hi else lo


# ---------------------------------------------------------------------------
# Random forest: the numpy trees the compiled kernel replaced
# ---------------------------------------------------------------------------

def best_split(xs: np.ndarray, y_node: np.ndarray, n_classes: int):
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
    return row, split_threshold(vs[row, p], vs[row, p + 1])


def grow_tree(xt: np.ndarray, y: np.ndarray, n_classes: int, mtry: int,
              rng):
    """One CART tree on the (n_features, n_samples) matrix ``xt``, nodes
    in preorder, left subtree first; returns the five node arrays
    (feature, threshold, left, right, probs)."""
    feature, threshold, left, right, probs = [], [], [], [], []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        probs.append(np.zeros(n_classes))
        return len(feature) - 1

    n_features = len(xt)
    stack = [(new_node(), np.arange(len(y)))]
    while stack:
        node, idx = stack.pop()
        y_node = y[idx]
        counts = np.bincount(y_node, minlength=n_classes)
        if len(idx) == 1 or np.count_nonzero(counts) == 1:
            probs[node] = counts / counts.sum()
            continue
        candidates = rng.sample_without_replacement(n_features, mtry)
        xs = xt[np.array(candidates, dtype=np.intp)[:, None], idx]
        split = best_split(xs, y_node, n_classes)
        if split is None:  # all candidate features constant here
            probs[node] = counts / counts.sum()
            continue
        row, thr = split
        go_left = xs[row] <= thr
        feature[node] = candidates[row]
        threshold[node] = thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((right[node], idx[~go_left]))
        stack.append((left[node], idx[go_left]))
    return (np.array(feature, dtype=np.int32),
            np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.int32), np.array(right, dtype=np.int32),
            np.stack(probs))


def grow_indexed_tree(x: np.ndarray, y_idx: np.ndarray, n_classes: int,
                      seed: int, i: int):
    """Tree ``i`` of a forest on (x, y_idx): the bootstrap resample, then
    the tree, both drawn from the stream ``derive_seed(seed, i)``."""
    from treeprofiles.rng import Xorshift64Star, derive_seed

    rng = Xorshift64Star(derive_seed(seed, i))
    n = len(y_idx)
    boot = np.array([rng.below(n) for _ in range(n)], dtype=np.int64)
    mtry = math.ceil(math.sqrt(x.shape[1]))
    return grow_tree(np.ascontiguousarray(x.T)[:, boot], y_idx[boot],
                     n_classes, mtry, rng)


def tree_probs(feature, threshold, left, right, probs, x: np.ndarray):
    """Leaf probability rows reached by the rows of ``x``."""
    node = np.zeros(len(x), dtype=np.int64)
    while True:
        internal = feature[node] >= 0
        if not internal.any():
            break
        sel = np.flatnonzero(internal)
        cur = node[sel]
        go_left = x[sel, feature[cur]] <= threshold[cur]
        node[sel] = np.where(go_left, left[cur], right[cur])
    return probs[node]


# ---------------------------------------------------------------------------
# Tree traversal: per-node loops, and numpy folds one depth layer at a time
# ---------------------------------------------------------------------------

def accumulate_loop(parent, values, ufunc):
    """Child-to-parent fold one node at a time, highest id first."""
    out = np.array(values, copy=True)
    for i in range(len(parent) - 1, 0, -1):
        out[parent[i]] = ufunc(out[parent[i]], out[i])
    return out


def propagate_loop(parent, values, ufunc):
    """Parent-to-child fold one node at a time, lowest id first."""
    out = np.array(values, copy=True)
    for i in range(1, len(parent)):
        out[i] = ufunc(out[parent[i]], out[i])
    return out


def depth_layers(parent: np.ndarray) -> list[np.ndarray]:
    """Non-root node ids of a root-first parent array grouped by depth,
    shallowest layer first, each layer in ascending id order.

    Depths come from pointer doubling: every round adds the depth gained by
    each node's current ancestor and jumps to that ancestor's ancestor.
    """
    parent = np.asarray(parent, dtype=np.int64)
    depth = (parent != np.arange(len(parent))).astype(np.int64)
    up = parent
    while np.any(up != 0):
        depth += depth[up]
        up = up[up]
    order = np.argsort(depth, kind="stable")
    bounds = np.cumsum(np.bincount(depth))
    return np.split(order, bounds[:-1])[1:]


def accumulate_layered(parent: np.ndarray, layers: list[np.ndarray],
                       values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """Fold ``values`` (shape (N,) or (N, k)) from children into parents,
    deepest layer first: afterwards each node holds ``ufunc`` over its whole
    subtree.  Returns a new array."""
    out = np.array(values, copy=True)
    for layer in reversed(layers):
        ufunc.at(out, parent[layer], out[layer])
    return out


def propagate_layered(parent: np.ndarray, layers: list[np.ndarray],
                      values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
    """Fold ``values`` from parents into children, shallowest layer first:
    afterwards each node holds ``ufunc`` over its root path, root first.
    Returns a new array."""
    out = np.array(values, copy=True)
    for layer in layers:
        out[layer] = ufunc(out[parent[layer]], out[layer])
    return out


def nearest_retained_loop(parent, mask):
    """Each node itself if retained, else its nearest retained ancestor."""
    resolved = np.empty(len(parent), dtype=np.int64)
    resolved[0] = 0
    for i in range(1, len(parent)):
        resolved[i] = i if mask[i] else resolved[parent[i]]
    return resolved


def min_rule_loop(parent, keep):
    """Min pruning rule: a node is dropped when any ancestor is dropped."""
    keep = np.array(keep, copy=True)
    for i in range(1, len(parent)):
        if not keep[parent[i]]:
            keep[i] = False
    return keep


def partition_labels_loop(tree, threshold):
    """Per-pixel id of the highest ancestor with level <= threshold."""
    target = np.arange(tree.node_count, dtype=np.int32)
    for i in range(1, tree.node_count):
        p = tree.parent[i]
        if tree.level[p] <= threshold:
            target[i] = target[p]
    return target[tree.pixel_node].reshape(tree.height, tree.width)


def preorder_dfs(parent):
    """(pre, post) ranks of a depth-first walk visiting children in
    ascending id order; post is the counter value when a node's subtree is
    done, so a node's subtree ranks are [pre, post)."""
    n = len(parent)
    children = [[] for _ in range(n)]
    for i in range(1, n):
        children[parent[i]].append(i)
    pre = np.empty(n, dtype=np.int64)
    post = np.empty(n, dtype=np.int64)
    counter = 0
    stack = [(0, False)]
    while stack:
        node, done = stack.pop()
        if done:
            post[node] = counter
            continue
        pre[node] = counter
        counter += 1
        stack.append((node, True))
        for child in reversed(children[node]):
            stack.append((child, False))
    return pre, post


# ---------------------------------------------------------------------------
# Tree of shapes: the per-node saturation path the hole count replaced
# ---------------------------------------------------------------------------

def tree_of_shapes_per_node(image):
    """Tree of shapes with every side-tree node saturated individually.

    Builds its side trees with the union-find oracle below and reuses the
    library's frame conventions; a node with a pixel in the padded image's
    border ring saturates to the root, and every other max-/min-tree node's
    component is hole-filled on its bounding box and registered under its
    exact mask, duplicates collapsing to the highest upper / lowest lower
    level.
    Shapes are painted largest first, ordered by (-area, level, y0, x0,
    mask bytes), ties in first-seen order.
    """
    from scipy import ndimage

    from treeprofiles.hierarchies import Tree, TreeKind
    from treeprofiles.inclusion import (
        _border_median_doubled, _subtree_pixel_slices,
    )

    h, w = image.height, image.width
    frame2 = _border_median_doubled(image.values)
    padded = np.full((h + 2, w + 2), frame2, dtype=np.int64)
    padded[1:-1, 1:-1] = 2 * image.values
    ph, pw = h + 2, w + 2

    registry: dict = {}
    for kind in (TreeKind.MAX_TREE, TreeKind.MIN_TREE):
        upper = kind is TreeKind.MAX_TREE
        parent, order = component_tree_arrays(padded.ravel(), pw, ph, "c4",
                                              brightest_first=upper)
        tree = tree_from_pixel_parents(padded.ravel(), parent, order, pw, ph,
                                       2, kind)
        pix_order, lo, hi = _subtree_pixel_slices(tree)
        for node in range(tree.node_count):
            pixels = pix_order[lo[node]:hi[node]]
            ys, xs = pixels // pw, pixels % pw
            if np.any((ys == 0) | (ys == ph - 1) | (xs == 0) | (xs == pw - 1)):
                continue  # holds a frame pixel: saturates to the root
            y0, x0 = int(ys.min()), int(xs.min())
            mask = np.zeros((int(ys.max()) - y0 + 1, int(xs.max()) - x0 + 1),
                            dtype=bool)
            mask[ys - y0, xs - x0] = True
            sat = ndimage.binary_fill_holes(mask, structure=np.ones((3, 3)))
            key = (y0, x0, sat.shape, np.packbits(sat).tobytes())
            lvl = int(tree.level[node])
            entry = registry.get(key)
            if entry is None:
                registry[key] = [lvl if upper else None,
                                 None if upper else lvl, sat]
            elif upper:
                entry[0] = lvl if entry[0] is None else max(entry[0], lvl)
            else:
                entry[1] = lvl if entry[1] is None else min(entry[1], lvl)

    entries = []
    for (y0, x0, _, packed), (up_lvl, low_lvl, sat) in registry.items():
        level2 = up_lvl if up_lvl is not None else low_lvl
        entries.append((int(sat.sum()), level2, y0, x0, packed, sat))
    entries.sort(key=lambda e: (-e[0], e[1], e[2], e[3], e[4]))

    n_shapes = len(entries) + 1
    label = np.zeros((h, w), dtype=np.int32)
    node_parent = np.zeros(n_shapes, dtype=np.int32)
    node_level2 = np.empty(n_shapes, dtype=np.int64)
    node_level2[0] = frame2
    for sid, (_, level2, y0, x0, _, sat) in enumerate(entries, start=1):
        ys, xs = np.nonzero(sat)
        gy, gx = ys + (y0 - 1), xs + (x0 - 1)
        node_parent[sid] = label[gy[0], gx[0]]
        label[gy, gx] = sid
        node_level2[sid] = level2

    subtree = accumulate_layered(node_parent, depth_layers(node_parent),
                                 np.bincount(label.ravel(),
                                             minlength=n_shapes),
                                 np.add)
    if not subtree.all():
        alive = subtree > 0
        new_id = np.cumsum(alive) - 1
        node_parent = new_id[node_parent[alive]].astype(np.int32)
        node_level2 = node_level2[alive]
        label = new_id[label].astype(np.int32)

    return Tree(
        kind=TreeKind.TREE_OF_SHAPES, width=w, height=h, levels=image.levels,
        parent=node_parent, level=node_level2.astype(np.float64) / 2.0,
        pixel_node=label.ravel(),
    )


# ---------------------------------------------------------------------------
# Profiles: the per-column path the shared threshold resolution replaced
# ---------------------------------------------------------------------------

def profile_per_column(bundle, spec, features):
    """(layout, data) of one spec's profile of the bundle's first band,
    built one column at a time.

    ``features`` is None for an attribute profile, else the feature list of
    a feature profile.  Each column resolves its own pixel owners: the gray
    level (node level for component/inclusion trees, ``rounded_mean_gray``
    for partition trees) or the feature of the unfiltered tree's table.
    Masks are computed once per (tree, threshold).
    """
    from treeprofiles.attributes import std_dev_all
    from treeprofiles.hierarchies import TreeKind, nearest_marked
    from treeprofiles.profiles import (
        ColumnDesc, Feature, ProfileTrees, filter_tree)

    image = bundle.bands[0]
    original = image.values.ravel().astype(np.float64)
    ladders = []
    if bundle.trees is ProfileTrees.COMPONENT_PAIR:
        (tmin, tabmin), (tmax, tabmax) = bundle.pairs[0]
        for k in range(len(spec.thresholds) - 1, -1, -1):
            ladders.append((tmin, tabmin, spec.thresholds[k], "thickening"))
        ladders.append(None)
        for k in range(len(spec.thresholds)):
            ladders.append((tmax, tabmax, spec.thresholds[k], "thinning"))
    else:
        tree, table = bundle.pairs[0][0]
        ladders.append(None)
        for k in range(len(spec.thresholds)):
            ladders.append((tree, table, spec.thresholds[k], "selfdual"))

    masks = {}

    def column(entry, feature):
        if entry is None:
            return ColumnDesc(None, None, None, "original", "gray"), original
        tree, table, lam, polarity = entry
        key = (id(tree), lam)
        if key not in masks:
            masks[key] = filter_tree(tree, table, spec.attribute, lam,
                                     spec.rule)
        resolved = nearest_marked(tree, masks[key])
        if feature is None:
            if tree.kind in (TreeKind.MAX_TREE, TreeKind.MIN_TREE,
                             TreeKind.TREE_OF_SHAPES):
                per_node = tree.level
            else:
                per_node = rounded_mean_gray(tree, image).astype(
                    np.float64)
        elif feature == "stddev":
            per_node = std_dev_all(table)
        else:
            per_node = table.area.astype(np.float64)
        desc = ColumnDesc(tree.kind.value, spec.attribute.value, float(lam),
                          polarity, "gray" if feature is None else feature)
        return desc, per_node[resolved[tree.pixel_node]]

    if features is None:
        columns = [column(entry, None) for entry in ladders]
    else:
        columns = [column(entry, Feature(f).value)
                   for f in features for entry in ladders]
    return ([d for d, _ in columns],
            np.stack([v for _, v in columns], axis=1))


# ---------------------------------------------------------------------------
# PCA: the cyclic Jacobi eigensolver LAPACK's eigh replaced
# ---------------------------------------------------------------------------

def jacobi_eigh(matrix: np.ndarray, max_sweeps: int = 100,
                tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors-as-columns) sorted by descending
    eigenvalue.  Convergence is declared when the off-diagonal norm drops
    below tol times the Frobenius norm of the input; exceeding the sweep
    budget raises RuntimeError.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("jacobi_eigh needs a square matrix")
    v = np.eye(n)
    frob = float(np.linalg.norm(a))
    if frob == 0.0 or n == 1:
        return np.diag(a).copy(), v
    for _ in range(max_sweeps):
        off = float(np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0))
        if off < tol * frob:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = a[q, p] = 0.0
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    else:
        raise RuntimeError(
            f"Jacobi eigensolver did not converge within {max_sweeps} sweeps"
        )
    order = np.argsort(-np.diag(a), kind="stable")
    return np.diag(a)[order].copy(), v[:, order]


def band_covariance(image) -> np.ndarray:
    """Covariance of the mean-centered pixel spectra, as pca_reduce forms it."""
    spectra = image.values.reshape(image.bands, -1).T
    centered = spectra - spectra.mean(axis=0)
    return centered.T @ centered / len(spectra)


def pca_reduce_jacobi(image, n_components: int):
    """``pca_reduce`` with the Jacobi solver, same centering and sign rule."""
    from treeprofiles import MultibandImage

    spectra = image.values.reshape(image.bands, -1).T
    centered = spectra - spectra.mean(axis=0)
    _, vecs = jacobi_eigh(band_covariance(image))
    vecs = vecs[:, :n_components]
    flips = np.sign(vecs[np.argmax(np.abs(vecs), axis=0),
                         np.arange(n_components)])
    flips[flips == 0] = 1.0
    projected = centered @ (vecs * flips)
    return MultibandImage(
        projected.T.reshape(n_components, image.height, image.width))


# ---------------------------------------------------------------------------
# Hierarchies: the two union-find builders the Kruskal routine replaced
# ---------------------------------------------------------------------------

def component_tree_arrays(values_flat, width: int, height: int,
                          connectivity: str, brightest_first: bool):
    """Berger-style union-find pass. Returns (pixel_parent, processing order)."""
    n = width * height
    order = np.argsort(values_flat, kind="stable")
    if brightest_first:
        order = order[::-1]
    parent = [-1] * n
    zpar = [-1] * n
    offsets = _offsets(connectivity)

    def find(p: int) -> int:
        root = p
        while zpar[root] != root:
            root = zpar[root]
        while zpar[p] != root:  # path compression
            zpar[p], p = root, zpar[p]
        return root

    for p in order.tolist():
        parent[p] = p
        zpar[p] = p
        x, y = p % width, p // width
        for dy, dx in offsets:
            nx, ny = x + dx, y + dy
            if nx < 0 or ny < 0 or nx >= width or ny >= height:
                continue
            q = ny * width + nx
            if zpar[q] < 0:
                continue
            r = find(q)
            if r != p:
                parent[r] = p
                zpar[r] = p
    # canonicalization: walk root-side first so ancestors are already flat
    vals = values_flat.tolist()
    for p in order[::-1].tolist():
        q = parent[p]
        if vals[parent[q]] == vals[q]:
            parent[p] = parent[q]
    return parent, order


def tree_from_pixel_parents(values_flat, parent, order, width: int,
                            height: int, levels: int, kind):
    """Number the canonical pixels root first into a ``Tree``."""
    from treeprofiles.hierarchies import Tree

    n = width * height
    vals = values_flat.tolist()
    node_of = [-1] * n
    canonical: list[int] = []
    for p in order[::-1].tolist():  # root first
        if parent[p] == p or vals[parent[p]] != vals[p]:
            node_of[p] = len(canonical)
            canonical.append(p)
        else:
            node_of[p] = node_of[parent[p]]
    node_parent = np.empty(len(canonical), dtype=np.int32)
    node_level = np.empty(len(canonical), dtype=np.float64)
    for i, c in enumerate(canonical):
        node_parent[i] = node_of[parent[c]]
        node_level[i] = vals[c]
    pixel_node = np.array(node_of, dtype=np.int32)
    return Tree(
        kind=kind, width=width, height=height, levels=levels,
        parent=node_parent, level=node_level, pixel_node=pixel_node,
    )


def component_tree_union_find(image, connectivity: str, upper: bool):
    """Max-tree (upper) or min-tree of the image through the pixel-sorted
    union-find and per-pixel renumbering."""
    from treeprofiles.hierarchies import TreeKind

    flat = image.values.ravel()
    kind = TreeKind.MAX_TREE if upper else TreeKind.MIN_TREE
    parent, order = component_tree_arrays(flat, image.width, image.height,
                                          connectivity, brightest_first=upper)
    return tree_from_pixel_parents(flat, parent, order, image.width,
                                   image.height, image.levels, kind)


def alpha_tree_union_find(image, connectivity: str = "c4"):
    """Alpha-tree through a pixel union-find plus a node-record union-find,
    compacted by a per-node loop."""
    from treeprofiles.hierarchies import Tree, TreeKind
    from treeprofiles.partition import edge_list

    edges = edge_list(image, connectivity)
    n = image.width * image.height

    # pixel union-find
    pix_parent = list(range(n))

    def pix_find(p: int) -> int:
        root = p
        while pix_parent[root] != root:
            root = pix_parent[root]
        while pix_parent[p] != root:
            pix_parent[p], p = root, pix_parent[p]
        return root

    # node records; ids 0..n-1 are per-pixel singletons at level 0
    node_level: list[float] = [0.0] * n
    node_parent: list[int] = list(range(n))
    node_alias: list[int] = list(range(n))
    top_of = list(range(n))  # valid at pixel-UF roots only

    def node_find(i: int) -> int:
        root = i
        while node_alias[root] != root:
            root = node_alias[root]
        while node_alias[i] != root:
            node_alias[i], i = root, node_alias[i]
        return root

    order = np.argsort(edges.weight, kind="stable")
    ea = edges.a.tolist()
    eb = edges.b.tolist()
    ew = edges.weight.tolist()
    for e in order.tolist():
        ra, rb = pix_find(ea[e]), pix_find(eb[e])
        if ra == rb:
            continue
        w = float(ew[e])
        ta, tb = node_find(top_of[ra]), node_find(top_of[rb])
        la, lb = node_level[ta], node_level[tb]
        if la == w and lb == w:
            node_alias[tb] = ta
            survivor = ta
        elif la == w:
            node_parent[tb] = ta
            survivor = ta
        elif lb == w:
            node_parent[ta] = tb
            survivor = tb
        else:
            survivor = len(node_level)
            node_level.append(w)
            node_parent.append(survivor)
            node_alias.append(survivor)
            node_parent[ta] = survivor
            node_parent[tb] = survivor
        pix_parent[rb] = ra
        top_of[ra] = survivor

    # compact: drop aliased nodes, renumber so parents come first
    total = len(node_level)
    keep = [i for i in range(total) if node_find(i) == i]
    new_id = [-1] * total
    for rank, i in enumerate(reversed(keep)):
        new_id[i] = rank
    n_nodes = len(keep)
    parent = np.empty(n_nodes, dtype=np.int32)
    level = np.empty(n_nodes, dtype=np.float64)
    for i in keep:
        nid = new_id[i]
        parent[nid] = new_id[node_find(node_parent[node_find(i)])]
        level[nid] = node_level[i]
    pixel_node = np.fromiter(
        (new_id[node_find(p)] for p in range(n)), dtype=np.int32, count=n
    )

    return Tree(
        kind=TreeKind.ALPHA_TREE,
        width=image.width,
        height=image.height,
        levels=image.levels,
        parent=parent,
        level=level,
        pixel_node=pixel_node,
    )


def rounded_mean_gray(tree, image) -> np.ndarray:
    """Per-node mean gray of a tree's pixels rounded half up (int64): the
    gray value of an alpha- or omega-tree node, by a per-pixel scatter and
    a fold by depth layers instead of the attribute sweep."""
    stats = np.zeros((tree.node_count, 2), dtype=np.int64)
    flat = image.values.ravel().astype(np.int64)
    np.add.at(stats, tree.pixel_node,
              np.stack([np.ones_like(flat), flat], axis=1))
    area, gray_sum = accumulate_layered(tree.parent, depth_layers(tree.parent),
                                        stats, np.add).T
    return gray_sum // area + ((gray_sum % area) * 2 >= area)


# ---------------------------------------------------------------------------
# Tree building: the Python loops the native kernel replaced
# ---------------------------------------------------------------------------

# Edges turned into Python ints at a time: all of them at once would hold
# two int objects per edge for the whole loop.
_EDGE_CHUNK = 4096


def kruskal_loop(a: np.ndarray, b: np.ndarray, weight: np.ndarray,
                 order: np.ndarray, leaf_level: np.ndarray):
    """Merge the edges (a, b) in ``order`` into a hierarchy of records.

    Records 0..n-1 are the pixels at ``leaf_level``.  An edge joining two
    components at weight w aliases their top records when both sit at w,
    lets a top at w absorb the other, and otherwise makes a new record at w
    above both.  Returns ``(records, parent, level, pixel_record)``: the
    ids of the un-aliased records in ascending order, then each record's
    parent and level and each pixel's record, all with aliases resolved.
    """
    n = len(leaf_level)
    ids = list(range(n))  # the copies share these int objects
    root, top, parent, alias = ids[:], ids[:], ids[:], ids
    size = [1] * n
    level = leaf_level.tolist()
    for lo in range(0, len(order), _EDGE_CHUNK):
        chunk = order[lo:lo + _EDGE_CHUNK]
        for p, q, w in zip(a[chunk].tolist(), b[chunk].tolist(),
                           weight[chunk].tolist()):
            while p != root[p]:
                root[p] = p = root[root[p]]
            while q != root[q]:
                root[q] = q = root[root[q]]
            if p == q:
                continue
            ta, tb = top[p], top[q]  # a live top is never aliased
            if level[ta] == w:
                if level[tb] == w:
                    alias[tb] = ta
                else:
                    parent[tb] = ta
                survivor = ta
            elif level[tb] == w:
                parent[ta] = survivor = tb
            else:
                survivor = len(level)
                level.append(w)
                parent.append(survivor)
                alias.append(survivor)
                parent[ta] = parent[tb] = survivor
            if size[p] < size[q]:
                p, q = q, p
            root[q] = p
            size[p] += size[q]
            top[p] = survivor

    alias = np.array(alias)
    while True:
        hop = alias[alias]
        if np.array_equal(hop, alias):
            break
        alias = hop
    records = np.flatnonzero(alias == np.arange(len(alias)))
    return (records, alias[np.array(parent)],
            np.array(level, dtype=np.float64), alias[:n])


def fill_holes_label(mask: np.ndarray) -> np.ndarray:
    """The mask plus its holes: background not 8-connected to the outside,
    from one ``ndimage.label`` pass of the background framed by a one-pixel
    border."""
    from scipy import ndimage

    outside = np.ones((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    outside[1:-1, 1:-1] = ~mask
    regions, _ = ndimage.label(outside, structure=np.ones((3, 3), dtype=bool))
    return regions[1:-1, 1:-1] != regions[0, 0]
