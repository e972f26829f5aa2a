"""Independent brute-force reference implementations used by the tests.

Everything here works by per-threshold flood fill on plain Python data
structures; nothing is shared with the library's union-find / scipy code
paths, so agreement between the two is meaningful.
"""

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
    comp = [list(tree.direct_pixels(i)) for i in range(tree.node_count)]
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
            best = (f, (vs[pos] + vs[pos + 1]) / 2.0)
    return best


# ---------------------------------------------------------------------------
# Tree traversal: the per-node loops the depth-layered kernels replaced
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
