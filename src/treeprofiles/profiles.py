"""Attribute filtering and per-pixel profile stacks.

An attribute profile stacks, for each pixel, the gray values the pixel takes
as the image is filtered at a sequence of attribute thresholds.  With the
max-tree/min-tree pair the columns run thickenings first, then the original
image, then thinnings, giving 2K+1 columns for K thresholds.  The self-dual
variants (tree of shapes, alpha-tree, omega-tree) filter one tree and need
only K+1 columns.

A feature profile keeps the same column structure but replaces each filtered
gray value with a feature of the pixel's smallest retained component (its
population gray standard deviation or its area), read from the unfiltered
tree's attribute table; the central column stays the original gray value.
Several features stack into one profile.

Both are built by one path, from a tree bundle (one family's trees on
each of one or more same-size bands, such as the components of a multiband
image) and a list of filter specs: per band, one block per spec.  Each
tree's per-node tables (the specs' attribute values, the features) are
computed once per call and freed before the next band.  With a ladder's
ascending thresholds, the attribute values give each pixel's smallest
retained node at every threshold (``filter_tree``'s tests, with no retain
mask built); every column is a gather from a per-node table: the gray level
for an attribute profile, the standard deviation or area for a feature
profile.  An attribute profile is thus the ladder read through the
gray-level table.  The filters, the resolution and the gathers of one
tree's whole ladder are one native call (``tp_ladder``, from values and
thresholds), which rounds each table value to its float32 column, so the
bytes are those of ``filter_tree`` and a float32 gather per column.  The
columns can be written into a slice of a caller's matrix (``out``).

Pruning rules: the Min rule removes a node when its attribute fails the
threshold or any ancestor was removed (whole-branch pruning, the natural
choice for increasing attributes such as area); the Direct rule tests each
node independently (the usual choice for non-increasing attributes such as
the moment of inertia).
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from ._native import _kernel
from .attributes import (
    AttributeTable,
    compute_attributes,
    moment_of_inertia_all,
    std_dev_all,
)
from .errors import DataError, FormatError
from .hierarchies import (
    Connectivity,
    Tree,
    TreeKind,
    build_max_tree,
    build_min_tree,
    nearest_marked,
)
from .imagery import RasterImage, _positive_ints, _read_json_header
from .inclusion import build_tree_of_shapes
from .partition import build_alpha_tree, build_omega_tree


class Attribute(str, Enum):
    AREA = "area"
    MOMENT = "moment"


class FilterRule(str, Enum):
    MIN = "min"
    DIRECT = "direct"


class Feature(str, Enum):
    STD_DEV = "stddev"
    AREA = "area"


class ProfileTrees(str, Enum):
    COMPONENT_PAIR = "component"
    TOS = "tos"
    ALPHA = "alpha"
    OMEGA = "omega"


def default_rule(attribute: Attribute | str) -> FilterRule:
    return FilterRule.MIN if Attribute(attribute) is Attribute.AREA \
        else FilterRule.DIRECT


def default_area_thresholds(n_pixels: int) -> tuple[float, ...]:
    """Area thresholds, scaled down proportionally for images under 1e5 px."""
    base = (25, 100, 500, 1000, 5000, 10000, 20000, 50000, 100000, 150000)
    scale = min(1.0, n_pixels / 1e5)
    return tuple(v * scale for v in base)


def default_moment_thresholds() -> tuple[float, ...]:
    return (0.2, 0.3, 0.4, 0.5)


@dataclass(frozen=True)
class FilterSpec:
    """One attribute with its ascending threshold ladder and pruning rule."""

    attribute: Attribute
    thresholds: tuple[float, ...]
    rule: FilterRule | None = None

    def __post_init__(self):
        object.__setattr__(self, "attribute", Attribute(self.attribute))
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        if len(self.thresholds) == 0:
            raise DataError("FilterSpec needs at least one threshold")
        if not all(math.isfinite(t) for t in self.thresholds):
            raise DataError("thresholds must be finite numbers")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise DataError("thresholds must be strictly ascending")
        rule = default_rule(self.attribute) if self.rule is None \
            else FilterRule(self.rule)
        object.__setattr__(self, "rule", rule)


def _node_values(tree: Tree, table: AttributeTable, name: str) -> np.ndarray:
    """The one per-node float table: what a filter tests, what a profile
    column gathers, what a reconstructed pixel takes.

    ``"gray"`` is the gray value of a node: the exact level for component
    trees and the tree of shapes (whose root may sit at a half-integer
    level, which integer rounding would skew), and the mean gray rounded
    half up, from the table, for the alpha- and omega-trees, whose level is
    a dissimilarity.  ``"stddev"``, ``"area"`` and ``"moment"`` are the
    population gray standard deviation, the pixel count and the moment of
    inertia.  ``table`` must be the tree's own.
    """
    if table.node_count != tree.node_count:
        raise DataError("attribute table does not match tree")
    if name == "gray":
        if tree.kind in (TreeKind.ALPHA_TREE, TreeKind.OMEGA_TREE):
            area, gray_sum = table.area, table.gray_sum
            mean = gray_sum // area + ((gray_sum % area) * 2 >= area)
            return mean.astype(np.float64)
        return tree.level
    if name == "stddev":
        return std_dev_all(table)
    if name == "moment":
        return moment_of_inertia_all(table)
    return table.area.astype(np.float64)


def filter_tree(
    tree: Tree,
    table: AttributeTable,
    attribute: Attribute | str,
    threshold: float,
    rule: FilterRule | str,
) -> np.ndarray:
    """Boolean retain-mask over nodes; the root is always retained."""
    rule = FilterRule(rule)
    keep = _node_values(tree, table, Attribute(attribute).value) >= threshold
    keep[0] = True
    if rule is FilterRule.MIN:
        keep = tree.propagate(keep, np.logical_and)
    return keep


# tp_ladder's rule codes
_LADDER_RULES = {FilterRule.MIN: 0, FilterRule.DIRECT: 1}


def _pixel_owners(tree: Tree, mask: np.ndarray) -> np.ndarray:
    """Flat per-pixel id of each pixel's smallest retained node."""
    return nearest_marked(tree, mask)[tree.pixel_node]


def reconstruct(tree: Tree, mask: np.ndarray,
                table: AttributeTable) -> RasterImage:
    """Image restitution: each pixel takes the gray value of its smallest
    retained node (see ``_node_values``), rounded up to an integer; ``table``
    is the unfiltered tree's."""
    gray = np.ceil(_node_values(tree, table, "gray")).astype(np.int64)
    values = gray[_pixel_owners(tree, mask)]
    return RasterImage(values.reshape(tree.height, tree.width), levels=tree.levels)


def feature_map(
    tree: Tree,
    mask: np.ndarray,
    table: AttributeTable,
    feature: Feature | str,
) -> np.ndarray:
    """Float image: feature of each pixel's smallest retained node, evaluated
    on the unfiltered tree's table."""
    values = _node_values(tree, table, Feature(feature).value)
    return values[_pixel_owners(tree, mask)].reshape(tree.height, tree.width)


# ---------------------------------------------------------------------------
# Profile stacks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnDesc:
    """Provenance of one profile column."""

    tree: str | None        # "max", "min", "tos", "alpha", "omega" or None
    attribute: str | None
    threshold: float | None
    polarity: str           # "thickening", "thinning", "selfdual", "original"
    feature: str            # "gray", "stddev", "area"

    def to_json(self) -> dict:
        return {
            "tree": self.tree,
            "attribute": self.attribute,
            "threshold": self.threshold,
            "polarity": self.polarity,
            "feature": self.feature,
        }


_ORIGINAL_COLUMN = ColumnDesc(None, None, None, "original", "gray")


@dataclass
class ProfileStack:
    """Per-pixel feature vectors: data[p, c] for pixel p (row-major), column c."""

    width: int
    height: int
    data: np.ndarray                  # (width*height, dim) float32
    layout: list[ColumnDesc]

    def __post_init__(self):
        if self.data.shape != (self.width * self.height, len(self.layout)):
            raise DataError("profile data shape does not match layout")

    @property
    def dim(self) -> int:
        return len(self.layout)

    def save(self, path: str | Path) -> None:
        """Write ``<path>.json`` layout plus ``<path>.raw`` float32 matrix."""
        path = Path(path)
        header = {
            "width": self.width,
            "height": self.height,
            "dim": self.dim,
            "columns": [c.to_json() for c in self.layout],
        }
        path.with_suffix(".json").write_text(json.dumps(header, sort_keys=True))
        path.with_suffix(".raw").write_bytes(
            np.ascontiguousarray(self.data, dtype="<f4").tobytes()
        )

    @staticmethod
    def load(path: str | Path) -> "ProfileStack":
        path = Path(path)
        header = _read_json_header(path.with_suffix(".json"),
                                   ("width", "height", "dim", "columns"),
                                   "profile header")
        width, height, dim = _positive_ints(header, ("width", "height", "dim"),
                                            "profile header")
        columns = header["columns"]
        names = {f.name for f in fields(ColumnDesc)}
        if not isinstance(columns, list) or len(columns) != dim or not all(
                isinstance(c, dict) and set(c) == names for c in columns):
            raise FormatError(
                f"profile header 'columns' must list {dim} objects with "
                f"keys {', '.join(sorted(names))}")
        raw = path.with_suffix(".raw").read_bytes()
        need = width * height * dim * 4
        if len(raw) != need:
            raise FormatError(
                f"profile blob is {len(raw)} bytes, header requires {need}"
            )
        data = np.frombuffer(raw, dtype="<f4")
        return ProfileStack(
            width=width, height=height, data=data.reshape(-1, dim),
            layout=[ColumnDesc(**c) for c in columns],
        )


@dataclass
class TreeBundle:
    """Trees plus attribute tables for same-size bands and one profile
    family, as ``tree_bundle`` builds them: all that ``build_ap`` and
    ``build_fp`` read."""

    trees: ProfileTrees
    bands: list[RasterImage]
    # per band: [(min, table), (max, table)] or [(tree, table)]
    pairs: list[list[tuple[Tree, AttributeTable]]]


def build_tree(
    image: RasterImage,
    kind: TreeKind | str,
    connectivity: Connectivity | str = Connectivity.C4,
    alpha: Tree | None = None,
) -> Tree:
    """Build one tree of the given kind (max|min|tos|alpha|omega).

    ``alpha`` is the image's alpha-tree at the same connectivity; an alpha
    or omega tree is then taken from it instead of building a new one.  The
    builders are looked up as this module's globals at call time, so a
    wrapper bound over one of them here is the one that runs.
    """
    kind = TreeKind(kind)
    if kind is TreeKind.MAX_TREE:
        return build_max_tree(image, connectivity)
    if kind is TreeKind.MIN_TREE:
        return build_min_tree(image, connectivity)
    if kind is TreeKind.TREE_OF_SHAPES:
        return build_tree_of_shapes(image)
    if alpha is None:
        alpha = build_alpha_tree(image, connectivity)
    elif alpha.kind is not TreeKind.ALPHA_TREE or \
            (alpha.width, alpha.height) != (image.width, image.height):
        raise DataError("alpha must be an alpha-tree of the same image")
    if kind is TreeKind.ALPHA_TREE:
        return alpha
    return build_omega_tree(alpha, image)


def tree_bundle(
    bands: Sequence[RasterImage],
    trees: ProfileTrees,
    connectivity: Connectivity | str = Connectivity.C4,
    alphas: Sequence[Tree] | None = None,
) -> TreeBundle:
    """Build the trees a profile family needs on every band once, for reuse
    across calls.

    ``bands`` are one or more images of one size, such as the components of
    a multiband image.  The alpha and omega families start from ``alphas``,
    one alpha-tree per band, when it is given (see ``build_tree``), so both
    can share them.
    """
    trees, bands = ProfileTrees(trees), list(bands)
    if not bands:
        raise DataError("a tree bundle needs at least one band")
    if len({(band.width, band.height) for band in bands}) > 1:
        raise DataError("the bands of a tree bundle must have one size")
    alphas = [None] * len(bands) if alphas is None else list(alphas)
    if len(alphas) != len(bands):
        raise DataError(f"{len(alphas)} alpha-trees given for "
                        f"{len(bands)} bands")
    if trees is ProfileTrees.COMPONENT_PAIR:
        kinds = (TreeKind.MIN_TREE, TreeKind.MAX_TREE)
    else:
        kinds = (TreeKind(trees.value),)
    pairs = []
    for band, alpha in zip(bands, alphas):
        pairs.append([])
        for kind in kinds:
            tree = build_tree(band, kind, connectivity, alpha)
            pairs[-1].append((tree, compute_attributes(tree, band)))
    return TreeBundle(trees=trees, bands=bands, pairs=pairs)


def _ladder(trees: ProfileTrees, spec: FilterSpec) -> list:
    """The columns of one feature block, in order: ``None`` for the
    original image, else (side, threshold, polarity) with side the index in
    a band's pair of ``TreeBundle.pairs``."""
    if trees is ProfileTrees.COMPONENT_PAIR:
        # thickenings at descending thresholds, then X, then thinnings ascending
        return [(0, lam, "thickening") for lam in reversed(spec.thresholds)] \
            + [None] + [(1, lam, "thinning") for lam in spec.thresholds]
    return [None] + [(0, lam, "selfdual") for lam in spec.thresholds]


def profile_dim(trees: ProfileTrees | str, specs: Sequence[FilterSpec],
                n_features: int = 1) -> int:
    """Column count per band of an attribute profile (``n_features`` = 1)
    or of a feature profile of ``n_features`` features."""
    return sum(len(_ladder(ProfileTrees(trees), s)) for s in specs) * \
        n_features


def _columns(out: np.ndarray | None, rows: int, dim: int) -> np.ndarray:
    """``out``, checked to be a writeable (rows, dim) float32 matrix whose
    columns are adjacent floats (a column slice of a C-ordered matrix
    will do), or a new one."""
    if out is None:
        return np.empty((rows, dim), dtype=np.float32)
    if not isinstance(out, np.ndarray) or out.dtype != np.float32 or \
            out.shape != (rows, dim) or out.strides[1] != 4 or \
            out.strides[0] < 4 * dim or out.strides[0] % 4 or \
            not out.flags.writeable or not out.flags.aligned:
        raise ValueError(f"out must be a writeable ({rows}, {dim}) float32 "
                         f"matrix with adjacent columns")
    return out


def _profile(bundle: TreeBundle, specs: Sequence[FilterSpec],
             features: list[str],
             out: np.ndarray | None = None) -> ProfileStack:
    """Ladders of filters, read through one per-node table per feature.

    ``features`` is ``["gray"]`` for an attribute profile, else the feature
    names of a feature profile.  Each band gets one block per spec, and each
    block one attribute-profile-shaped part per feature.  Per tree, every
    per-node table the specs and features read (``_node_values``) is
    computed once, and one native call per spec (``tp_ladder``) takes the
    tree's attribute values and the ascending thresholds, finds each
    pixel's smallest retained node at every threshold in one root-first
    sweep, making ``filter_tree``'s float64 ``>=`` tests under the same
    rule, and writes each feature table's value there straight into the
    columns of ``out``.  Each value is the table's float64 rounded to
    float32 (an area is exact up to 2**24 px), so the stack is a float32
    gather per column, to the byte.
    """
    if len(specs) == 0:
        raise DataError("a profile needs at least one filter spec")
    ladders = [_ladder(bundle.trees, spec) for spec in specs]
    kinds = [tree.kind.value for tree, _ in bundle.pairs[0]]
    blocks = [[_ORIGINAL_COLUMN if entry is None else ColumnDesc(
        tree=kinds[entry[0]], attribute=spec.attribute.value,
        threshold=float(entry[1]), polarity=entry[2], feature=feature)
        for feature in features for entry in ladder]
        for spec, ladder in zip(specs, ladders)]
    # the first column of each (band, spec) block, and the width of all
    firsts = np.cumsum([0] + [len(b) for b in blocks] * len(bundle.bands))
    width, height = bundle.bands[0].width, bundle.bands[0].height
    out = _columns(out, width * height, int(firsts[-1]))
    attributes = dict.fromkeys(spec.attribute.value for spec in specs)
    for b, (band, pair) in enumerate(zip(bundle.bands, bundle.pairs)):
        starts = firsts[b * len(specs):(b + 1) * len(specs)]
        for ladder, block, first in zip(ladders, blocks, starts):
            out[:, first + ladder.index(None):first + len(block):len(ladder)] \
                = band.values.reshape(-1, 1)
        for side, (tree, table) in enumerate(pair):
            parent = np.ascontiguousarray(tree.parent, dtype=np.int64)
            pixel_node = np.ascontiguousarray(tree.pixel_node, dtype=np.int32)
            tables = np.stack([_node_values(tree, table, f) for f in features])
            values = {a: tables[features.index(a)] if a in features else
                      _node_values(tree, table, a) for a in attributes}
            for spec, ladder, first in zip(specs, ladders, starts):
                # the ladder position of each threshold, ascending
                at = {entry[1]: p for p, entry in enumerate(ladder)
                      if entry is not None and entry[0] == side}
                cols = np.array([[first + j * len(ladder) + at[lam]
                                  for lam in spec.thresholds]
                                 for j in range(len(features))],
                                dtype=np.int64)
                status = _kernel().tp_ladder(
                    parent, tree.node_count, values[spec.attribute.value],
                    np.array(spec.thresholds, dtype=np.float64),
                    len(spec.thresholds), _LADDER_RULES[spec.rule],
                    pixel_node, len(pixel_node), tables, len(features), cols,
                    out.ctypes.data, out.strides[0] // 4, out.shape[1])
                if status == -2:
                    raise MemoryError("tp_ladder: out of memory")
                if status:
                    raise DataError(
                        "filter ladder: tree is not root-first, its "
                        "thresholds are not strictly ascending as float64 "
                        "or a pixel's node is out of range")
            del tables, values  # freed before the next tree's are computed
    return ProfileStack(width=width, height=height, data=out,
                        layout=[c for _ in bundle.bands for block in blocks
                                for c in block])


def build_ap(bundle: TreeBundle, specs: Sequence[FilterSpec],
             out: np.ndarray | None = None) -> ProfileStack:
    """Attribute profile of the bundle's bands, from the bundle's trees:
    per band, per spec, 2K+1 columns for the component pair of a K-threshold
    spec, K+1 otherwise.

    With ``out``, a (pixels, dim) float32 matrix whose columns are adjacent
    floats, such as a column slice of a larger matrix, the columns are
    written there and the stack's data is ``out``.
    """
    return _profile(bundle, specs, ["gray"], out)


def build_fp(bundle: TreeBundle, specs: Sequence[FilterSpec],
             features: list[Feature | str],
             out: np.ndarray | None = None) -> ProfileStack:
    """Feature profile: per band and spec, one attribute-profile-shaped
    block per feature; ``bundle`` and ``out`` as for ``build_ap``."""
    if len(features) == 0:
        raise DataError("build_fp needs at least one feature")
    return _profile(bundle, specs, [Feature(f).value for f in features], out)
