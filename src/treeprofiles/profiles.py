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

Pruning rules: the Min rule removes a node when its attribute fails the
threshold or any ancestor was removed (whole-branch pruning, the natural
choice for increasing attributes such as area); the Direct rule tests each
node independently (the usual choice for non-increasing attributes such as
the moment of inertia).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

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
from .imagery import (
    MultibandImage,
    RasterImage,
    _positive_ints,
    _read_json_header,
    pca_reduce,
    rescale_to_levels,
)
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


def _attribute_values(table: AttributeTable, attribute: Attribute) -> np.ndarray:
    if attribute is Attribute.AREA:
        return table.area.astype(np.float64)
    return moment_of_inertia_all(table)


def filter_tree(
    tree: Tree,
    table: AttributeTable,
    attribute: Attribute | str,
    threshold: float,
    rule: FilterRule | str,
) -> np.ndarray:
    """Boolean retain-mask over nodes; the root is always retained."""
    if table.node_count != tree.node_count:
        raise DataError("attribute table does not match tree")
    rule = FilterRule(rule)
    values = _attribute_values(table, Attribute(attribute))
    keep = values >= threshold
    keep[0] = True
    if rule is FilterRule.MIN:
        keep = tree.propagate(keep, np.logical_and)
    return keep


def reconstruct(tree: Tree, mask: np.ndarray) -> RasterImage:
    """Image restitution: each pixel takes its smallest retained node's
    representative value (level for component/inclusion trees, rounded mean
    gray for partition trees)."""
    resolved = nearest_marked(tree, mask)
    values = tree.rep_value[resolved[tree.pixel_node]]
    return RasterImage(values.reshape(tree.height, tree.width), levels=tree.levels)


def _filtered_levels(tree: Tree, mask: np.ndarray) -> np.ndarray:
    """Like reconstruct but as a flat float column, keeping exact node levels
    for component/inclusion trees (the inclusion-tree root may sit at a
    half-integer level, which integer rounding would skew)."""
    resolved = nearest_marked(tree, mask)
    if tree.kind in (TreeKind.MAX_TREE, TreeKind.MIN_TREE,
                     TreeKind.TREE_OF_SHAPES):
        per_node = tree.level
    else:
        per_node = tree.rep_value.astype(np.float64)
    return per_node[resolved[tree.pixel_node]]


def feature_map(
    tree: Tree,
    mask: np.ndarray,
    table: AttributeTable,
    feature: Feature | str,
) -> np.ndarray:
    """Float image: feature of each pixel's smallest retained node, evaluated
    on the unfiltered tree's table."""
    if Feature(feature) is Feature.STD_DEV:
        per_node = std_dev_all(table)
    else:
        per_node = table.area.astype(np.float64)
    resolved = nearest_marked(tree, mask)
    values = per_node[resolved[tree.pixel_node]]
    return values.reshape(tree.height, tree.width)


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
    data: np.ndarray                  # (width*height, dim) float64
    layout: list[ColumnDesc]

    def __post_init__(self):
        if self.data.shape != (self.width * self.height, len(self.layout)):
            raise DataError("profile data shape does not match layout")

    @property
    def dim(self) -> int:
        return len(self.layout)

    @staticmethod
    def concat(stacks: list["ProfileStack"]) -> "ProfileStack":
        first = stacks[0]
        for s in stacks[1:]:
            if (s.width, s.height) != (first.width, first.height):
                raise DataError("cannot concatenate profiles of different images")
        return ProfileStack(
            width=first.width,
            height=first.height,
            data=np.concatenate([s.data for s in stacks], axis=1),
            layout=[c for s in stacks for c in s.layout],
        )

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
        data = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        return ProfileStack(
            width=width, height=height, data=data.reshape(-1, dim),
            layout=[ColumnDesc(**c) for c in columns],
        )


@dataclass
class TreeBundle:
    """Trees plus attribute tables for one image and one profile family."""

    trees: ProfileTrees
    pair: list[tuple[Tree, AttributeTable]]  # [(min, .), (max, .)] or [(tree, .)]
    image: RasterImage


def build_tree(
    image: RasterImage,
    kind: TreeKind | str,
    connectivity: Connectivity | str = Connectivity.C4,
) -> Tree:
    """Build one tree of the given kind (max|min|tos|alpha|omega).

    The builders are looked up as this module's globals at call time, so a
    wrapper bound over one of them here is the one that runs.
    """
    kind = TreeKind(kind)
    if kind is TreeKind.MAX_TREE:
        return build_max_tree(image, connectivity)
    if kind is TreeKind.MIN_TREE:
        return build_min_tree(image, connectivity)
    if kind is TreeKind.TREE_OF_SHAPES:
        return build_tree_of_shapes(image)
    alpha = build_alpha_tree(image, connectivity)
    if kind is TreeKind.ALPHA_TREE:
        return alpha
    return build_omega_tree(alpha, image)


def tree_bundle(
    image: RasterImage,
    trees: ProfileTrees,
    connectivity: Connectivity | str = Connectivity.C4,
) -> TreeBundle:
    """Build the trees a profile family needs once, for reuse across calls."""
    trees = ProfileTrees(trees)
    if trees is ProfileTrees.COMPONENT_PAIR:
        kinds = (TreeKind.MIN_TREE, TreeKind.MAX_TREE)
    else:
        kinds = (TreeKind(trees.value),)
    pair = []
    for kind in kinds:
        tree = build_tree(image, kind, connectivity)
        pair.append((tree, compute_attributes(tree, image)))
    return TreeBundle(trees=trees, pair=pair, image=image)


def _profile_columns(bundle: TreeBundle, spec: FilterSpec, features):
    """Yield (ColumnDesc, flat float column) in final stacking order.

    ``features`` is None for an attribute profile, else the feature list of a
    feature profile.
    """
    image = bundle.image
    original = image.values.ravel().astype(np.float64)
    ladders = []
    if bundle.trees is ProfileTrees.COMPONENT_PAIR:
        (tmin, tabmin), (tmax, tabmax) = bundle.pair
        # thickenings at descending thresholds, then X, then thinnings ascending
        for k in range(len(spec.thresholds) - 1, -1, -1):
            ladders.append((tmin, tabmin, spec.thresholds[k], "thickening"))
        ladders.append(None)
        for k in range(len(spec.thresholds)):
            ladders.append((tmax, tabmax, spec.thresholds[k], "thinning"))
    else:
        tree, table = bundle.pair[0]
        ladders.append(None)
        for k in range(len(spec.thresholds)):
            ladders.append((tree, table, spec.thresholds[k], "selfdual"))

    masks: dict = {}

    def mask_for(tree, table, lam):
        key = (id(tree), lam)
        if key not in masks:
            masks[key] = filter_tree(tree, table, spec.attribute, lam, spec.rule)
        return masks[key]

    def column(entry, feature):
        if entry is None:
            return _ORIGINAL_COLUMN, original
        tree, table, lam, polarity = entry
        mask = mask_for(tree, table, lam)
        desc = ColumnDesc(
            tree=tree.kind.value, attribute=spec.attribute.value,
            threshold=float(lam), polarity=polarity,
            feature="gray" if feature is None else Feature(feature).value,
        )
        if feature is None:
            values = _filtered_levels(tree, mask)
        else:
            values = feature_map(tree, mask, table, feature).ravel()
        return desc, values

    if features is None:
        for entry in ladders:
            yield column(entry, None)
    else:
        for feature in features:
            for entry in ladders:
                yield column(entry, Feature(feature) if entry is not None else None)


def _assemble(image: RasterImage, columns) -> ProfileStack:
    descs, arrays = [], []
    for desc, arr in columns:
        descs.append(desc)
        arrays.append(arr)
    return ProfileStack(
        width=image.width, height=image.height,
        data=np.stack(arrays, axis=1), layout=descs,
    )


def build_ap(
    image: RasterImage,
    trees: ProfileTrees | str,
    spec: FilterSpec,
    connectivity: Connectivity | str = Connectivity.C4,
    bundle: TreeBundle | None = None,
) -> ProfileStack:
    """Attribute profile: 2K+1 columns for the component pair, K+1 otherwise."""
    if bundle is None:
        bundle = tree_bundle(image, ProfileTrees(trees), connectivity)
    return _assemble(image, _profile_columns(bundle, spec, None))


def build_fp(
    image: RasterImage,
    trees: ProfileTrees | str,
    spec: FilterSpec,
    features: list[Feature | str],
    connectivity: Connectivity | str = Connectivity.C4,
    bundle: TreeBundle | None = None,
) -> ProfileStack:
    """Feature profile: one attribute-profile-shaped block per feature."""
    if len(features) == 0:
        raise DataError("build_fp needs at least one feature")
    if bundle is None:
        bundle = tree_bundle(image, ProfileTrees(trees), connectivity)
    return _assemble(image, _profile_columns(bundle, spec, list(features)))


def build_extended(
    image: MultibandImage,
    n_pca: int,
    trees: ProfileTrees | str,
    spec: FilterSpec,
    features: list[Feature | str] | None = None,
    mode: str = "ap",
    levels: int = 256,
    connectivity: Connectivity | str = Connectivity.C4,
) -> ProfileStack:
    """Extended profile of a multiband image: PCA, per-component quantization
    to ``levels`` gray values, one profile per component, columns stacked."""
    reduced = pca_reduce(image, n_pca)
    stacks = []
    for band in range(n_pca):
        gray = rescale_to_levels(reduced, band, levels)
        if mode == "ap":
            stacks.append(build_ap(gray, trees, spec, connectivity))
        elif mode == "fp":
            if not features:
                raise DataError("extended feature profile needs features")
            stacks.append(build_fp(gray, trees, spec, features, connectivity))
        else:
            raise DataError(f"unknown profile mode {mode!r}")
    return ProfileStack.concat(stacks)
