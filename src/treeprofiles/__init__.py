"""Morphological tree hierarchies, attribute/feature profiles and pixel
classification for raster images.

The library builds five tree representations of a grayscale image (max-tree,
min-tree, tree of shapes, alpha-tree, omega-tree), filters them by per-node
attributes, stacks the results into per-pixel attribute or feature profiles,
and classifies those profiles with a deterministic random forest.
"""

from .attributes import (
    AttributeTable,
    compute_attributes,
    dump_attributes,
)
from .classifier import (
    ConfusionMatrix,
    ForestModel,
    evaluate,
    load_model,
    model_from_bytes,
    model_to_bytes,
    predict,
    save_model,
    train_forest,
)
from .errors import BuildError, DataError, FormatError
from .hierarchies import (
    Connectivity,
    Tree,
    TreeKind,
    build_max_tree,
    build_min_tree,
    dump_tree,
    node_areas,
    smallest_node,
)
from .imagery import (
    LabelMap,
    MultibandImage,
    RasterImage,
    load_grayscale,
    load_labels,
    load_multiband,
    pca_reduce,
    rescale_to_levels,
    save_labels,
    save_multiband,
    save_pgm,
)
from .inclusion import build_tree_of_shapes
from .partition import (
    EdgeList,
    build_alpha_tree,
    build_omega_tree,
    edge_list,
    partition_at,
)
from .profiles import (
    Attribute,
    ColumnDesc,
    Feature,
    FilterRule,
    FilterSpec,
    ProfileStack,
    ProfileTrees,
    TreeBundle,
    build_ap,
    build_fp,
    build_tree,
    default_area_thresholds,
    default_moment_thresholds,
    default_rule,
    feature_map,
    filter_tree,
    reconstruct,
    tree_bundle,
)
from .synthetic import split_labels, synthetic_scene

__version__ = "0.1.0"
