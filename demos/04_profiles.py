"""Attribute profiles and feature profiles.

An attribute profile (AP) stacks, pixel by pixel, the gray values left by a
ladder of attribute filters: thickenings from the min-tree, the original
gray value, thinnings from the max-tree.  A feature profile (FP) keeps the
same ladder but outputs a feature of the pixel's surviving component (area,
gray standard deviation) instead of its gray value, which describes the
region around each pixel much more directly.  Self-dual variants come from
the tree of shapes or a partition tree and need half the columns.
"""

import numpy as np

from treeprofiles import (
    Attribute,
    Feature,
    FilterSpec,
    ProfileTrees,
    build_ap,
    build_fp,
    tree_bundle,
)
from treeprofiles.imagery import RasterImage

rng = np.random.default_rng(5)
values = rng.integers(0, 16, size=(12, 12))
values[2:10, 2:6] = 12          # a big bright box
values[4, 8:10] = 15            # a tiny bright dash
image = RasterImage(values, levels=16)

spec = FilterSpec(Attribute.AREA, (2.0, 8.0, 32.0))
K = len(spec.thresholds)

# 1. AP on the max/min-tree pair: 2K+1 columns.  The trees and their
#    attribute tables are built once, as a bundle over a list of bands (one
#    here), and every profile of that family reads its ladders from it.
pair = tree_bundle([image], ProfileTrees.COMPONENT_PAIR)
ap = build_ap(pair, [spec])
print(f"attribute profile: {ap.dim} columns for K={K} thresholds (2K+1)")
for desc in ap.layout:
    print(f"  {desc.polarity:<11} tree={str(desc.tree):<5} "
          f"threshold={desc.threshold}")

# 2. The same ladder on the tree of shapes needs only K+1 columns.
sd_ap = build_ap(tree_bundle([image], ProfileTrees.TOS), [spec])
print(f"\nself-dual profile: {sd_ap.dim} columns (K+1)")

# 3. FP: every feature contributes one AP-shaped block.
fp = build_fp(pair, [spec], [Feature.STD_DEV, Feature.AREA])
print(f"\nfeature profile with 2 features: {fp.dim} columns (2 x (2K+1))")

# 4. Several ladders at once: one block per spec, here an area ladder and
#    a moment-of-inertia ladder side by side.
moment = FilterSpec(Attribute.MOMENT, (0.2, 0.4))
both = build_ap(pair, [spec, moment])
print(f"area and moment ladders: {both.dim} columns "
      f"({ap.dim} + {both.dim - ap.dim})")

# 5. Same pixel, two descriptions.  The dash pixel's AP collapses early
#    (tiny area), and its FP area column says so explicitly.
p = 4 * 12 + 8  # the dash pixel, row-major
print("\ndash pixel AP  :", np.array2string(ap.data[p], precision=1))
print("dash pixel FP  :", np.array2string(fp.data[p], precision=1))
box = 5 * 12 + 3
print("box  pixel FP  :", np.array2string(fp.data[box], precision=1))
print("\nthe area block of the FP separates dash from box at a glance")
