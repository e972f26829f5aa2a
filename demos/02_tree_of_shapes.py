"""The tree of shapes: one self-dual hierarchy for dark and bright objects.

Component trees need two passes (max-tree for bright structures, min-tree
for dark ones).  The tree of shapes avoids that: its nodes are "shapes",
hole-filled components of both polarities ordered by inclusion, so a single
filtering pass simplifies dark and bright details at once.
"""

import numpy as np

from treeprofiles import (
    Attribute,
    FilterRule,
    build_tree_of_shapes,
    compute_attributes,
    dump_tree,
    filter_tree,
    reconstruct,
)
from treeprofiles.imagery import RasterImage

# Nested rings: a bright ring holding a dark pond holding a bright islet.
values = np.ones((9, 9), dtype=int)
values[1:8, 1:8] = 6            # bright ring exterior
values[2:7, 2:7] = 2            # dark pond
values[4, 4] = 7                # islet
image = RasterImage(values, levels=8)
print("input image:")
print(values)

# 1. Shapes nest regardless of polarity: islet inside pond inside ring.
tree = build_tree_of_shapes(image)
print(f"\ntree of shapes, {tree.node_count} nodes (id parent level area):")
print(dump_tree(tree))

# 2. Reconstructing from all shapes is the identity.  Each pixel takes the
#    gray value of its smallest retained shape, read from the tree's table.
table = compute_attributes(tree, image)
everything = np.ones(tree.node_count, dtype=bool)
assert np.array_equal(reconstruct(tree, everything, table).values, values)

# 3. One self-dual area filter removes the small islet (bright) while a
#    max-tree filter alone could never touch dark details, and vice versa.
mask = filter_tree(tree, table, Attribute.AREA, 4, FilterRule.MIN)
print("self-dual area filter (min area 4):")
print(reconstruct(tree, mask, table).values)

# 4. Self-duality: complementing the image complements the tree.  The shape
#    boundaries are level lines, identical for X and its negative.
flipped = build_tree_of_shapes(image.complement())
mine = sorted(tree.level.tolist())
theirs = sorted(float(image.levels - 1 - lvl) for lvl in flipped.level)
assert mine == theirs
print("\nshape levels of X:", mine)
print("complemented levels of (L-1-X):", theirs)
print("the two hierarchies coincide: the tree is self-dual")
