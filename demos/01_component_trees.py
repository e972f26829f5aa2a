"""Component trees: the max-tree and min-tree of a grayscale image.

A grayscale image can be read as a stack of nested threshold sets.  The
max-tree organizes the connected components of the upper sets {x >= t} by
inclusion; the min-tree does the same for the lower sets.  Filtering the
tree and reconstructing the image gives connected operators that simplify
the image without ever shifting edges.
"""

import numpy as np

from treeprofiles import (
    Attribute,
    FilterRule,
    build_max_tree,
    build_min_tree,
    compute_attributes,
    dump_tree,
    filter_tree,
    node_areas,
    reconstruct,
    smallest_node,
)
from treeprofiles.imagery import RasterImage

# A small scene: a dim plateau holding two bright objects of different size,
# plus an isolated bright speck in the corner.
values = np.zeros((8, 10), dtype=int)
values[1:7, 1:9] = 1            # plateau
values[2:6, 2:5] = 4            # large object
values[3:5, 6:8] = 5            # small object
values[0, 9] = 7                # speck
image = RasterImage(values, levels=8)
print("input image:")
print(values)

# 1. Build the max-tree.  Every node is a connected component of some upper
#    level set; children are nested inside their parents.
tree = build_max_tree(image, "c4")
print(f"\nmax-tree has {tree.node_count} nodes (id parent level area):")
print(dump_tree(tree))

# 2. Each pixel knows the smallest component containing it.
print("smallest node of the speck (9,0):", smallest_node(tree, (9, 0)))
print("smallest node of a plateau pixel (1,1):", smallest_node(tree, (1, 1)))

# 3. An area opening: drop every component smaller than 5 pixels, then put
#    the image back together.  The speck and the small object disappear;
#    everything that stays keeps its exact contour.
table = compute_attributes(tree, image)
mask = filter_tree(tree, table, Attribute.AREA, 5, FilterRule.MIN)
opened = reconstruct(tree, mask, table)
print("\narea opening (min area 5):")
print(opened.values)

# 4. The min-tree is the dual structure: it indexes dark components, and
#    filtering it removes dark details (an area closing).
dark = RasterImage(image.levels - 1 - values, levels=8)
min_tree = build_min_tree(dark, "c4")
areas = node_areas(min_tree)
print(f"\nmin-tree of the complemented image: {min_tree.node_count} nodes, "
      f"areas {sorted(areas.tolist())}")
assert min_tree.node_count == tree.node_count  # duality of the two trees
print("duality holds: the min-tree of the complement mirrors the max-tree")
