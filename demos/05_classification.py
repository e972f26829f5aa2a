"""Supervised pixel classification: raw gray vs AP vs FP.

The synthetic scene has three classes designed to defeat per-pixel gray
values: small bright squares, large smooth blobs and a high-variance
background all share overlapping gray ranges and differ mainly in region
size and local texture.  Profiles encode exactly that, so a random forest
on profile features beats the same forest on raw gray values by a wide
margin.  Everything is seeded; rerunning reproduces the numbers bit for
bit.
"""

from treeprofiles import (
    Attribute,
    Feature,
    FilterSpec,
    ProfileTrees,
    build_ap,
    build_fp,
    default_area_thresholds,
    default_moment_thresholds,
    evaluate,
    predict,
    split_labels,
    synthetic_scene,
    train_forest,
    tree_bundle,
)

SEED = 42

# 1. Scene and a 10 % training split.
image, labels = synthetic_scene(96, 96, seed=SEED)
train, test = split_labels(labels, 0.10, seed=SEED)
train_idx, train_y = train.samples()
test_idx, test_y = test.samples()
print(f"{image.width}x{image.height} scene, "
      f"{len(train_idx)} training / {len(test_idx)} test pixels")

# 2. Filter ladders: area thresholds scale with the image, moment-of-inertia
#    thresholds probe compactness.
area = FilterSpec(Attribute.AREA,
                  default_area_thresholds(image.width * image.height))
moment = FilterSpec(Attribute.MOMENT, default_moment_thresholds())
bundle = tree_bundle([image], ProfileTrees.COMPONENT_PAIR)


def score(matrix, name):
    model = train_forest(matrix[train_idx], train_y, n_trees=100, seed=SEED)
    _, oa, kappa = evaluate(predict(model, matrix[test_idx]), test_y)
    print(f"  {name:<22} dim {matrix.shape[1]:>3}   "
          f"OA {oa * 100:5.1f} %   kappa {kappa:.3f}")
    return oa


print("\nrandom forest (100 trees) on three pixel descriptions:")
raw = image.values.ravel().astype(float)[:, None]
score(raw, "raw gray value")

# each profile holds an area block, then a moment block
ap = build_ap(bundle, [area, moment]).data
score(ap, "attribute profile")

fp = build_fp(bundle, [area, moment], [Feature.STD_DEV, Feature.AREA]).data
score(fp, "feature profile")

# 3. The same experiment is scriptable for all tree families via the CLI:
#    treeprof compare --image scene.pgm --train train.pgm --test test.pgm \
#        --tree component,tos,alpha,omega --seed 42 --out results/
print("\nsee `treeprof compare` for the full tree-family comparison table")
