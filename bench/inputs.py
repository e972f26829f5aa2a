"""Workload definitions and their seeded inputs.

Every input is a function of the workload's scene parameters and ``--seed``
alone, written to ``<data dir>/<workload>-<parameter digest>-seed<seed>/``
once and reused by later runs.  The program under test only ever sees the
files; the seed also becomes the CLI's ``--seed`` so the forest draws change
with it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_TEXTURE = 0.6  # peak spectral weight of the scene's gray texture in the cube
PCA_COMPONENTS = 4


@dataclass(frozen=True)
class Workload:
    """One ``classify --mode fp`` invocation and the scene it runs on."""

    name: str
    side: int                     # scene is side x side pixels
    train_fraction: float
    rf_trees: int
    trees: tuple[str, ...]        # --tree families
    bands: int = 0                # 0: grayscale PGM; else f32 BSQ cube
    noise: float = 0.0            # per-band noise sd over the texture weight

    def argv(self, files: dict, seed: int, out: Path) -> list[str]:
        args = ["classify", "--mode", "fp", "--image", files["image"],
                "--train", files["train"], "--test", files["test"],
                "--tree", ",".join(self.trees),
                "--rf-trees", str(self.rf_trees), "--seed", str(seed),
                "--out", str(out)]
        if self.bands:
            args += ["--pca", str(PCA_COMPONENTS)]
        return args

    def scene_key(self) -> str:
        """Digest of everything the generated files depend on besides the
        seed, so a changed workload never reuses stale inputs."""
        params = (self.side, self.train_fraction, self.bands, self.noise)
        return hashlib.sha256(repr(params).encode()).hexdigest()[:10]


WORKLOADS = {
    w.name: w for w in (
        # The paper's headline pipeline: component-tree FP + 100-tree forest.
        Workload("classify-m", side=128, train_fraction=0.10,
                 rf_trees=100, trees=("component",)),
        # Multiband load, Jacobi PCA and all three self-dual trees; the
        # forest is a small share, so forest work should not move it.
        Workload("hsi-selfdual", side=88, train_fraction=0.02,
                 rf_trees=16, trees=("tos", "alpha", "omega"), bands=103,
                 noise=0.25),
    )
}


def _smooth_field(rng, side: int):
    """Low-frequency nuisance field in [0, 1], unrelated to the classes."""
    yy, xx = np.mgrid[0:side, 0:side] / side
    field = np.zeros((side, side))
    for _ in range(3):
        fx, fy = rng.uniform(0.5, 2.0, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        field += np.sin(2 * np.pi * (fx * xx + fy * yy) + phase)
    return (field - field.min()) / (field.max() - field.min())


def _cube(gray, levels: int, bands: int, noise: float, seed: int):
    """Three smooth endmember spectra mixed by the scene's gray texture, a
    nuisance field and a constant, plus per-pixel noise in every band."""
    rng = np.random.default_rng(seed)
    side = gray.shape[0]
    b = np.linspace(0.0, 1.0, bands)[:, None, None]
    texture = gray[None] / (levels - 1)
    nuisance = _smooth_field(rng, side)[None]
    cube = (_TEXTURE * texture * np.exp(-((b - 0.3) / 0.15) ** 2)
            + 0.3 * nuisance * np.exp(-((b - 0.7) / 0.2) ** 2)
            + 0.2 * (1.0 + b))
    cube += rng.normal(0.0, noise * _TEXTURE, size=cube.shape)
    return cube


def prepare(workload: Workload, seed: int, data_dir: Path) -> dict:
    """Paths of the workload's input files plus their sizes, generating the
    files on first use."""
    target = data_dir / f"{workload.name}-{workload.scene_key()}-seed{seed}"
    manifest = target / "inputs.json"
    if not manifest.exists():
        _generate(workload, seed, target)
    inputs = json.loads(manifest.read_text())
    inputs["files"] = {k: str(target / v) for k, v in inputs["files"].items()}
    inputs["sizes"]["forest_trees"] = workload.rf_trees
    return inputs


def _generate(workload: Workload, seed: int, target: Path) -> None:
    from treeprofiles import (MultibandImage, save_labels, save_multiband,
                              save_pgm, split_labels, synthetic_scene)

    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    image, labels = synthetic_scene(workload.side, workload.side, seed=seed)
    train, test = split_labels(labels, workload.train_fraction, seed=seed)
    if workload.bands:
        image_name = "cube.json"
        cube = _cube(image.values, image.levels, workload.bands,
                     workload.noise, seed)
        save_multiband(MultibandImage(cube), tmp / image_name, dtype="f32")
    else:
        image_name = "scene.pgm"
        save_pgm(image, tmp / image_name)
    save_labels(train, tmp / "train.pgm")
    save_labels(test, tmp / "test.pgm")
    sizes = {
        "pixels": workload.side * workload.side,
        "bands": workload.bands or 1,
        "train_pixels": int((train.labels > 0).sum()),
        "test_pixels": int((test.labels > 0).sum()),
    }
    files = {"image": image_name, "train": "train.pgm", "test": "test.pgm"}
    (tmp / "inputs.json").write_text(
        json.dumps({"files": files, "sizes": sizes}, sort_keys=True))
    shutil.rmtree(target, ignore_errors=True)
    os.replace(tmp, target)

