import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the CLI tests run ``python -m treeprofiles`` in a subprocess, which does not
# see pytest's ``pythonpath`` setting
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parent.parent / "src"),
    os.environ.get("PYTHONPATH"),
]))

from treeprofiles import RasterImage


def random_image(rng: np.random.Generator, max_side: int, max_levels: int,
                 min_side: int = 1) -> RasterImage:
    h = int(rng.integers(min_side, max_side + 1))
    w = int(rng.integers(min_side, max_side + 1))
    levels = int(rng.integers(2, max_levels + 1))
    values = rng.integers(0, levels, size=(h, w))
    return RasterImage(values, levels=levels)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
