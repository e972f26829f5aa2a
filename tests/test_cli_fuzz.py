"""Property-based fuzzing of the CLI's input readers: ``tree-dump`` on
generated PGM files, ``profile`` on generated multiband cubes and
``--config`` files, and ``classify --profile`` on damaged saved stacks.

Tree building indexes pixels in C, where a bad index crashes the process
instead of raising, so every generated input must end in exit 0 with a
clean stderr, or in exit 2 or 3 with one line and no traceback.
"""

import contextlib
import functools
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeprofiles import cli

KINDS = ("max", "min", "tos", "alpha", "omega")
FUZZ = settings(max_examples=25, deadline=None, derandomize=True,
                database=None)


@st.composite
def pgm_files(draw):
    """(header, raster) bytes of a valid P2 or P5 file, 1-12 px per side."""
    height, width = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    maxval = draw(st.one_of(st.sampled_from([1, 255, 256, 65535]),
                            st.integers(1, 65535)))
    values = np.array(draw(st.lists(st.integers(0, maxval),
                                    min_size=height * width,
                                    max_size=height * width)))
    if draw(st.booleans()):
        magic = "P2"
        raster = (" ".join(map(str, values)) + "\n").encode()
    else:
        magic = "P5"
        raster = values.astype(">u2" if maxval > 255 else "u1").tobytes()
    return f"{magic}\n{width} {height}\n{maxval}\n".encode(), raster


@st.composite
def cubes(draw):
    """(header, blob) bytes of a valid band-sequential cube: 2-4 bands,
    2-6 px per side, u8, u16 or f32 samples."""
    bands = draw(st.integers(2, 4))
    height, width = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    dtype = draw(st.sampled_from(["u8", "u16", "f32"]))
    size = bands * height * width
    values = draw(st.lists(st.integers(0, 255), min_size=size, max_size=size))
    header = json.dumps({"width": width, "height": height, "bands": bands,
                         "dtype": dtype, "interleave": "bsq"}, sort_keys=True)
    blob = np.array(values, dtype={"u8": "<u1", "u16": "<u2",
                                   "f32": "<f4"}[dtype]).tobytes()
    return header.encode(), blob


@st.composite
def configs(draw):
    """Bytes of a valid ``profile`` config file for a two-band cube."""
    lines = ["# fuzzed profile run",
             f"pca = {draw(st.integers(1, 2))}",
             f"levels = {draw(st.integers(2, 64))}",
             f"tree = {draw(st.sampled_from(['component', 'tos', 'alpha']))}",
             f"attr = {draw(st.sampled_from(['area', 'moment']))}",
             f"feature = {draw(st.sampled_from(['stddev', 'area']))}",
             f"mode = {draw(st.sampled_from(['ap', 'fp', 'both']))}",
             f"connectivity = {draw(st.sampled_from(['c4', 'c8']))}",
             "area_thresholds = 2,5",
             "moment_thresholds = 0.2,0.5",
             f"seed = {draw(st.integers(0, 99))}"]
    return ("\n".join(lines) + "\n").encode()


def run(argv: list[str]):
    """Exit code and stderr of an in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def tree_dump(data: bytes, kind: str, connectivity: str, attributes: bool):
    """Exit code and stderr of an in-process ``tree-dump`` of ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.pgm"
        path.write_bytes(data)
        return run(["tree-dump", "--image", str(path), "--tree", kind,
                    "--connectivity", connectivity]
                   + ["--attributes"] * attributes)


def profile(header: bytes, blob: bytes, config: bytes | None = None,
            args: tuple = ()):
    """Exit code and stderr of an in-process ``profile`` of a cube, with the
    config file given or none."""
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "cube.json").write_bytes(header)
        (Path(tmp) / "cube.raw").write_bytes(blob)
        argv = ["profile", "--image", str(Path(tmp) / "cube.json"),
                "--out", str(Path(tmp) / "out"), *args]
        if config is not None:
            (Path(tmp) / "run.cfg").write_bytes(config)
            argv += ["--config", str(Path(tmp) / "run.cfg")]
        return run(argv)


def assert_clean_exit(code: int, err: str):
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert code in (2, 3), err
        assert err.count("\n") == 1 and err.startswith("error: "), err


@pytest.mark.parametrize("connectivity", ["c4", "c8"])
@pytest.mark.parametrize("kind", KINDS)
@FUZZ
@given(pgm=pgm_files(), attributes=st.booleans())
def test_valid_rasters_dump(kind, connectivity, pgm, attributes):
    code, err = tree_dump(b"".join(pgm), kind, connectivity, attributes)
    assert (code, err) == (0, "")


@settings(FUZZ, max_examples=300)
@given(pgm=pgm_files(), data=st.data(), kind=st.sampled_from(KINDS),
       connectivity=st.sampled_from(["c4", "c8"]))
def test_header_byte_mutations_exit_cleanly(pgm, data, kind, connectivity):
    header, raster = pgm
    mutated = bytearray(header)
    at = data.draw(st.integers(0, len(header) - 1))
    mutated[at] = data.draw(st.one_of(st.integers(0, 255),
                                      st.sampled_from(b"0123456789 \n#")))
    assert_clean_exit(*tree_dump(bytes(mutated) + raster, kind, connectivity,
                                 False))


def mutate(data: bytes, draw) -> bytes:
    """``data`` with one byte replaced by any byte or a likely token byte."""
    mutated = bytearray(data)
    at = draw(st.integers(0, len(data) - 1))
    mutated[at] = draw(st.one_of(st.integers(0, 255),
                                 st.sampled_from(b"0123456789 \n#,=\"{}")))
    return bytes(mutated)


CUBE_ARGS = ("--pca", "2", "--levels", "16", "--tree", "alpha",
             "--attr", "area", "--mode", "fp")


@settings(FUZZ, max_examples=10)
@given(cube=cubes(), config=configs())
def test_valid_cubes_and_configs_profile(cube, config):
    assert profile(*cube, args=CUBE_ARGS) == (0, "")
    assert profile(*cube, config=config) == (0, "")


@settings(FUZZ, max_examples=200)
@given(cube=cubes(), data=st.data())
def test_cube_header_byte_mutations_exit_cleanly(cube, data):
    header, blob = cube
    assert_clean_exit(*profile(mutate(header, data.draw), blob,
                               args=CUBE_ARGS))


@settings(FUZZ, max_examples=200)
@given(cube=cubes(), config=configs(), data=st.data())
def test_config_byte_mutations_exit_cleanly(cube, config, data):
    assert_clean_exit(*profile(*cube, config=mutate(config, data.draw)))


def pgm_bytes(values: np.ndarray) -> bytes:
    """Binary (P5) PGM of an 8-bit array."""
    height, width = values.shape
    return f"P5\n{width} {height}\n255\n".encode() + \
        values.astype("u1").tobytes()


def classify_profile(files: dict, header: bytes, raw: bytes):
    """Exit code and stderr of an in-process ``classify`` of the scene in
    ``files`` with the saved stack ``header`` + ``raw``."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("scene.pgm", "train.pgm", "test.pgm"):
            (tmp / name).write_bytes(files[name])
        (tmp / "stack.json").write_bytes(header)
        (tmp / "stack.raw").write_bytes(raw)
        return run(["classify", "--image", str(tmp / "scene.pgm"),
                    "--train", str(tmp / "train.pgm"),
                    "--test", str(tmp / "test.pgm"),
                    "--profile", str(tmp / "stack"), "--rf-trees", "2",
                    "--out", str(tmp / "out")])


@functools.cache
def scene_with_stack() -> dict:
    """File bytes of a 6x4 scene, its train and test label maps, and the
    alpha feature profile ``profile`` saves for it (``stack.json`` and
    ``stack.raw``), which ``classify --profile`` accepts as it is."""
    scene = np.array([[10, 12, 11, 200, 210, 205],
                      [11, 40, 12, 204, 90, 208],
                      [13, 12, 10, 201, 207, 203],
                      [12, 11, 60, 206, 202, 150]])
    train, test = np.zeros((4, 6), int), np.zeros((4, 6), int)
    train[:, 0], train[:, 5] = 1, 2
    test[:, 1], test[:, 4] = 1, 2
    files = {"scene.pgm": pgm_bytes(scene), "train.pgm": pgm_bytes(train),
             "test.pgm": pgm_bytes(test)}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "scene.pgm").write_bytes(files["scene.pgm"])
        assert run(["profile", "--image", str(Path(tmp) / "scene.pgm"),
                    "--tree", "alpha", "--mode", "fp", "--attr", "area",
                    "--out", tmp]) == (0, "")
        for suffix in (".json", ".raw"):
            files["stack" + suffix] = \
                (Path(tmp) / f"scene_alpha_fp{suffix}").read_bytes()
    code, err = classify_profile(files, files["stack.json"],
                                 files["stack.raw"])
    assert code == 0 and err.startswith("runtime"), err
    return files


def assert_clean_classify(code: int, err: str):
    """``classify`` ends in exit 0 with its one runtime line on stderr, or
    as ``assert_clean_exit`` demands of a failure."""
    if code == 0:
        assert "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith("runtime"), err
    else:
        assert_clean_exit(code, err)


@settings(FUZZ, max_examples=200)
@given(data=st.data())
def test_profile_header_byte_mutations_exit_cleanly(data):
    files = scene_with_stack()
    assert_clean_classify(*classify_profile(
        files, mutate(files["stack.json"], data.draw), files["stack.raw"]))


@settings(FUZZ, max_examples=50)
@given(data=st.data())
def test_truncated_or_extended_profile_blob_is_refused(data):
    files = scene_with_stack()
    raw = files["stack.raw"]
    if data.draw(st.booleans()):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=16))
    code, err = classify_profile(files, files["stack.json"], raw)
    assert_clean_exit(code, err)
    assert code == 2 and "profile blob" in err, err
