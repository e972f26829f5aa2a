"""Property-based fuzzing of ``tree-dump`` on generated PGM files.

Tree building indexes pixels in C, where a bad index crashes the process
instead of raising, so every generated input must end in exit 0 with a
clean stderr, or in exit 2 or 3 with one line and no traceback.
"""

import contextlib
import io
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


def tree_dump(data: bytes, kind: str, connectivity: str, attributes: bool):
    """Exit code and stderr of an in-process ``tree-dump`` of ``data``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.pgm"
        path.write_bytes(data)
        argv = ["tree-dump", "--image", str(path), "--tree", kind,
                "--connectivity", connectivity]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--attributes"] * attributes)
    return code, err.getvalue()


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
