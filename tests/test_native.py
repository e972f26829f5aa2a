"""The compiled-kernel loader: the kernel source builds cleanly, a fresh
cache builds it once and gives the same model bytes, stale builds are
removed, and a failed build is a one-line CLI error."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from treeprofiles import (
    model_to_bytes,
    save_labels,
    save_pgm,
    split_labels,
    synthetic_scene,
    train_forest,
)
from treeprofiles import _native, cli

from test_classifier import fp_training_set


def tiny_scene(path):
    img, labels = synthetic_scene(24, 24, seed=3, levels=16)
    train, test = split_labels(labels, 0.3, seed=3)
    save_pgm(img, path / "scene.pgm")
    save_labels(train, path / "train.pgm")
    save_labels(test, path / "test.pgm")
    return ["classify", "--image", str(path / "scene.pgm"),
            "--train", str(path / "train.pgm"),
            "--test", str(path / "test.pgm"), "--tree", "component",
            "--mode", "fp", "--rf-trees", "2", "--out", str(path / "out")]


class TestKernelBuild:
    def test_source_compiles_without_warnings(self, tmp_path):
        done = subprocess.run(
            _native._COMPILE + ["-Wall", "-Wextra", "-Werror", "-o",
                                str(tmp_path / "k.so"),
                                str(_native._SOURCE)],
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_fresh_cache_same_model_bytes(self, tmp_path):
        x, y = fp_training_set()
        want = hashlib.sha256(model_to_bytes(
            train_forest(x, y, n_trees=4, seed=9))).hexdigest()
        script = (
            "import hashlib, sys; sys.path.insert(0, 'tests')\n"
            "from test_classifier import fp_training_set\n"
            "from treeprofiles import model_to_bytes, train_forest\n"
            "x, y = fp_training_set()\n"
            "m = train_forest(x, y, n_trees=4, seed=9)\n"
            "print(hashlib.sha256(model_to_bytes(m)).hexdigest())\n")
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path)}
        root = Path(__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-c", script], cwd=root,
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == want
        assert len(list((tmp_path / "treeprofiles").glob("kernels-*.so"))) == 1

    def test_build_removes_stale_kernels(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        cache = tmp_path / "treeprofiles"
        cache.mkdir()
        (cache / f"kernels-{'0' * 64}.so").write_bytes(b"stale")
        (cache / f"forest-{'1' * 64}.so").write_bytes(b"retired name")
        (cache / "other.so").write_bytes(b"kept")
        target = _native._build()
        assert sorted(p.name for p in cache.iterdir()) == \
            sorted([target.name, "other.so"])

    @pytest.mark.parametrize("compiler", [
        [sys.executable, "-c", "import sys; sys.exit('cc: fatal error')"],
        ["no-such-compiler-here"],
    ])
    def test_failed_build_is_one_line_cli_error(self, tmp_path, monkeypatch,
                                                capsys, compiler):
        argv = tiny_scene(tmp_path)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_COMPILE", compiler)
        assert cli.main(argv) == 5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: cannot build the native kernel")
        assert " ".join(compiler) in err
        assert not (tmp_path / "out" / "report.json").exists()
