import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from treeprofiles import (
    LabelMap,
    RasterImage,
    load_labels,
    save_labels,
    save_pgm,
    split_labels,
    synthetic_scene,
)


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "treeprofiles", *map(str, args)],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("scene")
    img, labels = synthetic_scene(40, 40, seed=11, levels=32)
    train, test = split_labels(labels, 0.2, seed=11)
    save_pgm(img, path / "scene.pgm")
    save_labels(train, path / "train.pgm")
    save_labels(test, path / "test.pgm")
    return path


class TestProfileCommand:
    def test_fp_dim_42(self, scene_dir, tmp_path):
        out = run_cli(
            "profile", "--image", scene_dir / "scene.pgm",
            "--tree", "component", "--mode", "fp", "--attr", "area",
            "--feature", "stddev", "--feature", "area", "--out", tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert "dim 42" in out.stdout
        assert (tmp_path / "scene_component_fp.json").exists()
        assert (tmp_path / "scene_component_fp.raw").exists()

    def test_ap_tos_k4_dim_5(self, scene_dir, tmp_path):
        out = run_cli(
            "profile", "--image", scene_dir / "scene.pgm",
            "--tree", "tos", "--mode", "ap", "--attr", "area",
            "--area-thresholds", "4,16,64,256", "--out", tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert "dim 5" in out.stdout

    def test_missing_input_exit_2(self, tmp_path):
        out = run_cli("profile", "--image", tmp_path / "absent.pgm",
                      "--out", tmp_path)
        assert out.returncode == 2
        assert "absent.pgm" in out.stderr

    def test_repeated_tree_written_once(self, scene_dir, tmp_path):
        out = run_cli(
            "profile", "--image", scene_dir / "scene.pgm",
            "--tree", "component,component", "--tree", "component",
            "--mode", "ap", "--attr", "area,area", "--out", tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.count("component ap: dim 21") == 1

    def test_emitted_files_bit_reproducible(self, scene_dir, tmp_path):
        blobs = []
        for run in ("a", "b"):
            out = run_cli(
                "profile", "--image", scene_dir / "scene.pgm",
                "--tree", "alpha", "--mode", "fp", "--attr", "area",
                "--seed", 3, "--out", tmp_path / run,
            )
            assert out.returncode == 0, out.stderr
            blobs.append(
                (tmp_path / run / "scene_alpha_fp.raw").read_bytes()
                + (tmp_path / run / "scene_alpha_fp.json").read_bytes()
            )
        assert blobs[0] == blobs[1]


class TestClassifyCommand:
    def test_report_deterministic(self, scene_dir, tmp_path):
        reports = []
        for run in ("a", "b"):
            out = run_cli(
                "classify", "--image", scene_dir / "scene.pgm",
                "--train", scene_dir / "train.pgm",
                "--test", scene_dir / "test.pgm",
                "--mode", "fp", "--tree", "component", "--attr", "area",
                "--seed", 9, "--rf-trees", 30, "--out", tmp_path / run,
            )
            assert out.returncode == 0, out.stderr
            reports.append((tmp_path / run / "report.json").read_bytes())
        assert reports[0] == reports[1]
        body = json.loads(reports[0])
        assert set(body) >= {"oa", "kappa", "per_class_accuracy", "confusion"}

    def test_repeated_tree_same_dim(self, scene_dir, tmp_path):
        dims = []
        for trees in ("tos", "tos,tos"):
            out = run_cli(
                "classify", "--image", scene_dir / "scene.pgm",
                "--train", scene_dir / "train.pgm",
                "--test", scene_dir / "test.pgm",
                "--mode", "fp", "--tree", trees, "--attr", "area",
                "--rf-trees", 5, "--out", tmp_path / trees,
            )
            assert out.returncode == 0, out.stderr
            report = json.loads((tmp_path / trees / "report.json").read_text())
            dims.append(report["dim"])
        assert dims[0] == dims[1]

    def test_raw_mode(self, scene_dir, tmp_path):
        out = run_cli(
            "classify", "--image", scene_dir / "scene.pgm",
            "--train", scene_dir / "train.pgm",
            "--test", scene_dir / "test.pgm",
            "--mode", "raw", "--seed", 9, "--rf-trees", 20,
            "--out", tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert json.loads((tmp_path / "report.json").read_text())["dim"] == 1

    def test_single_class_train_exit_3(self, scene_dir, tmp_path):
        labels = np.zeros((40, 40), dtype=int)
        labels[:3, :3] = 1
        from treeprofiles import LabelMap
        save_labels(LabelMap(labels), tmp_path / "one.pgm")
        out = run_cli(
            "classify", "--image", scene_dir / "scene.pgm",
            "--train", tmp_path / "one.pgm",
            "--test", scene_dir / "test.pgm",
            "--mode", "raw", "--out", tmp_path,
        )
        assert out.returncode == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_model_probability_exit_3(self, scene_dir, tmp_path,
                                                 monkeypatch, capsys, bad):
        from treeprofiles import cli

        def train_then_spoil(*args, **kwargs):
            model = train_forest(*args, **kwargs)
            model.trees[-1].probs[-1, 0] = bad  # a leaf no row may reach
            return model

        train_forest = cli.train_forest
        monkeypatch.setattr(cli, "train_forest", train_then_spoil)
        code = cli.main(["classify", "--image", str(scene_dir / "scene.pgm"),
                         "--train", str(scene_dir / "train.pgm"),
                         "--test", str(scene_dir / "test.pgm"),
                         "--mode", "raw", "--rf-trees", "3",
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines() == ["error: tree 2 of the model is malformed"]

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_zero_trees_exit_2(self, scene_dir, tmp_path, where):
        args = ["classify", "--image", scene_dir / "scene.pgm",
                "--train", scene_dir / "train.pgm",
                "--test", scene_dir / "test.pgm",
                "--mode", "raw", "--out", tmp_path]
        if where == "flag":
            args += ["--rf-trees", 0]
        else:
            (tmp_path / "run.cfg").write_text("rf_trees = 0\n")
            args += ["--config", tmp_path / "run.cfg"]
        out = run_cli(*args)
        assert out.returncode == 2
        assert out.stderr.count("\n") == 1 and "rf-trees" in out.stderr
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command, flags, code, names", [
        ("classify", ["--tree", "bogus"], 2, "component|tos|alpha|omega"),
        ("classify", ["--attr", "area,bogus"], 2, "area|moment"),
        ("classify", ["--feature", "bogus"], 2, "stddev|area"),
        ("tree-dump", ["--tree", "bogus"], 2, "max|min|tos|alpha|omega"),
        ("classify", ["--area-thresholds", "nan,5"], 3, "finite"),
        ("tree-dump", ["--tree", "max,min"], 3, "exactly one tree kind"),
    ])
    def test_bad_option_value(self, scene_dir, tmp_path, command, flags,
                              code, names):
        args = [command, "--image", scene_dir / "scene.pgm", *flags]
        if command == "classify":
            args += ["--train", scene_dir / "train.pgm",
                     "--test", scene_dir / "test.pgm", "--attr", "area",
                     "--rf-trees", 5, "--out", tmp_path]
        out = run_cli(*args)
        assert out.returncode == code
        assert out.stderr.count("\n") == 1 and names in out.stderr
        assert not (tmp_path / "report.json").exists()

    def test_saved_profile_input(self, scene_dir, tmp_path):
        out = run_cli(
            "profile", "--image", scene_dir / "scene.pgm", "--tree", "alpha",
            "--mode", "fp", "--attr", "area", "--out", tmp_path,
        )
        assert out.returncode == 0, out.stderr
        out = run_cli(
            "classify", "--image", scene_dir / "scene.pgm",
            "--train", scene_dir / "train.pgm",
            "--test", scene_dir / "test.pgm",
            "--profile", tmp_path / "scene_alpha_fp",
            "--seed", 5, "--rf-trees", 20, "--out", tmp_path / "rep",
        )
        assert out.returncode == 0, out.stderr


def _bad_config(path, scene_dir):
    (path / "run.cfg").write_text("rf_trees = 5\nseed = abc\n")
    return ["--image", scene_dir / "scene.pgm", "--config", path / "run.cfg"], \
        "run.cfg:2: seed"


def _bad_config_choice(path, scene_dir):
    (path / "run.cfg").write_text("connectivity = c5\n")
    return ["--image", scene_dir / "scene.pgm", "--config", path / "run.cfg"], \
        "run.cfg: connectivity must be one of c4|c8, got 'c5'"


def _non_utf8_config(path, scene_dir):
    (path / "run.cfg").write_bytes(b"seed = 1\n\xff\n")
    return ["--image", scene_dir / "scene.pgm", "--config", path / "run.cfg"], \
        "run.cfg: not UTF-8 (byte offset 9)"


def _non_utf8_cube_header(path, scene_dir):
    from treeprofiles import MultibandImage, save_multiband
    save_multiband(MultibandImage(np.ones((3, 40, 40))), path / "cube.json")
    (path / "cube.json").write_bytes(
        (path / "cube.json").read_bytes()[:-1] + b', "note": "\xe9"}')
    return ["--image", path / "cube.json", "--pca", 2], "header is not UTF-8"


def _deeply_nested_cube_header(path, scene_dir):
    (path / "cube.json").write_text("[" * 100_000)
    return ["--image", path / "cube.json", "--pca", 2], "invalid header"


def _text_width_cube(path, scene_dir):
    from treeprofiles import MultibandImage, save_multiband
    save_multiband(MultibandImage(np.ones((3, 40, 40))), path / "cube.json")
    header = json.loads((path / "cube.json").read_text())
    header["width"] = "40"
    (path / "cube.json").write_text(json.dumps(header))
    return ["--image", path / "cube.json", "--pca", 2], "'width'"


def _profile_without_columns(path, scene_dir):
    assert run_cli("profile", "--image", scene_dir / "scene.pgm",
                   "--tree", "alpha", "--mode", "fp", "--attr", "area",
                   "--out", path).returncode == 0
    stem = path / "scene_alpha_fp"
    header = json.loads(stem.with_suffix(".json").read_text())
    del header["columns"]
    stem.with_suffix(".json").write_text(json.dumps(header))
    return ["--image", scene_dir / "scene.pgm", "--profile", stem], "'columns'"


def _non_utf8_profile_header(path, scene_dir):
    assert run_cli("profile", "--image", scene_dir / "scene.pgm",
                   "--tree", "alpha", "--mode", "fp", "--attr", "area",
                   "--out", path).returncode == 0
    stem = path / "scene_alpha_fp"
    header = stem.with_suffix(".json")
    header.write_bytes(header.read_bytes().replace(b'"dim"', b'"\xffdim"', 1))
    return ["--image", scene_dir / "scene.pgm", "--profile", stem], \
        "profile header is not UTF-8"


def _profile_of_smaller_image(path, scene_dir):
    img = synthetic_scene(16, 16, seed=11, levels=32)[0]
    save_pgm(img, path / "small.pgm")
    assert run_cli("profile", "--image", path / "small.pgm", "--tree", "alpha",
                   "--mode", "fp", "--attr", "area",
                   "--out", path).returncode == 0
    return ["--image", scene_dir / "scene.pgm",
            "--profile", path / "small_alpha_fp"], "16x16"


def _profile_with_value(path, scene_dir, value, pixel=slice(None),
                        column=0):
    """A saved profile holding ``value`` at ``column`` of row ``pixel``
    (default: the first column of every pixel); the error names NaN and
    infinity together."""
    assert run_cli("profile", "--image", scene_dir / "scene.pgm",
                   "--tree", "alpha", "--mode", "fp", "--attr", "area",
                   "--out", path).returncode == 0
    stem = path / "scene_alpha_fp"
    dim = json.loads(stem.with_suffix(".json").read_text())["dim"]
    values = np.fromfile(stem.with_suffix(".raw"), dtype="<f4")
    values.reshape(-1, dim)[pixel, column] = value
    values.tofile(stem.with_suffix(".raw"))
    return ["--image", scene_dir / "scene.pgm", "--profile", stem], "infinity"


def _profile_with_infinity(path, scene_dir):
    return _profile_with_value(path, scene_dir, np.inf)


def _profile_with_negative_infinity(path, scene_dir):
    return _profile_with_value(path, scene_dir, -np.inf)


def _profile_with_nan(path, scene_dir):
    return _profile_with_value(path, scene_dir, np.nan)


def _test_row_with_infinity_in_last_column(path, scene_dir):
    test = load_labels(scene_dir / "test.pgm", (40, 40))
    pixel = int(test.samples()[0][-1])
    return _profile_with_value(path, scene_dir, np.inf, pixel, -1)


def _unlabeled_row_with_nan(path, scene_dir):
    """NaN in every column of a pixel neither label map holds (the maps are
    rewritten without it); the report is the clean stack's, written to
    ``<path>/clean``."""
    pixel = 0
    maps = []
    for name in ("train", "test"):
        labels = load_labels(scene_dir / f"{name}.pgm", (40, 40)).labels.copy()
        labels.flat[pixel] = 0
        save_labels(LabelMap(labels), path / f"{name}.pgm")
        maps += [f"--{name}", path / f"{name}.pgm"]
    args, _ = _profile_with_value(path, scene_dir, np.nan, pixel, slice(None))
    clean = path / "clean"
    assert run_cli("profile", "--image", scene_dir / "scene.pgm",
                   "--tree", "alpha", "--mode", "fp", "--attr", "area",
                   "--out", clean).returncode == 0
    assert run_cli("classify", *maps, "--rf-trees", 5, "--out", clean,
                   "--image", scene_dir / "scene.pgm",
                   "--profile", clean / "scene_alpha_fp").returncode == 0
    return [*maps, *args], "runtime"


def _unlabeled(path, which):
    from treeprofiles import LabelMap
    save_labels(LabelMap(np.zeros((40, 40), dtype=int)), path / "none.pgm")
    return [f"--{which}", path / "none.pgm", "--mode", "raw"]


def _unlabeled_train(path, scene_dir):
    return [*_unlabeled(path, "train"), "--image", scene_dir / "scene.pgm"], \
        "no labeled training pixels"


def _unlabeled_test(path, scene_dir):
    return [*_unlabeled(path, "test"), "--image", scene_dir / "scene.pgm"], \
        "no labeled test pixels"


class TestInProcessMatchesSavedStack:
    """In-process ``classify`` trains on the float32 values ``profile``
    saves, so it writes the report that ``classify --profile`` writes on
    them."""

    @pytest.mark.parametrize("mode", ["ap", "fp"])
    @pytest.mark.parametrize("family", ["component", "tos", "alpha", "omega"])
    def test_same_matrix_and_report(self, scene_dir, tmp_path, monkeypatch,
                                    family, mode):
        from treeprofiles import cli

        matrices = []
        fit_eval = cli._fit_eval

        def recording(matrix, *args):
            matrices.append((matrix.dtype, matrix.tobytes()))
            return fit_eval(matrix, *args)

        monkeypatch.setattr(cli, "_fit_eval", recording)
        stack = ["--image", str(scene_dir / "scene.pgm"), "--mode", mode]
        common = [*stack, "--train", str(scene_dir / "train.pgm"),
                  "--test", str(scene_dir / "test.pgm"), "--seed", "9",
                  "--rf-trees", "20"]
        stem = tmp_path / f"scene_{family}_{mode}"
        assert cli.main(["profile", *stack, "--tree", family,
                         "--out", str(tmp_path)]) == 0
        assert cli.main(["classify", *common, "--tree", family,
                         "--out", str(tmp_path / "built")]) == 0
        assert cli.main(["classify", *common, "--profile", str(stem),
                         "--out", str(tmp_path / "saved")]) == 0
        saved = stem.with_suffix(".raw").read_bytes()
        assert matrices == [(np.float32, saved)] * 2
        assert (tmp_path / "built" / "report.json").read_bytes() == \
            (tmp_path / "saved" / "report.json").read_bytes()


class TestInputErrors:
    """Malformed inputs exit 2 (input) or 3 (data) with one line, never 4."""

    @pytest.mark.parametrize("make, code", [
        (_bad_config, 2),
        (_bad_config_choice, 2),
        (_non_utf8_config, 2),
        (_non_utf8_cube_header, 2),
        (_deeply_nested_cube_header, 2),
        (_text_width_cube, 2),
        (_profile_without_columns, 2),
        (_non_utf8_profile_header, 2),
        (_profile_of_smaller_image, 3),
        (_profile_with_infinity, 3),
        (_profile_with_negative_infinity, 3),
        (_profile_with_nan, 3),
        (_test_row_with_infinity_in_last_column, 3),
        (_unlabeled_row_with_nan, 0),
        (_unlabeled_train, 3),
        (_unlabeled_test, 3),
    ])
    def test_classify_input(self, scene_dir, tmp_path, make, code):
        args, names = make(tmp_path, scene_dir)
        # the row's flags come last, so they win over these
        out = run_cli("classify", "--train", scene_dir / "train.pgm",
                      "--test", scene_dir / "test.pgm",
                      "--rf-trees", 5, "--out", tmp_path / "rep", *args)
        assert out.returncode == code, out.stderr
        assert out.stderr.count("\n") == 1 and names in out.stderr
        report = tmp_path / "rep" / "report.json"
        if code:
            assert not report.exists()
        else:
            assert report.read_bytes() == \
                (tmp_path / "clean" / "report.json").read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cube_sample(self, scene_dir, tmp_path, bad):
        cube = np.ones((3, 40, 40), dtype="<f4")
        cube[1] = np.arange(1600).reshape(40, 40)
        cube[2, 7, 9] = bad
        (tmp_path / "cube.json").write_text(json.dumps({
            "width": 40, "height": 40, "bands": 3, "dtype": "f32",
            "interleave": "bsq"}))
        (tmp_path / "cube.raw").write_bytes(cube.tobytes())
        out = run_cli("classify", "--image", tmp_path / "cube.json",
                      "--train", scene_dir / "train.pgm",
                      "--test", scene_dir / "test.pgm", "--pca", 2,
                      "--rf-trees", 5, "--out", tmp_path / "rep")
        assert out.returncode == 3, out.stderr
        assert out.stderr.count("\n") == 1 and "finite" in out.stderr
        assert not (tmp_path / "rep" / "report.json").exists()

    @pytest.mark.parametrize("levels", [1, 65537, 99999999999999999999])
    def test_level_count_out_of_range(self, scene_dir, tmp_path, levels):
        # checked before the band is scaled: no cast warning precedes it
        from treeprofiles import MultibandImage, save_multiband
        cube = np.stack([np.arange(1600.0).reshape(40, 40), np.ones((40, 40)),
                         np.arange(1600.0).reshape(40, 40) % 7])
        save_multiband(MultibandImage(cube), tmp_path / "cube.json")
        out = run_cli("classify", "--image", tmp_path / "cube.json",
                      "--train", scene_dir / "train.pgm",
                      "--test", scene_dir / "test.pgm", "--pca", 2,
                      "--levels", levels, "--rf-trees", 5,
                      "--out", tmp_path / "rep")
        assert out.returncode == 3, out.stderr
        assert out.stderr == "error: level count must be in [2, 65536]\n"
        assert not (tmp_path / "rep" / "report.json").exists()

    def test_truncated_plain_pgm_names_offset_once(self, tmp_path):
        save_pgm(RasterImage(np.arange(64).reshape(8, 8), levels=64),
                 tmp_path / "plain.pgm", plain=True)
        data = (tmp_path / "plain.pgm").read_bytes()
        (tmp_path / "cut.pgm").write_bytes(data[:len(data) // 2])
        out = run_cli("tree-dump", "--image", tmp_path / "cut.pgm")
        assert out.returncode == 2
        assert out.stderr.count("byte offset") == 1, out.stderr


class TestMalformedCommandLine:
    """A malformed command line or config value makes an in-process
    ``main`` return 2 with one stderr line: no usage block, no raise."""

    @pytest.mark.parametrize("flags, config, names", [
        (["--pca", "x"], None, "--pca: invalid int value: 'x'"),
        (["--connectivity", "c5"], None, "'c5'"),
        (["--mode", "zz"], None, "'zz'"),
        (["--bogus"], None, "--bogus"),
        (["--area-thresholds", "a,b"], None, "'a,b'"),
        (["--area-thresholds", ""], None, "--area-thresholds"),
        (["--tree", "bogus"], None, "component|tos|alpha|omega"),
        (["--tree", ""], None, "--tree: unknown value ''"),
        ([], "tree = bogus", "run.cfg:1: tree: unknown value 'bogus'"),
        ([], "area_thresholds =", "run.cfg:1: area_thresholds"),
    ])
    def test_bad_classify_value(self, scene_dir, tmp_path, capsys, flags,
                                config, names):
        from treeprofiles import cli
        argv = ["classify", "--image", scene_dir / "scene.pgm",
                "--train", scene_dir / "train.pgm",
                "--test", scene_dir / "test.pgm", "--rf-trees", 5,
                "--out", tmp_path, *flags]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", tmp_path / "run.cfg"]
        assert cli.main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") \
            and names in err, err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv, names", [
        ([], "required: command"),
        (["classify", "--train", "train.pgm", "--test", "test.pgm"],
         "--image is required"),
        (["compare", "--image", "scene.pgm", "--train", "train.pgm"],
         "--test is required"),
    ])
    def test_missing_argument(self, scene_dir, capsys, monkeypatch, argv,
                              names):
        from treeprofiles import cli
        monkeypatch.chdir(scene_dir)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and names in err, err


class TestCompareCommand:
    def test_classify_config_runs(self, scene_dir, tmp_path):
        # compare takes no --mode, so a config's mode is another command's
        # key and is skipped
        (tmp_path / "run.cfg").write_text("mode = fp\nrf_trees = 5\n")
        out = run_cli("compare", "--image", scene_dir / "scene.pgm",
                      "--train", scene_dir / "train.pgm",
                      "--test", scene_dir / "test.pgm", "--tree", "component",
                      "--config", tmp_path / "run.cfg", "--out", tmp_path)
        assert out.returncode == 0, out.stderr
        assert len(json.loads((tmp_path / "compare.json").read_text())
                   ["rows"]) == 2

    def test_single_kind_two_rows_and_csv_json_agree(self, scene_dir, tmp_path):
        out = run_cli(
            "compare", "--image", scene_dir / "scene.pgm",
            "--train", scene_dir / "train.pgm",
            "--test", scene_dir / "test.pgm",
            "--tree", "component", "--seed", 4, "--rf-trees", 20,
            "--out", tmp_path,
        )
        assert out.returncode == 0, out.stderr
        csv_lines = (tmp_path / "compare.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 3  # header + ap + fp
        header = csv_lines[0].split(",")
        body = json.loads((tmp_path / "compare.json").read_text())
        assert len(body["rows"]) == 2
        for line, row in zip(csv_lines[1:], body["rows"]):
            cells = dict(zip(header, line.split(",")))
            assert cells["method"] == row["method"]
            for group in ("area", "moment", "both"):
                assert float(cells[f"{group}_oa"]) == row[group]["oa"]
                assert float(cells[f"{group}_kappa"]) == row[group]["kappa"]


class TestTreeDump:
    def test_golden_max_tree(self, tmp_path):
        values = np.ones((3, 3), dtype=int)
        values[1, 1] = 3
        save_pgm(RasterImage(values, levels=4), tmp_path / "t.pgm")
        out = run_cli("tree-dump", "--image", tmp_path / "t.pgm",
                      "--tree", "max")
        assert out.returncode == 0
        assert out.stdout == "0 0 1 9\n1 0 3 1\n"

    def test_attributes_dump(self, tmp_path):
        values = np.ones((3, 3), dtype=int)
        values[1, 1] = 3
        save_pgm(RasterImage(values, levels=4), tmp_path / "t.pgm")
        out = run_cli("tree-dump", "--image", tmp_path / "t.pgm",
                      "--tree", "max", "--attributes")
        assert out.returncode == 0
        first = out.stdout.splitlines()[0].split()
        assert first[:2] == ["0", "9"]


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, scene_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "tree = tos\n"
            "attr = area\n"
            "area-thresholds = 4,16\n"
            "out = {}\n".format(tmp_path / "from_cfg")
        )
        out = run_cli("profile", "--image", scene_dir / "scene.pgm",
                      "--config", cfg, "--mode", "ap")
        assert out.returncode == 0, out.stderr
        assert "dim 3" in out.stdout
        assert (tmp_path / "from_cfg" / "scene_tos_ap.json").exists()
        # explicit flag beats the config value
        out = run_cli("profile", "--image", scene_dir / "scene.pgm",
                      "--config", cfg, "--mode", "ap",
                      "--tree", "alpha", "--out", tmp_path / "flag_wins")
        assert out.returncode == 0, out.stderr
        # the flag's list replaces the config's
        assert sorted(p.name for p in (tmp_path / "flag_wins").iterdir()) == \
            ["scene_alpha_ap.json", "scene_alpha_ap.raw"]
        # in every spelling
        from treeprofiles import cli
        cfg.write_text("seed = 3\nrf_trees = 7\nmode = raw\n")
        argv = ["classify", "--image", scene_dir / "scene.pgm",
                "--train", scene_dir / "train.pgm",
                "--test", scene_dir / "test.pgm", "--config", cfg,
                "--out", tmp_path / "rep"]
        for flags, seed, trees in ([[], 3, 7], [["--seed", "9"], 9, 7],
                                   [["--seed=9"], 9, 7], [["--se", "9"], 9, 7],
                                   [["--rf-trees=2"], 3, 2],
                                   [["--rf", "2"], 3, 2]):
            assert cli.main([str(a) for a in argv + flags]) == 0
            report = json.loads((tmp_path / "rep" / "report.json").read_text())
            assert (report["seed"], report["rf_trees"]) == (seed, trees), flags


class TestMultibandPipeline:
    def test_pca_profile(self, tmp_path, rng):
        from treeprofiles import MultibandImage, save_multiband
        bands = rng.normal(size=(6, 20, 20)) * np.linspace(
            1, 4, 6
        ).reshape(6, 1, 1)
        save_multiband(MultibandImage(bands), tmp_path / "cube.json")
        out = run_cli(
            "profile", "--image", tmp_path / "cube.json", "--pca", 2,
            "--levels", 64, "--tree", "component", "--mode", "ap",
            "--attr", "area", "--area-thresholds", "4,16,64",
            "--out", tmp_path,
        )
        assert out.returncode == 0, out.stderr
        assert "dim 14" in out.stdout  # 2 bands x (2*3+1)

    def test_readme_recipe_writes_the_cli_stack(self, tmp_path, monkeypatch):
        from treeprofiles import cli
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        recipe = readme.split("Multiband input:")[1].split("```python\n")[1]
        six_band_cube(tmp_path / "cube.json")
        monkeypatch.chdir(tmp_path)
        exec(recipe.split("```")[0], {})
        assert cli.main(["profile", "--image", "cube.json", "--mode", "fp",
                         "--attr", "area", "--out", "cli"]) == 0
        for suffix in (".json", ".raw"):
            name = "cube_component_fp" + suffix
            assert (tmp_path / name).read_bytes() == \
                (tmp_path / "cli" / name).read_bytes()


class TestLibraryQuickStart:
    """The README's library example runs as written."""

    def test_readme_quick_start_runs(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        recipe = readme.split("## Library quick start")[1] \
            .split("```python\n")[1].split("```")[0]
        scope = {}
        exec(recipe, scope)
        image = scope["image"]
        assert scope["opened"].values.shape == image.values.shape
        assert scope["fp"].data.shape == (image.values.size, 2 * 9)
        assert 0.6 < scope["kappa"] <= scope["oa"] <= 1.0
        assert capsys.readouterr().out.startswith("OA 0.")


# sha256 digests computed before the tree traversal kernels replaced the
# per-node loops; every tree kind and profile family must keep these bytes.
GOLDEN_TREE_DUMP = {
    "max": "97e792acfa5f0235080e00d9882c6ec160604030bf3a17d64b151e3d240c5994",
    "min": "de07d1b2546ce978cf56a6318c4250d13ebd961177dd4d616d82055982ead5c7",
    "tos": "cc5719fd081a078437b0b87c674a3eb953398182b3fb3e59afd9ac3257b30665",
    "alpha": "271212123f6e7b2daba38dd5e25f83675aa641033e01654242c8339582a1f7cb",
    "omega": "6e95dd665f291c5e8557661c311e146e7b8d4f2b1b9909efd232a6ffeca48e3e",
}
GOLDEN_ATTRIBUTE_DUMP = {
    "max": "910453fd53d1aa3a54efe24eb1550423dafe4765ec12f41dbc148c03edd220b3",
    "min": "e5579144d43cc91a5de6ac85efd0c3e697caab7cd74b0ff8863558b32948f685",
    "tos": "c8ee027b65c60fab808f863f7256472d5418bda1c0e0c0804c9c846f4964543b",
    "alpha": "2023ccd9adb786f2bbae8d0d03c01fdb3995343c28e4147c15921a00d612bf9a",
    "omega": "e743646306699b12ec19c5c70d18691bdb21423f23ab14a9d9b31fad1f032507",
}
GOLDEN_TREE_DUMP_C8 = {
    "max": "d883935fb4900200f811816849fc39c199c6ff875852def83ae6f87207308487",
    "min": "720154707f1503d543acacd636b7e1679df3a5cac4781be27d540bc57d3f75ee",
    "alpha": "00394cde31e2504bc2d37c3e82031cd14197dd4e5362932970a6af911d95a0e3",
    "omega": "b5c28c1377aa442bbae736b526bb70307a6f5034776120fb8243ec2cd8f4048a",
}
GOLDEN_ATTRIBUTE_DUMP_C8 = {
    "max": "21acfeca2b57bba3bfa4a0b63fdd0ed3f2b2698363ad2786b3b9140d2bd30c03",
    "min": "c526fb04166934f398c63532433d4883063b75550ac98aaef7c1a3f559c650fe",
    "alpha": "8601847a16d4181ffeeddf7e70f8b44b6695309e263c6965fefefe18be649434",
    "omega": "b1be56f77490f08923ff12b3704cadcdceda4cf17f259fe707d7ae1c2faa549b",
}
GOLDEN_PROFILE_FILES = {
    "scene_alpha_ap.json": "eab9cc34d2eaea9d7252aec861bcd80a36466f231161b0d210b754cd79affea8",
    "scene_alpha_ap.raw": "ff8a200accedbcbf269f8147e9dd1d33e20006632029bc294e8b441cf555d3d9",
    "scene_alpha_fp.json": "f7cc4ae8a3499f62729d26aeb6c0fe8a4dea926cd3db8b9092f29f2efc237684",
    "scene_alpha_fp.raw": "797f50ccfdf62f20cec0197e85f26aeb5c1e2b5b8522cf4a5ac1650eda341c3a",
    "scene_component_ap.json": "b7a44d37968b82859e10d7a48d97c07512515cf69c5c3998a0fa482e2276652e",
    "scene_component_ap.raw": "8ff6deeff0615ee29301ce622524e5b1e6d151dd2d0a9e71050cae500e2e50ac",
    "scene_component_fp.json": "aa6d7ebab6055d2dbbd61a442919890e624597a2152677328aad58a97dbb9166",
    "scene_component_fp.raw": "af17381f25e20ee3435bd9f31eeeafaaf7b3667edc0f0a571aab91c8a22843be",
    "scene_omega_ap.json": "6d06d960a01528b5feaf5291801c1fec54b504f7ab974ad78da2ae70cda96e7a",
    "scene_omega_ap.raw": "f08fa3940f1dfc456b068e3cbf2f9e7ed6327c9f1a90e58fc76cd0cc757053c5",
    "scene_omega_fp.json": "20f4032dd66165125e0d4517756da396cddb406124267311f61a187a6423bbdc",
    "scene_omega_fp.raw": "a111f03672c27c6d42072e410e182b76bb9895897ae5e1371f105e9c0cca5d22",
    "scene_tos_ap.json": "666584ce63bb57e5c6857df3ca43ea4c82efdfc47e2e28eb9d8f13b820082acc",
    "scene_tos_ap.raw": "bf538f266bd966db898a6ce79e56fc9b52c93172a7676f01a6cf6af60ec84f37",
    "scene_tos_fp.json": "eb5bda78b9a201998aebdc0c683dbd9c89e87e73441a5709abb9d3b4a73cabfb",
    "scene_tos_fp.raw": "b4c19a48948e11a80fe1bf08178d50b66a59ecdbd00041a0fbee2c337c65f49f",
}


# tree of shapes of a 64x64 scene whose per-pixel noise background gives
# about 600 side-tree nodes with holes; computed while every side-tree node
# was still hole-filled one by one
GOLDEN_NOISY_TOS = {
    "structure": "edac635eef17149ca7f778e6fc1ab1d2ec7cdff6c5672a723fe30ab83a63049c",
    "attributes": "bee7b711babf5b53eff0c9f25766a9bff99e1bc6af7bf9da83c18ee9d31faad7",
}


# compare table and multiband classify report, computed while attribute and
# feature profiles still resolved every column separately and the multiband
# loop also lived in the library (``build_extended``)
GOLDEN_COMPARE = {
    "compare.csv": "302afd5cef6636bc8a3f4f0a1856ba2a7dba549ab3be403b9ac80088f2fd8338",
    "compare.json": "d9e0a5f5d7889a9ba53c0dcbc040bece296c933a025560394fc37a92d3d2e961",
    "compare.txt": "d6b352ed11f845013cb9e4fd4f3e7365e901cb03c155ac0d09a76738c54e108e",
}
# the same table at 8-connectivity, computed while build_ap and build_fp
# still took the image, family and connectivity next to an optional bundle
GOLDEN_COMPARE_C8 = {
    "compare.csv": "d07ee3d9fa2c060d986dd70b6bd8cd2f9ee5eb9fc7e4b7e02c34f3845cf795a9",
    "compare.json": "6f7f5a94078ba530dcd932a67e69b9819355b23feb9be8e53e101e46487e38ce",
    "compare.txt": "2a647343d5a2ce7f08e00a0366ceed9e6486e8bb09e4baf3491f0c9f62ff2972",
}
GOLDEN_MULTIBAND_REPORT = \
    "580da03dd49b52c8ff5d32f89227f747fa9e742f8fa2a75e0ffcdf715ebc87f7"
# the six-band cube's tree of shapes, alpha and omega report, computed while
# a pass still kept every family's bundles and predict read a copy of the
# test rows
GOLDEN_THREE_FAMILY_REPORT = \
    "4af8569ee3ed9639d0bde25b4a0952c55fad987166bc23c92edfe7b0ac0d11af"

# classify reports of a two-band cube with both partition families, computed
# while each family still built its own alpha-tree and PCA ran on Jacobi
# rotations
GOLDEN_PARTITION_REPORTS = {
    "alpha,omega":
        "86b68c9015e28a97081f5c499faac53c2ea65b951d7cb22b92d58deef413689d",
    "omega,alpha":
        "5ab5edb3b5dd5d65d4d789a50679d4cf4db4c4075e74cddb0d9891347b257add",
}


@pytest.fixture(scope="module")
def golden_labels(tmp_path_factory):
    """The 24x24 golden scene's labels, split 30 % train / 70 % test."""
    path = tmp_path_factory.mktemp("golden_labels")
    train, test = split_labels(synthetic_scene(24, 24, seed=3)[1], 0.3, seed=3)
    save_labels(train, path / "train.pgm")
    save_labels(test, path / "test.pgm")
    return ["--train", path / "train.pgm", "--test", path / "test.pgm"]


def six_band_cube(path):
    """Six integer-valued bands mixing the golden scene with a second scene,
    so no draw depends on numpy's generators."""
    from treeprofiles import MultibandImage, save_multiband
    scene = synthetic_scene(24, 24, seed=3)[0].values
    other = synthetic_scene(24, 24, seed=5)[0].values
    cube = np.stack([scene * (1 + b) + other * (6 - b) for b in range(6)])
    save_multiband(MultibandImage(cube.astype(float)), path)
    return path


def two_band_cube(path):
    """The golden scene and a second scene mixed into two bands."""
    from treeprofiles import MultibandImage, save_multiband
    scene = synthetic_scene(24, 24, seed=3)[0].values
    other = synthetic_scene(24, 24, seed=5)[0].values
    cube = np.stack([scene * 2 + other, scene + other * 3])
    save_multiband(MultibandImage(cube.astype(float)), path)
    return path


@pytest.fixture(scope="module")
def golden_scene(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "scene.pgm"
    save_pgm(synthetic_scene(24, 24, seed=3)[0], path)
    return path


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenPins:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_TREE_DUMP))
    def test_tree_dump(self, golden_scene, kind):
        out = run_cli("tree-dump", "--image", golden_scene, "--tree", kind)
        assert out.returncode == 0, out.stderr
        assert _sha256(out.stdout.encode()) == GOLDEN_TREE_DUMP[kind]
        out = run_cli("tree-dump", "--image", golden_scene, "--tree", kind,
                      "--attributes")
        assert out.returncode == 0, out.stderr
        assert _sha256(out.stdout.encode()) == GOLDEN_ATTRIBUTE_DUMP[kind]

    @pytest.mark.parametrize("kind", sorted(GOLDEN_TREE_DUMP_C8))
    def test_tree_dump_c8(self, golden_scene, kind):
        for flags, pins in (([], GOLDEN_TREE_DUMP_C8),
                            (["--attributes"], GOLDEN_ATTRIBUTE_DUMP_C8)):
            out = run_cli("tree-dump", "--image", golden_scene, "--tree", kind,
                          "--connectivity", "c8", *flags)
            assert out.returncode == 0, out.stderr
            assert _sha256(out.stdout.encode()) == pins[kind]

    def test_profile_files(self, golden_scene, tmp_path):
        out = run_cli("profile", "--image", golden_scene,
                      "--tree", "component,tos,alpha,omega", "--mode", "both",
                      "--out", tmp_path)
        assert out.returncode == 0, out.stderr
        written = {f.name: _sha256(f.read_bytes()) for f in tmp_path.iterdir()}
        assert written == GOLDEN_PROFILE_FILES

    def test_compare_files(self, golden_scene, golden_labels, tmp_path):
        out = run_cli("compare", "--image", golden_scene, *golden_labels,
                      "--rf-trees", 5, "--out", tmp_path)
        assert out.returncode == 0, out.stderr
        written = {f.name: _sha256(f.read_bytes()) for f in tmp_path.iterdir()}
        assert written == GOLDEN_COMPARE

    def test_compare_files_c8(self, golden_scene, golden_labels, tmp_path):
        out = run_cli("compare", "--image", golden_scene, *golden_labels,
                      "--connectivity", "c8", "--rf-trees", 5,
                      "--out", tmp_path)
        assert out.returncode == 0, out.stderr
        written = {f.name: _sha256(f.read_bytes()) for f in tmp_path.iterdir()}
        assert written == GOLDEN_COMPARE_C8

    def test_multiband_report(self, golden_labels, tmp_path):
        cube = six_band_cube(tmp_path / "cube.json")
        out = run_cli("classify", "--image", cube, *golden_labels,
                      "--mode", "both", "--tree", "component,alpha",
                      "--pca", 2, "--levels", 64, "--rf-trees", 5,
                      "--out", tmp_path / "rep")
        assert out.returncode == 0, out.stderr
        report = (tmp_path / "rep" / "report.json").read_bytes()
        assert _sha256(report) == GOLDEN_MULTIBAND_REPORT

    @pytest.mark.parametrize("dump", sorted(GOLDEN_NOISY_TOS))
    def test_noisy_tree_of_shapes(self, tmp_path, dump):
        save_pgm(synthetic_scene(64, 64, seed=3)[0], tmp_path / "noisy.pgm")
        flags = ["--attributes"] if dump == "attributes" else []
        out = run_cli("tree-dump", "--image", tmp_path / "noisy.pgm",
                      "--tree", "tos", *flags)
        assert out.returncode == 0, out.stderr
        assert _sha256(out.stdout.encode()) == GOLDEN_NOISY_TOS[dump]


BENCH_WRAPPED = ("build_min_tree", "build_max_tree", "build_tree_of_shapes",
                 "build_alpha_tree", "build_omega_tree", "compute_attributes",
                 "filter_tree")


def bench_sites():
    """``SITES`` of the benchmark's tracer: (module, function, metric, counter)."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module.SITES


def counting(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


class TestBenchCallSites:
    """The benchmark's tracer swaps these names in ``treeprofiles.cli`` and
    ``treeprofiles.profiles`` for timing wrappers; every load, tree build,
    ladder and forest call must run through them."""

    def test_cli_globals_are_called(self, monkeypatch, golden_scene,
                                    golden_labels, tmp_path):
        from treeprofiles import cli

        sites = bench_sites()
        assert {fn for mod, fn, *_ in sites if mod == "profiles"} == \
            set(BENCH_WRAPPED)
        names = [fn for mod, fn, *_ in sites if mod == "cli"]
        calls = Counter()
        for name in names:
            monkeypatch.setattr(cli, name,
                                counting(calls, name, getattr(cli, name)))
        labels = [str(v) for v in golden_labels]
        cube = six_band_cube(tmp_path / "cube.json")
        assert cli.main(["classify", "--image", str(cube), *labels,
                         "--mode", "both", "--tree", "component",
                         "--attr", "area", "--pca", "2", "--levels", "32",
                         "--rf-trees", "2", "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["classify", "--image", str(golden_scene), *labels,
                         "--tree", "alpha", "--attr", "area",
                         "--rf-trees", "2", "--out", str(tmp_path / "b")]) == 0
        assert set(calls) == set(names)

    def test_profiles_globals_are_called(self, monkeypatch, tmp_path):
        from treeprofiles import Feature, FilterSpec, cli, profiles

        calls = Counter()
        for name in BENCH_WRAPPED:
            monkeypatch.setattr(profiles, name,
                                counting(calls, name, getattr(profiles, name)))
        img = synthetic_scene(12, 12, seed=3, levels=16)[0]
        spec = FilterSpec("area", (4.0, 16.0))
        for family in ("component", "tos", "alpha", "omega"):
            bundle = profiles.tree_bundle([img], family)
            profiles.build_ap(bundle, [spec])
            profiles.build_fp(bundle, [spec], [Feature.AREA])
        # every tree build and attribute table runs through its wrapped
        # name; a ladder takes values and thresholds, never a filter_tree mask
        assert calls["filter_tree"] == 0
        assert set(calls) == set(BENCH_WRAPPED) - {"filter_tree"}

        calls.clear()
        save_pgm(img, tmp_path / "t.pgm")
        for kind in ("max", "min", "tos", "alpha", "omega"):
            assert cli.main(["tree-dump", "--image", str(tmp_path / "t.pgm"),
                             "--tree", kind, "--out",
                             str(tmp_path / f"{kind}.txt")]) == 0
        assert set(calls) == set(BENCH_WRAPPED[:5])


class TestSharedAlphaTree:
    """The alpha and omega families of one band start from one alpha-tree,
    in either ``--tree`` order, and write the bytes they write alone."""

    @pytest.fixture
    def alpha_calls(self, monkeypatch):
        from treeprofiles import profiles

        calls = Counter()
        monkeypatch.setattr(profiles, "build_alpha_tree", counting(
            calls, "build_alpha_tree", profiles.build_alpha_tree))
        return calls

    @pytest.mark.parametrize("order", sorted(GOLDEN_PARTITION_REPORTS))
    def test_classify_builds_one_alpha_tree_per_band(
            self, alpha_calls, golden_labels, tmp_path, order):
        from treeprofiles import cli

        cube = two_band_cube(tmp_path / "cube.json")
        assert cli.main(["classify", "--image", str(cube),
                         *map(str, golden_labels), "--mode", "both",
                         "--tree", order, "--pca", "2", "--levels", "32",
                         "--rf-trees", "5", "--out", str(tmp_path)]) == 0
        assert alpha_calls["build_alpha_tree"] == 2
        report = (tmp_path / "report.json").read_bytes()
        assert _sha256(report) == GOLDEN_PARTITION_REPORTS[order]

    @pytest.mark.parametrize("order", ["alpha,omega", "omega,alpha"])
    def test_profile_files_equal_single_family_runs(
            self, alpha_calls, tmp_path, order):
        from treeprofiles import cli

        cube = two_band_cube(tmp_path / "cube.json")

        def profile(trees, out):
            assert cli.main(["profile", "--image", str(cube), "--tree", trees,
                             "--pca", "2", "--levels", "32",
                             "--out", str(out)]) == 0
            return {f.name: f.read_bytes() for f in out.iterdir()}

        both = profile(order, tmp_path / "both")
        assert alpha_calls["build_alpha_tree"] == 2
        alone = {**profile("alpha", tmp_path / "alpha"),
                 **profile("omega", tmp_path / "omega")}
        assert alpha_calls["build_alpha_tree"] == 6
        assert both == alone


class TestOneFamilyAtATime:
    """A pass keeps one tree family's bundle: each family's bundle covers
    every band, is built once, and is gone before the next family's is
    built."""

    def test_classify_keeps_the_last_familys_bundles(
            self, monkeypatch, golden_labels, tmp_path):
        from treeprofiles import cli

        calls, bundles, alive = Counter(), [], []
        tree_bundle = cli.tree_bundle

        def recording(*args, **kwargs):
            alive.append([ref() is not None for ref in bundles])
            bundle = tree_bundle(*args, **kwargs)
            bundles.append(weakref.ref(bundle))
            return bundle

        monkeypatch.setattr(cli, "tree_bundle",
                            counting(calls, "tree_bundle", recording))
        cube = six_band_cube(tmp_path / "cube.json")
        assert cli.main(["classify", "--image", str(cube),
                         *map(str, golden_labels), "--mode", "both",
                         "--tree", "tos,alpha,omega", "--pca", "3",
                         "--levels", "64", "--rf-trees", "5",
                         "--out", str(tmp_path / "rep")]) == 0
        assert calls["tree_bundle"] == 3  # one per family, over all bands
        # when a family's bundle is built, no earlier family's is alive
        assert alive == [[], [False], [False, False]]
        report = (tmp_path / "rep" / "report.json").read_bytes()
        assert _sha256(report) == GOLDEN_THREE_FAMILY_REPORT


class TestNodeTablesOncePerTree:
    """A tree's per-node tables are computed once per profile, whatever
    the number of filter specs: one ``std_dev_all`` per tree."""

    def test_classify_computes_each_trees_stddev_once(
            self, monkeypatch, golden_labels, tmp_path):
        from treeprofiles import cli, profiles

        calls = Counter()
        for name in ("std_dev_all", "compute_attributes"):
            monkeypatch.setattr(profiles, name, counting(
                calls, name, getattr(profiles, name)))
        cube = two_band_cube(tmp_path / "cube.json")
        assert cli.main(["classify", "--image", str(cube),
                         *map(str, golden_labels), "--mode", "both",
                         "--tree", "component,tos,alpha,omega",
                         "--attr", "area,moment", "--pca", "2",
                         "--levels", "32", "--rf-trees", "2",
                         "--out", str(tmp_path)]) == 0
        assert calls["compute_attributes"] == 2 * 5  # bands x trees
        assert calls["std_dev_all"] == calls["compute_attributes"]


class TestNoScipy:
    """The package imports no scipy, not even lazily: importing it builds and
    loads no kernel, and a tree-of-shapes, alpha and omega classify run
    leaves no ``scipy*`` module in ``sys.modules``.  Nor does the run import
    ``multiprocessing``: the forest runs on threads, not a process pool."""

    SCRIPT = (
        "import sys\n"
        "import treeprofiles, treeprofiles.cli\n"
        "from treeprofiles import _native\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert _native._lib is None, 'kernel loaded at import'\n"
        "assert not _native._cache_dir().exists(), 'kernel built at import'\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "assert treeprofiles.cli.main(sys.argv[1:]) == 0\n"
        "assert _native._lib is not None\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "assert 'multiprocessing' not in sys.modules, 'process pool imported'\n"
    )

    def test_import_and_classify_without_scipy(self, golden_labels,
                                                tmp_path):
        cube = two_band_cube(tmp_path / "cube.json")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
               "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, "classify", "--image", cube,
             *map(str, golden_labels), "--tree", "tos,alpha,omega",
             "--pca", "2", "--rf-trees", "3", "--out", tmp_path / "out"],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "report.json").exists()
