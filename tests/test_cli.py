import json
import subprocess
import sys

import numpy as np
import pytest

from treeprofiles import (
    RasterImage,
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


class TestCompareCommand:
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
        assert (tmp_path / "flag_wins" / "scene_alpha_ap.json").exists()


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
