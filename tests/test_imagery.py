import json

import numpy as np
import pytest

from treeprofiles import (
    DataError,
    FormatError,
    LabelMap,
    MultibandImage,
    RasterImage,
    load_grayscale,
    load_labels,
    load_multiband,
    pca_reduce,
    rescale_to_levels,
    save_multiband,
    save_pgm,
    split_labels,
    synthetic_scene,
)

from oracles import band_covariance, jacobi_eigh, pca_reduce_jacobi


class TestPgm:
    def test_plain_2x2(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n# comment\n2 2\n255\n0 1\n2 3\n")
        img = load_grayscale(path)
        assert (img.width, img.height) == (2, 2)
        assert img.values.ravel().tolist() == [0, 1, 2, 3]
        assert img.levels == 256

    def test_constant_binary(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes([7] * 16))
        img = load_grayscale(path)
        assert np.all(img.values == 7)

    def test_truncated_binary_names_offset(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n10 10\n255\n" + bytes(50))
        with pytest.raises(FormatError, match="pixel 50") as err:
            load_grayscale(path)
        assert err.value.offset is not None

    def test_maxval_too_large(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_text("P2\n1 1\n70000\n0\n")
        with pytest.raises(FormatError, match="maxval"):
            load_grayscale(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P7\n1 1\n1\n\0")
        with pytest.raises(FormatError, match="magic"):
            load_grayscale(path)

    @pytest.mark.parametrize("plain", [True, False])
    @pytest.mark.parametrize("levels", [256, 4096])
    def test_roundtrip_bit_exact(self, tmp_path, rng, plain, levels):
        values = rng.integers(0, levels, size=(9, 13))
        img = RasterImage(values, levels=levels)
        path = tmp_path / "r.pgm"
        save_pgm(img, path, plain=plain)
        back = load_grayscale(path)
        assert back.levels == levels
        assert np.array_equal(back.values, img.values)


class TestMultiband:
    def test_layout(self, tmp_path):
        header = tmp_path / "m.json"
        header.write_text(json.dumps({
            "width": 2, "height": 1, "bands": 2,
            "dtype": "u8", "interleave": "bsq",
        }))
        (tmp_path / "m.raw").write_bytes(bytes([10, 20, 30, 40]))
        img = load_multiband(header)
        assert img.band(0).ravel().tolist() == [10.0, 20.0]
        assert img.band(1).ravel().tolist() == [30.0, 40.0]

    def test_single_band_matches_grayscale(self, tmp_path, rng):
        values = rng.integers(0, 256, size=(5, 7))
        gray = RasterImage(values)
        save_pgm(gray, tmp_path / "g.pgm")
        header = tmp_path / "m.json"
        save_multiband(MultibandImage(values[None].astype(float)), header,
                       dtype="u16")
        multi = load_multiband(header)
        assert np.array_equal(multi.band(0).astype(int),
                              load_grayscale(tmp_path / "g.pgm").values)

    def test_size_mismatch(self, tmp_path):
        header = tmp_path / "m.json"
        header.write_text(json.dumps({
            "width": 4, "height": 4, "bands": 2,
            "dtype": "u8", "interleave": "bsq",
        }))
        (tmp_path / "m.raw").write_bytes(bytes(16))  # needs 32
        with pytest.raises(FormatError, match="requires 32"):
            load_multiband(header)

    def test_unsupported_dtype_and_interleave(self, tmp_path):
        header = tmp_path / "m.json"
        for bad in ({"dtype": "f64"}, {"interleave": "bip"}):
            payload = {"width": 1, "height": 1, "bands": 1,
                       "dtype": "u8", "interleave": "bsq", **bad}
            header.write_text(json.dumps(payload))
            (tmp_path / "m.raw").write_bytes(b"\0")
            with pytest.raises(FormatError):
                load_multiband(header)

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        values = rng.integers(0, 1000, size=(3, 4, 5)).astype(np.float64)
        img = MultibandImage(values)
        save_multiband(img, tmp_path / "m.json", dtype="f32")
        back = load_multiband(tmp_path / "m.json")
        assert np.array_equal(back.values, values)  # integers survive f32


class TestLabels:
    def test_counts(self, tmp_path):
        save_pgm(RasterImage(np.array([[0, 1], [1, 2]]), levels=256),
                 tmp_path / "l.pgm")
        labels = load_labels(tmp_path / "l.pgm", (2, 2))
        idx, classes = labels.samples()
        assert len(idx) == 3
        assert np.count_nonzero(classes == 1) == 2
        assert np.count_nonzero(classes == 2) == 1

    def test_all_zero_is_valid(self, tmp_path):
        save_pgm(RasterImage(np.zeros((2, 2), int), levels=2), tmp_path / "z.pgm")
        labels = load_labels(tmp_path / "z.pgm", (2, 2))
        assert len(labels.samples()[0]) == 0

    def test_dimension_mismatch(self, tmp_path):
        save_pgm(RasterImage(np.zeros((3, 3), int), levels=2), tmp_path / "l.pgm")
        with pytest.raises(DataError, match="label map"):
            load_labels(tmp_path / "l.pgm", (2, 2))

    def test_split_of_an_unlabeled_map(self):
        with pytest.raises(DataError, match="at least one labeled pixel"):
            split_labels(LabelMap(np.zeros((4, 4), int)), 0.5, seed=1)
        train, test = split_labels(LabelMap(np.eye(4, dtype=int)), 0.5, seed=1)
        assert len(train.samples()[0]) == len(test.samples()[0]) == 2


class TestPca:
    def test_hand_example(self):
        spectra = np.array([[1.0, -1.0, 2.0, -2.0],
                            [1.0, -1.0, 2.0, -2.0]]).reshape(2, 2, 2)
        img = MultibandImage(spectra)
        out = pca_reduce(img, 1)
        proj = out.band(0).ravel()
        expected = np.array([np.sqrt(2), -np.sqrt(2),
                             2 * np.sqrt(2), -2 * np.sqrt(2)])
        assert np.allclose(proj, expected, atol=1e-12)
        # second principal variance vanishes for rank-1 spectra
        both = pca_reduce(img, 2)
        assert np.allclose(both.band(1), 0.0, atol=1e-12)

    def test_variance_preserved_full_rank(self, rng):
        img = MultibandImage(rng.normal(size=(4, 6, 5)))
        out = pca_reduce(img, 4)
        var_in = sum(np.var(img.band(b)) for b in range(4))
        var_out = sum(np.var(out.band(b)) for b in range(4))
        assert np.isclose(var_in, var_out, rtol=1e-10)

    def test_components_uncorrelated_and_ordered(self, rng):
        img = MultibandImage(rng.normal(size=(5, 8, 9)) * [[[1]], [[3]], [[2]], [[5]], [[0.5]]])
        out = pca_reduce(img, 5)
        flat = out.values.reshape(5, -1)
        cov = flat @ flat.T / flat.shape[1]
        eigmax = cov[0, 0]
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-9 * eigmax
        variances = np.diag(cov)
        assert np.all(np.diff(variances) <= 1e-12)

    def test_single_band_identity(self, rng):
        band = rng.normal(size=(1, 4, 4))
        out = pca_reduce(MultibandImage(band), 1)
        assert np.allclose(out.band(0), band[0] - band[0].mean(), atol=1e-12)

    def test_too_many_components(self):
        img = MultibandImage(np.zeros((2, 3, 3)))
        with pytest.raises(DataError):
            pca_reduce(img, 3)

    def test_jacobi_matches_lapack(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n))
            sym = (a + a.T) / 2
            vals, vecs = jacobi_eigh(sym)
            ref = np.linalg.eigvalsh(sym)[::-1]
            assert np.allclose(vals, ref, atol=1e-9)
            assert np.allclose(sym @ vecs, vecs * vals, atol=1e-8)

    def test_jacobi_budget_error(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(RuntimeError, match="did not converge"):
            jacobi_eigh(a, max_sweeps=0)


def correlated_cube(rng, bands: int, side: int) -> MultibandImage:
    """A few latent factors mixed into every band plus band noise, rounded
    through float32 as a BSQ file stores it."""
    factors = rng.normal(size=(int(rng.integers(2, 6)), side * side))
    mixing = rng.normal(size=(bands, len(factors)))
    cube = mixing @ factors + 0.1 * rng.normal(size=(bands, side * side))
    return MultibandImage(
        (cube + 5.0).astype(np.float32).reshape(bands, side, side))


def hsi_cube(bands: int = 103, side: int = 48) -> MultibandImage:
    """A hyperspectral-style cube: a scene's gray texture, a smooth field
    and a constant, each with a smooth spectrum, plus noise in every band."""
    gen = np.random.default_rng(701)
    gray = synthetic_scene(side, side, seed=701)[0].values / 255.0
    b = np.linspace(0.0, 1.0, bands)[:, None, None]
    yy, xx = np.mgrid[0:side, 0:side] / side
    field = 0.5 + 0.5 * np.sin(2 * np.pi * (0.7 * xx + 1.3 * yy))
    cube = (0.6 * gray * np.exp(-((b - 0.3) / 0.15) ** 2)
            + 0.3 * field * np.exp(-((b - 0.7) / 0.2) ** 2) + 0.2 * (1.0 + b))
    cube += gen.normal(0.0, 0.15, size=cube.shape)
    return MultibandImage(cube.astype(np.float32))


def quantized_bands(reduced: MultibandImage) -> list[np.ndarray]:
    return [rescale_to_levels(reduced, b, 256).values
            for b in range(reduced.bands)]


class TestPcaOracle:
    """``pca_reduce`` (LAPACK eigh) against the cyclic Jacobi reference."""

    def test_eigenvalues_match_jacobi(self, rng):
        # each component's variance is its axis's eigenvalue; LAPACK and
        # Jacobi agree to rtol 1e-9, or 1e-12 of the largest eigenvalue
        for _ in range(12):
            bands = int(rng.integers(4, 61))
            img = correlated_cube(rng, bands, 12)
            ref, _ = jacobi_eigh(band_covariance(img))
            got = pca_reduce(img, bands).values.reshape(bands, -1)
            np.testing.assert_allclose(np.mean(got * got, axis=1), ref,
                                       rtol=1e-9, atol=1e-12 * ref[0])

    def test_rescaled_bands_equal_random_cubes(self, rng):
        for _ in range(12):
            bands = int(rng.integers(4, 61))
            img = correlated_cube(rng, bands, int(rng.integers(6, 20)))
            got = quantized_bands(pca_reduce(img, 4))
            ref = quantized_bands(pca_reduce_jacobi(img, 4))
            for g, r in zip(got, ref):
                assert np.array_equal(g, r)

    def test_rescaled_bands_equal_hyperspectral_cube(self):
        img = hsi_cube()
        got = quantized_bands(pca_reduce(img, 4))
        ref = quantized_bands(pca_reduce_jacobi(img, 4))
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)

    def test_constant_cube(self):
        img = MultibandImage(np.full((5, 4, 4), 2.5))
        out = pca_reduce(img, 3)
        assert np.array_equal(out.values, np.zeros((3, 4, 4)))
        assert np.array_equal(out.values, pca_reduce_jacobi(img, 3).values)

    def test_tied_eigenvalues_pin_the_subspace(self):
        """Two uncorrelated bands of equal variance: every unit vector is a
        principal axis, so no basis is pinned, only what is invariant."""
        walsh = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]]).astype(float)
        rot = np.array([[0.6, -0.8], [0.8, 0.6]])
        img = MultibandImage((rot @ walsh[1:3]).reshape(2, 2, 2) + 3.0)
        centered = img.values.reshape(2, -1) - 3.0
        assert np.allclose(band_covariance(img), np.eye(2), atol=1e-15)
        assert np.allclose(jacobi_eigh(band_covariance(img))[0], [1.0, 1.0])

        both = pca_reduce(img, 2).values.reshape(2, -1)
        # uncorrelated unit-variance components ...
        assert np.allclose(both @ both.T / 4, np.eye(2), atol=1e-12)
        # ... that give back the centered bands by an orthogonal map
        mix = np.linalg.lstsq(both.T, centered.T, rcond=None)[0].T
        assert np.allclose(mix @ both, centered, atol=1e-12)
        assert np.allclose(mix @ mix.T, np.eye(2), atol=1e-12)

        one = pca_reduce(img, 1).values.reshape(-1)
        # one component: a unit-norm combination of the centered bands
        coef = np.linalg.lstsq(centered.T, one, rcond=None)[0]
        assert np.allclose(centered.T @ coef, one, atol=1e-12)
        assert np.isclose(coef @ coef, 1.0, atol=1e-12)


class TestRescale:
    def test_round_half_up(self):
        img = MultibandImage(np.array([0.0, 0.5, 1.0]).reshape(1, 1, 3))
        out = rescale_to_levels(img, 0, 256)
        assert out.values.ravel().tolist() == [0, 128, 255]

    def test_constant_band(self):
        img = MultibandImage(np.full((1, 2, 2), 3.7))
        assert np.all(rescale_to_levels(img, 0, 256).values == 0)

    def test_integer_span_unchanged(self, rng):
        values = rng.integers(0, 16, size=(4, 4)).astype(float)
        values.flat[0], values.flat[1] = 0.0, 15.0
        out = rescale_to_levels(MultibandImage(values[None]), 0, 16)
        assert np.array_equal(out.values, values.astype(int))

    def test_monotone(self, rng):
        band = rng.normal(size=(1, 6, 6))
        out = rescale_to_levels(MultibandImage(band), 0, 32)
        v = band[0].ravel()
        q = out.values.ravel()
        order = np.argsort(v)
        assert np.all(np.diff(q[order]) >= 0)
