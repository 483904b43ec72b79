import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from gaborwf.signal import (
    CATALOG,
    STFT_FLOOR,
    Grid,
    GroundTruth,
    SampledDistribution,
    _json_num,
    catalog_entry,
    catalog_entry_json,
    catalog_names,
    default_grid,
    dump_samples,
    fourier_transform,
    load_samples,
    make_grid,
    nudft,
)
from gaborwf.wavefront import _sample_rays, frequency_rays


def quad_fourier(f, xi, lo, hi):
    """Independent oracle: adaptive quadrature of int f(x) exp(-i x xi) dx."""
    re = quad(lambda x: np.real(f(x) * np.exp(-1j * x * xi)), lo, hi, limit=400)[0]
    im = quad(lambda x: np.imag(f(x) * np.exp(-1j * x * xi)), lo, hi, limit=400)[0]
    return re + 1j * im


class TestGrid:
    def test_spacing_example(self):
        g = make_grid(1, 1024, 20)
        assert g.spacing == 40 / 1024 == 0.0390625

    def test_2d_point_count(self):
        g = make_grid(2, 256, 10)
        assert g.shape == (256, 256)
        assert g.n**g.dim == 65536

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            make_grid(1, 1000, 20)

    def test_rejects_small_and_nonpositive(self):
        with pytest.raises(ValueError):
            make_grid(1, 8, 20)
        with pytest.raises(ValueError):
            make_grid(1, 1024, 0.0)
        with pytest.raises(ValueError):
            make_grid(3, 1024, 20)

    def test_sample_count_bounded(self):
        # a grid builds no array, so the rejected sizes cost nothing here
        assert make_grid(1, 2**20, 20.0).n == 2**20
        assert make_grid(2, 2**10, 10.0).n == 2**10
        for dim, n in ((1, 2**21), (2, 2**11), (1, 2**64)):
            with pytest.raises(ValueError, match=r"n must keep n\*\*"):
                make_grid(dim, n, 10.0)

    def test_axis_points(self):
        g = make_grid(1, 16, 1)
        x = g.axis()
        assert x[0] == -1.0
        assert np.allclose(np.diff(x), g.spacing)
        assert x[8] == 0.0

    def test_dual_grid_involution(self):
        g = make_grid(1, 1024, 20)
        assert g.dual().dual() == g
        assert np.isclose(g.dual().spacing, 2 * np.pi / g.length)


class TestCatalog:
    def test_unknown_name(self, grid1):
        with pytest.raises(ValueError, match="unknown catalog entry"):
            catalog_entry("nonsense", None, grid1)

    def test_support_guard(self, grid1, grid2):
        with pytest.raises(ValueError, match="support radius"):
            catalog_entry("box", {"a": 11.0}, grid1)
        with pytest.raises(ValueError, match="support radius"):
            catalog_entry("bump", {"width": 15.0}, grid1)
        for name, key in (("box", "a"), ("bump", "width")):
            for bad in (-1.0, 0.0):
                with pytest.raises(ValueError, match="must be positive"):
                    catalog_entry(name, {key: bad}, grid1)
        # a support the grid cannot resolve samples a different entry than
        # the one whose ground truth is catalogued; one spacing is admitted
        for name, key, g in (("box", "a", grid1), ("bump", "width", grid1), ("line_delta_2d", "width", grid2)):
            for bad in (0.99 * g.spacing, 1e-300, 1e-320):
                with pytest.raises(ValueError, match="below the grid spacing"):
                    catalog_entry(name, {key: bad}, g)
            catalog_entry(name, {key: g.spacing}, g)
        with pytest.raises(ValueError, match="below the grid spacing"):
            catalog_entry("box2d", {"a": 0.7 * grid2.spacing}, grid2)  # support radius a sqrt(2)

    def test_parameters_checked_against_defaults(self, grid1):
        with pytest.raises(ValueError, match="no parameter 'foo'"):
            catalog_entry("dirac", {"foo": 1}, grid1)
        for name, params in (
            ("hermite", {"n": 1.5}),
            ("hermite", {"n": True}),
            ("box", {"a": "1"}),
            ("box", {"a": None}),
            ("box", {"a": float("inf")}),
            ("box", {"a": 10**400}),
        ):
            with pytest.raises(ValueError, match="must be an integer|must be a finite number"):
                catalog_entry(name, params, grid1)
        # an integral value reads as the default's type
        three = catalog_entry("hermite", {"n": 3}, grid1)[0].samples
        assert np.array_equal(catalog_entry("hermite", {"n": 3.0}, grid1)[0].samples, three)
        assert catalog_entry("box", {"a": 1}, grid1)[1].support_radius == 1.0

    def test_all_entries_construct(self, grid1, grid2):
        for name in catalog_names():
            g = grid1 if CATALOG[name].dims[0] == 1 else grid2
            dist, truth = catalog_entry(name, None, g)
            assert dist.samples.shape == g.shape
            assert isinstance(truth, GroundTruth)

    def test_compact_truths_encode_main_identity(self, grid1, grid2):
        for name in catalog_names():
            g = grid1 if CATALOG[name].dims[0] == 1 else grid2
            _, truth = catalog_entry(name, None, g)
            if truth.support_radius == np.inf:
                continue
            d = g.dim
            freq_parts = {tuple(np.round(v[d:], 12)) for v in truth.gabor_wf_dirs}
            assert freq_parts == {tuple(np.round(s, 12)) for s in truth.sigma_dirs}
            for v in truth.gabor_wf_dirs:
                assert np.linalg.norm(v[:d]) == 0.0

    def test_schwartz_flag_matches_empty_sets(self, grid1):
        _, gauss = catalog_entry("gaussian", None, grid1)
        assert gauss.is_schwartz
        _, box = catalog_entry("box", None, grid1)
        assert not box.is_schwartz

    def test_ground_truth_validation(self):
        # each cone is given once: the frequency cone, or the phase-space cone
        # by hand where the frequency cone is undefined
        with pytest.raises(ValueError, match="not both"):
            GroundTruth([[1.0]], 1.0, [[0.0, 1.0]])
        with pytest.raises(ValueError, match="not both"):
            GroundTruth(None, np.inf)
        with pytest.raises(ValueError, match=r"\(k, d\) array"):
            GroundTruth([1.0, -1.0], 1.0)

    def test_ground_truth_derives_phase_space_cone(self):
        sigma = np.array([[0.6, 0.8], [-1.0, 0.0], [0.0, -1.0]])
        truth = GroundTruth(sigma, 1.0)
        assert np.array_equal(truth.gabor_wf_dirs, np.hstack([np.zeros((3, 2)), sigma]))
        assert np.array_equal(truth.sigma_dirs, sigma)
        sigma[0] = 0.0  # the truth holds its own copy
        assert truth.sigma_dirs[0, 0] == 0.6
        for cone in (truth.sigma_dirs, truth.gabor_wf_dirs):
            with pytest.raises(ValueError):
                cone[0, 0] = 1.0
        chirp = GroundTruth(None, np.inf, [[0.6, 0.8]])
        assert not chirp.theorem_applicable and not chirp.is_schwartz
        assert not chirp.gabor_wf_dirs.flags.writeable
        empty = GroundTruth(np.empty((0, 2)), np.inf)
        assert empty.is_schwartz and empty.gabor_wf_dirs.shape == (0, 4)

    def test_full_circle_fan_is_the_sampled_circle(self):
        from gaborwf.signal import _FULL_CIRCLE_FAN
        from gaborwf.wavefront import _circle

        assert _FULL_CIRCLE_FAN.tobytes() == _circle(8).tobytes()

    @pytest.mark.parametrize(
        "name, dim", [(n, d) for n, e in CATALOG.items() for d in (1, 2) if d not in e.dims]
    )
    def test_entry_rejects_unadmitted_dimension(self, name, dim):
        grid = make_grid(dim, 64, 10.0)
        with pytest.raises(ValueError, match=f"catalog entry '{name}' requires a {3 - dim}-D grid"):
            catalog_entry(name, None, grid)

    def test_spike_convention_pairs_like_delta(self, grid1):
        dirac, _ = catalog_entry("dirac", None, grid1)
        x = grid1.axis()
        f = np.exp(-((x - 0.5) ** 2))
        pairing = np.sum(dirac.samples.real * f) * grid1.spacing
        assert np.isclose(pairing, np.exp(-0.25), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_derivative_spike_pairs_like_signed_derivative(self, grid1, k):
        # (-1)^k f^(k)(0) with O(h^2) stencils, k = 2 the convolved one; the
        # k-th derivative of sin(1.3 x + 0.4) is 1.3^k sin(1.3 x + 0.4 + k pi/2)
        ddir, _ = catalog_entry("dirac_derivative", {"k": k}, grid1)
        x = grid1.axis()
        pairing = np.sum(ddir.samples.real * np.sin(1.3 * x + 0.4)) * grid1.spacing
        assert np.isclose(pairing, (-1.3) ** k * np.sin(0.4 + k * np.pi / 2), atol=1e-3)

    def test_non_finite_samples_rejected(self, grid1):
        with pytest.raises(ValueError, match="finite"):
            catalog_entry("gaussian", {"sigma": float("nan")}, grid1)
        vals = np.zeros(grid1.n, dtype=complex)
        vals[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            SampledDistribution(grid1, vals)

    @pytest.mark.parametrize("params", [[1], "a", 5])
    def test_params_must_be_a_mapping(self, grid1, params):
        with pytest.raises(ValueError, match="catalog entry 'box': params must be a mapping"):
            catalog_entry("box", params, grid1)

    def test_unknown_name_is_one_error(self, grid1):
        known = ", ".join(CATALOG)
        for call in (lambda: catalog_entry("foo", None, grid1), lambda: default_grid("foo")):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"unknown catalog entry 'foo'; known: {known}"

    def test_default_grid_takes_n_and_length(self):
        assert default_grid("box") == make_grid(1, 1024, 20.0)
        assert default_grid("gaussian") == make_grid(1, 1024, 20.0)
        assert default_grid("box2d", 128) == make_grid(2, 128, 10.0)
        assert default_grid("box", length=80.0) == make_grid(1, 1024, 40.0)

    @pytest.mark.parametrize(
        "grid, edges",
        [
            (make_grid(1, 1024, 20.0), (0.085, 0.09, 0.0998, 0.1, 2.4, 2.5, 2.6, 5.0)),
            (make_grid(2, 256, 10.0), (0.18, 0.19, 0.2, 1.2, 1.25, 1.5)),
        ],
        ids=["1d", "2d"],
    )
    def test_gaussian_width_must_reach_the_floor_inside_the_grid(self, grid, edges):
        # admitted exactly where the spectrum at the band edge pi/h and the
        # samples at the box edge L/2 lie at or below STFT_FLOOR: sigma in
        # [0.09984, 2.4908] at n = 1,024, L = 40 and [0.1997, 1.2454] at n =
        # 256, L = 20.  The edges were admitted before this rule; at n =
        # 1,024 sigma = 0.085 printed singular directions, sigma = 5 failed
        # the theorem check off the periodization's jump at the box edge
        for sigma in [*np.geomspace(0.05, 5.0, 41).tolist(), *edges]:
            band_edge = np.exp(-((sigma * np.pi / grid.spacing) ** 2) / 2)
            box_edge = np.exp(-(grid.half_width**2) / (2 * sigma**2))
            if max(band_edge, box_edge) <= STFT_FLOOR:
                u, truth = catalog_entry("gaussian", {"sigma": sigma}, grid)
                assert truth.is_schwartz and u.norm() == pytest.approx(1.0, rel=1e-9)
            else:
                with pytest.raises(ValueError, match=f"gaussian sigma {sigma!r} out of range"):
                    catalog_entry("gaussian", {"sigma": sigma}, grid)

    def test_admitted_gaussian_whose_samples_overflow(self):
        # spacing 9.5e149 and L/2 = 1.25e155 admit sigma up to 1.56e154,
        # whose square, like the squared sample positions, overflows
        with pytest.raises(ValueError, match="gaussian sigma 1.5e\\+154 is out of range: its samples overflow"):
            catalog_entry("gaussian", {"sigma": 1.5e154}, make_grid(1, 2**18, 1.25e155))

    def test_chirp_rate_guard(self, grid1):
        with pytest.raises(ValueError, match="unresolvable"):
            catalog_entry("chirp", {"a": 10.0}, grid1)


class TestNorms:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(-1000, 1000))
    def test_powers_of_two_scale_the_norm_only(self, grid1, k):
        # squares of samples beyond about 1.3e154 overflow and those below
        # about 1e-154 underflow; the norm still scales by 2**k and the mass
        # fraction stays put
        # a gaussian of width 8, too wide for the catalog on this grid
        x = grid1.axis()
        u = SampledDistribution(grid1, (np.pi * 64.0) ** -0.25 * np.exp(-(x**2) / 128.0))
        v = SampledDistribution(grid1, u.samples * 2.0**k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert v.norm() == pytest.approx(np.ldexp(u.norm(), k), rel=1e-15)
            assert v.central_mass_fraction() == pytest.approx(u.central_mass_fraction(), rel=1e-15)
        assert 0.5 < u.central_mass_fraction() < 0.99

    def test_ordinary_samples_keep_their_bits(self, grid1):
        u, _ = catalog_entry("box", None, grid1)
        assert u.norm() == float(np.sqrt(np.sum(np.abs(u.samples) ** 2) * grid1.cell_volume))
        assert SampledDistribution(grid1, np.zeros(grid1.n)).norm() == 0.0


class TestFourierTransform:
    def test_dirac_transform_is_one(self, grid1):
        dirac, _ = catalog_entry("dirac", None, grid1)
        dh = fourier_transform(dirac)
        assert np.max(np.abs(dh.samples - 1.0)) < 1e-10

    def test_gaussian_closed_form(self, grid1):
        u, _ = catalog_entry("gaussian", None, grid1)
        uh = fourier_transform(u)
        xi = grid1.dual_axis()
        exact = np.pi**-0.25 * np.sqrt(2 * np.pi) * np.exp(-(xi**2) / 2)
        scale = exact.max()
        err = np.abs(uh.samples - exact) / np.maximum(np.abs(exact), 1e-8 * scale)
        assert np.max(err[np.abs(exact) > 1e-8 * scale]) < 1e-8

    def test_gaussian_against_quadrature_oracle(self, grid1):
        u, _ = catalog_entry("gaussian", None, grid1)
        uh = fourier_transform(u)
        xi = grid1.dual_axis()
        for k in (512, 530, 560, 600):
            oracle = quad_fourier(lambda x: np.pi**-0.25 * np.exp(-(x**2) / 2), xi[k], -20, 20)
            assert abs(uh.samples[k] - oracle) < 1e-8 * max(1.0, abs(oracle))

    def test_box_closed_form_in_band(self, grid1):
        u, _ = catalog_entry("box", None, grid1)
        uh = fourier_transform(u)
        xi = grid1.dual_axis()
        safe = np.where(xi == 0, 1.0, xi)
        exact = np.where(xi == 0, 2.0, 2 * np.sin(safe) / safe)
        band = np.abs(xi) <= np.pi / (2 * grid1.spacing)
        err = np.abs(uh.samples - exact)[band]
        rel = err / np.maximum(np.abs(exact[band]), 1e-3)
        assert np.max(rel) < 1e-6

    def test_parseval(self, grid1, grid2):
        for name in catalog_names():
            g = grid1 if CATALOG[name].dims[0] == 1 else grid2
            u, _ = catalog_entry(name, None, g)
            if u.kind != "function":
                continue
            uh = fourier_transform(u)
            lhs = uh.norm() ** 2
            rhs = (2 * np.pi) ** g.dim * u.norm() ** 2
            assert abs(lhs - rhs) <= 1e-8 * rhs, name

    def test_double_transform_is_scaled_reflection(self, grid1, grid2):
        for name in ("gaussian", "hermite", "bump", "box2d"):
            g = grid1 if CATALOG[name].dims[0] == 1 else grid2
            u, _ = catalog_entry(name, None, g)
            uhh = fourier_transform(fourier_transform(u))
            refl = u.samples
            for ax in range(g.dim):
                idx = (-np.arange(g.n)) % g.n
                refl = np.take(refl, idx, axis=ax)
            err = np.abs(uhh.samples - (2 * np.pi) ** g.dim * refl)
            assert np.max(err) <= 1e-8 * np.max(np.abs(refl)) * (2 * np.pi) ** g.dim, name

    def test_nudft_matches_direct_sum(self, rng):
        g = make_grid(1, 64, 4.0)
        u = SampledDistribution(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        pts = rng.uniform(-3, 3, size=(7, 1))
        vals = nudft(u, pts)
        x = g.axis()
        for p, v in zip(pts[:, 0], vals):
            direct = sum(u.samples[j] * np.exp(-1j * x[j] * p) for j in range(64)) * g.spacing
            assert abs(v - direct) < 1e-12

    def test_nudft_2d_matches_direct_sum(self, rng):
        g = make_grid(2, 16, 4.0)
        u = SampledDistribution(g, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        pts = rng.uniform(-2, 2, size=(3, 2))
        vals = nudft(u, pts)
        x = g.axis()
        for p, v in zip(pts, vals):
            phases = np.exp(-1j * (x[:, None] * p[0] + x[None, :] * p[1]))
            direct = np.sum(u.samples * phases) * g.cell_volume
            assert abs(v - direct) < 1e-12

    def test_nudft_merges_only_equal_frequencies(self, grid2, rng):
        # the 2-D frequency rays: mirror-image coordinates such as
        # cos(2 pi k/32) and cos(2 pi (32 - k)/32) differ in the last bit,
        # and the sampler makes them bit-equal so that they share a row
        sampling = frequency_rays(grid2)
        raw = (sampling.radii[:, None, None] * sampling.directions).reshape(-1, 2)
        captured = []
        _sample_rays(sampling, grid2, lambda p: captured.append(p) or np.zeros(len(p)))
        snapped = np.concatenate(captured)
        assert len(np.unique(snapped[:, 0])) < len(np.unique(raw[:, 0]))
        x = grid2.axis()

        def dense(u, points):
            # one np.exp per grid entry and axis, the axes contracted in turn
            rows = [np.exp(-1j * points[:, k, None] * x) for k in (0, 1)]
            return np.einsum("pj,pj->p", rows[0] @ u.samples, rows[1]) * grid2.cell_volume

        def within_bounds(got, want):
            err = np.abs(got - want)
            return bool(np.all((err <= 1e-13) | (err <= 1e-12 * np.abs(want))))

        for name in ("box2d", "line_delta_2d"):
            u, _ = catalog_entry(name, None, grid2)
            assert within_bounds(nudft(u, snapped), dense(u, snapped)), name
        # only bit-equal frequencies share a row, so white noise stays within
        # the bounds on the unsnapped mirror pairs too, and the order changes
        # no bit
        u = SampledDistribution(grid2, rng.standard_normal(grid2.shape) + 1j * rng.standard_normal(grid2.shape))
        for pts in (raw, snapped):
            got = nudft(u, pts)
            assert within_bounds(got, dense(u, pts))
            order = rng.permutation(len(pts))
            assert np.array_equal(nudft(u, pts[order]), got[order])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_nudft_rejects_non_finite_frequencies(self, dim, bad):
        u, _ = catalog_entry("dirac", None, make_grid(dim, 64, 10.0))
        pts = np.ones((2, dim))
        pts[1, -1] = bad
        with pytest.raises(ValueError, match="finite"):
            nudft(u, pts)

    def test_nudft_agrees_with_fft_on_dual_grid(self, grid1):
        u, _ = catalog_entry("bump", None, grid1)
        uh = fourier_transform(u)
        xi = grid1.dual_axis()[400:420]
        vals = nudft(u, xi[:, None])
        assert np.max(np.abs(vals - uh.samples[400:420])) < 1e-10


class TestSerialization:
    def test_sample_dump_roundtrip(self, grid1, grid2):
        for name, grid in (("gaussian", grid1), ("dirac", grid1), ("box2d", grid2)):
            u, _ = catalog_entry(name, None, grid)
            blob = dump_samples(u)
            assert blob[:4] == b"GWF2"
            assert len(blob) == 32 + 16 * u.samples.size
            back = load_samples(blob)
            assert back.grid == grid
            assert back.kind == u.kind
            assert np.array_equal(back.samples, u.samples), name

    def test_gwf1_dumps_are_rejected(self, grid1):
        # the earlier format, complex64 samples and no kind, is not read
        u, _ = catalog_entry("dirac", None, grid1)
        header = struct.pack("<4sII d 12x", b"GWF1", 1, grid1.n, grid1.length)
        with pytest.raises(ValueError, match="not a GWF2 sample dump"):
            load_samples(header + u.samples.astype("<c8").tobytes())

    def test_sample_dump_rejects_garbage(self, grid1):
        with pytest.raises(ValueError):
            load_samples(b"nope" + b"\x00" * 64)
        u, _ = catalog_entry("dirac", None, grid1)
        blob = dump_samples(u)
        with pytest.raises(ValueError, match="kind code"):
            load_samples(blob[:20] + b"\x07" + blob[21:])
        with pytest.raises(ValueError, match="does not hold"):
            load_samples(blob[:-16])

    def test_catalog_json_shape(self, grid1):
        _, truth = catalog_entry("dirac", None, grid1)
        payload = catalog_entry_json("dirac", {}, grid1, truth)
        blob = json.dumps(payload)
        back = json.loads(blob)
        assert back["grid"] == {"dim": 1, "n": 1024, "half_width": 20.0}
        assert back["ground_truth"]["sigma_dirs"] == [[1.0], [-1.0]]
        assert back["ground_truth"]["support_radius"] == 0.0

    @pytest.mark.parametrize(
        "x, encoded", [(np.inf, "inf"), (-np.inf, "-inf"), (np.float64(0.25), 0.25), (-0.0, -0.0)]
    )
    def test_json_num_writes_infinities_as_strings(self, x, encoded):
        got = _json_num(x)
        assert got == encoded and type(got) is type(encoded)
        assert json.loads(json.dumps(got)) == encoded

    def test_catalog_json_handles_infinite_support(self, grid1):
        _, truth = catalog_entry("chirp", None, grid1)
        payload = catalog_entry_json("chirp", {"a": 1.0}, grid1, truth)
        assert payload["ground_truth"]["support_radius"] == "inf"
        assert payload["ground_truth"]["sigma_dirs"] is None

    def test_samples_are_immutable(self, grid1):
        u, _ = catalog_entry("gaussian", None, grid1)
        with pytest.raises(ValueError):
            u.samples[0] = 1.0
