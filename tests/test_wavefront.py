import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gaborwf.signal import CATALOG, SampledDistribution, catalog_entry, catalog_names, fourier_transform
from gaborwf.stft import Window
from gaborwf.wavefront import (
    _components,
    _sample_rays,
    check_main_theorem,
    directed_hausdorff_angle,
    estimate_classical_wf,
    estimate_gabor_wf,
    estimate_sigma,
    frequency_cap,
    frequency_rays,
    hausdorff_angle,
    phase_space_rays,
    position_cap,
    profiles_to_csv,
    report_to_json,
    rethreshold,
    schwartz_direction_test,
)

STEP1 = 2 * np.pi / 256


def dirs_of(report):
    return [np.array(d) for d in report.singular_dirs]


def pole_distance(report, poles):
    return hausdorff_angle(dirs_of(report), [np.array(p) for p in poles])


@pytest.fixture(scope="module")
def reports(grid1):
    """Shared detection runs, one per (entry, lambda)."""
    cache = {}

    def get(name, lam=0.5, kind="gabor", n_thresh=2.5):
        key = (name, lam, kind, n_thresh)
        if key not in cache:
            u, _ = catalog_entry(name, None, grid1)
            if kind == "gabor":
                cache[key] = estimate_gabor_wf(u, Window(lam), n_thresh=n_thresh)
            else:
                cache[key] = estimate_sigma(u, n_thresh=n_thresh)
        return cache[key]

    return get


class TestSamplingValidation:
    def test_radius_bounds(self, grid1):
        with pytest.raises(ValueError, match="r_min"):
            phase_space_rays(grid1, r_min=0.5)
        with pytest.raises(ValueError, match="rho"):
            phase_space_rays(grid1, rho=0.99)
        with pytest.raises(ValueError, match="exceeds"):
            phase_space_rays(grid1, r_max=1e4)
        with pytest.raises(ValueError, match="exceeds"):
            frequency_rays(grid1, r_max=1e4)

    def test_direction_counts(self, grid1, grid2):
        with pytest.raises(ValueError, match="n_dirs"):
            phase_space_rays(grid1, n_dirs=32)
        with pytest.raises(ValueError, match="n_dirs"):
            phase_space_rays(grid2, n_dirs=16)
        assert phase_space_rays(grid1).n_dirs == 256
        ps2 = phase_space_rays(grid2)
        assert ps2.n_dirs == 32
        assert len(ps2.directions) == 32 + 3 * 32 * 32 + 32

    def test_degenerate_fit_rejected(self, grid1):
        u, _ = catalog_entry("dirac", None, grid1)
        tight = phase_space_rays(grid1, r_min=1.0, r_max=1.8)
        with pytest.raises(ValueError, match="degenerate fit"):
            estimate_gabor_wf(u, Window(0.5), tight)

    def test_threshold_positive(self, grid1, reports):
        u, _ = catalog_entry("dirac", None, grid1)
        rep, sampling = reports("dirac", 0.5), phase_space_rays(grid1)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="n_thresh"):
                estimate_gabor_wf(u, Window(0.5), n_thresh=bad)
            with pytest.raises(ValueError, match="n_thresh"):
                estimate_sigma(u, n_thresh=bad)
            with pytest.raises(ValueError, match="n_thresh"):
                rethreshold(rep, sampling, bad)

    def test_rethreshold_needs_the_report_directions(self, grid1, reports):
        with pytest.raises(ValueError, match="directions"):
            rethreshold(reports("dirac", 0.5), phase_space_rays(grid1, n_dirs=512), 1.0)


class TestRayLayout:
    def test_ray_radii_match_per_direction_caps(self, grid1, grid2):
        # reference: each direction's ladder cut at its own cap, one at a time
        for grid, sampling in (
            (grid1, phase_space_rays(grid1)),
            (grid2, phase_space_rays(grid2)),
            (grid1, frequency_rays(grid1)),
            (grid2, frequency_rays(grid2)),
        ):
            d, radii = grid.dim, sampling.radii
            pos_cap = position_cap(grid, 1.0, compact=False)
            samples, offsets = _sample_rays(sampling, grid, lambda p: np.ones(len(p)), pos_cap)
            assert offsets[0] == 0 and offsets[-1] == len(samples)
            for i, w in enumerate(sampling.directions):
                nx, nxi = np.linalg.norm(w[:-d]), np.linalg.norm(w[-d:])
                cap = frequency_cap(grid) / nxi if nxi > 0 else np.inf
                if sampling.space == "phase" and nx > 0:
                    cap = min(cap, pos_cap / nx)
                expected = radii[radii <= cap + 1e-12]
                assert np.array_equal(samples[offsets[i] : offsets[i + 1], 0], expected), (grid.dim, i)

    @pytest.mark.parametrize("tilt_count, edges", [(3, 4160), (5, 10304)])
    def test_2d_phase_space(self, grid2, tilt_count, edges):
        sampling = phase_space_rays(grid2, tilt_count=tilt_count)
        n, e = sampling.n_dirs, sampling.neighbors
        assert len(e) == 2 * n + (3 * tilt_count - 5) * n * n == edges
        assert np.all(e[:, 0] < e[:, 1])
        assert np.array_equal(e, np.unique(e, axis=0))  # ascending, no repeats
        # an edge is one step on a circle or one step between tilt levels
        bound = max(sampling.angular_step, np.pi / 2 / (tilt_count - 1))
        ends = sampling.directions[e]
        angles = np.arccos(np.clip(np.sum(ends[:, 0] * ends[:, 1], axis=1), -1.0, 1.0))
        assert np.all(angles <= bound + 1e-9)
        assert len(_components(np.ones(len(sampling.directions), dtype=bool), e)) == 1


class TestGaborDetection:
    def test_dirac_poles(self, reports):
        rep = reports("dirac", 1.0)
        assert pole_distance(rep, [(0, 1), (0, -1)]) <= STEP1

    def test_dirac_flagged_set_stays_inside_ten_degrees(self, reports):
        # derived from |V| = gaussian in x, constant in xi
        rep = reports("dirac", 1.0)
        for i in rep.flagged_indices():
            assert abs(rep.profiles[i].direction[0]) < np.sin(np.radians(10.0))

    def test_dirac_pole_profile_flat(self, reports):
        rep = reports("dirac", 1.0)
        pole = next(p for p in rep.profiles if abs(p.direction[0]) < 1e-12 and p.direction[1] > 0)
        assert abs(pole.slope) < 1e-6
        assert not pole.floor_hit

    def test_gaussian_empty(self, reports):
        assert reports("gaussian", 1.0).singular_dirs == ()

    def test_chirp_diagonal(self, reports):
        rep = reports("chirp", 1.0)
        diag = 1 / np.sqrt(2)
        assert pole_distance(rep, [(diag, diag), (-diag, -diag)]) <= STEP1

    def test_far_rays_hit_floor(self, reports):
        rep = reports("gaussian", 1.0)
        floor_dirs = [p for p in rep.profiles if p.floor_hit]
        assert floor_dirs
        assert all(np.isinf(p.slope) for p in floor_dirs)

    def test_wrong_sampling_space_rejected(self, grid1):
        u, _ = catalog_entry("dirac", None, grid1)
        with pytest.raises(ValueError, match="phase-space sampling"):
            estimate_gabor_wf(u, Window(0.5), frequency_rays(grid1))


class TestSigmaDetection:
    def test_box_poles_with_order_one_decay(self, grid1):
        u, _ = catalog_entry("box", None, grid1)
        rep = estimate_sigma(u)
        assert {tuple(d) for d in rep.singular_dirs} == {(1.0,), (-1.0,)}
        for p in rep.profiles:
            assert 0.4 < p.slope < 1.6  # |uhat| ~ 1/|xi|

    def test_bump_empty(self, grid1):
        u, _ = catalog_entry("bump", None, grid1)
        assert estimate_sigma(u).singular_dirs == ()

    def test_dirac_derivative_grows(self, grid1):
        u, _ = catalog_entry("dirac_derivative", None, grid1)
        rep = estimate_sigma(u)
        assert {tuple(d) for d in rep.singular_dirs} == {(1.0,), (-1.0,)}
        for p in rep.profiles:
            assert p.slope < 0  # growth shows as negative decay order

    def test_line_delta_2d_axis(self, grid2):
        u, _ = catalog_entry("line_delta_2d", None, grid2)
        rep = estimate_sigma(u)
        step = 2 * np.pi / 32
        assert pole_distance(rep, [(1.0, 0.0), (-1.0, 0.0)]) <= step

    def test_warns_on_noncompact(self, grid1):
        u, _ = catalog_entry("chirp", None, grid1)
        with pytest.warns(UserWarning, match="not concentrated"):
            estimate_sigma(u)


@pytest.fixture(scope="module")
def cutoff_window():
    return Window(0.16, cutoff=(4.0, 6.0))


class TestClassicalDetection:

    def test_box_jump(self, grid1, cutoff_window):
        u, _ = catalog_entry("box", None, grid1)
        rep = estimate_classical_wf(u, cutoff_window, 1.0)
        assert {tuple(d) for d in rep.singular_dirs} == {(1.0,), (-1.0,)}
        assert rep.base_point == (1.0,)

    def test_box_interior_smooth(self, grid1, cutoff_window):
        u, _ = catalog_entry("box", None, grid1)
        rep = estimate_classical_wf(u, cutoff_window, 0.0)
        assert rep.singular_dirs == ()

    def test_dirac_at_origin(self, grid1, cutoff_window):
        u, _ = catalog_entry("dirac", None, grid1)
        rep = estimate_classical_wf(u, cutoff_window, 0.0)
        assert {tuple(d) for d in rep.singular_dirs} == {(1.0,), (-1.0,)}

    def test_requires_compact_window(self, grid1):
        u, _ = catalog_entry("box", None, grid1)
        with pytest.raises(ValueError, match="compactly supported"):
            estimate_classical_wf(u, Window(0.16), 0.0)


class TestMainTheorem:
    def test_dirac_passes(self, reports, grid1):
        u, _ = catalog_entry("dirac", None, grid1)
        res = check_main_theorem(reports("dirac", 0.5), estimate_sigma(u), 2 * STEP1)
        assert res.passed
        assert res.dist_gabor_to_sigma <= 2 * STEP1
        assert res.dist_sigma_to_gabor <= 2 * STEP1

    def test_gaussian_both_empty(self, reports, grid1):
        u, _ = catalog_entry("gaussian", None, grid1)
        res = check_main_theorem(reports("gaussian", 0.5), estimate_sigma(u), 2 * STEP1)
        assert res.passed
        assert res.dist_gabor_to_sigma == 0.0
        assert res.dist_sigma_to_gabor == 0.0
        assert res.max_x_component == 0.0

    def test_chirp_rejected(self, reports):
        with pytest.raises(ValueError, match="not compactly supported"):
            check_main_theorem(reports("chirp", 0.5), None, 2 * STEP1)

    def test_empty_vs_nonempty_fails_with_infinite_distance(self, reports, grid1):
        u, _ = catalog_entry("box", None, grid1)
        sigma = estimate_sigma(u)
        gabor_empty = reports("gaussian", 0.5)
        res = check_main_theorem(gabor_empty, sigma, 2 * STEP1)
        assert not res.passed
        assert np.isinf(res.dist_sigma_to_gabor)

    def test_report_kind_validation(self, reports, grid1):
        u, _ = catalog_entry("dirac", None, grid1)
        sigma = estimate_sigma(u)
        with pytest.raises(ValueError, match="phase-space"):
            check_main_theorem(sigma, sigma, 2 * STEP1)

    def test_tolerance_positive(self, reports, grid1):
        u, _ = catalog_entry("dirac", None, grid1)
        sigma = estimate_sigma(u)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="ang_tol"):
                check_main_theorem(reports("dirac", 0.5), sigma, bad)


class TestSchwartzDirectionTest:
    def test_dirac_fails(self, reports):
        assert schwartz_direction_test(reports("dirac", 1.0)) is False

    def test_constant_passes(self, grid1):
        dirac, _ = catalog_entry("dirac", None, grid1)
        const = fourier_transform(dirac)
        rep = estimate_gabor_wf(const, Window(1.0))
        assert schwartz_direction_test(rep) is True

    def test_gaussian_passes(self, reports):
        assert schwartz_direction_test(reports("gaussian", 1.0)) is True

    def test_kind_validation(self, grid1):
        u, _ = catalog_entry("box", None, grid1)
        with pytest.raises(ValueError, match="phase-space"):
            schwartz_direction_test(estimate_sigma(u))


class TestDetectorProperties:
    def test_determinism(self, grid1):
        u, _ = catalog_entry("box", None, grid1)
        a = estimate_gabor_wf(u, Window(0.5))
        b = estimate_gabor_wf(u, Window(0.5))
        assert json.dumps(report_to_json(a), sort_keys=True) == json.dumps(
            report_to_json(b), sort_keys=True
        )
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.offsets, b.offsets)

    def test_monotonicity_in_threshold(self, reports, grid1):
        # per-direction flags are nested as the threshold drops; reported
        # cone axes may shift inside a shrinking arc but never leave it
        sampling = phase_space_rays(grid1)
        for name in ("dirac", "box", "gaussian", "chirp", "bump"):
            rep = reports(name, 0.5)
            prev_flagged = set(rep.flagged_indices())
            prev_singular = dirs_of(rep)
            for thresh in (1.5, 0.75, 0.3):
                lowered = rethreshold(rep, sampling, thresh)
                cur = set(lowered.flagged_indices())
                assert cur <= prev_flagged, (name, thresh)
                if lowered.singular_dirs:
                    gap = directed_hausdorff_angle(dirs_of(lowered), prev_singular)
                    assert gap <= STEP1 + 1e-9, (name, thresh)
                prev_flagged = cur
                if lowered.singular_dirs:
                    prev_singular = dirs_of(lowered)

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.lists(st.floats(0.0, 2.5, exclude_min=True), min_size=2, max_size=2))
    def test_flagged_sets_nested(self, reports, grid1, thresholds):
        # flags only drop as the threshold drops, and every reported
        # direction is a flagged one
        low, high = sorted(thresholds)
        sampling = phase_space_rays(grid1)
        for name in (n for n in catalog_names() if CATALOG[n].dim == 1):
            rep = reports(name, 0.5)
            lowered, raised = rethreshold(rep, sampling, low), rethreshold(rep, sampling, high)
            assert set(lowered.flagged_indices()) <= set(raised.flagged_indices()), name
            flagged = {rep.profiles[i].direction for i in lowered.flagged_indices()}
            assert set(lowered.singular_dirs) | set(lowered.isolated) <= flagged, name

    def test_window_stability_1d(self, reports):
        for name in ("dirac", "dirac_derivative", "gaussian", "hermite", "box", "bump", "chirp"):
            sets = [dirs_of(reports(name, lam)) for lam in (0.5, 1.0, 2.0)]
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    if not sets[i] and not sets[j]:
                        continue
                    assert hausdorff_angle(sets[i], sets[j]) <= STEP1 + 1e-9, name

    def test_translation_modulation_covariance(self, grid1):
        # on-grid shift and modulation, both within the L/8 bound; the shift
        # is kept below r_max * tan(step) because a translation tilts the
        # finite-aperture cone by arctan(x0 / r)
        w = Window(1.0)
        shift_cells = 6  # 0.23 in position units: below r_max * tan(step)
        xi0 = 8 * 2 * np.pi / grid1.length
        for name in ("dirac", "box"):
            u, _ = catalog_entry(name, None, grid1)
            moved = SampledDistribution(
                grid1,
                np.roll(u.samples, shift_cells) * np.exp(1j * xi0 * grid1.axis()),
                kind=u.kind,
                label="moved",
            )
            a = estimate_gabor_wf(u, w)
            b = estimate_gabor_wf(moved, w)
            assert hausdorff_angle(dirs_of(a), dirs_of(b)) <= STEP1 + 1e-9, name

    def test_symplectic_rotation_under_fourier(self, grid1):
        # directions of the transform are the J-rotation of the original's
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for name in ("dirac", "box"):
            u, _ = catalog_entry(name, None, grid1)
            du = estimate_gabor_wf(u, Window(1.0))
            duh = estimate_gabor_wf(fourier_transform(u), Window(1.0))
            rotated = [J @ np.array(z) for z in du.singular_dirs]
            assert hausdorff_angle(rotated, dirs_of(duh)) <= STEP1 + 1e-9, name

    def test_isolated_jitter_is_reported_separately(self, grid1, rng):
        # a lone flag whose slope sits close to the threshold is jitter and
        # must land in `isolated`, not in the singular set
        vals = rng.standard_normal(grid1.n) + 1j * rng.standard_normal(grid1.n)
        u = SampledDistribution(grid1, vals, label="noise")
        rep = estimate_gabor_wf(u, Window(1.0))
        sampling = phase_space_rays(grid1)
        slopes = [p.slope for p in rep.profiles]
        target = None
        for i, s in enumerate(slopes):
            if not np.isfinite(s) or s <= 0:
                continue
            neighbors = [j for a, b in sampling.neighbors if i in (a, b) for j in (a, b) if j != i]
            if all(slopes[j] > s * 1.05 for j in neighbors):
                target = s * 1.05
                break
        assert target is not None
        forced = rethreshold(rep, sampling, target)
        assert forced.isolated
        for d in forced.isolated:
            assert d not in forced.singular_dirs


class TestReportSerialization:
    def test_json_shape(self, reports):
        payload = report_to_json(reports("dirac", 0.5))
        assert payload["kind"] == "gabor"
        assert set(payload["params"]) >= {"n_dirs", "r_min", "r_max", "rho", "n_thresh", "lambda"}
        assert len(payload["profiles"]) == 256
        entry = payload["profiles"][0]
        assert set(entry) == {"dir", "slope", "residual", "floor_hit"}
        json.dumps(payload)  # must be serializable as-is

    def test_infinite_slopes_encoded(self, reports):
        payload = report_to_json(reports("gaussian", 0.5))
        slopes = [p["slope"] for p in payload["profiles"]]
        assert "inf" in slopes

    def test_base_point_round_trip(self, grid1):
        u, _ = catalog_entry("box", None, grid1)
        rep = estimate_classical_wf(u, Window(0.16, cutoff=(4.0, 6.0)), 1.0)
        payload = report_to_json(rep)
        assert payload["base_point"] == [1.0]

    def test_csv_profile_dump(self, reports):
        text = profiles_to_csv(reports("dirac", 0.5))
        lines = text.strip().split("\n")
        assert lines[0] == "dir_index,r,abs_V"
        idx, r, v = lines[1].split(",")
        assert idx == "0"
        float(r), float(v)


class TestHausdorffHelpers:
    def test_directed_empty_conventions(self):
        assert directed_hausdorff_angle([], [np.array([1.0, 0.0])]) == 0.0
        assert np.isinf(directed_hausdorff_angle([np.array([1.0, 0.0])], []))

    def test_symmetry_bound(self):
        a = [np.array([1.0, 0.0])]
        b = [np.array([0.0, 1.0])]
        assert np.isclose(hausdorff_angle(a, b), np.pi / 2)
