import io
import json
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaborwf.wavefront

from gaborwf.signal import (
    CATALOG,
    SampledDistribution,
    catalog_entry,
    catalog_names,
    default_grid,
    fourier_transform,
    make_grid,
)
from gaborwf.stft import STFT_FLOOR, Window, stft_points
from gaborwf.wavefront import (
    COMPACT_MASS,
    DEFAULT_N_THRESH,
    FREQUENCY_DIRS_2D,
    MAX_RAY_POINTS,
    TILT_LEVELS,
    WavefrontReport,
    _angles,
    _collapses,
    _components,
    _fit_rays,
    _merge,
    _sample_rays,
    angular_tolerance,
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


def csv_text(report):
    """The profile CSV that ``profiles_to_csv`` writes for ``report``."""
    buf = io.StringIO()
    profiles_to_csv(report, buf)
    return buf.getvalue()


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
        with pytest.raises(ValueError, match="r_max must exceed the first radius 1"):
            phase_space_rays(grid1, r_max=1.0)
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
        # the derived pitch of every sampling, pi for the 1-D frequency pair
        assert frequency_rays(grid1).angular_step == np.pi
        assert phase_space_rays(grid1).angular_step == ps2.angular_step / 8 == 2 * np.pi / 256
        assert len(frequency_rays(grid2).directions) == 32

    def test_ray_point_count_bounded(self, grid1, grid2):
        # each rejected sampling would hold millions of ray points; built
        # anyway, its radii and directions would take at most tens of MB
        for bad in (
            lambda: phase_space_rays(grid1, rho=1.00001),  # 359,416 radii
            lambda: frequency_rays(grid1, rho=1.000001),  # 3.6 million radii
            lambda: phase_space_rays(grid1, n_dirs=2**18),
            lambda: phase_space_rays(grid2, n_dirs=256),  # 197,120 directions
        ):
            with pytest.raises(ValueError, match=r"rho = .* n_dirs = .* ray points"):
                bad()
        assert len(phase_space_rays(grid2, n_dirs=64).directions) == 12416

    def test_degenerate_fit_rejected(self, grid1):
        u, _ = catalog_entry("dirac", None, grid1)
        tight = phase_space_rays(grid1, r_max=1.8)
        with pytest.raises(ValueError, match="degenerate fit"):
            estimate_gabor_wf(u, Window(0.5), tight)

    def test_threshold_positive(self, grid1, reports):
        u, _ = catalog_entry("dirac", None, grid1)
        rep = reports("dirac", 0.5)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="n_thresh"):
                estimate_gabor_wf(u, Window(0.5), n_thresh=bad)
            with pytest.raises(ValueError, match="n_thresh"):
                estimate_sigma(u, n_thresh=bad)
            with pytest.raises(ValueError, match="n_thresh"):
                rethreshold(rep, bad)


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

    def test_2d_phase_space(self, grid2):
        sampling = phase_space_rays(grid2)
        n, e = sampling.n_dirs, sampling.neighbors
        assert len(e) == 2 * n + (3 * TILT_LEVELS - 5) * n * n == 10304
        assert np.all(e[:, 0] < e[:, 1])
        assert np.array_equal(e, np.unique(e, axis=0))  # ascending, no repeats
        # an edge is one step on a circle or one step between tilt levels
        bound = max(sampling.angular_step, np.pi / 2 / (TILT_LEVELS - 1))
        ends = sampling.directions[e]
        angles = np.arccos(np.clip(np.sum(ends[:, 0] * ends[:, 1], axis=1), -1.0, 1.0))
        assert np.all(angles <= bound + 1e-9)
        assert len(_components(np.ones(len(sampling.directions), dtype=bool), e)) == 1


class TestSlicedSampling:
    """The sampler evaluates its radius-major points in slices of
    ``SLICE_POINTS``, which every kernel chunk divides: the values are those
    of one call over the same points, bit for bit, and the detection never
    holds all points at once."""

    @staticmethod
    def sliced_and_whole(u, window, sampling, pos_cap):
        """The number of slices, the sampled |V| in ray order, and |V| of one
        call over the concatenated slices, in the same order."""
        captured, sizes = [], []

        def running_index(points):
            sizes.append(len(points))
            return np.arange(sum(sizes) - len(points), sum(sizes))

        samples, _ = _sample_rays(sampling, u.grid, lambda p: captured.append(p) or stft_points(u, window, p), pos_cap)
        at = _sample_rays(sampling, u.grid, running_index, pos_cap)[0][:, 1].astype(int)
        whole = np.abs(stft_points(u, window, np.concatenate(captured)))
        return len(captured), samples[:, 1], whole[at]

    def test_box2d_default_sampling(self, grid2):
        u, _ = catalog_entry("box2d", None, grid2)
        calls, sliced, whole = self.sliced_and_whole(u, Window(1.0), phase_space_rays(grid2), position_cap(grid2))
        assert calls > 1
        assert sliced.tobytes() == whole.tobytes()

    def test_1d_box_at_n_512(self):
        # n = 512 splits into m = 16, n / m = 32
        g = make_grid(1, 512, 10.0)
        u, _ = catalog_entry("box", None, g)
        calls, sliced, whole = self.sliced_and_whole(u, Window(1.0), phase_space_rays(g, 16384), position_cap(g))
        assert calls > 1
        assert sliced.tobytes() == whole.tobytes()

    def test_detection_memory_peak(self, grid2):
        # the tracemalloc peak of the default box2d detection: 18.15 MB with
        # every point built and evaluated at once, about 10 MB in slices
        u, _ = catalog_entry("box2d", None, grid2)
        sampling = phase_space_rays(grid2)
        tracemalloc.start()
        try:
            estimate_gabor_wf(u, Window(1.0), sampling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestGaborDetection:
    def test_dirac_poles(self, reports):
        rep = reports("dirac", 1.0)
        assert pole_distance(rep, [(0, 1), (0, -1)]) <= STEP1

    def test_dirac_flagged_set_stays_inside_ten_degrees(self, reports):
        # derived from |V| = gaussian in x, constant in xi
        rep = reports("dirac", 1.0)
        for i in rep.flagged_indices():
            assert abs(rep.sampling.directions[i][0]) < np.sin(np.radians(10.0))

    def test_dirac_pole_profile_flat(self, reports):
        rep = reports("dirac", 1.0)
        pole = next(
            p for p, w in zip(rep.profiles, rep.sampling.directions) if abs(w[0]) < 1e-12 and w[1] > 0
        )
        assert abs(pole.slope) < 1e-6
        assert not pole.floor_hit

    def test_gaussian_empty(self, reports):
        assert reports("gaussian", 1.0).singular_dirs.shape == (0, 2)

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
        assert estimate_sigma(u).singular_dirs.shape == (0, 1)

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
        assert rep.singular_dirs.shape == (0, 1)

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

    def test_tolerance_below_a_right_angle(self, reports):
        # max |x| <= sin(ang_tol) is not monotone beyond pi/2, where the
        # check is vacuous anyway: 4.712 failed box, 3.0 and 7.0 passed it
        gabor, sigma = reports("box", 0.5), reports("box", kind="sigma")
        for bad in (np.pi / 2, 3.0, 4.712, 7.0, 1e308):
            with pytest.raises(ValueError, match=r"ang_tol must lie in \(0, pi/2\)"):
                check_main_theorem(gabor, sigma, bad)
            with pytest.raises(ValueError, match="ang_tol"):
                angular_tolerance(gabor.sampling, bad)
        widest = np.nextafter(np.pi / 2, 0)
        assert check_main_theorem(gabor, sigma, widest).ang_tol == widest


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

    def test_tolerance_positive(self, reports):
        # a tolerance below every gap would call any report smooth
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="ang_tol"):
                schwartz_direction_test(reports("dirac", 1.0), bad)


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
        for name in ("dirac", "box", "gaussian", "chirp", "bump"):
            rep = reports(name, 0.5)
            prev_flagged = set(rep.flagged_indices())
            prev_singular = dirs_of(rep)
            for thresh in (1.5, 0.75, 0.3):
                lowered = rethreshold(rep, thresh)
                cur = set(lowered.flagged_indices())
                assert cur <= prev_flagged, (name, thresh)
                if len(lowered.singular_dirs):
                    gap = directed_hausdorff_angle(dirs_of(lowered), prev_singular)
                    assert gap <= STEP1 + 1e-9, (name, thresh)
                prev_flagged = cur
                if len(lowered.singular_dirs):
                    prev_singular = dirs_of(lowered)

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.lists(st.floats(0.0, 2.5, exclude_min=True), min_size=2, max_size=2))
    def test_flagged_sets_nested(self, reports, grid1, thresholds):
        # flags only drop as the threshold drops, and every reported
        # direction is a flagged one
        low, high = sorted(thresholds)
        for name in (n for n in catalog_names() if CATALOG[n].dims[0] == 1):
            rep = reports(name, 0.5)
            lowered, raised = rethreshold(rep, low), rethreshold(rep, high)
            assert set(lowered.flagged_indices()) <= set(raised.flagged_indices()), name
            flagged = {tuple(rep.sampling.directions[i]) for i in lowered.flagged_indices()}
            reported = np.vstack([lowered.singular_dirs, lowered.isolated])
            assert {tuple(z) for z in reported} <= flagged, name

    def test_window_stability_1d(self, reports):
        for name in ("dirac", "dirac_derivative", "gaussian", "hermite", "box", "bump", "chirp"):
            sets = [dirs_of(reports(name, lam)) for lam in (0.5, 1.0, 2.0)]
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    if not sets[i] and not sets[j]:
                        continue
                    assert hausdorff_angle(sets[i], sets[j]) <= STEP1 + 1e-9, name

    @settings(max_examples=20, deadline=None, database=None)
    @given(st.integers(-5, 5), st.integers(-16, 16), st.floats(0.7, 2.0))
    def test_translation_modulation_covariance(self, grid1, shift_cells, modulation, lam):
        # on-grid shifts and dual-grid modulations.  A translation tilts the
        # finite-aperture cone by arctan(x0 / r), so the shift is kept at most
        # 5 cells (0.20 in position units) and lam at least 0.7: a 6-cell
        # shift tilts box by two steps at lam = 0.7 and 0.9, and at lam = 0.5.
        # A modulation moves along the singular directions (0, +-1) and tilts
        # nothing
        w = Window(lam)
        xi0 = modulation * 2 * np.pi / grid1.length
        for name in ("dirac", "box"):
            u, _ = catalog_entry(name, None, grid1)
            moved = SampledDistribution(
                grid1,
                np.roll(u.samples, shift_cells) * np.exp(1j * xi0 * grid1.axis()),
                kind=u.kind,
            )
            a = estimate_gabor_wf(u, w)
            b = estimate_gabor_wf(moved, w)
            assert hausdorff_angle(dirs_of(a), dirs_of(b)) <= STEP1 + 1e-9, name

    @settings(max_examples=20, deadline=None, database=None)
    @given(st.integers(-5, 5), st.integers(-16, 16), st.floats(0.7, 2.0))
    def test_symplectic_rotation_under_fourier(self, grid1, shift_cells, modulation, lam):
        # directions of the transform are the J-rotation of the original's,
        # for shifted and modulated entries too (the shifts are bounded as in
        # the covariance test); lam is admitted on the grid and on its dual,
        # whose spacing is 2 pi / L
        J = np.array([[0.0, 1.0], [-1.0, 0.0]])
        xi0 = modulation * 2 * np.pi / grid1.length
        for name in ("dirac", "box"):
            u, _ = catalog_entry(name, None, grid1)
            moved = np.roll(u.samples, shift_cells) * np.exp(1j * xi0 * grid1.axis())
            u = SampledDistribution(grid1, moved, kind=u.kind)
            du = estimate_gabor_wf(u, Window(lam))
            duh = estimate_gabor_wf(fourier_transform(u), Window(lam))
            rotated = [J @ np.array(z) for z in du.singular_dirs]
            assert hausdorff_angle(rotated, dirs_of(duh)) <= STEP1 + 1e-9, name

    def test_isolated_jitter_is_reported_separately(self, grid1, rng):
        # a lone flag whose slope sits close to the threshold is jitter and
        # must land in `isolated`, not in the singular set
        vals = rng.standard_normal(grid1.n) + 1j * rng.standard_normal(grid1.n)
        u = SampledDistribution(grid1, vals)
        rep = estimate_gabor_wf(u, Window(1.0))
        slopes = [p.slope for p in rep.profiles]
        target = None
        for i, s in enumerate(slopes):
            if not np.isfinite(s) or s <= 0:
                continue
            neighbors = [j for a, b in rep.sampling.neighbors if i in (a, b) for j in (a, b) if j != i]
            if all(slopes[j] > s * 1.05 for j in neighbors):
                target = s * 1.05
                break
        assert target is not None
        forced = rethreshold(rep, target)
        assert len(forced.isolated)
        for d in forced.isolated:
            assert not (forced.singular_dirs == d).all(axis=1).any()


class TestRethreshold:
    @pytest.mark.parametrize("thresh", [1.5, 0.75])
    def test_reflagging_equals_detecting_afresh(self, reports, thresh):
        # stored evidence re-flagged at a threshold writes what a detection
        # run at that threshold writes
        for name, kind in (("dirac", "gabor"), ("box", "gabor"), ("chirp", "gabor"), ("box", "sigma")):
            again = rethreshold(reports(name, 0.5, kind), thresh)
            fresh = reports(name, 0.5, kind, n_thresh=thresh)
            assert report_to_json(again) == report_to_json(fresh), (name, kind)
            assert csv_text(again) == csv_text(fresh), (name, kind)


    @pytest.mark.parametrize("thresh", [1e200, 1e308])
    def test_huge_threshold_keeps_the_arc_axis(self, reports, thresh):
        # every ray that does not hit the floor is flagged alike at 1e20 and
        # beyond; the arc-axis weights, each about n_thresh / 4, overflowed
        # their norm and gave the pole arcs a tilted axis from NaN angles
        rep = reports("dirac", 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = rethreshold(rep, thresh)
        assert np.array_equal(huge.singular_dirs, rethreshold(rep, 1e20).singular_dirs)
        assert np.array_equal(huge.singular_dirs, rep.singular_dirs)  # the two poles

# admits window widths 4h = 0.5 to L/8 = 2
GRID_2D_SMALL = make_grid(2, 128, 8.0)


def generated_2d(kind, angle, shift, size):
    """A 2-D input on ``GRID_2D_SMALL``: the box ``|p| <= size``, ``|q| <=
    0.6 size`` or the disc ``p^2 + q^2 <= size^2`` plus a gaussian off its
    centre, or a ridge two cells wide along ``q = 0`` under a gaussian
    envelope; ``(p, q)`` are the coordinates rotated by ``angle`` about
    ``shift``."""
    grid = GRID_2D_SMALL
    x, y = np.meshgrid(grid.axis() - shift[0], grid.axis() - shift[1], indexing="ij")
    p, q = np.cos(angle) * x + np.sin(angle) * y, np.cos(angle) * y - np.sin(angle) * x
    if kind == "rotated-box":
        vals = (np.abs(p) <= size) & (np.abs(q) <= 0.6 * size)
    elif kind == "disc":
        vals = (p**2 + q**2 <= size**2) + 0.5 * np.exp(-((x - 1.0) ** 2 + (y + 0.5) ** 2) / 2)
    else:
        vals = np.exp(-((q / grid.spacing) ** 2) - (p / (2 * size)) ** 2)
    return SampledDistribution(grid, vals.astype(complex))


def full_report(u, window, n_thresh=DEFAULT_N_THRESH, sampling=None):
    """Oracle: the phase-space report of every ray of ``sampling``, by
    default the grid's default one, evaluated in one sampler pass at the
    position cap of the detection."""
    sampling = phase_space_rays(u.grid) if sampling is None else sampling
    pos_cap = position_cap(u.grid, window.lam, u.central_mass_fraction() >= COMPACT_MASS)
    evidence = _sample_rays(sampling, u.grid, lambda p: stft_points(u, window, p), pos_cap)
    return WavefrontReport("gabor", sampling, *evidence, n_thresh, window.lam)


class TestCoarseToFine:
    """The 2-D phase-space detection descends through the strides 4, 2 and
    1, evaluating the rays of each finer level near a ray close to the
    threshold, and the neighbours of every flag: its flags, singular
    directions and isolated flags are those of the full sampling, from the
    same samples."""

    @settings(max_examples=10, deadline=None, database=None)
    @given(
        st.sampled_from(("box2d", "line_delta_2d", "rotated-box", "disc", "ridge")),
        st.floats(0.0, np.pi / 2),
        st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
        st.floats(0.8, 2.5),
        st.floats(0.5, 2.0),
        st.sampled_from((1.5, 2.5)),
    )
    def test_same_verdict_as_the_full_sampling(self, kind, angle, shift, size, lam, n_thresh):
        if kind in CATALOG:
            u = catalog_entry(kind, None, GRID_2D_SMALL)[0]
        else:
            u = generated_2d(kind, angle, shift, size)
        window = Window(lam)
        rep, full = estimate_gabor_wf(u, window, n_thresh=n_thresh), full_report(u, window, n_thresh)
        assert rep.flagged_indices() == full.flagged_indices()
        assert np.array_equal(rep.singular_dirs, full.singular_dirs)
        assert np.array_equal(rep.isolated, full.isolated)
        assert len(rep.evaluated) < len(full.evaluated)
        rows = np.concatenate([np.arange(full.offsets[i], full.offsets[i + 1]) for i in rep.evaluated])
        want, got = full.samples[rows], rep.samples
        assert np.array_equal(got[:, 0], want[:, 0])
        err = np.abs(got[:, 1] - want[:, 1])
        assert np.all((err <= 1e-13) | (err <= 1e-12 * want[:, 1]))

    @staticmethod
    def kernel_calls_and_fits(monkeypatch, kernel, detect, *args):
        """The report of ``detect(*args)`` with the point count of each call
        of the kernel ``kernel`` and the ray count of each decay fit."""
        calls, fits = [], []
        evaluate, fit_rays = getattr(gaborwf.wavefront, kernel), gaborwf.wavefront._fit_rays
        monkeypatch.setattr(gaborwf.wavefront, kernel, lambda *a: calls.append(len(a[-1])) or evaluate(*a))
        monkeypatch.setattr(gaborwf.wavefront, "_fit_rays", lambda *a: fits.append(len(a[1]) - 1) or fit_rays(*a))
        return detect(*args), calls, fits

    def test_a_1d_detection_is_one_round(self, grid1, monkeypatch):
        # every ray of the 1-D circle is on the coarsest level: one kernel
        # call for its 6,078 points and one fit of all 256 rays, the
        # report's; the arc axes refit only their own members
        u, _ = catalog_entry("box", None, grid1)
        rep, calls, fits = self.kernel_calls_and_fits(monkeypatch, "stft_points", estimate_gabor_wf, u, Window(0.5))
        assert np.array_equal(rep.evaluated, np.arange(256))
        assert calls == [len(rep.samples)] and fits.count(256) == 1

    @pytest.mark.parametrize("name, rays", [("box", 2), ("box2d", FREQUENCY_DIRS_2D)])
    def test_a_frequency_detection_is_one_round(self, grid1, grid2, monkeypatch, name, rays):
        # the 1-D and 2-D frequency samplings are one level too: one NUDFT
        # call and one fit of every ray
        u, _ = catalog_entry(name, None, grid2 if name == "box2d" else grid1)
        rep, calls, fits = self.kernel_calls_and_fits(monkeypatch, "nudft", estimate_sigma, u)
        assert np.array_equal(rep.evaluated, np.arange(rays))
        assert calls == [len(rep.samples)] and fits.count(rays) == 1

    @pytest.mark.parametrize(
        "case",
        [
            ("ridge", 0.3511, (1.0989, 0.7206), 0.9306, 1.6774),
            ("ridge", 0.4337, (-0.7751, 1.4079), 1.1142, 1.9185),
            ("line_delta_2d",),
        ],
        ids=["ridge-5.77", "ridge-7.36", "line_delta_2d"],
    )
    def test_near_misses_of_a_narrower_margin(self, case):
        # the stride-4 rays nearest a flag read a slope of about 5.76 at any
        # threshold: after stride 4, seeds at 2 n_thresh miss the flags
        # 3941-3943 of line_delta_2d on 36 directions per circle, seeds at
        # 3 n_thresh the first ridge's, whose nearest stride-4 rays read
        # 5.74-5.77 at n_thresh 1.5, and seeds at n_thresh + 5 the second
        # ridge's, whose nearest read 7.36.  SEED_MARGINS finds all three
        if case[0] == "ridge":
            u, lam, n_thresh = generated_2d(*case[:4]), case[4], 1.5
            sampling = phase_space_rays(u.grid)
        else:
            u, lam, n_thresh = catalog_entry(case[0], None, default_grid(case[0]))[0], 1.0, DEFAULT_N_THRESH
            sampling = phase_space_rays(u.grid, 36)
        window = Window(lam)
        rep = estimate_gabor_wf(u, window, sampling, n_thresh)
        full = full_report(u, window, n_thresh, sampling)
        assert full.flagged_indices()
        assert rep.flagged_indices() == full.flagged_indices()
        assert np.array_equal(rep.singular_dirs, full.singular_dirs)
        assert np.array_equal(rep.isolated, full.isolated)

    @pytest.fixture(scope="class")
    def box2d_reports(self):
        u, _ = catalog_entry("box2d", None, GRID_2D_SMALL)
        return estimate_gabor_wf(u, Window(1.0)), full_report(u, Window(1.0))

    @pytest.mark.parametrize("thresh", [2.5 + 1e-9, 1e308])
    def test_rethreshold_above_the_report_raises(self, box2d_reports, thresh):
        rep, _ = box2d_reports
        with pytest.raises(ValueError, match=re.escape(f"n_thresh {thresh} exceeds the threshold 2.5")):
            rethreshold(rep, thresh)

    @pytest.mark.parametrize("thresh", [2.5, 2.0, 1.5, 0.75])
    def test_rethreshold_below_the_report_is_exact(self, box2d_reports, thresh):
        rep, full = box2d_reports
        lowered, oracle = rethreshold(rep, thresh), rethreshold(full, thresh)
        assert set(lowered.flagged_indices()) <= set(rep.flagged_indices())
        assert lowered.flagged_indices() == oracle.flagged_indices()
        assert np.array_equal(lowered.singular_dirs, oracle.singular_dirs)
        assert np.array_equal(lowered.isolated, oracle.isolated)


class TestReportProfiles:
    @pytest.mark.parametrize("name, kind", [("dirac", "gabor"), ("box", "sigma")])
    def test_profiles_are_the_read_only_fits_of_the_samples(self, reports, name, kind):
        rep = reports(name, 0.5, kind)
        fits = _fit_rays(rep.samples, rep.offsets)
        for field in ("slope", "residual", "floor_hit"):
            assert np.array_equal(rep.profiles[field], fits[field]), field
        # records read as attributes, as the benchmark's tracer reads them
        assert [p.floor_hit for p in rep.profiles] == fits.floor_hit.tolist()
        for array in (rep.profiles, rep.profiles.slope, rep.samples, rep.offsets):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rep.profiles[0] = (0.0, 0.0, False)


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

    def test_csv_profile_dump(self, reports, grid2):
        # one row per sample, ray by ray, every number as its repr: dirac's
        # 6,078 rows repeat 764 |V| values, and the synthetic 2-D report's
        # r**-5 on every ray fills several 8,192-row slices with repeats
        sampling = phase_space_rays(grid2)
        synthetic = synthetic_report(sampling, [(5.0, None)] * len(sampling.directions))
        for rep in (reports("dirac", 0.5), synthetic):
            rows = [
                f"{i},{r!r},{v!r}"
                for i in range(len(rep.profiles))
                for r, v in rep.samples[rep.offsets[i] : rep.offsets[i + 1]].tolist()
            ]
            assert csv_text(rep) == "\n".join(["dir_index,r,abs_V", *rows]) + "\n", rep.kind


class TestHausdorffHelpers:
    def test_directed_empty_conventions(self):
        assert directed_hausdorff_angle([], [np.array([1.0, 0.0])]) == 0.0
        assert np.isinf(directed_hausdorff_angle([np.array([1.0, 0.0])], []))

    def test_symmetry_bound(self):
        a = [np.array([1.0, 0.0])]
        b = [np.array([0.0, 1.0])]
        assert np.isclose(hausdorff_angle(a, b), np.pi / 2)


def lstsq_fit(ray):
    """Oracle: the least-squares decay order of one ``(k, 2)`` ray of
    (radius, |V|) rows over its top half, fitted on its own."""
    rr, vv = ray[len(ray) // 2 :].T
    if len(rr) < 4:
        raise ValueError("degenerate fit: fewer than 4 usable radii in the fit window")
    if np.min(vv) < STFT_FLOOR:
        return np.inf, 0.0, True
    lr, lv = np.log(rr), np.log(vv)
    A = np.column_stack([lr, np.ones_like(lr)])
    sol, *_ = np.linalg.lstsq(A, lv, rcond=None)
    resid = lv - A @ sol
    return float(-sol[0]), float(np.sqrt(np.mean(resid**2))), False


# a ray: a geometric ladder r_min * rho**k and one |V| per rung, e**t for t
# in [-38, 7]: about one value in eight lies under the 1e-14 floor (e**-32.2),
# and t under -37.9 gives an exact zero
ABS_V = st.floats(-38.0, 7.0).map(lambda t: np.exp(t) if t > -37.9 else 0.0)
RAY = st.integers(7, 40).flatmap(
    lambda k: st.tuples(st.floats(1.0, 3.0), st.floats(1.05, 1.5), st.lists(ABS_V, min_size=k, max_size=k))
)


def ray_layout(rays):
    """The flat ``(P, 2)`` samples and offsets of ``(r_min, rho, values)`` rays."""
    blocks = [np.column_stack([r_min * rho ** np.arange(len(v)), v]) for r_min, rho, v in rays]
    offsets = np.concatenate([[0], np.cumsum([len(b) for b in blocks])])
    return np.vstack(blocks), offsets


class TestFitRays:
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(RAY, min_size=1, max_size=12))
    def test_matches_per_ray_lstsq(self, rays):
        samples, offsets = ray_layout(rays)
        fits = _fit_rays(samples, offsets)
        slope, residual, floor_hit = fits.slope, fits.residual, fits.floor_hit
        for i in range(len(rays)):
            s, res, hit = lstsq_fit(samples[offsets[i] : offsets[i + 1]])
            assert floor_hit[i] == hit, i
            if hit:
                assert slope[i] == np.inf and residual[i] == 0.0, i
            else:
                assert abs(slope[i] - s) <= 1e-12 * (1 + abs(s)), i
                assert abs(residual[i] - res) <= 1e-12 * (1 + res), i

    @settings(max_examples=50, deadline=None, database=None)
    @given(st.lists(RAY, min_size=1, max_size=6), st.integers(1, 6), st.data())
    def test_short_window_raises(self, rays, short, data):
        # a ray of 6 or fewer radii has a fit window of 3 or fewer
        rays.insert(data.draw(st.integers(0, len(rays))), (1.0, 1.15, [1.0] * short))
        with pytest.raises(ValueError, match="degenerate fit"):
            _fit_rays(*ray_layout(rays))


def synthetic_report(sampling, rays, n_thresh=DEFAULT_N_THRESH):
    """A report whose ray of ``(s, values)`` fits to slope ``s``: the ray
    holds ``(r, values(r))`` on the first ``len(values(r))`` rungs of the
    radius ladder ``r``, or ``(r, r**-s)`` on all of it where ``values`` is
    None.  No signal is sampled."""
    r = sampling.radii
    blocks = []
    for s, values in rays:
        v = r**-s if values is None else values(r)
        blocks.append(np.column_stack([r[: len(v)], v]))
    offsets = np.concatenate([[0], np.cumsum([len(b) for b in blocks])])
    kind = "gabor" if sampling.space == "phase" else "sigma"
    report = WavefrontReport(kind, sampling, np.vstack(blocks), offsets, n_thresh, None)
    np.testing.assert_allclose(report.profiles.slope, [s for s, _ in rays], rtol=0, atol=1e-12)
    return report


def indices_of(dirs, sampling):
    """Sampling index of each reported direction, in reported order."""
    return [int(np.flatnonzero((sampling.directions == z).all(axis=1))[0]) for z in dirs]


def torus(t, i, j):
    """Index of the torus point ``(t, i, j)`` of the default 2-D phase-space
    sampling: 32 position directions come first, then 32 x 32 per torus."""
    return 32 + 1024 * t + 32 * i + j


# sampling, {direction index: slope or (slope, values)} of the flagged rays
# (every other ray has slope 5; see synthetic_report), singular indices,
# isolated indices; all at n_thresh 2.5 on the default samplings: "phase" is
# the 1-D phase-space circle of 256 directions, "phase-2d" the 2-D
# phase-space sphere of 32 + 3 x 1024 + 32 directions
MERGE_TABLE = {
    # a lone flag is singular up to 0.75 * 2.5 = 1.875 and isolated above
    "lone-flag-below-ratio": ("phase", {100: 1.7}, [100], []),
    "lone-flag-above-ratio": ("phase", {100: 2.0}, [], [100]),
    # the core margin 0.25 * (2.5 - 0) keeps only the s = 0 member; a margin
    # of 0.5 * 2.5 would take in the s = 1 members and pull the axis to 11
    "arc-core-margin": ("phase", {10: 0.0, 11: 1.0, 12: 1.0, 13: 1.0, 14: 1.0}, [10], []),
    # two equally deep core members: the axis is their midpoint, equally near
    # both, and the tie goes to the smaller index
    "even-core-tie": ("phase", {20: 1.0, 21: 0.0, 22: 0.0, 23: 1.0}, [21], []),
    # pi / 3 is 42.67 steps: 43 members span 42 steps and collapse to their
    # middle member; 44 members span 43 steps and form an extended cone
    "arc-42-steps": ("phase", dict.fromkeys(range(30, 73), 1.0), [51], []),
    "cone-43-steps": ("phase", dict.fromkeys(range(30, 74), 1.0), list(range(30, 74)), []),
    # S^0 has no neighbours: every flag is singular, even near the threshold
    "frequency-pair": ("frequency", {0: 1.0, 1: 2.4}, [0, 1], []),
    # members cut by different caps: ray 10 holds all 26 radii, flat on the
    # 12 it shares with rays 11-14 and falling as r**-2 beyond, so its own
    # fit gives 2; refitted on the shared radii it gives 0 and is the axis.
    # Ranked by the profile slopes or by each ray's own fit, 11-14 would be
    # the core and the axis 12
    "mixed-caps": (
        "phase",
        {
            10: (2.0, lambda r: np.minimum(1.0, (r / r[11]) ** -2.0)),
            **dict.fromkeys(range(11, 15), (1.0, lambda r: r[:12] ** -1.0)),
        },
        [10],
        [],
    ),
    # 2-D torus adjacency: each pair below is adjacent through one edge
    # family only, and joined collapses to its deeper member; apart, both
    # are lone flags under 1.875 and singular
    "torus-wrap": ("phase-2d", {torus(0, 5, 0): 1.5, torus(0, 5, 31): 0.5}, [torus(0, 5, 31)], []),
    "torus-next-tilt": ("phase-2d", {torus(0, 5, 7): 1.5, torus(1, 5, 7): 0.5}, [torus(1, 5, 7)], []),
    "position-fiber": ("phase-2d", {5: 1.5, torus(0, 5, 20): 0.5}, [torus(0, 5, 20)], []),
    # frequency point j comes after the tori, at 32 + 3 x 1024 + j
    "frequency-fiber": ("phase-2d", {torus(2, 9, 20): 0.5, 3104 + 20: 1.5}, [torus(2, 9, 20)], []),
}


def bfs_components(flagged, neighbors):
    """Oracle: the flagged directions reached breadth first from each
    unreached flagged direction in ascending order, members ascending."""
    adjacent = [[] for _ in flagged]
    for a, b in neighbors.tolist():
        if flagged[a] and flagged[b]:
            adjacent[a].append(b)
            adjacent[b].append(a)
    reached, components = set(), []
    for start in np.flatnonzero(flagged).tolist():
        if start in reached:
            continue
        reached.add(start)
        queue = [start]
        for i in queue:
            for j in adjacent[i]:
                if j not in reached:
                    reached.add(j)
                    queue.append(j)
        components.append(sorted(queue))
    return components


def pi_third_partners(dirs):
    """partners[i]: the later rows of ``dirs`` at cosine 0.5 from row i,
    pi / 3 from it in exact arithmetic."""
    return [i + 1 + np.flatnonzero(np.abs(dirs[i + 1 :] @ w - 0.5) < 1e-9) for i, w in enumerate(dirs)]


class TestMergeRules:
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        st.sampled_from(("phase", "phase-2d", "frequency-2d")),
        st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_components_match_breadth_first(self, grid1, grid2, space, density, seed):
        # density 0 flags nothing and density 1 everything
        sampling = {
            "phase": lambda: phase_space_rays(grid1),
            "phase-2d": lambda: phase_space_rays(grid2),
            "frequency-2d": lambda: frequency_rays(grid2),
        }[space]()
        flagged = np.random.default_rng(seed).random(len(sampling.directions)) < density
        assert _components(flagged, sampling.neighbors) == bfs_components(flagged, sampling.neighbors)

    def test_all_flagged_largest_1d_sampling_merges_in_bounded_memory(self, grid1):
        # 599,184 directions of 7 radii, the most MAX_RAY_POINTS admits, all
        # flagged: one component, the whole circle, an extended cone.  Its
        # pairwise angle matrix would take 2.9 TB; the merge's tracemalloc
        # peak is about 58 MB, mostly the component's labels, edges and lists
        n = MAX_RAY_POINTS // 7 // 4 * 4
        sampling = phase_space_rays(grid1, n, r_max=1.8, rho=1.1)
        assert len(sampling.radii) == 7
        with pytest.raises(ValueError, match="ray points"):
            phase_space_rays(grid1, n + 4, r_max=1.8, rho=1.1)
        fits = np.rec.fromarrays([np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)], names="slope,residual,floor_hit")
        # the fields _merge reads; a real report would hold 4.2 M samples
        report = types.SimpleNamespace(sampling=sampling, profiles=fits, n_thresh=2.5, evaluated=np.arange(n))
        tracemalloc.start()
        try:
            singular, isolated = _merge(report)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(singular, sampling.directions) and not len(isolated)
        assert peak < 80e6

    def test_exact_pi_third_pairs_collapse(self, grid2):
        # rounding puts 10,428 of these pairs above ARC_COLLAPSE_ANGLE; the
        # rule _merge applies takes each pair as one arc all the same
        dirs = phase_space_rays(grid2).directions
        pairs = [(i, j) for i, js in enumerate(pi_third_partners(dirs)) for j in js.tolist()]
        assert len(pairs) == 30720
        assert all(_collapses([i, j], dirs) for i, j in pairs)

    @pytest.mark.parametrize("row", MERGE_TABLE)
    def test_verdict(self, grid1, grid2, row):
        space, flagged, singular, isolated = MERGE_TABLE[row]
        sampling = {
            "phase": lambda: phase_space_rays(grid1),
            "frequency": lambda: frequency_rays(grid1),
            "phase-2d": lambda: phase_space_rays(grid2),
        }[space]()
        rays = [flagged.get(i, 5.0) for i in range(len(sampling.directions))]
        rep = synthetic_report(sampling, [ray if isinstance(ray, tuple) else (ray, None) for ray in rays])
        assert indices_of(rep.singular_dirs, sampling) == singular
        assert indices_of(rep.isolated, sampling) == isolated


def pair_angle(a, b):
    """The angle of one pair through np.dot and np.linalg.norm."""
    return np.arccos(np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))


class TestAngles:
    def test_bit_equal_to_per_pair_formula_1d(self, grid1):
        dirs = phase_space_rays(grid1).directions
        expected = np.array([[pair_angle(a, b) for b in dirs] for a in dirs])
        assert np.array_equal(_angles(dirs, dirs), expected)

    def test_bit_equal_on_exact_pi_third_pairs_2d(self, grid2):
        # pairs such as (1, 0, 0, 0) and (.5, .5, .7071, 0) are pi / 3 apart
        # in exact arithmetic, so rounding alone places them on either side
        # of ARC_COLLAPSE_ANGLE
        dirs = phase_space_rays(grid2).directions
        partners = pi_third_partners(dirs)
        assert sum(map(len, partners)) == 30720
        got = np.concatenate([_angles(dirs[i : i + 1], dirs[js])[0] for i, js in enumerate(partners)])
        expected = [pair_angle(dirs[i], dirs[j]) for i, js in enumerate(partners) for j in js]
        assert np.array_equal(got, expected)
