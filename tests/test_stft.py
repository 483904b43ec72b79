import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from gaborwf.signal import (
    MAX_GRID_SAMPLES,
    SLICE_POINTS,
    SPLIT_EXPONENT_BOUND,
    WINDOW_REACH,
    SampledDistribution,
    axis_split,
    catalog_entry,
    chunk_points,
    make_grid,
    nudft,
    mirror_index,
    outer_per_axis,
    phase_table,
    separable_sum,
)
from gaborwf.stft import Window, moyal_reconstruct, stft_at, stft_points, stft_slice
from gaborwf.wavefront import _sample_rays, frequency_cap, phase_space_rays, position_cap


def quad_stft(f, lam, x0, xi0, lo, hi):
    """Oracle: adaptive quadrature of int f(y) psibar(y - x0) exp(-i y xi0) dy."""

    def integrand(y):
        win = (np.pi * lam**2) ** -0.25 * np.exp(-((y - x0) ** 2) / (2 * lam**2))
        return f(y) * win * np.exp(-1j * y * xi0)

    re = quad(lambda y: np.real(integrand(y)), lo, hi, limit=400)[0]
    im = quad(lambda y: np.imag(integrand(y)), lo, hi, limit=400)[0]
    return re + 1j * im


class TestWindow:
    def test_norm_is_one_on_grid(self, grid1):
        for lam in (0.16, 0.5, 1.0, 2.0):
            w = Window(lam)
            prof = w.axis_values(grid1.axis())
            assert abs(np.sum(prof**2) * grid1.spacing - 1.0) < 1e-10, lam

    def test_resolvability_enforced(self, grid1):
        u, _ = catalog_entry("gaussian", None, grid1)
        with pytest.raises(ValueError, match="resolvable"):
            stft_at(u, Window(0.1), (0.0, 0.0))
        with pytest.raises(ValueError, match="resolvable"):
            stft_at(u, Window(6.0), (0.0, 0.0))

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            Window(1.0, cutoff=(6.0, 4.0))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_width_and_cutoff(self, bad):
        # an infinite support would make the plateau 1 everywhere, a window
        # that is not compactly supported
        for lam, cutoff in ((bad, None), (bad, (2.0, 4.0)), (1.0, (2.0, bad)), (1.0, (bad, 4.0))):
            with pytest.raises(ValueError):
                Window(lam, cutoff)

    def test_cutoff_window_support(self, grid1):
        w = Window(0.16, cutoff=(4.0, 6.0))
        y = grid1.axis()
        vals = w.axis_values(y)
        assert np.all(vals[np.abs(y) > 6 * 0.16] == 0.0)
        assert vals[grid1.n // 2] > 0

    def test_phase_point_validation(self, grid1):
        u, _ = catalog_entry("gaussian", None, grid1)
        with pytest.raises(ValueError, match="dim"):
            stft_at(u, Window(1.0), (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            stft_at(u, Window(1.0), (np.inf, 0.0))
        with pytest.raises(ValueError, match="finite"):
            stft_points(u, Window(1.0), [[0.0, 1.0], [0.5, np.nan]])

    @pytest.mark.parametrize("dim", [1, 2])
    def test_overflowing_phase_is_rejected(self, dim):
        # at L = 40 the phase xi y of the grid overflows once |xi| L/2 does,
        # from |xi| = 8.99e306 on, where both kernels returned NaN
        g = make_grid(dim, 1024 if dim == 1 else 128, 20.0)
        u, _ = catalog_entry("box" if dim == 1 else "box2d", None, g)
        for axis in range(dim):
            def points(xi):
                freq = np.full((1, dim), 0.3)
                freq[0, axis] = xi
                return freq, np.hstack([np.full((1, dim), 0.5), freq])

            for xi in (1e307, -1e307):
                freq, phase = points(xi)
                with pytest.raises(ValueError, match=r"\|xi\| L/2 at most 1.79769e\+308"):
                    nudft(u, freq)
                with pytest.raises(ValueError, match=r"\|xi\| L/2 at most 1.79769e\+308"):
                    stft_points(u, Window(2.0), phase)
            for xi in (8.9e306, 1e300, -1e300):
                freq, phase = points(xi)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    values = np.concatenate([nudft(u, freq), stft_points(u, Window(2.0), phase)])
                assert np.all(np.isfinite(values))


class TestStftAt:
    def test_dirac_closed_form_random_points(self, grid1, rng):
        dirac, _ = catalog_entry("dirac", None, grid1)
        w = Window(1.0)
        pts = np.column_stack([rng.uniform(-9, 9, 200), rng.uniform(-36, 36, 200)])
        vals = np.abs(stft_points(dirac, w, pts))
        exact = (np.pi * 1.0) ** -0.25 * np.exp(-(pts[:, 0] ** 2) / 2)
        assert np.max(np.abs(vals - exact)) < 1e-8

    def test_dirac_modulus_independent_of_frequency(self, grid1):
        dirac, _ = catalog_entry("dirac", None, grid1)
        w = Window(1.0)
        mags = [abs(stft_at(dirac, w, (0.7, xi))) for xi in (-20.0, -3.3, 0.0, 11.1)]
        assert np.ptp(mags) < 1e-12

    def test_matched_gaussian_peak(self, grid1):
        u, _ = catalog_entry("gaussian", None, grid1)
        w = Window(1.0)
        assert abs(stft_at(u, w, (0.0, 0.0)) - 1.0) < 1e-8

    def test_gaussian_modulus_closed_form(self, grid1):
        u, _ = catalog_entry("gaussian", None, grid1)
        w = Window(1.0)
        for x, xi in ((0.5, 1.0), (2.0, -3.0), (-1.5, 0.25)):
            val = abs(stft_at(u, w, (x, xi)))
            assert abs(val - np.exp(-(x**2 + xi**2) / 4)) < 1e-7

    def test_against_quadrature_oracle(self, grid1):
        u, _ = catalog_entry("gaussian", None, grid1)
        w = Window(1.0)
        for x, xi in ((1.2, 2.3), (-0.4, 7.7)):
            oracle = quad_stft(lambda y: np.pi**-0.25 * np.exp(-(y**2) / 2), 1.0, x, xi, -20, 20)
            assert abs(stft_at(u, w, (x, xi)) - oracle) < 1e-9

    def test_accepts_phase_point(self, grid1):
        # a phase point is any flat (x, xi) sequence; stft_at is one row of stft_points
        u, _ = catalog_entry("gaussian", None, grid1)
        w = Window(1.0)
        a = stft_at(u, w, np.array([0.5, 1.5]))
        b = stft_at(u, w, (0.5, 1.5))
        assert a == b == stft_points(u, w, [[0.5, 1.5]])[0]


class TestStftSlice:
    def test_matches_pointwise_at_dual_frequencies(self, grid1, rng):
        vals = rng.standard_normal(grid1.n) + 1j * rng.standard_normal(grid1.n)
        u = SampledDistribution(grid1, vals)
        w = Window(1.0)
        sl = stft_slice(u, w, 0.7)
        xi = grid1.dual_axis()
        ks = rng.integers(0, grid1.n, size=100)
        pts = np.column_stack([np.full(100, 0.7), xi[ks]])
        direct = stft_points(u, w, pts)
        assert np.max(np.abs(sl[ks] - direct)) < 1e-10

    def test_dirac_slice_constant_modulus(self, grid1):
        dirac, _ = catalog_entry("dirac", None, grid1)
        sl = stft_slice(dirac, Window(1.0), 0.0)
        assert np.ptp(np.abs(sl)) < 1e-12
        assert abs(abs(sl[0]) - np.pi**-0.25) < 1e-12

    def test_box_slice_beyond_support_is_tail_small(self, grid1):
        box, _ = catalog_entry("box", None, grid1)
        w = Window(1.0)
        peak = np.max(np.abs(stft_slice(box, w, 0.0)))
        far = np.max(np.abs(stft_slice(box, w, 1.0 + 3.0)))
        assert far <= np.exp(-4.5) * peak


class TestDenseOracle:
    """``stft_points`` against the dense sum
    ``sum_j u(y_j) psi(y_j - x) exp(-i<xi, y_j>) h^d`` with the window built
    on the full grid."""

    def test_2d_matches_dense_sum(self, grid2, rng):
        lam = 0.8
        u = SampledDistribution(grid2, rng.standard_normal(grid2.shape) + 1j * rng.standard_normal(grid2.shape))
        pts = np.column_stack([rng.uniform(-4, 4, (12, 2)), rng.uniform(-15, 15, (12, 2))])
        y1, y2 = grid2.meshes()
        dense = []
        for x1, x2, xi1, xi2 in pts:
            psi = np.exp(-((y1 - x1) ** 2 + (y2 - x2) ** 2) / (2 * lam**2)) / (np.sqrt(np.pi) * lam)
            dense.append(np.sum(u.samples * psi * np.exp(-1j * (xi1 * y1 + xi2 * y2))) * grid2.spacing**2)
        got = stft_points(u, Window(lam), pts)
        assert np.max(np.abs(got - np.array(dense))) < 1e-12

    def test_1d_cutoff_window_matches_dense_sum(self, grid1, rng):
        w = Window(0.5, cutoff=(2.0, 4.0))
        y = grid1.axis()
        u = SampledDistribution(grid1, rng.standard_normal(grid1.n) + 1j * rng.standard_normal(grid1.n))
        # the cutoff window is renormalized to unit grid L2 norm
        scale = np.sqrt(np.sum(w.axis_values(y) ** 2) * grid1.spacing)
        assert abs(scale - 1.0) > 1e-6
        pts = np.column_stack([rng.uniform(-6, 6, 40), rng.uniform(-30, 30, 40)])
        dense = [
            np.sum(u.samples * w.axis_values(y - x) / scale * np.exp(-1j * xi * y)) * grid1.spacing
            for x, xi in pts
        ]
        got = stft_points(u, w, pts)
        assert np.max(np.abs(got - np.array(dense))) < 1e-12

    def test_1d_default_grid_full_range(self, rng):
        # the default 1-D grid out to the frequency and position caps, where
        # |xi y| reaches about 720 and the phase rows carry the most rounding
        g = make_grid(1, 1024, 20.0)
        y = g.axis()
        u = SampledDistribution(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        w = Window(1.0)
        xi_cap, x_cap = frequency_cap(g), position_cap(g)
        pts = np.column_stack([rng.uniform(-x_cap, x_cap, 60), rng.uniform(-xi_cap, xi_cap, 60)])
        pts[:4] = [[x_cap, xi_cap], [-x_cap, xi_cap], [x_cap, -xi_cap], [0.0, xi_cap]]
        dense = [np.sum(u.samples * w.axis_values(y - x) * np.exp(-1j * xi * y)) * g.spacing for x, xi in pts]
        assert np.max(np.abs(stft_points(u, w, pts) - np.array(dense))) < 1e-12


def dense_stft(u, window, pts):
    """Oracle: the dense sum ``sum_j u(y_j) psi(y_j - x) exp(-i<xi, y_j>) h^d``.
    Each axis factor ``psi(y - x_k) exp(-i xi_k y)`` is one ``np.exp`` per grid
    entry, with the window built on the full grid axis, and the axes are
    contracted one after the other."""
    g, y = u.grid, u.grid.axis()
    scale = 1.0
    if window.cutoff is not None:
        scale = np.sqrt(np.sum(window.axis_values(y) ** 2) * g.spacing)
    rows = [
        window.axis_values(y - pts[:, k, None]) / scale * np.exp(-1j * pts[:, g.dim + k, None] * y)
        for k in range(g.dim)
    ]
    out = rows[0] @ u.samples
    if g.dim == 2:
        out = np.einsum("pj,pj->p", out, rows[1])
    return out * g.cell_volume


def logging_rows(samples):
    """``samples`` as an array that appends the row count of every matrix
    product ``rows @ samples`` to the list returned with it."""
    counts = []

    class LoggedRows(np.ndarray):
        def __rmatmul__(self, other):
            counts.append(len(other))
            return other @ self.view(np.ndarray)

    return samples.view(LoggedRows), counts


def running_index(captured):
    """An ``evaluate`` for ``_sample_rays`` that appends each slice of points
    to ``captured`` and gives every point its index in the concatenated
    slices."""

    def evaluate(points):
        start = sum(map(len, captured))
        captured.append(points)
        return np.arange(start, start + len(points))

    return evaluate


def ray_major_points(grid, rho):
    """The phase-space ray points that the sampler evaluates on ``grid``, in
    ray order: every radius of direction 0, then of direction 1, ..."""
    captured = []
    samples, _ = _sample_rays(phase_space_rays(grid, rho=rho), grid, running_index(captured))
    return np.concatenate(captured)[samples[:, 1].astype(int)]


def within_comparator_bounds(got, want):
    """The |V| bounds of ``tools/compare_outputs.py``: 1e-13 absolute or
    1e-12 relative."""
    err = np.abs(got - want)
    return bool(np.all((err <= 1e-13) | (err <= 1e-12 * np.abs(want))))


class TestSharedFactorTables:
    """``stft_points`` materializes one first-axis row per bit-distinct
    ``(x_0, xi_0)`` of a 2-D call and builds every other factor per point
    from tables over the distinct ``x_k`` and ``xi_k``.  Its values stay
    within the comparator bounds of the dense sum, on the ray points, whose
    mirror-image pairs the sampler makes bit-equal, and the order of the
    points changes no bit."""

    @pytest.fixture(scope="class")
    def rays_2d(self, rng):
        # a coarse grid and ladder keep the full ray set cheap
        g = make_grid(2, 64, 10.0)
        u = SampledDistribution(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        pts = ray_major_points(g, rho=1.3)
        assert len(pts) % chunk_points(g)
        return u, Window(1.5), pts, dense_stft(u, Window(1.5), pts)

    def test_2d_ray_major(self, rays_2d):
        u, w, pts, dense = rays_2d
        assert within_comparator_bounds(stft_points(u, w, pts), dense)

    def test_2d_shuffled(self, rays_2d, rng):
        u, w, pts, dense = rays_2d
        order = rng.permutation(len(pts))
        assert within_comparator_bounds(stft_points(u, w, pts[order]), dense[order])

    def test_2d_order_changes_no_bit(self, rays_2d, rng):
        u, w, pts, _ = rays_2d
        # mirror pairs are bit-equal, so rows are shared
        assert len(np.unique(pts[:, 0] + 1j * pts[:, 2])) < len(pts) / 2
        got = stft_points(u, w, pts)
        order = rng.permutation(len(pts))
        assert np.array_equal(stft_points(u, w, pts[order]), got[order])

    def test_1d_cutoff_window(self, grid1, rng):
        u = SampledDistribution(grid1, rng.standard_normal(grid1.n) + 1j * rng.standard_normal(grid1.n))
        w = Window(0.5, cutoff=(2.0, 4.0))
        pts = ray_major_points(grid1, rho=1.15)[:2001]
        assert len(pts) % chunk_points(grid1, 0.5)
        assert within_comparator_bounds(stft_points(u, w, pts), dense_stft(u, w, pts))

    def test_close_pairs_stay_apart(self, grid2, rng):
        # points that differ in (x_0, xi_0), even by one ulp, never share a row
        u = SampledDistribution(grid2, rng.standard_normal(grid2.shape) + 1j * rng.standard_normal(grid2.shape))
        w = Window(1.0)
        pts = np.array([[0.3, -1.2, 5.0, 2.5], [0.3 + 1e-9, -1.2, 5.0, 2.5], [0.3, -1.2, 5.0, 2.5 + 1e-9]])
        got = stft_points(u, w, pts)
        assert len(set(got.tolist())) == 3
        assert within_comparator_bounds(got, dense_stft(u, w, pts))
        ulp = np.vstack([pts, pts[:1], pts[:1]])
        ulp[3, 0], ulp[4, 2] = np.nextafter(0.3, 1), np.nextafter(5.0, 0)
        samples, rows = logging_rows(u.samples)
        separable_sum(samples, grid2, ulp, 1.0)
        assert rows == [4]

    def test_huge_first_axis_frequencies_stay_apart(self):
        # 1e300 and 2e300 keep an axis-0 row each, without an overflow.  A
        # batch of one point and a batch of two take different matrix
        # products, which may round differently, so the two are compared
        # within the comparator bounds
        g = make_grid(2, 64, 10.0)
        u, _ = catalog_entry("box2d", None, g)
        pts = np.array([[0.5, -0.3, 1e300, 2.0], [0.5, -0.3, 2e300, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for evaluate in (lambda p: stft_points(u, Window(2.0), p), lambda p: nudft(u, p[:, 2:])):
                alone = np.concatenate([evaluate(pts[:1]), evaluate(pts[1:])])
                assert within_comparator_bounds(evaluate(pts), alone)

    @pytest.fixture(scope="class")
    def box2d_rays(self, grid2):
        # the 106,592 radius-major points that the default 2-D detection
        # evaluates, in 4 slices, and the samples of box2d, which fill the grid
        g, captured = grid2, []
        _sample_rays(phase_space_rays(g), g, running_index(captured), position_cap(g))
        assert len(captured) == 4
        return catalog_entry("box2d", None, g)[0], np.concatenate(captured)

    def test_one_row_per_exact_key(self, grid2, box2d_rays):
        # every evaluated point is r times its direction, whose (x_0, xi_0)
        # components are those of the first direction equal to them at 12
        # decimals; the kernel builds each row at its own key, one row per
        # bit-distinct key plus at most one more per chunk boundary where a
        # group is split
        u, pts = box2d_rays
        sampling = phase_space_rays(grid2)
        first = {}
        snapped = sampling.directions.copy()
        for i, key in enumerate(np.round(snapped[:, [0, 2]], 12).tolist()):
            snapped[i, [0, 2]] = snapped[first.setdefault(tuple(key), i), [0, 2]]
        assert np.all(np.abs(snapped - sampling.directions) <= 8 * np.finfo(float).eps)
        # each evaluated point's value is its index in the concatenated slices
        evaluate = running_index([])
        evidence, offsets = _sample_rays(sampling, grid2, evaluate, position_cap(grid2))
        radii, at = evidence.T
        assert np.array_equal(pts[at.astype(int)], radii[:, None] * np.repeat(snapped, np.diff(offsets), axis=0))
        samples, rows = logging_rows(u.samples)
        separable_sum(samples, u.grid, pts, 1.0)
        keys = np.unique(pts[:, 0] + 1j * pts[:, 2])
        # 29,356 keys for 106,592 points; unsnapped directions give 84,972
        assert len(keys) < 0.28 * len(pts)
        assert len(keys) <= sum(rows) <= len(keys) + len(rows) - 1

    def test_group_larger_than_a_chunk(self, rng):
        # one (x_0, xi_0) shared by more points than a chunk holds: chunks
        # are cut in call order, and the group has one row in each chunk it
        # spans, next to the 50 rows of the distinct pairs before it
        g = make_grid(2, 64, 10.0)
        u = SampledDistribution(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        chunk = chunk_points(g)
        pts = np.hstack([rng.uniform(-3, 3, (2 * chunk + 150, 2)), rng.uniform(-5, 5, (2 * chunk + 150, 2))])
        pts[50:, [0, 2]] = (0.5, 3.0)
        samples, rows = logging_rows(u.samples)
        got = separable_sum(samples, g, pts, 1.5)
        assert rows == [51, 1, 1]
        assert within_comparator_bounds(got, dense_stft(u, Window(1.5), pts))

    def test_memory_peak_bounded(self, box2d_rays):
        # the tracemalloc peak of the call: 7.7 MB with rows shared per chunk
        # (3.8 MB on line_delta_2d), 9.2 MB with the points grouped once per
        # call, 22.4 MB with chunks of 4 times the points and rows
        u, pts = box2d_rays
        tracemalloc.start()
        try:
            stft_points(u, Window(1.0), pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9e6

    def test_1d_memory_peak_bounded(self, grid1):
        # the default 1-D detection of box: 6,078 points in one slice.  The
        # tracemalloc peak of the call is 3.3 MB with 1,024-point chunks,
        # 9.5 MB with chunks of 4 times the points
        g, captured = grid1, []
        _sample_rays(phase_space_rays(g), g, running_index(captured), position_cap(g))
        assert len(captured) == 1
        u = catalog_entry("box", None, g)[0]
        tracemalloc.start()
        try:
            stft_points(u, Window(1.0), captured[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


@st.composite
def kernel_cases(draw):
    """A grid (1-D up to n = 4,096, where the full coarse × fine split would
    overflow at lam = 4h, 2-D up to n = 64), an admitted window width,
    complex white-noise samples and phase points whose centers reach 10
    widths beyond the grid and whose frequencies fill the band.  Four more
    points are twins of the first four whose ``(x_0, xi_0)`` lie 1-8 ulps of
    the radius away, as mirror images of a ray sampling do."""
    dim = draw(st.sampled_from((1, 2)))
    n = draw(st.sampled_from((32, 64, 128, 256, 512, 1024, 4096) if dim == 1 else (32, 64)))
    g = make_grid(dim, n, draw(st.floats(0.5, 100.0)))
    lo, hi = 4 * g.spacing, g.length / 8
    lam = draw(st.sampled_from((lo, hi)) | st.floats(lo, hi))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = SampledDistribution(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
    reach = g.half_width + 10 * lam
    band = np.pi / g.spacing
    pts = np.hstack([rng.uniform(-reach, reach, (12, dim)), rng.uniform(-band, band, (12, dim))])
    twins = pts[:4].copy()
    ulps = rng.integers(1, 9, (4, 2)) * rng.choice([-1, 1], (4, 2))
    twins[:, [0, dim]] += ulps * np.spacing(np.linalg.norm(twins, axis=1))[:, None]
    return u, lam, np.vstack([pts, twins])


@st.composite
def sparse_kernel_cases(draw):
    """``kernel_cases`` whose samples carry exact zeros: random coarse blocks
    kept on every axis (of the split of the window or of the Fourier sum), a
    few first-axis rows (single samples in 1-D), one sample at the edge of a
    block, or none at all."""
    u, lam, pts = draw(kernel_cases())
    g = u.grid
    m = draw(st.sampled_from((axis_split(g, lam), axis_split(g))))
    pattern = draw(st.sampled_from(("blocks", "rows", "edge", "zeros")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = np.zeros(g.shape, dtype=bool)
    if pattern == "blocks":
        keep = outer_per_axis([np.repeat(rng.random(g.n // m) < 0.3, m) for _ in range(g.dim)])
    elif pattern == "rows":
        keep[rng.choice(g.n, size=rng.integers(1, 4), replace=False)] = True
    elif pattern == "edge":
        keep[tuple(m * rng.integers(g.n // m, size=g.dim) + (m - 1) * rng.integers(2, size=g.dim))] = True
    return SampledDistribution(g, np.where(keep, u.samples, 0)), lam, pts


def underflow_floor(u, lam):
    """Absolute error allowed besides ``stft_bound`` on a Gaussian sum.
    A coarse factor or a partial product of the split below the normal range
    loses its terms; what multiplies it later, a fine factor or the coupling,
    is at most ``e^SPLIT_EXPONENT_BOUND``, so a lost term is below about
    ``tiny e^SPLIT_EXPONENT_BOUND`` (1e-160) of ``|u_j| (pi lam^2)^(-d/4) h^d``.
    It matters only where the whole sum is that small: samples far from
    every center, which the dense sum still adds up to 1e-300 or so."""
    norm = (np.pi * lam**2) ** (-u.grid.dim / 4)
    return np.finfo(float).tiny * np.exp(SPLIT_EXPONENT_BOUND) * norm * np.sum(np.abs(u.samples)) * u.grid.cell_volume


def dense_fourier_sum(u, xi):
    """Oracle: ``sum_j u(y_j) exp(-i<xi, y_j>) h^d`` at every row of ``xi``."""
    meshes = u.grid.meshes()
    sums = [np.sum(u.samples * np.exp(-1j * sum(k * y for k, y in zip(p, meshes)))) for p in xi]
    return np.array(sums) * u.grid.cell_volume


def kernel_tolerance(grid):
    """Relative error allowed against the scale ``sum_j |u_j psi_j| h^d`` of a
    sum, besides the window flank of ``stft_bound``.  Per axis the phase
    ``xi y`` is off by up to ``2 |xi| (|Y_a| + |d_b| + |y_j|) u`` (``u = eps /
    2``) between kernel and oracle: the oracle's position ``y_j = fl((j -
    n/2) h)`` and the kernel's ``Y_a + d_b`` are each rounded once, and each
    side rounds its products with ``xi`` once more.  With ``|xi| <= pi / h``
    and positions within L/2 that is ``pi n eps`` per axis.  Each Gaussian
    exponent of the split, at most ``SPLIT_EXPONENT_BOUND`` for a fine factor
    and for the coupling, rounds by about that many ulps; the offsets
    ``d_b`` beyond L/2 and the 2-D Fourier oracle's sum of the axis phases
    stay within that share at the test grids (n <= 64 in 2-D)."""
    return (np.pi * grid.n * grid.dim + 2 * SPLIT_EXPONENT_BOUND) * np.finfo(float).eps


def stft_bound(u, window, pts):
    """Largest ``|stft_points - dense_stft|`` allowed at each point of
    ``pts``: ``kernel_tolerance`` of ``sum_j |u_j psi_j| h^d``, plus, per axis,
    ``eps |t| (L/2 + m h / 4 + 3 |t|) / lam^2`` of each term ``|u_j psi_j|
    h^d``, ``t = y_j - x`` its distance to the window center.  The rounded
    positions of ``kernel_tolerance`` move the exponent ``-t^2 / (2 lam^2)``
    by up to ``u |t| (L + m h / 2) / lam^2`` between the two sides, and each
    side rounds the exponent itself in about 5 steps of ``u`` (the
    difference, counted twice by the square, ``lam^2`` and the quotient),
    ``5 eps t^2 / (2 lam^2)`` in all, which ``3 |t|`` rounds up.  Both grow
    on the flank of the window, so they count where every sample lies far
    from the center: a sample 23 widths out at n = 4,096 and lam = 4h adds
    about 13,000 eps of the sum."""
    g, y = u.grid, u.grid.axis()
    reach = g.half_width + axis_split(g, window.lam) * g.spacing / 4
    norm = 1.0
    if window.cutoff is not None:
        norm = np.sqrt(np.sum(window.axis_values(y) ** 2) * g.spacing)
    share, flank = [], []
    for k in range(g.dim):
        t = np.abs(y - pts[:, k, None])
        share.append(window.axis_values(t) / norm)
        flank.append(share[-1] * t * (reach + 3 * t) / window.lam**2 * np.finfo(float).eps)
    a = np.abs(u.samples)
    first = kernel_tolerance(g) * share[0] + flank[0]
    if g.dim == 1:
        total = first @ a
    else:
        total = np.einsum("pi,ij,pj->p", first, a, share[1]) + np.einsum("pi,ij,pj->p", share[0], a, flank[1])
    return total * g.cell_volume


class TestAxisSplit:
    @pytest.mark.parametrize(
        "dim, n, half_width, splits",
        [(1, 1024, 20.0, {16, 32}), (2, 256, 10.0, {16}), (1, 2**16, 20.0, None)],
        ids=["default-1d", "default-2d", "fine-1d"],
    )
    def test_exponents_stay_bounded(self, dim, n, half_width, splits):
        # every real exponent of a fine factor, at centers up to the clip,
        # and of the coupling folded into the samples over all axes
        g = make_grid(dim, n, half_width)
        y = g.axis()
        for lam in np.geomspace(4 * g.spacing, g.length / 8, 9):
            m = axis_split(g, lam)
            assert splits is None or m in splits, lam
            centers, offsets = y[m // 2 :: m], (np.arange(m) - m // 2) * g.spacing
            reach = g.half_width + WINDOW_REACH * lam
            fine = np.abs(np.multiply.outer([-reach, reach], offsets) - offsets**2 / 2).max() / lam**2
            coupling = dim * np.abs(np.multiply.outer(centers, offsets)).max() / lam**2
            assert max(fine, coupling) <= SPLIT_EXPONENT_BOUND, lam
        assert axis_split(g) == 2 ** ((n.bit_length() - 1) // 2)

    @staticmethod
    def split_widths(g):
        """The admitted window widths 4h and L/8 and, at every width where
        ``axis_split`` halves m, the adjacent floats on either side."""
        lo, hi = 4 * g.spacing, g.length / 8
        widths = [lo, hi]
        while axis_split(g, lo) < axis_split(g, hi):
            a, b = lo, hi  # axis_split(g, a) < axis_split(g, b)
            while np.nextafter(a, b) < b:
                mid = max(a + (b - a) / 2, np.nextafter(a, b))
                if axis_split(g, mid) == axis_split(g, lo):
                    a = mid
                else:
                    b = mid
            widths += [a, b]
            lo = b
        return widths

    def test_chunk_divides_the_slice(self):
        # every admitted grid, with the Fourier sum and every split of the
        # window widths: a power of two of at least one point, dividing
        # SLICE_POINTS, so sliced calls give the bits of one call
        for dim in (1, 2):
            n = 16
            while n**dim <= MAX_GRID_SAMPLES:
                g = make_grid(dim, n, 20.0)
                for lam in [None, *self.split_widths(g)]:
                    chunk = chunk_points(g, lam)
                    assert chunk >= 1 and chunk & (chunk - 1) == 0, (dim, n, lam)
                    assert SLICE_POINTS % chunk == 0, (dim, n, lam)
                n *= 2

    def test_finest_1d_grid_narrowest_window(self, rng):
        # n = 2**18 at lam = 0.001 splits into m = 1: 2**18 coarse entries per
        # point, more than a chunk's factor entries, so the chunk is one point
        g = make_grid(1, 2**18, 20.0)
        lam = 0.001
        assert axis_split(g, lam) == 1 and chunk_points(g, lam) == 1
        u = SampledDistribution(g, rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n))
        w = Window(lam)
        pts = np.column_stack([rng.uniform(-1, 1, 3), rng.uniform(-1000, 1000, 3)])
        err = np.abs(stft_points(u, w, pts) - dense_stft(u, w, pts))
        assert np.all(err <= stft_bound(u, w, pts))


SPECIAL_FREQUENCIES = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1040, -(2.0**-1040), 1e300, -1e300)


class TestMirroredPhaseTables:
    """``phase_table`` builds ``exp(-i xi |y|)`` and conjugates it where ``y``
    is negative; its bits are those of the direct table, for the block
    centers and fine offsets of every split the kernel reads."""

    @settings(max_examples=60, deadline=None)
    @given(
        log_n=st.integers(4, 18),
        half_width=st.floats(0.5, 100.0),
        log_m=st.integers(0, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_to_the_direct_table(self, log_n, half_width, log_m, seed):
        g = make_grid(1, 2**log_n, half_width)
        m = 2 ** min(log_m, log_n)
        rng = np.random.default_rng(seed)
        y = g.axis()
        centers, offsets = y[m // 2 :: m], (np.arange(m) - m // 2) * g.spacing
        if len(centers) > 4096:
            # the first and last 2,048 centers, mirror images of each other
            # but for -L/2 at m = 1: all 2**18 would take two 218 MB tables
            centers = np.concatenate([centers[:2048], centers[-2048:]])
        # the full centers, an asymmetric kept subset of them, and the fine
        # offsets, whose most negative -m/2 h has no positive twin
        kept = centers[np.sort(rng.choice(len(centers), size=rng.integers(1, len(centers) + 1), replace=False))]
        band = np.pi / g.spacing
        xi = np.concatenate([SPECIAL_FREQUENCIES, rng.uniform(-band, band, 40), rng.uniform(-1e300, 1e300, 4)])
        for ys in (centers, kept, offsets):
            direct = np.exp(-1j * np.multiply.outer(xi, ys))
            assert phase_table(xi, mirror_index(ys)).tobytes() == direct.tobytes()

    def test_one_exponential_per_magnitude(self):
        # the default 1-D split, n = 1,024 and m = 32: 16 distinct |Y_a| of
        # the 32 centers and 17 |d_b| of the 32 offsets, 33 exponentials per
        # frequency instead of 64; m = 1 pairs every center but -L/2
        g = make_grid(1, 1024, 20.0)
        y, m = g.axis(), 32
        assert len(mirror_index(y[m // 2 :: m])[0]) == 16
        assert len(mirror_index((np.arange(m) - m // 2) * g.spacing)[0]) == 17
        assert len(mirror_index(y)[0]) == 513


class TestKernelErrorContract:
    """``stft_points`` and ``nudft`` against the dense sum on white noise, at
    every admitted window width, within ``stft_bound`` and within
    ``kernel_tolerance`` of the scale of the sum; centers far beyond the grid
    give exactly 0, without a warning."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(kernel_cases(), st.data())
    def test_stft_points_matches_dense_sum(self, case, data):
        u, lam, pts = case
        g, w = u.grid, Window(lam)
        far = data.draw(st.sampled_from((1e300, -1e300, g.half_width + 50 * lam, -g.half_width - 50 * lam)))
        axis = data.draw(st.integers(0, g.dim - 1))
        outside = pts[:2].copy()
        outside[:, axis] = far
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stft_points(u, w, np.vstack([pts, outside]))
        assert np.array_equal(got[len(pts) :], np.zeros(2))
        err = np.abs(got[: len(pts)] - dense_stft(u, w, pts))
        assert np.all(err <= stft_bound(u, w, pts))

    @settings(max_examples=100, deadline=None, database=None)
    @given(kernel_cases())
    def test_nudft_matches_dense_sum(self, case):
        u, _, pts = case
        g = u.grid
        xi = pts[:, g.dim :]
        scale = np.sum(np.abs(u.samples)) * g.cell_volume
        assert np.all(np.abs(nudft(u, xi) - dense_fourier_sum(u, xi)) <= kernel_tolerance(g) * scale)


class TestSparseSupport:
    """The kernel contracts only the coarse blocks that hold a nonzero
    sample.  On samples with exact zeros it keeps the error contract of
    ``TestKernelErrorContract`` down to the ``underflow_floor`` of a
    Gaussian sum, and all-zero samples give exact zeros."""

    @settings(max_examples=100, deadline=None, database=None)
    @given(sparse_kernel_cases())
    def test_stft_points_matches_dense_sum(self, case):
        u, lam, pts = case
        g, w = u.grid, Window(lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = stft_points(u, w, pts)
        err = np.abs(got - dense_stft(u, w, pts))
        assert np.all(err <= stft_bound(u, w, pts) + underflow_floor(u, lam))

    def test_lone_sample_on_the_window_flank(self):
        # the case that failed at random: a narrow window (lam = 4h) centered
        # 6.6 widths beyond -L/2 and one sample 22.8 widths from it, near the
        # grid edge, over the band.  At xi = -181.5 the kernel is 1.04e4 eps
        # of the sum off the oracle, beyond the 7,114 eps that counted the
        # phase rounding of one side only and no flank
        g = make_grid(1, 4096, 33.51)
        w = Window(4 * g.spacing)
        u = SampledDistribution(g, np.where(np.arange(g.n) == 65, 1.0, 0.0))
        pts = np.column_stack([np.full(4001, -33.93), np.linspace(-1, 1, 4001) * np.pi / g.spacing])
        err = np.abs(stft_points(u, w, pts) - dense_stft(u, w, pts))
        assert np.all(err <= stft_bound(u, w, pts))

    @settings(max_examples=100, deadline=None, database=None)
    @given(sparse_kernel_cases())
    def test_nudft_matches_dense_sum(self, case):
        u, _, pts = case
        g = u.grid
        xi = pts[:, g.dim :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = nudft(u, xi)
        scale = np.sum(np.abs(u.samples)) * g.cell_volume
        assert np.all(np.abs(got - dense_fourier_sum(u, xi)) <= kernel_tolerance(g) * scale)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_all_zero_samples_give_exact_zeros(self, dim, rng):
        g = make_grid(dim, 128, 10.0)
        u = SampledDistribution(g, np.zeros(g.shape))
        pts = rng.uniform(-8, 8, (20, 2 * dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got in (
                stft_points(u, Window(1.0), pts),
                stft_points(u, Window(1.0, cutoff=(2.0, 4.0)), pts),
                nudft(u, pts[:, dim:]),
            ):
                assert np.array_equal(got, np.zeros(len(pts)))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cutoff_window_samples_vanish_beyond_the_support(self, dim, rng):
        # per base point the samples are multiplied by the plateau, exactly 0
        # beyond support * lam: most coarse blocks hold zeros only, and a base
        # point that far outside the grid has no nonzero sample at all
        g = make_grid(dim, 128, 10.0)
        u = SampledDistribution(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
        w = Window(1.0, cutoff=(1.0, 2.0))
        pts = np.hstack([rng.uniform(-11, 11, (30, dim)), rng.uniform(-10, 10, (30, dim))])
        pts[0, :dim] = g.half_width + 2.5
        got = stft_points(u, w, pts)
        assert got[0] == 0
        assert np.all(np.abs(got - dense_stft(u, w, pts)) <= stft_bound(u, w, pts))


class TestInvariances:
    def test_unimodular_invariance(self, grid1):
        u, _ = catalog_entry("hermite", None, grid1)
        spun = SampledDistribution(grid1, np.exp(1j * 0.7) * u.samples)
        w = Window(1.0)
        pts = np.array([[0.3, 1.0], [2.0, -5.0], [-4.0, 0.1]])
        assert np.allclose(
            np.abs(stft_points(u, w, pts)), np.abs(stft_points(spun, w, pts)), atol=1e-12
        )

    def test_translation_covariance_modulus(self, grid1):
        box, _ = catalog_entry("box", None, grid1)
        shift = 128 * grid1.spacing  # exactly on-grid
        moved = SampledDistribution(grid1, np.roll(box.samples, 128))
        w = Window(1.0)
        pts = np.array([[0.0, 3.0], [1.0, -2.0], [4.0, 0.5]])
        shifted_pts = pts.copy()
        shifted_pts[:, 0] += shift
        a = np.abs(stft_points(moved, w, shifted_pts))
        b = np.abs(stft_points(box, w, pts))
        assert np.max(np.abs(a - b)) < 1e-9

    def test_growth_bound_order_two(self, grid1, grid2):
        from gaborwf.signal import CATALOG, catalog_names

        for name in catalog_names():
            g = grid1 if CATALOG[name].dims[0] == 1 else grid2
            u, _ = catalog_entry(name, None, g)
            w = Window(1.0)
            box_r = g.half_width / 2
            ax = np.linspace(-box_r, box_r, 9)
            if g.dim == 1:
                pts = np.array([(x, xi) for x in ax for xi in ax])
            else:
                pts = np.array([(x, 0.0, xi, 0.3) for x in ax for xi in ax])
            vals = np.abs(stft_points(u, w, pts))
            weights = (1 + np.sum(pts**2, axis=1)) ** 1.0  # <z>^2 squared norm
            ratio = vals / weights
            # the sup of |V|/<z>^2 must not sit on the box boundary: order two
            # tames every catalog entry's growth
            argmax = pts[np.argmax(ratio)]
            assert np.linalg.norm(argmax) <= 0.75 * np.linalg.norm([box_r, box_r] * g.dim), name


class TestMoyal:
    def test_gaussian_roundtrip(self, grid1):
        u, _ = catalog_entry("gaussian", None, grid1)
        rec = moyal_reconstruct(u, Window(1.0))
        err = np.sqrt(np.sum(np.abs(rec.samples - u.samples) ** 2) * grid1.spacing) / u.norm()
        assert err < 1e-6

    def test_hermite_roundtrip(self, grid1):
        u, _ = catalog_entry("hermite", {"n": 3}, grid1)
        rec = moyal_reconstruct(u, Window(1.0))
        err = np.sqrt(np.sum(np.abs(rec.samples - u.samples) ** 2) * grid1.spacing) / u.norm()
        assert err < 1e-5

    def test_box_roundtrip_limited_by_discontinuity(self, grid1):
        u, _ = catalog_entry("box", None, grid1)
        rec = moyal_reconstruct(u, Window(1.0))
        err = np.sqrt(np.sum(np.abs(rec.samples - u.samples) ** 2) * grid1.spacing) / u.norm()
        assert err < 1e-2

    def test_rejects_spike(self, grid1):
        dirac, _ = catalog_entry("dirac", None, grid1)
        with pytest.raises(ValueError, match="spike"):
            moyal_reconstruct(dirac, Window(1.0))

    def test_rejects_2d(self, grid2):
        u, _ = catalog_entry("box2d", None, grid2)
        with pytest.raises(ValueError, match="dim 1"):
            moyal_reconstruct(u, Window(0.5))
