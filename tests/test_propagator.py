import math
import warnings

import numpy as np
import pytest

from gaborwf.signal import SampledDistribution, catalog_entry, fourier_transform, make_grid
from gaborwf.stft import Window
from gaborwf import propagator
from gaborwf.wavefront import frequency_cap, phase_space_rays, position_cap
from gaborwf.propagator import (
    HermiteBasis,
    PropagatedState,
    default_n_max,
    harmonic_propagate,
    hermite_coefficients,
    special_time_operator,
    taper_expansion,
    verify_propagation,
)


def hermite_values_at_zero(n_max):
    """Oracle: h_n(0) from the recurrence h_n(0) = -sqrt((n-1)/n) h_{n-2}(0)."""
    vals = [np.pi**-0.25, 0.0]
    for n in range(2, n_max + 1):
        vals.append(-np.sqrt((n - 1) / n) * vals[n - 2] if n % 2 == 0 else 0.0)
    return np.array(vals[: n_max + 1])


def oscillator_apply_fd(samples, x, h):
    """Oracle: (|x|^2 - d^2/dx^2) by sixth-order central differences."""
    c = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])
    second = sum(c[k] * np.roll(samples, 3 - k) for k in range(7)) / h**2
    return x**2 * samples - second


@pytest.fixture(scope="module")
def basis(grid1):
    return HermiteBasis.build(grid1)


class TestBasis:
    def test_gram_identity(self, grid1, basis):
        H = basis.values
        gram = grid1.spacing * (H.T @ H)
        assert np.max(np.abs(gram - np.eye(basis.n_max + 1))) < 1e-8

    def test_default_order_within_resolvable_bound(self, grid1, basis):
        assert basis.n_max <= grid1.n // 4
        assert np.sqrt(2 * basis.n_max + 1) < grid1.half_width

    def test_table_size_bounded(self):
        # the derived order 156: 65,536 x 157 entries, 82 MB if it were built
        g = make_grid(1, 2**16, 20.0)
        with pytest.raises(ValueError, match="n_max 156 on n = 65536 needs 10289152 Hermite table entries"):
            HermiteBasis.build(g)

    def test_rejects_order_spilling_out_of_box(self):
        # the derived order stops at its floor 8, which turns at 4.1, beyond the box edge 2
        g = make_grid(1, 64, 2.0)
        with pytest.raises(ValueError, match=r"Gram error 6\.82e-01\): order 8 spills outside the box of half-width 2;"):
            HermiteBasis.build(g)

    def test_2d_gram(self, grid2):
        b = HermiteBasis.build(grid2)
        gram = grid2.spacing * (b.values.T @ b.values)
        assert np.max(np.abs(gram - np.eye(b.n_max + 1))) < 1e-8


class TestCoefficients:
    def test_eigenstate_is_unit_vector(self, grid1, basis):
        u, _ = catalog_entry("hermite", {"n": 3}, grid1)
        c, err = hermite_coefficients(u, basis)
        assert abs(c[3] - 1.0) < 1e-8
        assert np.max(np.abs(np.delete(c, 3))) < 1e-8
        assert err < 1e-8

    def test_gaussian_is_ground_state(self, grid1, basis):
        u, _ = catalog_entry("gaussian", None, grid1)
        c, err = hermite_coefficients(u, basis)
        assert abs(c[0] - 1.0) < 1e-8
        assert np.max(np.abs(c[1:])) < 1e-8
        assert err < 1e-8

    def test_spike_coefficients_match_values_at_zero(self, grid1, basis):
        u, _ = catalog_entry("dirac", None, grid1)
        c, err = hermite_coefficients(u, basis)
        oracle = hermite_values_at_zero(basis.n_max)
        assert np.max(np.abs(c - oracle)) < 1e-10
        assert 0.5 < err < 1.0  # most of a spike lies beyond any finite order

    def test_grid_mismatch_rejected(self, basis):
        other = make_grid(1, 512, 20.0)
        u, _ = catalog_entry("gaussian", None, other)
        with pytest.raises(ValueError, match="different grid"):
            hermite_coefficients(u, basis)

    def test_2d_gaussian_ground_state(self, grid2):
        b = HermiteBasis.build(grid2)
        u, _ = catalog_entry("gaussian", None, grid2)
        c, err = hermite_coefficients(u, b)
        assert abs(c[0, 0] - 1.0) < 1e-8
        assert err < 1e-8


class TestEigenrelation:
    def test_finite_difference_oracle(self, grid1, basis):
        x = grid1.axis()
        h = grid1.spacing
        for n in range(11):
            hn = basis.values[:, n]
            applied = oscillator_apply_fd(hn, x, h)
            rel = np.linalg.norm(applied - (2 * n + 1) * hn) / np.linalg.norm((2 * n + 1) * hn)
            assert rel <= 1e-4, n


class TestPropagation:
    def test_unitary_on_coefficients(self, grid1, basis, rng):
        vals = rng.standard_normal(grid1.n) + 1j * rng.standard_normal(grid1.n)
        u = SampledDistribution(grid1, vals)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c0, _ = hermite_coefficients(u, basis)
            for t in (0.3, 1.7, -0.9):
                moved = harmonic_propagate(u, t, basis)
                c1, _ = hermite_coefficients(moved.state, basis)
                assert abs(np.linalg.norm(c1) - np.linalg.norm(c0)) < 1e-10

    def test_group_law(self, grid1, basis, rng):
        vals = rng.standard_normal(grid1.n) + 1j * rng.standard_normal(grid1.n)
        u = SampledDistribution(grid1, vals)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ab = harmonic_propagate(harmonic_propagate(u, 0.3, basis).state, 0.4, basis)
            direct = harmonic_propagate(u, 0.7, basis)
            diff = np.sqrt(
                np.sum(np.abs(ab.state.samples - direct.state.samples) ** 2) * grid1.spacing
            )
            assert diff / direct.state.norm() < 1e-9

    def test_ground_state_phase(self, grid1, basis):
        u, _ = catalog_entry("gaussian", None, grid1)
        t = 0.37
        moved = harmonic_propagate(u, t, basis)
        expected = np.exp(-1j * t) * u.samples
        assert np.max(np.abs(moved.state.samples - expected)) < 1e-8

    def test_full_period_returns_even_state(self, grid1, basis):
        # at t = pi every phase is exp(-i pi (2n+1)) = -1: a global sign
        u, _ = catalog_entry("gaussian", None, grid1)
        moved = harmonic_propagate(u, np.pi, basis)
        assert np.max(np.abs(moved.state.samples + u.samples)) < 1e-8

    def test_spike_warns(self, grid1, basis):
        u, _ = catalog_entry("dirac", None, grid1)
        with pytest.warns(UserWarning, match="beyond order"):
            harmonic_propagate(u, 0.1, basis)

    def test_quarter_period_matches_scaled_fourier(self, grid1, basis):
        for name, params in (("gaussian", None), ("hermite", {"n": 3}), ("gaussian", {"sigma": 1.5})):
            u, _ = catalog_entry(name, params, grid1)
            moved = harmonic_propagate(u, np.pi / 4, basis)
            target = special_time_operator(u, quarter=True)
            inner = np.vdot(target.samples, moved.state.samples)
            phase = inner / abs(inner)
            err = np.sqrt(
                np.sum(np.abs(moved.state.samples - phase * target.samples) ** 2) * grid1.spacing
            )
            assert err / u.norm() < 1e-6, name
            assert abs(phase - np.exp(-1j * np.pi / 4)) < 1e-6

    def test_truncation_error_bounds(self, grid1, basis):
        u, _ = catalog_entry("gaussian", None, grid1)
        state = harmonic_propagate(u, 0.2, basis)
        assert 0.0 <= state.truncation_error <= 1.0
        with pytest.raises(ValueError):
            PropagatedState(state.state, 1.5)


class TestSpecialTimeOperator:
    def test_spike_is_reflection_invariant(self, grid1):
        u, _ = catalog_entry("dirac", None, grid1)
        assert np.array_equal(special_time_operator(u, k=1).samples, u.samples)

    def test_even_k_is_identity(self, grid1):
        u, _ = catalog_entry("box", None, grid1)
        assert special_time_operator(u, k=2) is u

    def test_shifted_box_reflects(self, grid1):
        box, _ = catalog_entry("box", None, grid1)
        shifted = SampledDistribution(grid1, np.roll(box.samples, 128))
        reflected = special_time_operator(shifted, k=1)
        assert np.allclose(reflected.samples, np.roll(box.samples, -128), atol=1e-12)

    def test_quarter_fixes_gaussian(self, grid1):
        u, _ = catalog_entry("gaussian", None, grid1)
        q = special_time_operator(u, quarter=True)
        # self-dual up to the stated constant: (2 pi)^{-1/2} * sqrt(2 pi) = 1
        assert np.max(np.abs(q.samples - u.samples)) < 1e-8

    def test_quarter_equals_scaled_transform_on_dual_grid(self):
        # on a balanced grid, L = sqrt(2 pi n), the dual grid is the position
        # grid, so the FFT gives the operator's values independently of nudft
        for dim, n, name in ((1, 256, "bump"), (1, 1024, "bump"), (2, 64, "box2d")):
            g = make_grid(dim, n, np.sqrt(2 * np.pi * n) / 2)
            assert np.allclose(g.dual().axis(), g.axis(), rtol=0, atol=1e-13)
            u, _ = catalog_entry(name, None, g)
            q = special_time_operator(u, quarter=True)
            expect = (2 * np.pi) ** (-dim / 2) * fourier_transform(u).samples
            assert np.max(np.abs(q.samples - expect)) < 1e-13, (dim, n)


class TestTaper:
    def test_smooth_state_unchanged(self, grid1, basis):
        u, _ = catalog_entry("gaussian", None, grid1)
        smooth = taper_expansion(u, basis)
        assert smooth.truncation_error < 1e-8
        assert np.max(np.abs(smooth.state.samples - u.samples)) < 1e-7

    def test_spike_truncation_documented(self, grid1, basis):
        u, _ = catalog_entry("dirac", None, grid1)
        smooth = taper_expansion(u, basis)
        assert 0.5 < smooth.truncation_error < 1.0

    @pytest.mark.parametrize("scale", [2.0**520, 1e300])
    def test_huge_samples_keep_their_truncation_error(self, grid1, basis, scale):
        # squares of such samples overflow; the relative errors do not depend on the scale
        u, _ = catalog_entry("box", None, grid1)
        big = SampledDistribution(grid1, u.samples * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hermite_coefficients(big, basis)[1] == pytest.approx(hermite_coefficients(u, basis)[1], rel=1e-9)
            assert taper_expansion(big, basis).truncation_error == pytest.approx(
                taper_expansion(u, basis).truncation_error, rel=1e-9
            )


class TestVerifyPropagation:
    @pytest.mark.parametrize(
        "t", [0.0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4, np.pi / 2, np.pi, 0.9]
    )
    def test_spike_rotation(self, grid1, t):
        u, truth = catalog_entry("dirac", None, grid1)
        report = verify_propagation(u, truth, t, Window(0.5))
        assert report.passed
        assert report.hausdorff_angle <= report.ang_tol

    @pytest.mark.parametrize("t", [1e300, -1e20, 4 * np.pi + 0.3])
    def test_time_reduced_modulo_period(self, grid1, t):
        # the state and the forecast move by the same reduced angle; at
        # t = 1e300, t / (pi / 2) is a whole number in floating point though
        # t is no lattice time
        u, truth = catalog_entry("dirac", None, grid1)
        report = verify_propagation(u, truth, t, Window(0.5))
        reduced = verify_propagation(u, truth, math.fmod(t, 2 * np.pi), Window(0.5))
        assert report.passed and reduced.passed
        assert report.t == t
        assert np.array_equal(report.predicted_dirs, reduced.predicted_dirs)
        assert np.array_equal(report.detected_dirs, reduced.detected_dirs)

    def test_rotation_rate_is_twice_time(self, grid1):
        # two full phase-space revolutions per period pi
        u, truth = catalog_entry("dirac", None, grid1)
        for t in (0.0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4):
            report = verify_propagation(u, truth, t, Window(0.5))
            rotated_pole = np.array([np.sin(2 * t), np.cos(2 * t)])
            gap = min(
                np.arccos(np.clip(np.dot(rotated_pole, z), -1, 1)) for z in report.detected_dirs
            )
            assert gap <= report.ang_tol, t

    def test_2d_evolution_phases_factorize(self, grid2):
        u, _ = catalog_entry("gaussian", None, grid2)
        basis = HermiteBasis.build(grid2)
        t = 0.41
        moved = harmonic_propagate(u, t, basis)
        # 2-D ground state has eigenvalue d = 2
        expected = np.exp(-2j * t) * u.samples
        assert np.max(np.abs(moved.state.samples - expected)) < 1e-8

    @pytest.mark.parametrize("name", ["box", "box2d"])
    def test_off_lattice_evolution_does_not_warn(self, grid1, grid2, name):
        # the tapered state lies in the basis span, so evolving it truncates
        # nothing more, though the entry itself is truncated by far more than
        # the 1% warning level
        u, truth = catalog_entry(name, None, grid1 if name == "box" else grid2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_propagation(u, truth, 0.3, Window(0.5))
        assert report.truncation_error > 0.1

    @pytest.mark.parametrize("name", ["dirac", "dirac_derivative", "box"])
    @pytest.mark.parametrize("t", [np.pi / 2 - 0.028, np.pi / 2 + 0.028, np.pi - 0.03, np.pi + 0.03])
    def test_near_lattice_smoothness_is_judged_on_sampled_directions(self, grid1, name, t):
        # the forecast generators lie just beyond ang_tol of the frequency
        # axis, but the sampled directions nearest them lie within it, and
        # those are what the detector can report
        u, truth = catalog_entry(name, None, grid1)
        report = verify_propagation(u, truth, t, Window(1.0))
        assert report.passed
        assert not report.smooth_expected and not report.smooth_detected

    def test_schwartz_input_stays_empty(self, grid1):
        u, truth = catalog_entry("gaussian", None, grid1)
        report = verify_propagation(u, truth, 0.7, Window(0.5))
        assert report.passed
        assert report.detected_dirs.shape == (0, 2)
        assert report.smooth_expected and report.smooth_detected

    @pytest.mark.parametrize("name, t", [("box2d", 0.0), ("line_delta_2d", 3 * np.pi / 2)])
    def test_2d_lattice_times_pass(self, grid2, name, t):
        # the exact evolution is detected on the grid's own ladder; on the
        # ladder capped inside the tapered basis's disk, r_max 4.68 against
        # the grid's 18.1, both failed with hausdorff 0.859
        u, truth = catalog_entry(name, None, grid2)
        report = verify_propagation(u, truth, t, Window(1.0))
        assert report.passed and report.hausdorff_angle == 0.0
        assert report.truncation_error == 0.0

    @staticmethod
    def sampling_of(monkeypatch, g, t):
        """The ray sampling ``verify_propagation`` detects on at time t, for
        the gaussian on the grid g."""
        u, truth = catalog_entry("gaussian", None, g)
        seen = []

        class Sampled(Exception):
            pass

        def sampled(grid, **kwargs):
            seen.append(phase_space_rays(grid, **kwargs))
            raise Sampled  # the detection that follows is not needed here

        monkeypatch.setattr(propagator, "phase_space_rays", sampled)
        with pytest.raises(Sampled):
            verify_propagation(u, truth, t, Window(0.5))
        return seen[0]

    @pytest.mark.parametrize(
        "dim, n, length", [(1, 256, 20.0), (2, 256, 20.0), (1, 4096, 40.0), (1, 2048, 160.0)]
    )
    def test_sampling_stays_inside_the_kept_disk(self, monkeypatch, dim, n, length):
        # r_max = 0.8 sqrt(1.4 n_max + d), below the sampler's own cap on
        # admitted grids at both ends: n_max <= n/4 leaves it no room to bind
        g = make_grid(dim, n, length / 2)
        sampling = self.sampling_of(monkeypatch, g, 0.3)
        n_max = HermiteBasis.build(g).n_max
        assert sampling.r_max == pytest.approx(0.8 * np.sqrt(1.4 * n_max + dim), rel=1e-15)
        assert sampling.r_max < max(position_cap(g), frequency_cap(g))

    @pytest.mark.parametrize(
        "dim, n, length",
        [(1, 256, 20.0), (2, 256, 20.0), (1, 4096, 40.0), (1, 2048, 160.0), (1, 32768, 40.0)],
    )
    @pytest.mark.parametrize("t", [0.0, np.pi / 2, -np.pi])
    def test_lattice_sampling_runs_to_the_sampler_cap(self, monkeypatch, dim, n, length, t):
        # the evolution is exact at lattice times, so no Hermite basis is
        # built, not even on n = 32768, whose table would exceed
        # MAX_HERMITE_ENTRIES, and rays run to the grid's own cap
        def unbuilt(*args, **kwargs):
            raise AssertionError("Hermite basis built at a lattice time")

        monkeypatch.setattr(HermiteBasis, "build", unbuilt)
        g = make_grid(dim, n, length / 2)
        sampling = self.sampling_of(monkeypatch, g, t)
        assert sampling.r_max == max(position_cap(g), frequency_cap(g))

    def test_report_serializes(self, grid1):
        import json

        u, truth = catalog_entry("dirac", None, grid1)
        report = verify_propagation(u, truth, np.pi / 8, Window(0.5))
        payload = report.to_json()
        json.dumps(payload)
        assert set(payload) >= {
            "t",
            "predicted_dirs",
            "detected_dirs",
            "hausdorff_angle",
            "smooth_expected",
            "smooth_detected",
            "truncation_error",
        }


def test_default_n_max_scales_with_box(grid1, grid2):
    n1, n2 = default_n_max(grid1), default_n_max(grid2)
    assert 100 <= n1 <= grid1.n // 4
    assert 8 <= n2 <= grid2.n // 4
    # the retained turning radius stays inside each box
    assert np.sqrt(2 * n1 + 1) < grid1.half_width
    assert np.sqrt(2 * n2 + 1) < grid2.half_width
