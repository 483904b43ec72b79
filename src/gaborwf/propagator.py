"""Harmonic-oscillator evolution by Hermite eigen-expansion.

The generator ``i(|x|^2 - Laplacian)`` has the L2-normalized Hermite
functions as eigenbasis with eigenvalues ``i(2|n| + d)``, so the evolution is
exact in time on the retained coefficients:

    u(t) = sum_n c_n exp(-i t (2|n| + d)) h_n .

Truncation at ``n_max`` is the single error source; it is reported, never
hidden.  At quarter and half periods the evolution collapses to scaled
Fourier transforms and reflections, implemented exactly for cross-checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .signal import Grid, SampledDistribution, GroundTruth, _hermite_values, apply_per_axis, outer_per_axis
from .signal import _as_readonly, _json_num, grid_norm, nudft
from .stft import Window, _plateau
from .symplectic import QuadraticHamiltonian, propagate_wf_set
from .wavefront import (
    DEFAULT_N_THRESH,
    angular_tolerance,
    estimate_gabor_wf,
    frequency_gap,
    hausdorff_angle,
    phase_space_rays,
    schwartz_direction_test,
    _angles,
)

GRAM_TOL = 1e-8
TAPER_ONSET = 0.7  # fraction of n_max where the spectral roll-off begins
# entries n * (n_max + 1) of the axis table: 32 MB, which the Gram check
# multiplies once more; the default grids need 160,768 (1-D) and 6,144 (2-D)
MAX_HERMITE_ENTRIES = 2**22


def default_n_max(grid: Grid) -> int:
    """Largest order whose classical turning radius sqrt(2n+1) clears the box
    edge by enough Airy-decay lengths for grid orthonormality, capped by
    frequency resolvability n/4; at least min(8, n/4) >= 4."""
    edge = grid.half_width
    n = grid.n // 4
    while n > 8:
        s = np.sqrt(2 * n + 1)
        if s < edge and (edge - s) * (2 * s) ** (1 / 3) >= 7.5:
            break
        n -= 1
    return n


@dataclass(frozen=True)
class HermiteBasis:
    """Sampled L2-normalized Hermite functions h_0..h_n_max per axis, n_max = ``default_n_max(grid)``.

    2-D bases are tensor products of the same axis table; the total order is
    the sum of the axis orders.
    """

    grid: Grid
    n_max: int
    values: np.ndarray  # (n, n_max+1) axis table

    def __post_init__(self):
        object.__setattr__(self, "values", _as_readonly(self.values))

    @classmethod
    def build(cls, grid: Grid) -> "HermiteBasis":
        n_max = default_n_max(grid)
        if grid.n * (n_max + 1) > MAX_HERMITE_ENTRIES:
            raise ValueError(
                f"n_max {n_max} on n = {grid.n} needs {grid.n * (n_max + 1)} Hermite table entries, "
                f"more than {MAX_HERMITE_ENTRIES}"
            )
        H = _hermite_values(grid.axis(), n_max)
        gram = grid.spacing * (H.T @ H)
        err = float(np.max(np.abs(gram - np.eye(n_max + 1))))
        if err > GRAM_TOL:
            raise ValueError(
                f"basis not orthonormal on this grid (Gram error {err:.2e}): "
                f"order {n_max} spills outside the box of half-width {grid.half_width:g}; a larger box helps"
            )
        return cls(grid, n_max, H)


@dataclass(frozen=True)
class PropagatedState:
    state: SampledDistribution
    truncation_error: float

    def __post_init__(self):
        if not 0.0 <= self.truncation_error <= 1.0 + 1e-12:
            raise ValueError("truncation_error must lie in [0, 1]")


def hermite_coefficients(u: SampledDistribution, basis: HermiteBasis) -> tuple[np.ndarray, float]:
    """Grid inner products (u, h_n) in ascending order, plus the relative
    truncation error of the expansion."""
    if u.grid != basis.grid:
        raise ValueError("basis was built for a different grid")
    coeffs = u.grid.cell_volume * apply_per_axis(basis.values.T, u.samples)
    return coeffs, _relative_error(u, apply_per_axis(basis.values, coeffs))


def _relative_error(u: SampledDistribution, approx: np.ndarray) -> float:
    """Grid L2 norm of ``u - approx`` relative to that of ``u``, at most 1; 0 for ``u = 0``."""
    unorm = u.norm()
    return 0.0 if unorm == 0 else min(grid_norm(u.samples - approx, u.grid.cell_volume) / unorm, 1.0)


def _synthesize(basis: HermiteBasis, coeffs: np.ndarray) -> SampledDistribution:
    return SampledDistribution(basis.grid, apply_per_axis(basis.values, coeffs))


def harmonic_propagate(u: SampledDistribution, t: float, basis: HermiteBasis) -> PropagatedState:
    """Evolve by the oscillator for time t via eigenphases
    ``exp(-i t (2|n| + d))``; unitary on the retained coefficients."""
    coeffs, trunc = hermite_coefficients(u, basis)
    if trunc > 0.01:
        warnings.warn(
            f"harmonic_propagate: {trunc:.1%} of the state lies beyond order "
            f"{basis.n_max}; the result is the evolution of the truncated state",
            stacklevel=2,
        )
    orders = np.arange(basis.n_max + 1)
    axis_phase = np.exp(-1j * t * (2 * orders + 1))
    rotated = coeffs * outer_per_axis((axis_phase,) * u.grid.dim)
    return PropagatedState(_synthesize(basis, rotated), trunc)


def taper_expansion(u: SampledDistribution, basis: HermiteBasis) -> PropagatedState:
    """Projection onto the basis with a smooth spectral roll-off on the top
    orders.

    A sharp cutoff at n_max acts like a hard phase-space aperture: its kernel
    rings at the 1e-3 level across the whole classical disk and fakes slow
    decay along position directions.  Rolling the coefficients off smoothly
    between ``TAPER_ONSET * n_max`` and ``n_max`` pushes that leakage below the
    detector floor while leaving the represented singularity structure (radii
    within the retained disk) unchanged.  The reported truncation error is
    relative to the original state.
    """
    coeffs, _ = hermite_coefficients(u, basis)
    weight = _plateau(np.arange(basis.n_max + 1) / basis.n_max, TAPER_ONSET, 1.0)
    smooth = coeffs * outer_per_axis((weight,) * u.grid.dim)
    state = _synthesize(basis, smooth)
    return PropagatedState(state, _relative_error(u, state.samples))


def _reflect(samples: np.ndarray) -> np.ndarray:
    # x_j -> -x_j is index j -> (n - j) mod n on the centered periodic grid
    axes = tuple(range(samples.ndim))
    return np.roll(np.flip(samples, axes), 1, axes)


def special_time_operator(u: SampledDistribution, k: int = 1, quarter: bool = False) -> SampledDistribution:
    """Exact evolution at lattice times.

    Half periods (t = pi k / 2, ``quarter=False``): the reflection
    ``u(x) -> u((-1)^k x)``.  Quarter times (t in pi(1 + 2Z)/4,
    ``quarter=True``): the scaled Fourier transform ``(2 pi)^{-d/2} F u``,
    evaluated back on the original grid: ``nudft`` at the position grid
    points, not the dual grid.
    """
    if quarter:
        xi = np.column_stack([m.ravel() for m in u.grid.meshes()])
        return SampledDistribution(u.grid, (2 * np.pi) ** (-u.grid.dim / 2) * nudft(u, xi).reshape(u.grid.shape))
    if k % 2 == 0:
        return u
    return SampledDistribution(u.grid, _reflect(u.samples), kind=u.kind)


@dataclass(frozen=True)
class VerificationReport:
    """Forecast and detection after evolution; directions are read-only (k, 2d) arrays."""

    t: float
    predicted_dirs: np.ndarray
    detected_dirs: np.ndarray
    hausdorff_angle: float
    smooth_expected: bool
    smooth_detected: bool
    truncation_error: float
    ang_tol: float
    passed: bool

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            predicted_dirs=self.predicted_dirs.tolist(),
            detected_dirs=self.detected_dirs.tolist(),
            hausdorff_angle=_json_num(self.hausdorff_angle),
        )
        return out


def verify_propagation(
    u0: SampledDistribution,
    ground_truth: GroundTruth,
    t: float,
    window: Window,
    n_thresh: float = DEFAULT_N_THRESH,
    ang_tol: float | None = None,
) -> VerificationReport:
    """Evolve, detect, and compare against the flow forecast.

    The forecast rotates the ground-truth generators with the oscillator's
    phase-space flow.  At half-period lattice times the evolution is the exact
    identity or reflection and detection runs on the grid's own ladder; at
    any other time the state is evolved in the tapered Hermite basis, built
    only there, and detection radii stay inside the phase-space disk that
    basis keeps.  Away from lattice times the forecast avoids the
    pure-frequency sphere and the detection must report a smooth state.  The
    detector reports sampled directions, so smoothness is forecast from the
    sampled direction nearest each forecast generator; the Hausdorff check
    keeps the exact forecast.
    """
    if not np.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    d = u0.grid.dim

    # the evolution and the flow are 2 pi periodic: one reduced angle (exact,
    # and t itself when |t| < 2 pi) serves the lattice test, the evolution and
    # the forecast, also where t / (pi / 2) has no fractional bits left
    angle = math.fmod(t, 2 * np.pi)
    half_periods = angle / (np.pi / 2)
    if abs(half_periods - round(half_periods)) < 1e-9:
        moved, trunc = special_time_operator(u0, k=int(round(half_periods))), 0.0
        sampling = phase_space_rays(u0.grid)
    else:
        basis = HermiteBasis.build(u0.grid)
        # inside the disk kept below the spectral taper, so below the sampler's cap
        sampling = phase_space_rays(u0.grid, r_max=0.8 * np.sqrt(2 * TAPER_ONSET * basis.n_max + d))
        # the tapered state lies in the basis span, so evolving it truncates
        # nothing more and ``harmonic_propagate`` does not warn
        smoothed = taper_expansion(u0, basis)
        moved, trunc = harmonic_propagate(smoothed.state, angle, basis).state, smoothed.truncation_error
    ang_tol = angular_tolerance(sampling, ang_tol)
    oscillator = QuadraticHamiltonian(d, 1j * np.eye(2 * d))
    predicted = _as_readonly(propagate_wf_set(oscillator, angle, ground_truth.gabor_wf_dirs))

    report = estimate_gabor_wf(moved, window, sampling, n_thresh)
    dist = hausdorff_angle(predicted, report.singular_dirs)
    snapped = sampling.directions[_angles(predicted, sampling.directions).argmin(axis=1)]
    smooth_expected = bool(frequency_gap(snapped) > ang_tol)
    smooth_detected = schwartz_direction_test(report, ang_tol)
    passed = bool(dist <= ang_tol and smooth_expected == smooth_detected)
    return VerificationReport(
        float(t),
        predicted,
        report.singular_dirs,
        dist,
        smooth_expected,
        smooth_detected,
        trunc,
        float(ang_tol),
        passed,
    )
