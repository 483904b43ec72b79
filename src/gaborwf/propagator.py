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

import warnings
from dataclasses import dataclass

import numpy as np

from .signal import Grid, SampledDistribution, GroundTruth, _hermite_values, apply_per_axis, outer_per_axis
from .stft import Window, _plateau
from .symplectic import QuadraticHamiltonian, propagate_wf_set
from .wavefront import (
    RaySampling,
    WavefrontReport,
    estimate_gabor_wf,
    frequency_cap,
    hausdorff_angle,
    phase_space_rays,
    position_cap,
    require_positive,
    schwartz_direction_test,
    _json_num,
)

GRAM_TOL = 1e-8


def default_n_max(grid: Grid) -> int:
    """Largest order whose classical turning radius sqrt(2n+1) clears the box
    edge by enough Airy-decay lengths for grid orthonormality, capped by
    frequency resolvability n/4."""
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
    """Sampled L2-normalized Hermite functions h_0..h_n_max (per axis).

    2-D bases are tensor products of the same axis table; the total order is
    the sum of the axis orders.
    """

    grid: Grid
    n_max: int
    values: np.ndarray  # (n, n_max+1) axis table

    def __post_init__(self):
        v = np.ascontiguousarray(self.values)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def build(cls, grid: Grid, n_max: int | None = None) -> "HermiteBasis":
        if n_max is None:
            n_max = default_n_max(grid)
        if n_max > grid.n // 4:
            raise ValueError(f"n_max {n_max} exceeds the resolvable bound n/4 = {grid.n // 4}")
        H = _hermite_values(grid.axis(), n_max)
        gram = grid.spacing * (H.T @ H)
        err = float(np.max(np.abs(gram - np.eye(n_max + 1))))
        if err > GRAM_TOL:
            raise ValueError(
                f"basis not orthonormal on this grid (Gram error {err:.2e}): "
                f"order {n_max} spills outside the box; lower n_max"
            )
        return cls(grid, n_max, H)


@dataclass(frozen=True)
class PropagatedState:
    state: SampledDistribution
    t: float
    truncation_error: float

    def __post_init__(self):
        if not 0.0 <= self.truncation_error <= 1.0 + 1e-12:
            raise ValueError("truncation_error must lie in [0, 1]")


def hermite_coefficients(u: SampledDistribution, basis: HermiteBasis) -> tuple[np.ndarray, float]:
    """Grid inner products (u, h_n) in ascending order, plus the relative
    truncation error of the expansion."""
    if u.grid != basis.grid:
        raise ValueError("basis was built for a different grid")
    g = u.grid
    H = basis.values
    coeffs = g.cell_volume * apply_per_axis(H.conj().T, u.samples)
    synth = apply_per_axis(H, coeffs)
    unorm = u.norm()
    if unorm == 0:
        return coeffs, 0.0
    resid = float(np.sqrt(np.sum(np.abs(u.samples - synth) ** 2) * g.cell_volume)) / unorm
    return coeffs, min(resid, 1.0)


def _synthesize(basis: HermiteBasis, coeffs: np.ndarray, label: str) -> SampledDistribution:
    vals = apply_per_axis(basis.values, coeffs)
    return SampledDistribution(basis.grid, vals, kind="function", label=label)


def harmonic_propagate(
    u: SampledDistribution, t: float, basis: HermiteBasis | None = None
) -> PropagatedState:
    """Evolve by the oscillator for time t via eigenphases
    ``exp(-i t (2|n| + d))``; unitary on the retained coefficients."""
    if basis is None:
        basis = HermiteBasis.build(u.grid)
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
    state = _synthesize(basis, rotated, label=f"osc[t={t:g}]({u.label})")
    return PropagatedState(state, float(t), trunc)


def taper_expansion(u: SampledDistribution, basis: HermiteBasis, onset: float = 0.7) -> PropagatedState:
    """Projection onto the basis with a smooth spectral roll-off on the top
    orders.

    A sharp cutoff at n_max acts like a hard phase-space aperture: its kernel
    rings at the 1e-3 level across the whole classical disk and fakes slow
    decay along position directions.  Rolling the coefficients off smoothly
    between ``onset * n_max`` and ``n_max`` pushes that leakage below the
    detector floor while leaving the represented singularity structure (radii
    within the retained disk) unchanged.  The reported truncation error is
    relative to the original state.
    """
    coeffs, _ = hermite_coefficients(u, basis)
    orders = np.arange(basis.n_max + 1)
    lo = onset * basis.n_max
    weight = _plateau(orders / basis.n_max, onset, 1.0) if basis.n_max > 0 else np.ones(1)
    weight[orders <= lo] = 1.0
    smooth = coeffs * outer_per_axis((weight,) * u.grid.dim)
    state = _synthesize(basis, smooth, label=f"taper[{u.label}]")
    unorm = u.norm()
    if unorm == 0:
        err = 0.0
    else:
        err = float(
            np.sqrt(np.sum(np.abs(u.samples - state.samples) ** 2) * u.grid.cell_volume) / unorm
        )
    return PropagatedState(state, 0.0, min(err, 1.0))


def _reflect(samples: np.ndarray) -> np.ndarray:
    # x_j -> -x_j is index j -> (n - j) mod n on the centered periodic grid
    out = samples
    for axis in range(samples.ndim):
        idx = (-np.arange(samples.shape[axis])) % samples.shape[axis]
        out = np.take(out, idx, axis=axis)
    return out


def _fourier_on_same_grid(u: SampledDistribution) -> np.ndarray:
    """uhat evaluated at the position grid points (not the dual grid), by
    direct separable sums; needed to compose Fourier-type operators with
    position-side states."""
    g = u.grid
    x = g.axis()
    D = np.exp(-1j * np.outer(x, x)) * g.spacing
    return apply_per_axis(D, u.samples)


def special_time_operator(u: SampledDistribution, k: int = 1, quarter: bool = False) -> SampledDistribution:
    """Exact evolution at lattice times.

    Half periods (t = pi k / 2, ``quarter=False``): the reflection
    ``u(x) -> u((-1)^k x)``.  Quarter times (t in pi(1 + 2Z)/4,
    ``quarter=True``): the scaled Fourier transform ``(2 pi)^{-d/2} F u``,
    evaluated back on the original grid.
    """
    if quarter:
        vals = (2 * np.pi) ** (-u.grid.dim / 2) * _fourier_on_same_grid(u)
        return SampledDistribution(u.grid, vals, kind="function", label=f"qF[{u.label}]")
    if k % 2 == 0:
        return u
    return SampledDistribution(u.grid, _reflect(u.samples), kind=u.kind, label=f"refl[{u.label}]")


@dataclass(frozen=True)
class VerificationReport:
    """Side-by-side comparison of forecast and detection after evolution."""

    t: float
    predicted_dirs: tuple[tuple[float, ...], ...]
    detected_dirs: tuple[tuple[float, ...], ...]
    hausdorff_angle: float
    smooth_expected: bool
    smooth_detected: bool
    truncation_error: float
    ang_tol: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "predicted_dirs": [list(d) for d in self.predicted_dirs],
            "detected_dirs": [list(d) for d in self.detected_dirs],
            "hausdorff_angle": _json_num(self.hausdorff_angle),
            "smooth_expected": self.smooth_expected,
            "smooth_detected": self.smooth_detected,
            "truncation_error": self.truncation_error,
            "ang_tol": self.ang_tol,
            "passed": self.passed,
        }


def verify_propagation(
    u0: SampledDistribution,
    ground_truth: GroundTruth,
    t: float,
    window: Window | None = None,
    sampling: RaySampling | None = None,
    n_thresh: float = 2.5,
    ang_tol: float | None = None,
    basis: HermiteBasis | None = None,
) -> VerificationReport:
    """Evolve, detect, and compare against the flow forecast.

    The forecast rotates the ground-truth generators with the oscillator's
    phase-space flow; detection radii stay inside the phase-space disk the
    truncated basis can represent.  Away from half-period lattice times the
    forecast avoids the pure-frequency sphere and the detection must report a
    smooth state.
    """
    if not np.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    d = u0.grid.dim
    if basis is None:
        basis = HermiteBasis.build(u0.grid)
    if window is None:
        window = Window(0.5, dim=d)
    if sampling is None:
        # stay inside the phase-space disk retained below the spectral taper
        kept = np.sqrt(2 * 0.7 * basis.n_max + u0.grid.dim)
        grid_cap = max(position_cap(u0.grid), frequency_cap(u0.grid))
        sampling = phase_space_rays(u0.grid, r_max=min(0.8 * kept, grid_cap))
    if ang_tol is None:
        ang_tol = 2 * sampling.angular_step
    require_positive("ang_tol", ang_tol)

    half_periods = t / (np.pi / 2)
    if abs(half_periods - round(half_periods)) < 1e-9:
        # at lattice times the evolution is exactly the identity/reflection;
        # using it sidesteps the truncated spike's basis artifacts entirely
        moved = PropagatedState(special_time_operator(u0, k=int(round(half_periods))), t, 0.0)
    else:
        smoothed = taper_expansion(u0, basis)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evolved = harmonic_propagate(smoothed.state, t, basis)
        moved = PropagatedState(evolved.state, evolved.t, smoothed.truncation_error)
    oscillator = QuadraticHamiltonian(d, 1j * np.eye(2 * d))
    truth_dirs = np.array(ground_truth.gabor_wf_dirs, dtype=float).reshape(-1, 2 * d)
    predicted = propagate_wf_set(oscillator, t, truth_dirs) if len(truth_dirs) else np.zeros((0, 2 * d))

    report: WavefrontReport = estimate_gabor_wf(moved.state, window, sampling, n_thresh)
    detected = [np.array(z) for z in report.singular_dirs]
    dist = hausdorff_angle([p for p in predicted], detected)
    freq_gap = min(
        (np.arccos(np.clip(np.linalg.norm(p[d:]), -1, 1)) for p in predicted), default=np.inf
    )
    smooth_expected = bool(freq_gap > ang_tol)
    smooth_detected = schwartz_direction_test(report, ang_tol)
    passed = bool(dist <= ang_tol and smooth_expected == smooth_detected)
    return VerificationReport(
        float(t),
        tuple(tuple(p) for p in predicted),
        tuple(report.singular_dirs),
        float(dist),
        smooth_expected,
        smooth_detected,
        moved.truncation_error,
        float(ang_tol),
        passed,
    )
