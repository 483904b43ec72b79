"""Grid-sampled distributions, a catalog with analytic ground truth, and the
global Fourier transform.

Conventions
-----------
* Position grid: ``x_j = -L/2 + j*h`` with ``h = L/n``, ``n`` a power of two.
* Fourier transform: ``uhat(xi) = sum_j u(x_j) exp(-i <x_j, xi>) h^d``, the
  Riemann sum of ``\\int u(x) e^{-i<x,xi>} dx``.  The dual grid has spacing
  ``2*pi/L`` and half-width ``pi/h``.
* Point masses carry amplitude ``1/h^d`` per unit mass so grid pairings
  reproduce distributional pairings.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

SAMPLE_MAGIC = b"GWF2"
# header: magic, dim, n, L, kind code (an index into KINDS), padding
_SAMPLE_HEADER = "<4sII d I 8x"
# the kinds of a SampledDistribution; their order fixes the kind codes of dumps
KINDS = ("function", "singular-spike")
# samples of one grid, n**dim: 16 MB of complex128, whose FFT and mesh
# temporaries take a few times that, and every kernel value sums over all of
# them; the default grids hold 1,024 (1-D) and 65,536 (2-D)
MAX_GRID_SAMPLES = 2**20
# the smallest |V| the detectors read; catalog entries fall below it at their grid's edges
STFT_FLOOR = 1e-14


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def apply_per_axis(M: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``M`` applied along every axis of ``a``: ``M @ a``, then ``@ M.T`` in 2-D."""
    out = M @ a
    for _ in range(1, a.ndim):
        out = out @ M.T
    return out


def _scaled_abs(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``|values| 2**-e`` and ``e``: 0 unless the largest |value| lies outside
    [2**-500, 2**500], where squares overflow or underflow, else its exponent.
    Sums of squares then scale exactly, so ordinary values keep their bits."""
    a = np.abs(values)
    peak = a.max(initial=0.0)
    e = 0 if 2.0**-500 <= peak <= 2.0**500 or peak == 0 else int(np.frexp(peak)[1])
    return (np.ldexp(a, -e) if e else a), e


def grid_norm(values: np.ndarray, cell_volume: float) -> float:
    """Grid L2 norm ``sqrt(sum |values|^2 cell_volume)``, scaled by ``_scaled_abs``."""
    a, e = _scaled_abs(values)
    return float(np.ldexp(np.sqrt(np.sum(a**2) * cell_volume), e))


def outer_per_axis(vectors) -> np.ndarray:
    """Tensor product of one vector per axis: the vector itself in 1-D."""
    return functools.reduce(np.multiply.outer, vectors)


@dataclass(frozen=True)
class Grid:
    """Centered uniform grid on ``[-L/2, L/2)^dim`` with ``n`` points per axis."""

    dim: int
    n: int
    half_width: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 16 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")
        if self.n**self.dim > MAX_GRID_SAMPLES:
            raise ValueError(f"n must keep n**{self.dim} <= {MAX_GRID_SAMPLES} grid samples, got {self.n}")
        if not 0 < self.half_width < np.inf:
            raise ValueError(f"half_width must be finite and positive, got {self.half_width}")
        # point masses carry amplitude 1/h^d, so h^d must neither overflow nor underflow
        if not 1e-150 < self.spacing < 1e150:
            raise ValueError(f"grid spacing {self.spacing} outside [1e-150, 1e150]")

    @property
    def length(self) -> float:
        return 2.0 * self.half_width

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def axis(self) -> np.ndarray:
        """Sample points of one axis, ``x_j = -L/2 + j*h``."""
        return (np.arange(self.n) - self.n // 2) * self.spacing

    def dual_axis(self) -> np.ndarray:
        """Frequency samples of one axis, spacing ``2*pi/L``."""
        return (np.arange(self.n) - self.n // 2) * (2.0 * np.pi / self.length)

    def dual(self) -> "Grid":
        """The frequency-side grid; its dual is this grid again."""
        return Grid(self.dim, self.n, np.pi / self.spacing)

    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*(self.axis(),) * self.dim, indexing="ij"))

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim


def make_grid(dim: int, n: int, half_width: float) -> Grid:
    """Build a validated grid.  ``half_width`` is L/2 per axis."""
    return Grid(dim, n, float(half_width))


@dataclass(frozen=True)
class SampledDistribution:
    """Complex samples of a distribution on a grid.

    ``kind`` is ``"function"`` for pointwise-sampled (or band-limited) objects
    and ``"singular-spike"`` for point masses stored with the ``1/h^d``
    amplitude convention.
    """

    grid: Grid
    samples: np.ndarray
    kind: str = "function"

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.complex128)
        if s.shape != self.grid.shape:
            raise ValueError(f"samples shape {s.shape} != grid shape {self.grid.shape}")
        # a non-finite sample makes every decay fit NaN, which reads as regular
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "samples", _as_readonly(s))

    def norm(self) -> float:
        """Grid L2 norm, ``sqrt(sum |u|^2 h^d)``."""
        return grid_norm(self.samples, self.grid.cell_volume)

    def central_mass_fraction(self) -> float:
        """Fraction of the L2 mass inside the central box ``[-L/4, L/4]^d``."""
        inside = np.abs(self.grid.axis()) <= self.grid.half_width / 2
        mask = outer_per_axis((inside,) * self.grid.dim)
        a, _ = _scaled_abs(self.samples)
        total = np.sum(a**2)
        if total == 0:
            return 1.0
        return float(np.sum(a[mask] ** 2) / total)


@dataclass(frozen=True)
class GroundTruth:
    """Analytic singular directions of a catalog entry: read-only arrays of
    unit generators.  ``sigma_dirs`` (k, d) generates the frequency cone of a
    compactly supported or Schwartz entry, and the phase-space cone is derived
    by the main identity, ``gabor_wf_dirs = {0} x sigma_dirs`` row by row.
    Only an entry outside that theory (``sigma_dirs`` None) gives its (k, 2d)
    ``gabor_wf_dirs`` by hand.  A full-sphere cone is stored as a symmetric
    generator fan (see the catalog notes).
    """

    sigma_dirs: np.ndarray | None
    support_radius: float
    gabor_wf_dirs: np.ndarray | None = None

    def __post_init__(self):
        if (self.sigma_dirs is None) == (self.gabor_wf_dirs is None):
            raise ValueError("give sigma_dirs, or gabor_wf_dirs where sigma_dirs is None, not both")
        if self.sigma_dirs is not None:
            sigma = _as_readonly(np.array(self.sigma_dirs, dtype=float))
            object.__setattr__(self, "sigma_dirs", sigma)
            object.__setattr__(self, "gabor_wf_dirs", np.hstack([np.zeros_like(sigma), sigma]))
        if np.ndim(self.gabor_wf_dirs) != 2:
            raise ValueError("cone generators must be a (k, d) array")
        object.__setattr__(self, "gabor_wf_dirs", _as_readonly(np.array(self.gabor_wf_dirs, dtype=float)))

    @property
    def is_schwartz(self) -> bool:
        """Whether both cones are empty: a smooth, rapidly decaying entry."""
        return self.theorem_applicable and len(self.sigma_dirs) == 0

    @property
    def theorem_applicable(self) -> bool:
        """Whether the compact-support identity applies (compact or Schwartz)."""
        return self.sigma_dirs is not None


# ---------------------------------------------------------------------------
# Fourier transform
# ---------------------------------------------------------------------------

def _centered_fft(samples: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(samples)))


def _centered_ifft(samples: np.ndarray) -> np.ndarray:
    return np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(samples)))


def fourier_transform(u: SampledDistribution) -> SampledDistribution:
    """Riemann-sum Fourier transform, returned on the dual grid.

    Exactly ``uhat(xi_k) = sum_j u(x_j) exp(-i<x_j, xi_k>) h^d`` at every dual
    grid frequency, evaluated by a centered FFT.
    """
    g = u.grid
    vals = _centered_fft(u.samples) * g.cell_volume
    return SampledDistribution(g.dual(), vals)


def synthesize_from_spectrum(grid: Grid, spectrum: Callable[..., np.ndarray]) -> SampledDistribution:
    """Band-limited samples whose grid Fourier transform equals ``spectrum``
    exactly at dual grid frequencies.

    Point sampling of discontinuous profiles leaves O(h) quadrature error in
    the transform; synthesizing from the exact spectrum removes it.
    """
    spec = spectrum(*np.meshgrid(*(grid.dual_axis(),) * grid.dim, indexing="ij"))
    vals = _centered_ifft(np.asarray(spec, dtype=np.complex128)) / grid.cell_volume
    return SampledDistribution(grid, vals)


# factor entries per chunk of points, taken in call order: 1,024 points at
# n = 256 in 2-D, with at most as many first-axis rows, shared only within
# the chunk, and a quarter of them in 1-D, 1,024 points at n = 1,024 (see
# chunk_points)
SUM_CHUNK_ELEMENTS = 2**18
# points per call of a caller that slices its points, as the ray sampler
# does: every chunk divides it, so the slices give the bits of one call.
# Four slices for the default 2-D detection, one for the default 1-D one
SLICE_POINTS = 2**15
# entries per gathered block of a chunk, each point holding its kept last-axis
# entries: 128 points of box2d (256 entries), 341 of line_delta_2d (96).
# Blocks this small stay in cache and reuse one heap buffer; gathering a
# whole 2-D chunk at once page-faults fresh buffers on every chunk, a third
# of the call
SUM_GATHER_ELEMENTS = 2**15
# window centers are clipped to this many widths beyond the grid: from there
# on exp(-R^2 / 2) underflows to 0, and so does every window value
WINDOW_REACH = 39.0
# largest real exponent of a Gaussian fine factor and of the coupling folded
# into the samples.  Their products with the samples stay far from overflow,
# and rounding an exponent z moves a term by about |z| ulps
SPLIT_EXPONENT_BOUND = 340.0


def axis_split(grid: Grid, lam: float | None = None) -> int:
    """Fine length ``m`` of the coarse × fine split of a grid axis into
    ``n / m`` blocks of ``m`` samples.

    ``2**((log2 n) // 2)`` (32 at n = 1,024, 16 at n = 256), halved for a
    Gaussian of width ``lam`` while ``(dim L/2 + WINDOW_REACH lam + m h / 4)
    (m / 2) h / lam**2`` exceeds ``SPLIT_EXPONENT_BOUND``.  That bounds the
    real exponent of every fine factor, whose window center is clipped to
    ``L/2 + WINDOW_REACH lam``, and of the coupling folded into the samples,
    ``dim L/2 (m / 2) h / lam**2`` over all axes.
    """
    m = 2 ** ((grid.n.bit_length() - 1) // 2)
    if lam is not None:
        h, reach = grid.spacing, grid.dim * grid.half_width + WINDOW_REACH * lam
        while m > 1 and (reach + m * h / 4) * (m // 2) * h > SPLIT_EXPONENT_BOUND * lam**2:
            m //= 2
    return m


def chunk_points(grid: Grid, lam: float | None = None) -> int:
    """Points per chunk of ``separable_sum`` with a Gaussian of width ``lam``
    (None: a Fourier sum), at least one: ``SUM_CHUNK_ELEMENTS`` factor entries
    at ``n`` per point in 2-D, and a quarter of them at ``2 max(n / m, m)``
    per point in 1-D (``n / m + m`` rounded up to a power of two), 1,024
    points at n = 1,024, whose 512 KB tables stay in cache.  A power of two
    at most ``SLICE_POINTS``, so calls split at multiples of ``SLICE_POINTS``
    give the bits of one call: every chunk holds the same points."""
    m = axis_split(grid, lam)
    return max(SUM_CHUNK_ELEMENTS // (grid.n if grid.dim == 2 else 8 * max(grid.n // m, m)), 1)


def mirror_index(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(distinct |y|, the index of each |y| among them, the sign bits of
    y)``: the table that ``phase_table`` reads."""
    mags, at = np.unique(np.abs(y), return_inverse=True)
    return mags, at, np.signbit(y)


def phase_table(xi: np.ndarray, mirror: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """``np.exp(-1j * np.multiply.outer(xi, y))`` bit for bit, for ``mirror =
    mirror_index(y)``: exponentials of ``xi |y|`` only, conjugated where the
    sign bit of ``y`` is set, since negating ``y`` negates ``xi y`` exactly."""
    mags, at, negative = mirror
    table = np.take(np.exp(-1j * np.multiply.outer(xi, mags)), at, axis=1)
    return np.conjugate(table, out=table, where=negative)


def separable_sum(samples: np.ndarray, grid: Grid, points: np.ndarray, lam: float | None = None) -> np.ndarray:
    """``sum_j samples_j prod_k psi(y_jk - x_k) exp(-i xi_k y_jk) h^d`` at every
    phase point ``(x, xi)`` of ``points``, shape (P, 2*dim), with
    ``psi(t) = (pi lam^2)^(-1/4) exp(-t^2 / (2 lam^2))``, or ``psi = 1`` when
    ``lam`` is None (a Fourier sum).

    Each axis is split into ``n / m`` blocks of ``m`` samples (``axis_split``):
    ``y_j = Y_a + d_b`` with ``j = m a + b``, ``Y_a`` the center of block
    ``a`` and ``d_b = (b - m/2) h``.  Then an axis term is
    ``C[a] F[b] G[a, b]`` with

    * ``C[a] = exp(-(Y_a - x)^2 / (2 lam^2) - i xi Y_a)``, the coarse factor;
    * ``F[b] = exp((x d_b - d_b^2 / 2) / lam^2 - i xi d_b)``, the fine factor;
    * ``G[a, b] = (pi lam^2)^(-1/4) exp(-Y_a d_b / lam^2)``, which does not
      depend on the point and is folded into the samples once per call.

    Only the blocks that hold a nonzero sample once ``G`` is folded in are
    contracted, per axis, read from the samples on every call with an exact
    ``!= 0`` test: a block of zeros adds only exact zeros, so dropping it
    can change only the rounding order of the kept terms, and all-zero
    samples give exact zeros.  ``C`` is built over the kept block centers
    only.  The Gaussian parts are real exponentials built once per distinct
    ``x_k`` of a chunk, the phase parts once per distinct ``xi_k``, at most
    ``n / m + m`` entries each, with the phases mirrored (``phase_table``)
    from index tables built once per call.  ``x`` is clipped to
    ``±(L/2 + WINDOW_REACH lam)``, where every window value is already 0.
    Evaluation is chunked in call order, ``chunk_points`` points per chunk,
    which divides ``SLICE_POINTS``: calls split at its multiples give the
    bits of one call.  In 2-D the first axis materializes ``C ⊗ F`` over its
    kept blocks once per bit-distinct clipped pair ``(x_0, xi_0)`` of a
    chunk, at that pair, for ``t = rows @ samples`` over the kept rows and
    last-axis blocks, so a caller passes equal pairs side by side, as the
    ray sampler does; each point contracts its gathered ``t[index]``, a
    (kept blocks, ``m``) block, with its last-axis ``C`` and ``F``,
    ``SUM_GATHER_ELEMENTS`` kept entries at a time.  In 1-D that block is the kept samples for every point, so
    ``C @ block`` is one matmul.  No factor holds n entries per point.

    Two known limits: a point's value can move by about 1e-16 with the other
    points of its chunk, which decide only the row count of ``rows @
    samples`` and so the BLAS kernel; and the Gaussian split loses terms to
    underflow where the whole sum lies below about 1e-259, so such a sum can
    come out 0.
    """
    g, d = grid, grid.dim
    m = axis_split(g, lam)
    reach = np.inf if lam is None else g.half_width + WINDOW_REACH * lam
    y = g.axis()
    centers, offsets = y[m // 2 :: m], (np.arange(m) - m // 2) * g.spacing
    if lam is not None:
        coupling = (np.pi * lam**2) ** -0.25 * np.exp(-np.multiply.outer(centers, offsets) / lam**2)
        samples = samples * outer_per_axis((coupling.ravel(),) * d)

    # axis k's blocks that hold a nonzero sample: any over every other axis
    samples = samples.reshape((g.n // m, m) * d)
    keep = [np.flatnonzero((samples != 0).any(axis=tuple(np.delete(range(2 * d), 2 * k)))) for k in range(d)]
    # copied only where a block is dropped: samples filling the grid are read in place
    if len(keep[0]) < g.n // m:
        samples = samples[keep[0]]
    if d == 2:
        samples = samples[:, :, keep[1]] if len(keep[1]) < g.n // m else samples
        samples = samples.reshape(len(keep[0]) * m, len(keep[1]) * m)
    kept_centers = [centers[kept] for kept in keep]
    center_mirrors, offset_mirror = [mirror_index(ys) for ys in kept_centers], mirror_index(offsets)

    def factors(x, xi, k):
        ys = kept_centers[k]
        xis, ixi = np.unique(xi, return_inverse=True)
        coarse = phase_table(xis, center_mirrors[k])[ixi]
        fine = phase_table(xis, offset_mirror)[ixi]
        if lam is not None:
            xs, ix = np.unique(x, return_inverse=True)
            coarse *= np.exp(-((ys - xs[:, None]) ** 2) / (2 * lam**2))[ix]
            fine *= np.exp((np.multiply.outer(xs, offsets) - offsets**2 / 2) / lam**2)[ix]
        return coarse, fine

    chunk = chunk_points(g, lam)
    step = SUM_GATHER_ELEMENTS // max(len(keep[-1]) * m, 1)  # all-zero samples keep no block
    out = np.empty(len(points), dtype=np.complex128)
    for lo in range(0, len(points), chunk):
        block = points[lo : lo + chunk].copy()
        np.clip(block[:, :d], -reach, reach, out=block[:, :d])
        coarse, fine = factors(block[:, d - 1], block[:, -1], d - 1)
        if d == 1:
            # the kept samples are every point's (blocks, m) block: one matmul
            part = coarse @ samples
        else:
            # one first-axis row per bit-distinct pair of the chunk, at that pair
            pairs, index = np.unique(block[:, 0] + 1j * block[:, d], return_inverse=True)
            coarse_0, fine_0 = factors(pairs.real, pairs.imag, 0)
            rows = (coarse_0[:, :, None] * fine_0[:, None, :]).reshape(len(pairs), len(samples))
            t = (rows @ samples).reshape(len(pairs), len(keep[1]), m)
            blocks = range(0, len(block), step)
            part = np.concatenate([np.matmul(coarse[a : a + step, None], t[index[a : a + step]])[:, 0] for a in blocks])
        out[lo : lo + chunk] = np.einsum("pb,pb->p", part, fine)
    out *= g.cell_volume
    return out


def kernel_points(grid: Grid, points, what: str) -> np.ndarray:
    """``what`` ("phase" or "frequency") points as a float (P, k) array whose
    last ``dim`` columns are frequencies, admitted in one vectorized test:
    finite, with ``|xi| L/2 <= sys.float_info.max``, past which a phase
    ``xi y`` of the grid overflows and the kernel returns NaN."""
    pts, width = np.atleast_2d(np.asarray(points, dtype=float)), (2 if what == "phase" else 1) * grid.dim
    if pts.shape[1] != width:
        raise ValueError(f"expected {what} points of dim {width}")
    reach = np.repeat([1.0, grid.half_width], [width - grid.dim, grid.dim])
    with np.errstate(over="ignore"):
        if not np.all(np.abs(pts) * reach <= sys.float_info.max):
            raise ValueError(f"{what} point components must be finite, with |xi| L/2 at most {sys.float_info.max:g}")
    return pts


def nudft(u: SampledDistribution, xi_points: np.ndarray) -> np.ndarray:
    """``uhat`` at arbitrary frequency points, shape (P, dim): direct sums, no
    interpolation.

    The ``separable_sum`` kernel without a window: the coarse factor
    ``exp(-i xi Y_a)`` and the fine factor ``exp(-i xi d_b)``, about
    ``(n / m + m) / 2`` exponentials per distinct ``xi_k`` instead of ``n``.  In 2-D, bit-equal
    first-axis frequencies of one chunk share one row, so a caller passes
    them side by side.
    """
    g = u.grid
    pts = kernel_points(g, xi_points, "frequency")
    return separable_sum(u.samples, g, np.hstack([np.zeros_like(pts), pts]))


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

BUMP_DEFAULT_WIDTH = 4.0


def _bump_profile(x: np.ndarray, width: float) -> np.ndarray:
    """Smooth compactly supported profile, 1 at the origin, 0 outside |x|>=width.

    The squared reciprocal in the exponent flattens the support edge, which
    speeds up the transform's super-polynomial decay enough for the decay
    detectors to classify the profile as regular with a wide margin.
    """
    t = np.asarray(x, dtype=float) / width
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2) ** 2)
    return out


def _hermite_values(x: np.ndarray, n_max: int) -> np.ndarray:
    """L2-normalized Hermite functions h_0..h_n_max by the stable recurrence
    ``h_n = x sqrt(2/n) h_{n-1} - sqrt((n-1)/n) h_{n-2}``."""
    H = np.zeros((len(x), n_max + 1))
    H[:, 0] = np.pi**-0.25 * np.exp(-(x**2) / 2)
    if n_max >= 1:
        H[:, 1] = np.sqrt(2.0) * x * H[:, 0]
    for k in range(2, n_max + 1):
        H[:, k] = np.sqrt(2.0 / k) * x * H[:, k - 1] - np.sqrt((k - 1) / k) * H[:, k - 2]
    return H


def _box_axis_spectrum(xi: np.ndarray, a: float) -> np.ndarray:
    """Transform of the indicator of [-a, a] along one axis, ``2 sin(a xi)/xi``."""
    safe = np.where(xi == 0, 1.0, xi)
    return np.where(xi == 0, 2.0 * a, 2.0 * np.sin(a * safe) / safe)


def _require_support(name: str, grid: Grid, radius: float):
    if not radius > 0:
        raise ValueError(f"catalog entry {name!r}: support radius must be positive, got {radius}")
    if radius < grid.spacing:
        # the grid cannot resolve the support: the sampled entry is not the
        # catalogued one, and its ground truth would not hold
        raise ValueError(f"catalog entry {name!r}: support radius {radius} is below the grid spacing {grid.spacing}")
    if radius > grid.half_width / 2:
        raise ValueError(
            f"catalog entry {name!r}: support radius {radius} exceeds L/4 = {grid.half_width / 2}"
            " (periodization risk)"
        )


# the frequency cones of the catalog, (k, d) generators
_POLES = np.array([[1.0], [-1.0]])
_FULL_CIRCLE_FAN = np.column_stack([np.cos(np.pi / 4 * np.arange(8)), np.sin(np.pi / 4 * np.arange(8))])


def _entry_dirac(params: dict, grid: Grid):
    # uhat == 1: no decay in any frequency direction; x-part 0 by compact support.
    truth = GroundTruth(_POLES if grid.dim == 1 else _FULL_CIRCLE_FAN, 0.0)
    vals = np.zeros(grid.shape, dtype=np.complex128)
    center = (grid.n // 2,) * grid.dim
    vals[center] = 1.0 / grid.cell_volume
    return SampledDistribution(grid, vals, kind="singular-spike"), truth


def _entry_dirac_derivative(params: dict, grid: Grid):
    # Central-difference stencil; pairing sum u f h = (-1)^k f^(k)(0) + O(h^2).
    # uhat(xi) = (i sin(h xi)/h)^k grows: both frequency poles stay singular.
    k = params["k"]
    if k < 1 or k > 2:
        raise ValueError("dirac_derivative supports k in {1, 2}")
    h = grid.spacing
    stencil = np.array([1.0, 0.0, -1.0]) / (2 * h)
    weights = stencil
    for _ in range(k - 1):
        weights = np.convolve(weights, stencil)
    vals = np.zeros(grid.n, dtype=np.complex128)
    j0 = grid.n // 2
    half = len(weights) // 2
    vals[j0 - half : j0 + half + 1] = weights / h
    return SampledDistribution(grid, vals, kind="singular-spike"), GroundTruth(_POLES, 0.0)


def _entry_gaussian(params: dict, grid: Grid):
    # exp(-r^2 / 2) falls to STFT_FLOOR at r = reach: the spectrum must reach
    # the floor inside the band pi/h, else it aliases, and the samples inside
    # the box, else the grid's periodization puts a jump at its edge
    sigma, reach = params["sigma"], math.sqrt(-2.0 * math.log(STFT_FLOOR))
    low, high = reach * grid.spacing / np.pi, grid.half_width / reach
    if not low <= sigma <= high:
        raise ValueError(f"gaussian sigma {sigma!r} out of range: the grid resolves sigma in [{low:.6g}, {high:.6g}]")
    try:  # sigma**2 beyond the float range on the widest grids
        with np.errstate(all="raise", under="ignore"):
            r2 = sum(m**2 for m in grid.meshes())
            vals = (np.pi * sigma**2) ** (-grid.dim / 4) * np.exp(-r2 / (2 * sigma**2))
    except ArithmeticError:
        raise ValueError(f"gaussian sigma {sigma!r} is out of range: its samples overflow on this grid") from None
    return SampledDistribution(grid, vals.astype(np.complex128)), GroundTruth(np.empty((0, grid.dim)), np.inf)


def _entry_hermite(params: dict, grid: Grid):
    order = params["n"]
    if order < 0 or order > grid.n // 4:
        raise ValueError("hermite order out of resolvable range")
    vals = _hermite_values(grid.axis(), order)[:, order]
    return SampledDistribution(grid, vals.astype(np.complex128)), GroundTruth(np.empty((0, 1)), np.inf)


def _entry_box(params: dict, grid: Grid):
    # Indicator of [-a, a]; uhat(xi) = 2 sin(a xi)/xi decays at order one only,
    # so both frequency poles are singular.  Band-limited synthesis keeps the
    # grid transform exact at dual frequencies.
    a = params["a"]
    _require_support("box", grid, a)
    dist = synthesize_from_spectrum(grid, lambda xi: _box_axis_spectrum(xi, a))
    return dist, GroundTruth(_POLES, a)


def _entry_chirp(params: dict, grid: Grid):
    # u = exp(i A x^2 / 2) concentrates on the phase-space line xi = A x.
    # Not compactly supported: the frequency cone is left undefined.
    a = params["a"]
    if abs(a) * grid.half_width >= np.pi / grid.spacing:
        raise ValueError("chirp rate unresolvable: instantaneous frequency exceeds the dual band")
    x = grid.axis()
    vals = np.exp(0.5j * a * x**2)
    d = np.array([1.0, a]) / np.hypot(1.0, a)
    return SampledDistribution(grid, vals), GroundTruth(None, np.inf, [d, -d])


def _entry_bump(params: dict, grid: Grid):
    # Smooth and compactly supported, hence Schwartz: both cones are empty.
    w = params["width"]
    _require_support("bump", grid, w)
    vals = _bump_profile(grid.axis(), w)
    return SampledDistribution(grid, vals.astype(np.complex128)), GroundTruth(np.empty((0, 1)), w)


def _entry_line_delta_2d(params: dict, grid: Grid):
    # u = delta(x1) (x) bump(x2): uhat(xi) = bumphat(xi2), rapid decay except
    # near the xi1 axis, so the frequency cone is generated by (+-1, 0).
    w = params["width"]
    _require_support("line_delta_2d", grid, w)
    profile = _bump_profile(grid.axis(), w)
    vals = np.zeros(grid.shape, dtype=np.complex128)
    vals[grid.n // 2, :] = profile / grid.spacing
    return SampledDistribution(grid, vals, kind="singular-spike"), GroundTruth([[1.0, 0.0], [-1.0, 0.0]], w)


def _entry_box2d(params: dict, grid: Grid):
    # Indicator of [-a, a]^2.  uhat = 4 sin(a xi1) sin(a xi2)/(xi1 xi2): order-1
    # decay along the edge normals, order-2 everywhere else (the corners make
    # the full circle singular in the limit).  The stored generators are the
    # four edge normals, which carry the dominant order-1 singularity; the
    # order-2 corner directions sit at the decay-order classification
    # threshold on desk-scale grids and are deliberately not stored.
    a = params["a"]
    _require_support("box2d", grid, a * np.sqrt(2.0))

    def spectrum(xi1, xi2):
        return _box_axis_spectrum(xi1, a) * _box_axis_spectrum(xi2, a)

    dist = synthesize_from_spectrum(grid, spectrum)
    normals = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    return dist, GroundTruth(normals, a * np.sqrt(2.0))


class CatalogEntry(NamedTuple):
    """Admitted grid dimensions (the default first), default parameters and
    builder of one entry."""

    dims: tuple[int, ...]
    defaults: dict
    build: Callable[[dict, Grid], tuple[SampledDistribution, GroundTruth]]


CATALOG: dict[str, CatalogEntry] = {
    "dirac": CatalogEntry((1, 2), {}, _entry_dirac),
    "dirac_derivative": CatalogEntry((1,), {"k": 1}, _entry_dirac_derivative),
    "gaussian": CatalogEntry((1, 2), {"sigma": 1.0}, _entry_gaussian),
    "hermite": CatalogEntry((1,), {"n": 3}, _entry_hermite),
    "box": CatalogEntry((1,), {"a": 1.0}, _entry_box),
    "chirp": CatalogEntry((1,), {"a": 1.0}, _entry_chirp),
    "bump": CatalogEntry((1,), {"width": BUMP_DEFAULT_WIDTH}, _entry_bump),
    "line_delta_2d": CatalogEntry((2,), {"width": 3.0}, _entry_line_delta_2d),
    "box2d": CatalogEntry((2,), {"a": 0.5}, _entry_box2d),
}
# points per axis and box length L of the default grid of each dimension
GRID_DEFAULTS = {1: (1024, 40.0), 2: (256, 20.0)}


def catalog_names() -> tuple[str, ...]:
    return tuple(CATALOG)


def _catalog_row(name: str) -> CatalogEntry:
    if name not in CATALOG:
        raise ValueError(f"unknown catalog entry {name!r}; known: {', '.join(CATALOG)}")
    return CATALOG[name]


def default_grid(name: str, n: int | None = None, length: float | None = None) -> Grid:
    """``GRID_DEFAULTS`` of an entry's default dimension, with ``n`` or ``length`` where given."""
    dim = _catalog_row(name).dims[0]
    default_n, default_length = GRID_DEFAULTS[dim]
    return make_grid(dim, default_n if n is None else n, (default_length if length is None else length) / 2.0)


def catalog_entry(name: str, params: Mapping | None, grid: Grid) -> tuple[SampledDistribution, GroundTruth]:
    """Samples and ground truth of a named test distribution, ``params`` (None: none) overriding its defaults."""
    dims, defaults, build = _catalog_row(name)
    if grid.dim not in dims:
        raise ValueError(f"catalog entry {name!r} requires a {'/'.join(map(str, dims))}-D grid")
    if params is not None and not isinstance(params, Mapping):
        raise ValueError(f"catalog entry {name!r}: params must be a mapping, got {params!r}")
    merged = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            known = ", ".join(defaults) or "none"
            raise ValueError(f"catalog entry {name!r} has no parameter {key!r}; known: {known}")
        merged[key] = _parameter_value(name, key, value, defaults[key])
    return build(merged, grid)


def _parameter_value(name: str, key: str, value, default):
    """``value`` in the type of ``default`` (3.0 reads as 3 for an order); a
    bool, a string, a non-finite number or, where the default is an integer,
    a non-integral one is rejected."""
    kind = type(default)
    number = math.nan if isinstance(value, bool) or not isinstance(value, (int, float)) else value
    if kind is int and isinstance(number, int):
        return number
    try:
        number = float(number)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if math.isfinite(number) and (kind is float or number.is_integer()):
        return kind(number)
    want = "an integer" if kind is int else "a finite number"
    raise ValueError(f"catalog parameter {key!r} of {name!r} must be {want}, got {value!r}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _json_num(x: float):
    """``x`` as a JSON value: infinities as the strings ``"inf"`` and ``"-inf"``."""
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return float(x)


def catalog_entry_json(name: str, params: dict, grid: Grid, truth: GroundTruth) -> dict:
    return {
        "name": name,
        "params": params,
        "grid": {"dim": grid.dim, "n": grid.n, "half_width": grid.half_width},
        "ground_truth": {
            "gabor_wf_dirs": truth.gabor_wf_dirs.tolist(),
            "sigma_dirs": None if truth.sigma_dirs is None else truth.sigma_dirs.tolist(),
            "support_radius": _json_num(truth.support_radius),
            "is_schwartz": truth.is_schwartz,
        },
    }


def dump_samples(dist: SampledDistribution) -> bytes:
    """Binary dump: 32-byte header (magic ``GWF2``, dim, n, L, kind code) +
    little-endian complex128, so a load gives back the samples and kind exactly."""
    g = dist.grid
    header = struct.pack(_SAMPLE_HEADER, SAMPLE_MAGIC, g.dim, g.n, g.length, KINDS.index(dist.kind))
    return header + np.ascontiguousarray(dist.samples, dtype="<c16").tobytes()


def load_samples(blob: bytes) -> SampledDistribution:
    """Inverse of ``dump_samples``."""
    if len(blob) < 32 or blob[:4] != SAMPLE_MAGIC:
        raise ValueError("not a GWF2 sample dump")
    _, dim, n, length, code = struct.unpack(_SAMPLE_HEADER, blob[:32])
    if code >= len(KINDS):
        raise ValueError(f"unknown sample kind code {code}")
    grid = Grid(int(dim), int(n), length / 2.0)
    count = n**dim
    if len(blob) != 32 + count * 16:
        raise ValueError(f"sample dump of {len(blob)} bytes does not hold {count} complex128 samples")
    vals = np.frombuffer(blob, dtype="<c16", count=count, offset=32).astype(np.complex128)
    return SampledDistribution(grid, vals.reshape(grid.shape), kind=KINDS[code])
