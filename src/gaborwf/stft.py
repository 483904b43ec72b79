"""Gaussian windows and the short-time Fourier transform.

``stft_at`` evaluates ``V_psi u(x, xi) = (u, M_xi T_x psi)`` by direct grid
summation, so off-grid phase points are exact trigonometric sums rather than
interpolants.  ``stft_slice`` is the FFT fast path over a full dual-frequency
row, and ``moyal_reconstruct`` inverts the transform by phase-space
quadrature as a correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal import (  # STFT_FLOOR re-exported: the detectors read it from here
    STFT_FLOOR,
    Grid,
    SampledDistribution,
    _centered_fft,
    kernel_points,
    outer_per_axis,
    separable_sum,
)


@dataclass(frozen=True)
class Window:
    """L2-normalized Gaussian window ``(pi lam^2)^(-d/4) exp(-|y|^2/(2 lam^2))``.

    With ``cutoff=(flat, support)`` (in units of ``lam``) the Gaussian is
    multiplied by a smooth plateau function that is 1 on ``|y| <= flat*lam``
    and 0 outside ``|y| <= support*lam``, giving a compactly supported window
    for local (classical) frequency analysis; it is then renormalized under
    grid quadrature at first use.
    """

    lam: float
    cutoff: tuple[float, float] | None = None

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise ValueError(f"window width must be finite and positive, got {self.lam}")
        # an infinite support would make the plateau 1 everywhere: not compact
        if self.cutoff is not None and not 0 < self.cutoff[0] < self.cutoff[1] < np.inf:
            raise ValueError(f"cutoff must satisfy 0 < flat < support < inf, got {self.cutoff}")

    def validate_for(self, grid: Grid):
        lo, hi = 4 * grid.spacing, grid.length / 8
        if lo > hi:
            raise ValueError(
                f"a grid of n = {grid.n} admits no window width: 4h = {lo} exceeds L/8 = {hi}, "
                "so n must be at least 32"
            )
        if not lo <= self.lam <= hi:
            raise ValueError(f"window width {self.lam} outside resolvable range [{lo}, {hi}]")

    def axis_values(self, y: np.ndarray) -> np.ndarray:
        """One-axis profile; the full window is the product over axes."""
        vals = (np.pi * self.lam**2) ** -0.25 * np.exp(-(y**2) / (2 * self.lam**2))
        if self.cutoff is not None:
            flat, support = self.cutoff
            vals = vals * _plateau(np.abs(y) / self.lam, flat, support)
        return vals

    def axis_norm(self, grid: Grid) -> float:
        """What ``axis_values`` are divided by on ``grid``: 1 for the Gaussian,
        normalized in closed form, and for a cutoff window the norm of its
        axis profile under grid quadrature."""
        if self.cutoff is None:
            return 1.0
        return np.sqrt(np.sum(self.axis_values(grid.axis()) ** 2) * grid.spacing)


def _plateau(t: np.ndarray, flat: float, support: float) -> np.ndarray:
    """Smooth transition 1 -> 0 over [flat, support], infinitely flat at both ends."""
    s = np.clip((t - flat) / (support - flat), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        b = np.where(s < 1, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return b / (a + b)


def _window_axis_at(window: Window, grid: Grid, y: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(P, n) matrix of axis window values ``psi(y_j - c_p)``, cutoff-normalized."""
    return window.axis_values(y[None, :] - centers[:, None]) / window.axis_norm(grid)


def stft_points(u: SampledDistribution, window: Window, points: np.ndarray) -> np.ndarray:
    """``V_psi u`` at arbitrary phase points ``(x, xi)``, shape (P, 2*dim) -> (P,).

    The Gaussian ``separable_sum`` kernel: per axis a coarse factor
    ``exp(-(Y_a - x)^2 / (2 lam^2) - i xi Y_a)`` over the ``n / m`` block
    centers and a fine factor ``exp((x d_b - d_b^2 / 2) / lam^2 - i xi d_b)``
    over the ``m`` offsets within a block, with the coupling
    ``exp(-Y_a d_b / lam^2)`` folded into the samples once per call, and
    the phases mirrored (``phase_table``).  Rounding
    the exponents moves a value by a few 1e-14 of ``sum_j |u_j psi_j| h^d``
    from the dense sum of ``psi(y_j - x) exp(-i xi y_j)``.  In 2-D, points
    of one chunk with a bit-equal ``(x_0, xi_0)`` share one first-axis row,
    so a caller passes them side by side.  Coarse blocks whose samples are
    all exactly 0, such as those outside the support of a spike or a bump,
    are never contracted.  A cutoff window's plateau and renormalization
    depend on ``x`` only: they are folded into the samples once per distinct
    base point, which leaves only the blocks within ``support * lam`` of it
    to contract.
    """
    g = u.grid
    pts = kernel_points(g, points, "phase")
    window.validate_for(g)
    if window.cutoff is None:
        return separable_sum(u.samples, g, pts, window.lam)
    y, (flat, support), scale = g.axis(), window.cutoff, window.axis_norm(g)
    bases, which = np.unique(pts[:, : g.dim], axis=0, return_inverse=True)
    out = np.empty(len(pts), dtype=np.complex128)
    for i, base in enumerate(bases):
        plateau = [_plateau(np.abs(y - x) / window.lam, flat, support) / scale for x in base]
        mine = which.ravel() == i
        out[mine] = separable_sum(u.samples * outer_per_axis(plateau), g, pts[mine], window.lam)
    return out


def stft_at(u: SampledDistribution, window: Window, z) -> complex:
    """``V_psi u(z)`` for a single phase point given as a flat sequence (x, xi)."""
    return complex(stft_points(u, window, np.ravel(z))[0])


def stft_slice(u: SampledDistribution, window: Window, x) -> np.ndarray:
    """``xi -> V_psi u(x, xi)`` over the full dual grid.

    Equals the Fourier transform of ``u * conj(T_x psi)``, so it agrees with
    ``stft_at`` at every dual frequency up to roundoff.
    """
    g = u.grid
    window.validate_for(g)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(x) != g.dim:
        raise ValueError(f"expected a base point of dim {g.dim}")
    y = g.axis()
    win = outer_per_axis(_window_axis_at(window, g, y, x))
    return _centered_fft(u.samples * np.conj(win)) * g.cell_volume


def moyal_reconstruct(u: SampledDistribution, window: Window) -> SampledDistribution:
    """Inversion by phase-space quadrature:
    ``(2 pi)^{-d} iint V_psi u(x, xi) e^{i y xi} psi(y - x) dx dxi``.

    Quadrature over the sampled phase-space box; valid when u and its
    transform are concentrated inside it (smooth catalog entries).
    """
    g = u.grid
    window.validate_for(g)
    if u.kind != "function":
        raise ValueError("moyal_reconstruct expects a smooth entry, not a spike")
    if g.dim != 1:
        raise ValueError(
            "phase-space quadrature needs n^(2d) transform values; at the supported "
            "grid sizes this is only tractable for dim 1"
        )
    y = g.axis()
    dxi = 2 * np.pi / g.length
    # rows: V(x_j, .) over the dual grid for every grid position x_j
    recon = np.zeros(g.n, dtype=np.complex128)
    for j in range(g.n):
        shifted = _window_axis_at(window, g, y, y[j : j + 1])[0]
        row = _centered_fft(u.samples * np.conj(shifted)) * g.spacing
        # inverse transform of the row back to the position axis
        gj = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(row))) * (g.n * dxi) / (2 * np.pi)
        recon += gj * shifted * g.spacing
    return SampledDistribution(g, recon)
