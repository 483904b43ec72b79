"""Decay-rate detectors for phase-space and frequency singularities.

Super-polynomial decay cannot be decided from finite data, so every detector
uses the same decidable proxy: sample ``|V|`` along geometric radii on a fan
of unit directions, fit ``log|V| ~ c - s log r`` over the upper half of the
usable radii, and flag a direction singular when the fitted order ``s`` stays
at or below a threshold.  Values under ``1e-14`` are rounding noise and mark
the direction regular instead of producing spurious slopes.

The 2-D phase-space detector samples coarse to fine: it evaluates every
other direction, then the directions near a coarse ray whose decay comes
close to the threshold, then the neighbours of each flag until no flag is
new, and so flags what the full sampling flags from fewer rays.

Flagged directions are merged along the sampling adjacency: a narrow arc is
the detector's smearing of a single conic generator and is reported by the
member nearest the slope-weighted mean of its low-slope core, a component
wider than the collapse angle is a genuine extended cone and is reported by
all of its sampled generators, and an isolated single flag surrounded by
regular directions is suspect and reported separately.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .signal import SLICE_POINTS, SampledDistribution, Grid, _as_readonly, _json_num, _scaled_abs, nudft
from .stft import Window, stft_points, STFT_FLOOR

DEFAULT_N_THRESH = 2.5
DEFAULT_RHO = 1.15
DEFAULT_RHO_2D = 1.08
ARC_COLLAPSE_ANGLE = np.pi / 3  # arcs wider than this are true cones, not smear
TILT_LEVELS = 5  # tilt levels of the 2-D phase-space sampling, both fibers included
FREQUENCY_DIRS_2D = 32  # directions on the 2-D frequency circle
# radii times directions of one sampling: points are built a slice at a time,
# but the report's (P, 2) samples and the sampler's per-point radius, order and
# value arrays take about 200 MB at that many, and the 2-D kernel about 40 s;
# the default samplings hold 6,656 (1-D) and 119,168 (2-D)
MAX_RAY_POINTS = 2**22
# central-box mass of a compact input, 0.1% leeway: band-limited synthesis of
# discontinuous entries rings at the 1e-6 mass level without making them non-compact
COMPACT_MASS = 0.999


def position_cap(grid: Grid, lam: float | None = None, compact: bool = True) -> float:
    """Largest usable window center along a ray.

    For inputs concentrated in the central box the direct signal dominates the
    periodized window copy for all centers below L/2, so rays may run to
    0.45 L.  Otherwise the window must stay clear of the box boundary:
    ``exp(-(8 lam)^2 / (2 lam^2))`` is the numeric floor, giving L/2 - 8 lam
    (never below the central-half cap L/4 * 0.9).
    """
    if compact or lam is None:
        return 0.45 * grid.length
    return max(0.225 * grid.length, grid.half_width - 8.0 * lam)


def frequency_cap(grid: Grid) -> float:
    """Largest frequency safely inside the alias-free half band."""
    return 0.9 * np.pi / (2 * grid.spacing)


@dataclass(frozen=True)
class RaySampling:
    """Unit directions with a shared geometric radius ladder.

    ``space`` is ``"phase"`` (directions in R^{2d}) or ``"frequency"``
    (directions in R^d).  ``neighbors`` is the adjacency of the angular grid
    used for arc merging: an ``(E, 2)`` array of index pairs ``a < b`` in
    ascending order.  Rays are truncated per direction so position components
    stay within the central box and frequency components within the
    alias-free band.
    """

    directions: np.ndarray
    radii: np.ndarray
    neighbors: np.ndarray
    space: str
    n_dirs: int
    r_max: float
    rho: float

    def __post_init__(self):
        d, r = np.asarray(self.directions, dtype=float), np.asarray(self.radii, dtype=float)
        e = np.asarray(self.neighbors, dtype=np.intp).reshape(-1, 2)
        for name, a in (("directions", d), ("radii", r), ("neighbors", e)):
            object.__setattr__(self, name, _as_readonly(a))

    @property
    def angular_step(self) -> float:
        """The pitch of the finest circle; pi for the 1-D frequency pair."""
        return 2 * np.pi / self.n_dirs


def _radius_ladder(grid: Grid, cap: float, r_max, rho, what: str, n_dirs: int, directions: int):
    """Geometric radii ``rho**k`` from 1 up to ``r_max`` (default ``cap``) for
    ``directions`` rays; returns the radii with the resolved ``r_max`` and
    ``rho``."""
    rho = (DEFAULT_RHO if grid.dim == 1 else DEFAULT_RHO_2D) if rho is None else rho
    if r_max is None:
        r_max = cap
    elif r_max > cap + 1e-9:
        raise ValueError(f"r_max {r_max} exceeds the {what} {cap}")
    # chained comparisons so that NaN fails each check by name
    if not 1.0 < rho < np.inf:
        raise ValueError(f"rho must be finite and exceed 1, got {rho}")
    if not r_max > 1.0:
        raise ValueError(f"r_max must exceed the first radius 1, got {r_max}")
    count = int(np.floor(np.log(r_max) / np.log(rho))) + 1
    if count * directions > MAX_RAY_POINTS:
        raise ValueError(
            f"rho = {rho} gives {count} radii and n_dirs = {n_dirs} gives {directions} directions: "
            f"more than {MAX_RAY_POINTS} ray points"
        )
    return rho ** np.arange(count), float(r_max), rho


def _circle(n: int) -> np.ndarray:
    ang = 2 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _ring(n: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(n)
    return k, (k + 1) % n


def _join_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices of the 2-D phase-space sampling of ``n`` directions per circle:
    the position circle, the ``(t, i, j)`` torus points and the frequency
    circle."""
    k = np.arange(n)
    mid = np.arange(n, n + (TILT_LEVELS - 2) * n * n).reshape(-1, n, n)
    return k, mid, n + mid.size + k


def _adjacency(*pairs) -> np.ndarray:
    """Sorted ``(E, 2)`` edge array from pairs of equally shaped index arrays."""
    a = np.concatenate([np.ravel(p) for p, _ in pairs])
    b = np.concatenate([np.ravel(q) for _, q in pairs])
    # one int64 key per edge sorts like its (min, max) row
    n = max(a.max(), b.max()) + 1
    return np.column_stack(np.divmod(np.unique(np.minimum(a, b) * n + np.maximum(a, b)), n))


def phase_space_rays(
    grid: Grid, n_dirs: int | None = None, r_max: float | None = None, rho: float | None = None
) -> RaySampling:
    """Directions on the phase-space sphere S^{2d-1}.

    d = 1: n_dirs points on the circle.  d = 2: a join parameterization,
    ``(cos t * u(alpha), sin t * v(beta))`` over ``TILT_LEVELS`` tilt levels
    with n_dirs points on each of the two circles; the pure-position and
    pure-frequency fibers appear once each.  The shared radius ladder is
    truncated per direction at estimate time by the position/frequency caps.
    """
    if n_dirs is None:
        n_dirs = 256 if grid.dim == 1 else 32
    if grid.dim == 1:
        if n_dirs < 64 or n_dirs % 4:
            raise ValueError("need n_dirs >= 64, divisible by 4, for the phase-space circle")
        directions = n_dirs
    else:
        if n_dirs < 32 or n_dirs % 4:
            raise ValueError("need n_dirs >= 32 per circle, divisible by 4, in 2-D")
        directions = 2 * n_dirs + (TILT_LEVELS - 2) * n_dirs**2
    cap = max(position_cap(grid), frequency_cap(grid))
    what = "resolvable phase-space radius"
    radii, r_max, rho = _radius_ladder(grid, cap, r_max, rho, what, n_dirs, directions)
    if grid.dim == 1:
        neighbors = _adjacency(_ring(n_dirs))
        return RaySampling(_circle(n_dirs), radii, neighbors, "phase", n_dirs, r_max, rho)
    n = n_dirs
    circ = _circle(n)
    zeros = np.zeros_like(circ)
    # inner tilt t holds the torus (cos t * u_i, sin t * v_j), i major
    inner = (np.pi / 2 * np.arange(TILT_LEVELS) / (TILT_LEVELS - 1))[1:-1, None, None, None]
    torus = np.concatenate(
        np.broadcast_arrays(np.cos(inner) * circ[:, None], np.sin(inner) * circ[None, :]), axis=-1
    )
    dirs = np.vstack([np.hstack([circ, zeros]), torus.reshape(-1, 4), np.hstack([zeros, circ])])
    k, mid, last = _join_layout(n)
    _, k1 = _ring(n)
    neighbors = _adjacency(
        (k, k1),  # position circle
        (last, last[k1]),  # frequency circle
        (mid, np.roll(mid, -1, axis=1)),  # i + 1 on each torus
        (mid, np.roll(mid, -1, axis=2)),  # j + 1 on each torus
        (mid[:-1], mid[1:]),  # same (i, j) on the next torus
        (np.repeat(k, n), mid[0]),  # position point i to every (i, j) of the first torus
        (mid[-1], np.tile(last, n)),  # every (i, j) of the last torus to frequency point j
    )
    return RaySampling(dirs, radii, neighbors, "phase", n_dirs, r_max, rho)


def frequency_rays(grid: Grid, r_max: float | None = None, rho: float | None = None) -> RaySampling:
    """Directions on the frequency sphere S^{d-1}: the pair {-1, +1} in 1-D,
    ``FREQUENCY_DIRS_2D`` points on the circle in 2-D."""
    n = 2 if grid.dim == 1 else FREQUENCY_DIRS_2D
    cap = frequency_cap(grid)
    radii, r_max, rho = _radius_ladder(grid, cap, r_max, rho, "alias-free frequency radius", n, n)
    if grid.dim == 1:
        return RaySampling(np.array([[1.0], [-1.0]]), radii, (), "frequency", n, r_max, rho)
    return RaySampling(_circle(n), radii, _adjacency(_ring(n)), "frequency", n, r_max, rho)


def _coarse_rays(sampling: RaySampling) -> np.ndarray:
    """The directions a detection evaluates first, ascending: on the 2-D
    phase-space sphere the even indices of each circle and each torus, 800 of
    the default 3,136 directions; every direction of every other sampling."""
    if sampling.space != "phase" or sampling.directions.shape[1] == 2:
        return np.arange(len(sampling.directions))
    k, mid, last = _join_layout(sampling.n_dirs)
    return np.concatenate([k[::2], mid[:, ::2, ::2].ravel(), last[::2]])


def _flags(profiles: np.recarray, n_thresh: float) -> np.ndarray:
    return (profiles.slope <= n_thresh) & ~profiles.floor_hit


def require_positive(name: str, value: float) -> None:
    """Reject a threshold or tolerance that is not finite and positive."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class WavefrontReport:
    """Per-ray evidence measured on ``sampling`` and the verdict it gives at
    ``n_thresh``.

    ``evaluated`` holds the ascending indices into ``sampling.directions`` of
    the rays that were sampled, by default every ray; an omitted direction
    is unflagged.  The ``k``-th evaluated ray is rows ``offsets[k]:offsets[k
    + 1]`` of the ``(P, 2)`` (radius, |V|) ``samples``; all three are stored
    read-only.  Derived on construction,
    read-only: ``profiles``, record ``k`` the fit of that ray (``slope`` s
    of ``log|V| ~ c - s log r`` over its top half, negative for growth;
    ``residual``; ``floor_hit``: the window dipped under the numeric floor,
    which forces the ray regular); ``singular_dirs``, the cone generators
    (arc representatives or sampled members of extended cones), and
    ``isolated``, the suspect single flags, both rows of
    ``sampling.directions``.
    """

    kind: str
    sampling: RaySampling
    samples: np.ndarray
    offsets: np.ndarray
    n_thresh: float
    lam: float | None
    base_point: tuple[float, ...] | None = None
    evaluated: np.ndarray | None = None
    profiles: np.recarray = field(init=False)
    singular_dirs: np.ndarray = field(init=False)
    isolated: np.ndarray = field(init=False)

    def __post_init__(self):
        require_positive("n_thresh", self.n_thresh)
        evaluated = self.evaluated
        evaluated = np.arange(len(self.sampling.directions)) if evaluated is None else np.asarray(evaluated, np.intp)
        if len(self.offsets) != len(evaluated) + 1 or np.any(np.diff(evaluated) <= 0):
            raise ValueError("evaluated must ascend and hold one ray index per ray of the offsets")
        object.__setattr__(self, "evaluated", evaluated)
        for name in ("samples", "offsets", "evaluated"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))
        # a recarray, whose records read as attributes; _as_readonly would
        # return a plain ndarray
        profiles = _fit_rays(self.samples, self.offsets)
        profiles.flags.writeable = False
        object.__setattr__(self, "profiles", profiles)
        for name, dirs in zip(("singular_dirs", "isolated"), _merge(self)):
            object.__setattr__(self, name, _as_readonly(dirs))

    @property
    def params(self) -> dict:
        """The sampling and detection settings, as written to the JSON report."""
        s = self.sampling
        return {
            "n_dirs": s.n_dirs,
            "r_min": float(s.radii[0]),
            "r_max": s.r_max,
            "rho": s.rho,
            "n_thresh": float(self.n_thresh),
            "angular_step": s.angular_step,
            "floor": STFT_FLOOR,
            "lambda": self.lam,
        }

    @property
    def rays(self) -> tuple[np.ndarray, ...]:
        """Per-ray ``(k, 2)`` views of ``samples``, one per evaluated ray."""
        return tuple(np.split(self.samples, self.offsets[1:-1]))

    def flagged_indices(self) -> tuple[int, ...]:
        """Indices into ``sampling.directions`` of the flagged rays."""
        return tuple(self.evaluated[_flags(self.profiles, self.n_thresh)].tolist())


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.vecdot(v, v))


def _angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len(a), len(b))`` angles between rows.  ``vecdot`` rounds like a
    per-pair ``np.dot`` (``einsum`` and BLAS products need not), which decides
    pairs exactly at ``ARC_COLLAPSE_ANGLE``."""
    cos = np.vecdot(a[:, None], b[None]) / (_norms(a)[:, None] * _norms(b))
    return np.arccos(np.clip(cos, -1.0, 1.0))


def _angle_blocks(a: np.ndarray, b: np.ndarray):
    """``_angles(a, b)`` a block of rows at a time, each of at most 2**16
    angles, with the same bits."""
    rows = max(1, 2**16 // max(len(b), 1))
    return (_angles(a[lo : lo + rows], b) for lo in range(0, len(a), rows))


def directed_hausdorff_angle(a_set, b_set) -> float:
    """max over a of the angle to the nearest b; 0 for empty a, inf for empty b."""
    a, b = np.asarray(a_set, dtype=float), np.asarray(b_set, dtype=float)
    if not len(a):
        return 0.0
    if not len(b):
        return np.inf
    return float(_angles(a, b).min(axis=1).max())


def hausdorff_angle(a_set, b_set) -> float:
    return max(directed_hausdorff_angle(a_set, b_set), directed_hausdorff_angle(b_set, a_set))


def _fit_rays(samples: np.ndarray, offsets: np.ndarray) -> np.recarray:
    """Least-squares decay orders of every ray of ``(P, 2)`` (radius, |V|)
    ``samples``, ray ``i`` being rows ``offsets[i]:offsets[i + 1]``, in one
    pass; a record array with fields ``slope``, ``residual`` and
    ``floor_hit``.

    Each ray is fitted over its top half, ``log|V| ~ c - s log r`` in closed
    form (``cov / var`` about the window means, then the RMS residual).  A
    window whose minimum is under the numeric floor gives ``(inf, 0.0,
    True)``.
    """
    start = offsets[:-1] + np.diff(offsets) // 2
    width = offsets[1:] - start
    if np.any(width < 4):
        raise ValueError("degenerate fit: fewer than 4 usable radii in the fit window")
    seg = np.concatenate([[0], np.cumsum(width)[:-1]])
    rows = np.arange(width.sum()) + np.repeat(start - seg, width)
    r, v = samples[rows].T
    floor_hit = np.minimum.reduceat(v, seg) < STFT_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        x, y = np.log(r), np.log(v)
        dx = x - np.repeat(np.add.reduceat(x, seg) / width, width)
        dy = y - np.repeat(np.add.reduceat(y, seg) / width, width)
        rate = np.add.reduceat(dx * dy, seg) / np.add.reduceat(dx * dx, seg)
        residual = np.sqrt(np.add.reduceat((dy - np.repeat(rate, width) * dx) ** 2, seg) / width)
    fits = np.where(floor_hit, np.inf, -rate), np.where(floor_hit, 0.0, residual), floor_hit
    return np.rec.fromarrays(fits, names="slope,residual,floor_hit")


def _components(flagged: np.ndarray, neighbors: np.ndarray) -> list[list[int]]:
    """Connected flagged directions, each component ascending, components in
    order of their smallest member: labels start at each index and fall to
    the smallest across flagged edges until they settle on that member."""
    a, b = neighbors[flagged[neighbors].all(axis=1)].T
    label, before = np.arange(len(flagged)), None
    while not np.array_equal(label, before):
        before = label.copy()
        np.minimum.at(label, a, label[b])
        np.minimum.at(label, b, label[a])
        label = label[label]
    members = np.flatnonzero(flagged)
    members = members[np.argsort(label[members], kind="stable")]
    cuts = np.flatnonzero(np.diff(label[members])) + 1
    return [c.tolist() for c in np.split(members, cuts)] if len(members) else []


def _collapses(members: list[int], dirs: np.ndarray) -> bool:
    """Whether a component is one generator's smear: no two members are more
    than ``ARC_COLLAPSE_ANGLE`` apart, measured at any size in bounded
    memory.  Members on a circle are compared at the two that border the
    widest gap between them by polar angle: the farthest pair when that gap
    is at least a half circle, and otherwise some pair is more than pi / 2
    apart.  Other members are compared in blocks of rows, up to the first
    pair too far apart.  Pairs exactly ``ARC_COLLAPSE_ANGLE`` apart, such as
    30,720 of the default 2-D sampling, compute on either side of it by the
    last bit; the 1e-9 leeway collapses all of them."""
    w, limit = dirs[members], ARC_COLLAPSE_ANGLE + 1e-9
    if w.shape[1] == 2:
        polar = np.arctan2(w[:, 1], w[:, 0])
        order = np.argsort(polar)
        gaps = np.diff(polar[order], append=polar[order[0]] + 2 * np.pi)
        g = int(np.argmax(gaps))
        if gaps[g] < np.pi:
            return False
        ends = w[order[[g, (g + 1) % len(w)]]]
        return float(_angles(ends[:1], ends[1:])[0, 0]) <= limit
    return all(angles.max() <= limit for angles in _angle_blocks(w, w))


def _component_axis(members: list[int], report: WavefrontReport) -> int:
    """Representative of a point-cone component.

    Members whose rays were truncated by different caps carry incomparable
    slopes, which skews the flagged arc toward the short-ray side; re-fitting
    on the radii common to the whole component makes them comparable.  The
    axis is the slope-depth-weighted mean direction of the low-slope core,
    snapped to the nearest member: stable against both oscillatory slope
    jitter and asymmetric arc boundaries.
    """
    dirs, offsets = report.sampling.directions[members], report.offsets
    at = np.searchsorted(report.evaluated, members)  # the members' rays in the report
    # _fit_rays gave every ray the 7 radii of a 4-radius window, so the shortest fits too
    common = int(np.diff(offsets)[at].min())
    rows = (offsets[at][:, None] + np.arange(common)).ravel()
    scores = _fit_rays(report.samples[rows], common * np.arange(len(members) + 1)).slope
    s_min = scores.min()
    margin = 0.25 * max(report.n_thresh - s_min, 1e-6)
    core = scores <= s_min + margin
    # weights scaled by a power of two, which keeps the axis's bits and its
    # norm finite at any n_thresh; rows are added in member order: a matrix
    # product may round differently and move the snap below
    weights = _scaled_abs(s_min + margin - scores[core] + 1e-12)[0]
    axis = np.sum(weights[:, None] * dirs[core], axis=0)
    # members lie within ARC_COLLAPSE_ANGLE of each other, so the norm is positive
    axis /= np.linalg.norm(axis)
    # members ascend, so the first of equally near members is the smallest
    angles = _angles(dirs, axis[None])[:, 0].tolist()
    return members[int(np.argmin([round(a, 12) for a in angles]))]


def _ladder_index(offsets: np.ndarray) -> np.ndarray:
    """Index of each sample's radius on the ladder: its row within its ray."""
    return np.arange(offsets[-1]) - np.repeat(offsets[:-1], np.diff(offsets))


def _sample_rays(sampling: RaySampling, grid: Grid, evaluate, pos_cap: float = np.inf, rays=None):
    """Take ``|evaluate(points)|`` at every usable (radius, direction) point
    of the directions ``rays`` (ascending indices, by default every
    direction); returns the ``(P, 2)`` (radius, |V|) samples and the ray
    offsets into them, one more than there are rays.

    A ray keeps the radii up to its cap: the frequency cap over the norm of
    the direction's frequency part and, in phase space, the position cap over
    the norm of its position part.  The components that enter the kernel's
    first-axis pair ``(x_0, xi_0)`` are then snapped to those of the first
    direction of the whole sampling equal to them at 12 decimals: mirror
    images such as cos(2 pi k/32) and cos(2 pi (32 - k)/32) differ in the
    last bit only, and a ray's points do not depend on which rays are taken.
    Points are evaluated radius by radius, equal pairs side by side, as the
    kernel shares a first-axis row only between the pairs of one of its
    chunks.  One call evaluates ``SLICE_POINTS`` points, which every kernel
    chunk divides, so the slices give the bits of one unsliced call.
    """
    d, w = grid.dim, sampling.directions
    with np.errstate(divide="ignore"):
        cap = frequency_cap(grid) / np.linalg.norm(w[:, -d:], axis=1)
        if sampling.space == "phase":
            cap = np.minimum(cap, pos_cap / np.linalg.norm(w[:, :d], axis=1))
    pair = [0, d] if sampling.space == "phase" else [0]
    _, first, index = np.unique(np.round(w[:, pair], 12), axis=0, return_index=True, return_inverse=True)
    leader = first[index.ravel()]
    w = w.copy()
    w[:, pair] = w[leader][:, pair]
    rays = slice(None) if rays is None else rays
    w, cap, leader = w[rays], cap[rays], leader[rays]
    counts = np.searchsorted(sampling.radii, cap + 1e-12, side="right")
    offsets = np.concatenate([[0], np.cumsum(counts)])
    rung = _ladder_index(offsets)
    r = sampling.radii[rung]
    # points of one radius share most coordinates, which the kernel tabulates
    # once per chunk, and those of one pair share a first-axis row
    order = np.lexsort((np.repeat(leader, counts), rung))
    del rung
    values = np.empty(len(r))
    for lo in range(0, len(r), SLICE_POINTS):
        at = order[lo : lo + SLICE_POINTS]
        points = w[np.searchsorted(offsets, at, side="right") - 1]
        points *= r[at][:, None]
        values[at] = np.abs(evaluate(points))
    return np.column_stack([r, values]), offsets


def _merge(report: WavefrontReport) -> tuple[np.ndarray, np.ndarray]:
    """Flag the fitted profiles at the report's threshold and merge the flags
    along the sampling adjacency into (singular, isolated) directions."""
    sampling, n_thresh, evaluated = report.sampling, report.n_thresh, report.evaluated
    dirs = sampling.directions
    flagged = np.zeros(len(dirs), dtype=bool)
    flagged[evaluated] = _flags(report.profiles, n_thresh)
    if not len(sampling.neighbors):
        # S^0: no angular smoothing possible, every flag stands by itself
        return dirs[flagged], dirs[:0]
    singular, isolated = [], []
    for comp in _components(flagged, sampling.neighbors):
        if len(comp) == 1:
            # a lone flag near the threshold is jitter; one far below it is a
            # sharply resolved generator
            jitter = report.profiles.slope[np.searchsorted(evaluated, comp[0])] > 0.75 * n_thresh
            (isolated if jitter else singular).append(comp[0])
        elif _collapses(comp, dirs):
            singular.append(_component_axis(comp, report))
        else:
            singular.extend(comp)
    return dirs[singular], dirs[isolated]


def estimate_gabor_wf(
    u: SampledDistribution,
    window: Window,
    sampling: RaySampling | None = None,
    n_thresh: float = DEFAULT_N_THRESH,
) -> WavefrontReport:
    """Phase-space wavefront detection: decay of ``|V_psi u|`` along rays of
    S^{2d-1}.  On the 2-D sphere the report evaluates only the rays its
    flags need, which its ``evaluated`` lists."""
    require_positive("n_thresh", n_thresh)
    if sampling is None:
        sampling = phase_space_rays(u.grid)
    if sampling.space != "phase":
        raise ValueError("estimate_gabor_wf needs a phase-space sampling")
    compact = u.central_mass_fraction() >= COMPACT_MASS
    pos_cap = position_cap(u.grid, window.lam, compact)
    dirs, edges = sampling.directions, sampling.neighbors

    def evaluate(points):
        return stft_points(u, window, points)

    taken, flagged = np.zeros(len(dirs), dtype=bool), np.zeros(len(dirs), dtype=bool)
    rays, blocks, counts = [], [], []
    # coarse to fine: the coarse rays; then every direction within two steps
    # of a coarse ray whose slope is within twice n_thresh; then, round by
    # round, every neighbour of a flag, until no flag is new, so every
    # flagged component is whole.  A ray keeps the points it has in the full
    # sampling, which flags no ray these rounds leave out (a tier-1 property
    # checks both).  Where every ray is coarse, one round and no fit
    batch = _coarse_rays(sampling)
    while len(batch):
        samples, offsets = _sample_rays(sampling, u.grid, evaluate, pos_cap, batch)
        rays.append(batch)
        blocks.append(samples)
        counts.append(np.diff(offsets))
        taken[batch] = True
        if taken.all():
            break
        fits = _fit_rays(samples, offsets)
        flagged[batch] = _flags(fits, n_thresh)
        near = np.zeros(len(dirs), dtype=bool)
        if len(rays) == 1:
            # a division, which no n_thresh overflows
            for angles in _angle_blocks(dirs[batch[fits.slope / 2 <= n_thresh]], dirs):
                near |= (angles <= 2 * sampling.angular_step + 1e-9).any(axis=0)
        near[edges[flagged[edges].any(axis=1)]] = True
        batch = np.flatnonzero(near & ~taken)
    # the rounds' rays in ascending order, each ray's rows in ladder order
    rays, counts = np.concatenate(rays), np.concatenate(counts)
    order = np.argsort(rays)
    samples = np.concatenate(blocks)[np.argsort(np.repeat(rays, counts), kind="stable")]
    offsets = np.concatenate([[0], np.cumsum(counts[order])])
    return WavefrontReport("gabor", sampling, samples, offsets, n_thresh, window.lam, evaluated=rays[order])


def estimate_sigma(
    u: SampledDistribution,
    sampling: RaySampling | None = None,
    n_thresh: float = DEFAULT_N_THRESH,
) -> WavefrontReport:
    """Frequency-cone detection: decay of ``|uhat|`` along rays of S^{d-1}."""
    require_positive("n_thresh", n_thresh)
    if sampling is None:
        sampling = frequency_rays(u.grid)
    if sampling.space != "frequency":
        raise ValueError("estimate_sigma needs a frequency sampling")
    if u.central_mass_fraction() < COMPACT_MASS:
        warnings.warn(
            "estimate_sigma: input is not concentrated in the central box; "
            "the frequency cone of a non compactly supported input is not defined",
            stacklevel=2,
        )
    evidence = _sample_rays(sampling, u.grid, lambda p: nudft(u, p))
    return WavefrontReport("sigma", sampling, *evidence, n_thresh, None)


def estimate_classical_wf(
    u: SampledDistribution,
    window: Window,
    x0,
    sampling: RaySampling | None = None,
    n_thresh: float = DEFAULT_N_THRESH,
) -> WavefrontReport:
    """Local frequency detection at the base point x0: decay of
    ``xi -> |V_psi u(x0, r eta)|`` per frequency direction.

    The window must be compactly supported (a cutoff Gaussian), otherwise
    distant singularities leak into the local spectrum.
    """
    require_positive("n_thresh", n_thresh)
    if window.cutoff is None:
        raise ValueError("classical detection needs a compactly supported (cutoff) window")
    if sampling is None:
        sampling = frequency_rays(u.grid)
    if sampling.space != "frequency":
        raise ValueError("estimate_classical_wf needs a frequency sampling")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if len(x0) != u.grid.dim:
        raise ValueError("base point dimension mismatch")

    def evaluate(freq_pts):
        phase_pts = np.hstack([np.tile(x0, (len(freq_pts), 1)), freq_pts])
        return stft_points(u, window, phase_pts)

    evidence = _sample_rays(sampling, u.grid, evaluate)
    return WavefrontReport("classical", sampling, *evidence, n_thresh, window.lam, tuple(x0))


def rethreshold(report: WavefrontReport, n_thresh: float) -> WavefrontReport:
    """Re-flag an existing report at a different threshold.  The stored
    samples are refitted: nothing is sampled again.  A report that omits
    rays holds every ray its own threshold flags and their neighbours, and
    so the evidence for any lower threshold, but not for a higher one,
    which raises ``ValueError``."""
    if n_thresh > report.n_thresh and len(report.evaluated) < len(report.sampling.directions):
        raise ValueError(
            f"n_thresh {n_thresh} exceeds the threshold {report.n_thresh} at which this report chose its "
            f"{len(report.evaluated)} of {len(report.sampling.directions)} rays"
        )
    return replace(report, n_thresh=n_thresh)


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of the compact-support identity check.

    ``max_x_component`` is the largest position component among detected
    phase-space singular directions (the identity forces it to ~0);
    the two directed angular Hausdorff distances compare the frequency parts
    of the phase-space detection against the frequency-cone detection.
    """

    passed: bool
    max_x_component: float
    dist_gabor_to_sigma: float
    dist_sigma_to_gabor: float
    ang_tol: float


def check_main_theorem(
    gabor_report: WavefrontReport,
    sigma_report: WavefrontReport | None,
    ang_tol: float,
) -> ComparisonResult:
    """Verify that the phase-space singular set is {0} x (frequency cone).

    Requires a frequency-cone report, which only exists for compactly
    supported (or Schwartz) inputs; passing None rejects the check.
    """
    if gabor_report.kind != "gabor":
        raise ValueError("first report must be a phase-space detection")
    if sigma_report is None:
        raise ValueError(
            "frequency-cone report unavailable (input not compactly supported); "
            "the identity does not apply"
        )
    if sigma_report.kind != "sigma":
        raise ValueError("second report must be a frequency-cone detection")
    ang_tol = angular_tolerance(gabor_report.sampling, ang_tol)
    x, xi = np.hsplit(gabor_report.singular_dirs, 2)
    max_x = float(_norms(x).max(initial=0.0))
    xi_norm = _norms(xi)
    xi_parts = xi[xi_norm > 1e-9] / xi_norm[xi_norm > 1e-9, None]
    d_gs = directed_hausdorff_angle(xi_parts, sigma_report.singular_dirs)
    d_sg = directed_hausdorff_angle(sigma_report.singular_dirs, xi_parts)
    ok = max_x <= np.sin(ang_tol) + 1e-12 and d_gs <= ang_tol and d_sg <= ang_tol
    return ComparisonResult(bool(ok), max_x, d_gs, d_sg, float(ang_tol))


def frequency_gap(dirs: np.ndarray) -> float:
    """Smallest angle from the unit rows ``(x, xi)`` of ``dirs`` to the
    pure-frequency sphere {0} x S^{d-1}; inf for no rows."""
    d = dirs.shape[1] // 2
    return float(np.arccos(np.clip(_norms(dirs[:, d:]), -1.0, 1.0)).min(initial=np.inf))


def angular_tolerance(sampling: RaySampling, ang_tol: float | None = None) -> float:
    """``ang_tol``, by default two angular steps of ``sampling``: a detected
    direction is resolved to about one step either way.  It must lie in
    (0, pi/2), beyond which no ``frequency_gap`` exceeds it and the theorem
    check's ``sin(ang_tol)`` shrinks again."""
    if ang_tol is None:
        ang_tol = 2 * sampling.angular_step
    if not 0 < ang_tol < np.pi / 2:
        raise ValueError(f"ang_tol must lie in (0, pi/2), got {ang_tol}")
    return ang_tol


def schwartz_direction_test(report: WavefrontReport, ang_tol: float | None = None) -> bool:
    """True when no singular direction comes near the pure-frequency sphere
    {0} x S^{d-1}; such states are smooth with polynomially bounded
    derivatives."""
    if report.kind != "gabor":
        raise ValueError("smoothness test needs a phase-space report")
    return bool(frequency_gap(report.singular_dirs) > angular_tolerance(report.sampling, ang_tol))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def report_to_json(report: WavefrontReport) -> dict:
    params = {k: _json_num(v) if isinstance(v, float) else v for k, v in report.params.items()}
    p = report.profiles
    out = {
        "kind": report.kind,
        "params": params,
        "profiles": [
            {"dir": w, "slope": _json_num(s), "residual": r, "floor_hit": f}
            for w, s, r, f in zip(
                report.sampling.directions[report.evaluated].tolist(),
                p.slope.tolist(),
                p.residual.tolist(),
                p.floor_hit.tolist(),
            )
        ],
        "singular_dirs": report.singular_dirs.tolist(),
        "isolated": report.isolated.tolist(),
    }
    if report.base_point is not None:
        out["base_point"] = list(report.base_point)
    return out


def profiles_to_csv(report: WavefrontReport, out) -> None:
    """Write the report's samples to the text stream ``out`` as CSV: a
    ``dir_index,r,abs_V`` header, then one row per sample, evaluated ray by
    ray, ``dir_index`` the ray's index in the sampling."""
    # ray heads "i,", ladder rungs "r," and a slice's distinct |V| are each
    # formatted once and joined as a (rows, 3) object array, no string per row
    heads = np.array([f"{i}," for i in report.evaluated.tolist()], dtype=object)
    heads = np.repeat(heads, np.diff(report.offsets))
    radii = np.array([f"{r!r}," for r in report.sampling.radii.tolist()], dtype=object)
    radii = radii[_ladder_index(report.offsets)]
    values = report.samples[:, 1]
    # rows are written 8,192 at a time: only one slice's text is alive at
    # once, not one string for the whole file
    out.write("dir_index,r,abs_V\n")
    for lo in range(0, len(values), 8192):
        distinct, which = np.unique(values[lo : lo + 8192], return_inverse=True)
        reprs = np.array([f"{v!r}\n" for v in distinct.tolist()], dtype=object)
        pieces = np.column_stack([heads[lo : lo + 8192], radii[lo : lo + 8192], reprs[which]])
        out.write("".join(pieces.ravel()))
