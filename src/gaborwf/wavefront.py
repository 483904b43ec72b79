"""Decay-rate detectors for phase-space and frequency singularities.

Super-polynomial decay cannot be decided from finite data, so every detector
uses the same decidable proxy: sample ``|V|`` along geometric radii on a fan
of unit directions, fit ``log|V| ~ c - s log r`` over the upper half of the
usable radii, and flag a direction singular when the fitted order ``s`` stays
at or below a threshold.  Values under ``1e-14`` are rounding noise and mark
the direction regular instead of producing spurious slopes.

Flagged directions are merged along the sampling adjacency: a narrow arc is
the detector's smearing of a single conic generator and is reported by its
central (medoid) axis, a component wider than the collapse angle is a genuine
extended cone and is reported by all of its sampled generators, and an
isolated single flag surrounded by regular directions is suspect and reported
separately.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .signal import SampledDistribution, Grid, nudft
from .stft import Window, stft_points, STFT_FLOOR

DEFAULT_N_THRESH = 2.5
DEFAULT_RHO = 1.15
DEFAULT_RHO_2D = 1.08
ARC_COLLAPSE_ANGLE = np.pi / 3  # arcs wider than this are true cones, not smear
_EXTENT_SIZE_CAP = 64


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
    ascending order.  ``angular_step`` is the pitch of the finest circle.
    Rays are truncated per direction so position components stay within the
    central box and frequency components within the alias-free band.
    """

    directions: np.ndarray
    radii: np.ndarray
    neighbors: np.ndarray
    angular_step: float
    space: str
    n_dirs: int
    r_min: float
    r_max: float
    rho: float

    def __post_init__(self):
        d = np.ascontiguousarray(np.asarray(self.directions, dtype=float))
        r = np.ascontiguousarray(np.asarray(self.radii, dtype=float))
        e = np.ascontiguousarray(np.asarray(self.neighbors, dtype=np.intp).reshape(-1, 2))
        for name, a in (("directions", d), ("radii", r), ("neighbors", e)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def _radius_ladder(grid: Grid, cap: float, r_min: float, r_max, rho, what: str):
    """Geometric radii ``r_min * rho**k`` up to ``r_max`` (default ``cap``);
    returns the radii with the resolved ``r_max`` and ``rho``."""
    if rho is None:
        rho = DEFAULT_RHO if grid.dim == 1 else DEFAULT_RHO_2D
    if r_max is None:
        r_max = cap
    elif r_max > cap + 1e-9:
        raise ValueError(f"r_max {r_max} exceeds the {what} {cap}")
    if r_min < 1.0:
        raise ValueError("r_min must be at least 1")
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    if r_max <= r_min:
        raise ValueError("r_max must exceed r_min")
    count = int(np.floor(np.log(r_max / r_min) / np.log(rho))) + 1
    return r_min * rho ** np.arange(count), float(r_max), rho


def _circle(n: int) -> np.ndarray:
    ang = 2 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def _ring(n: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(n)
    return k, (k + 1) % n


def _adjacency(*pairs) -> np.ndarray:
    """Sorted ``(E, 2)`` edge array from pairs of equally shaped index arrays."""
    a = np.concatenate([np.ravel(p) for p, _ in pairs])
    b = np.concatenate([np.ravel(q) for _, q in pairs])
    return np.unique(np.sort(np.column_stack([a, b]), axis=1), axis=0)


def phase_space_rays(
    grid: Grid,
    n_dirs: int | None = None,
    r_min: float = 1.0,
    r_max: float | None = None,
    rho: float | None = None,
    tilt_count: int = 5,
) -> RaySampling:
    """Directions on the phase-space sphere S^{2d-1}.

    d = 1: n_dirs points on the circle.  d = 2: a join parameterization,
    ``(cos t * u(alpha), sin t * v(beta))`` over ``tilt_count`` tilt levels
    with n_dirs points on each of the two circles; the pure-position and
    pure-frequency fibers appear once each.  The shared radius ladder is
    truncated per direction at estimate time by the position/frequency caps.
    """
    cap = max(position_cap(grid), frequency_cap(grid))
    radii, r_max, rho = _radius_ladder(grid, cap, r_min, r_max, rho, "resolvable phase-space radius")
    if grid.dim == 1:
        if n_dirs is None:
            n_dirs = 256
        if n_dirs < 64 or n_dirs % 4:
            raise ValueError("need n_dirs >= 64, divisible by 4, for the phase-space circle")
        dirs = _circle(n_dirs)
        step = 2 * np.pi / n_dirs
        neighbors = _adjacency(_ring(n_dirs))
        return RaySampling(dirs, radii, neighbors, step, "phase", n_dirs, r_min, r_max, rho)
    if n_dirs is None:
        n_dirs = 32
    if n_dirs < 32 or n_dirs % 4:
        raise ValueError("need n_dirs >= 32 per circle, divisible by 4, in 2-D")
    if tilt_count < 3:
        raise ValueError("need at least 3 tilt levels")
    n = n_dirs
    circ = _circle(n)
    zeros = np.zeros_like(circ)
    # inner tilt t holds the torus (cos t * u_i, sin t * v_j), i major
    inner = (np.pi / 2 * np.arange(tilt_count) / (tilt_count - 1))[1:-1, None, None, None]
    torus = np.concatenate(
        np.broadcast_arrays(np.cos(inner) * circ[:, None], np.sin(inner) * circ[None, :]), axis=-1
    )
    dirs = np.vstack([np.hstack([circ, zeros]), torus.reshape(-1, 4), np.hstack([zeros, circ])])
    k, k1 = _ring(n)
    mid = np.arange(n, n + (tilt_count - 2) * n * n).reshape(-1, n, n)  # index of torus point [t, i, j]
    last = n + mid.size + k
    neighbors = _adjacency(
        (k, k1),  # position circle
        (last, last[k1]),  # frequency circle
        (mid, np.roll(mid, -1, axis=1)),  # i + 1 on each torus
        (mid, np.roll(mid, -1, axis=2)),  # j + 1 on each torus
        (mid[:-1], mid[1:]),  # same (i, j) on the next torus
        (np.repeat(k, n), mid[0]),  # position point i to every (i, j) of the first torus
        (mid[-1], np.tile(last, n)),  # every (i, j) of the last torus to frequency point j
    )
    step = 2 * np.pi / n_dirs
    return RaySampling(dirs, radii, neighbors, step, "phase", n_dirs, r_min, r_max, rho)


def frequency_rays(
    grid: Grid,
    n_dirs: int | None = None,
    r_min: float = 1.0,
    r_max: float | None = None,
    rho: float | None = None,
) -> RaySampling:
    """Directions on the frequency sphere S^{d-1}; the pair {-1, +1} in 1-D."""
    cap = frequency_cap(grid)
    radii, r_max, rho = _radius_ladder(grid, cap, r_min, r_max, rho, "alias-free frequency radius")
    if grid.dim == 1:
        dirs = np.array([[1.0], [-1.0]])
        return RaySampling(dirs, radii, (), np.pi, "frequency", 2, r_min, r_max, rho)
    if n_dirs is None:
        n_dirs = 32
    if n_dirs < 32 or n_dirs % 4:
        raise ValueError("need n_dirs >= 32, divisible by 4, on the frequency circle")
    dirs = _circle(n_dirs)
    step = 2 * np.pi / n_dirs
    neighbors = _adjacency(_ring(n_dirs))
    return RaySampling(dirs, radii, neighbors, step, "frequency", n_dirs, r_min, r_max, rho)


@dataclass(frozen=True)
class DecayProfile:
    """Fitted decay order along one ray.

    ``slope`` is s in ``log|V| ~ c - s log r`` over the top half of the usable
    radii (negative slope means growth); ``floor_hit`` marks rays whose fit
    window dipped under the numeric floor, which forces the direction regular.
    """

    direction: tuple[float, ...]
    slope: float
    residual: float
    floor_hit: bool


def _flags(profiles, n_thresh: float) -> np.ndarray:
    return np.array([(not p.floor_hit) and p.slope <= n_thresh for p in profiles], dtype=bool)


@dataclass(frozen=True)
class WavefrontReport:
    """Detected singular directions plus all per-ray evidence.

    ``singular_dirs`` holds cone generators (arc representatives or sampled
    members of extended cones), ``isolated`` the suspect single-direction
    flags.  ``samples`` is the read-only ``(P, 2)`` array of (radius, |V|)
    behind the profiles: ray ``i`` is rows ``offsets[i]:offsets[i + 1]``.
    """

    kind: str
    singular_dirs: tuple[tuple[float, ...], ...]
    isolated: tuple[tuple[float, ...], ...]
    profiles: tuple[DecayProfile, ...]
    params: dict
    samples: np.ndarray
    offsets: np.ndarray
    base_point: tuple[float, ...] | None = None

    @property
    def rays(self) -> tuple[np.ndarray, ...]:
        """Per-ray ``(k, 2)`` views of ``samples``."""
        return tuple(np.split(self.samples, self.offsets[1:-1]))

    def flagged_indices(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(_flags(self.profiles, self.params["n_thresh"])).tolist())


def require_positive(name: str, value: float) -> None:
    """Reject a threshold or tolerance that is not finite and positive."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def angular_distance(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.arccos(np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0)))


def directed_hausdorff_angle(a_set, b_set) -> float:
    """max over a of the angle to the nearest b; 0 for empty a, inf for empty b."""
    a_set, b_set = list(a_set), list(b_set)
    if not a_set:
        return 0.0
    if not b_set:
        return np.inf
    return max(min(angular_distance(a, b) for b in b_set) for a in a_set)


def hausdorff_angle(a_set, b_set) -> float:
    return max(directed_hausdorff_angle(a_set, b_set), directed_hausdorff_angle(b_set, a_set))


def _fit_profile(ray: np.ndarray) -> tuple[float, float, bool]:
    """Least-squares decay order over the top half of one ``(k, 2)`` ray of
    (radius, |V|) rows; one (slope, residual, floor_hit) triple."""
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


def _components(flagged: np.ndarray, neighbors: np.ndarray) -> list[list[int]]:
    """Connected flagged directions, each component ascending, components in
    order of their smallest member."""
    parent = list(range(len(flagged)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in neighbors[flagged[neighbors].all(axis=1)].tolist():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
    for i in np.flatnonzero(flagged).tolist():
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _component_extent(members: list[int], dirs: np.ndarray) -> float:
    if len(members) > _EXTENT_SIZE_CAP:
        return np.pi
    worst = 0.0
    for ii in range(len(members)):
        for jj in range(ii + 1, len(members)):
            worst = max(worst, angular_distance(dirs[members[ii]], dirs[members[jj]]))
    return worst


def _component_axis(
    members: list[int],
    dirs: np.ndarray,
    samples: np.ndarray,
    offsets: np.ndarray,
    n_thresh: float,
) -> int:
    """Representative of a point-cone component.

    Members whose rays were truncated by different caps carry incomparable
    slopes, which skews the flagged arc toward the short-ray side; re-fitting
    on the radii common to the whole component makes them comparable.  The
    axis is the slope-depth-weighted mean direction of the low-slope core,
    snapped to the nearest member: stable against both oscillatory slope
    jitter and asymmetric arc boundaries.
    """
    common = int(np.diff(offsets)[members].min())
    if common // 2 >= 4:
        scores = {i: _fit_profile(samples[offsets[i] : offsets[i] + common])[0] for i in members}
    else:
        scores = {i: 0.0 for i in members}
    s_min = min(scores.values())
    margin = 0.25 * max(n_thresh - s_min, 1e-6)
    core = [i for i in members if scores[i] <= s_min + margin]
    axis = np.zeros(dirs.shape[1])
    for i in core:
        axis += (s_min + margin - scores[i] + 1e-12) * dirs[i]
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        return members[len(members) // 2]
    axis /= norm
    return min(members, key=lambda i: (round(angular_distance(dirs[i], axis), 12), i))


def _sample_rays(sampling: RaySampling, grid: Grid, evaluate, pos_cap: float = np.inf):
    """Take ``|evaluate(points)|`` at every usable (radius, direction) point in
    one call; returns the read-only ``(P, 2)`` (radius, |V|) samples and the
    ray offsets into them, one more than there are directions.

    A ray keeps the radii up to its cap: the frequency cap over the norm of
    the direction's frequency part and, in phase space, the position cap over
    the norm of its position part.
    """
    d, w = grid.dim, sampling.directions
    with np.errstate(divide="ignore"):
        cap = frequency_cap(grid) / np.linalg.norm(w[:, -d:], axis=1)
        if sampling.space == "phase":
            cap = np.minimum(cap, pos_cap / np.linalg.norm(w[:, :d], axis=1))
    counts = np.searchsorted(sampling.radii, cap + 1e-12, side="right")
    offsets = np.concatenate([[0], np.cumsum(counts)])
    r = sampling.radii[np.arange(offsets[-1]) - np.repeat(offsets[:-1], counts)]
    samples = np.column_stack([r, np.abs(evaluate(r[:, None] * np.repeat(w, counts, axis=0)))])
    samples.flags.writeable = False
    offsets.flags.writeable = False
    return samples, offsets


def _fit_rays(sampling: RaySampling, samples: np.ndarray, offsets: np.ndarray) -> tuple[DecayProfile, ...]:
    rays = np.split(samples, offsets[1:-1])
    return tuple(DecayProfile(tuple(w), *_fit_profile(ray)) for w, ray in zip(sampling.directions, rays))


def _report(
    kind: str,
    sampling: RaySampling,
    profiles: tuple[DecayProfile, ...],
    samples: np.ndarray,
    offsets: np.ndarray,
    n_thresh: float,
    params: dict,
    base_point=None,
) -> WavefrontReport:
    """Flag the fitted profiles at ``n_thresh`` and merge the flags along the
    sampling adjacency into singular and isolated directions."""
    dirs = sampling.directions
    flagged = _flags(profiles, n_thresh)
    singular: list[tuple[float, ...]] = []
    isolated: list[tuple[float, ...]] = []
    if not len(sampling.neighbors):
        # S^0: no angular smoothing possible, every flag stands by itself
        singular = [tuple(dirs[i]) for i in np.flatnonzero(flagged)]
    else:
        for comp in _components(flagged, sampling.neighbors):
            if len(comp) == 1:
                # a lone flag near the threshold is jitter; one far below it
                # is a sharply resolved generator
                if profiles[comp[0]].slope > 0.75 * n_thresh:
                    isolated.append(tuple(dirs[comp[0]]))
                    continue
                singular.append(tuple(dirs[comp[0]]))
                continue
            if _component_extent(comp, dirs) <= ARC_COLLAPSE_ANGLE:
                singular.append(tuple(dirs[_component_axis(comp, dirs, samples, offsets, n_thresh)]))
            else:
                singular.extend(tuple(dirs[i]) for i in comp)
    full_params = {
        "n_dirs": sampling.n_dirs,
        "r_min": sampling.r_min,
        "r_max": sampling.r_max,
        "rho": sampling.rho,
        "n_thresh": float(n_thresh),
        "angular_step": sampling.angular_step,
        "floor": STFT_FLOOR,
    }
    full_params.update(params)
    return WavefrontReport(
        kind,
        tuple(singular),
        tuple(isolated),
        profiles,
        full_params,
        samples,
        offsets,
        None if base_point is None else tuple(np.atleast_1d(base_point).astype(float)),
    )


def estimate_gabor_wf(
    u: SampledDistribution,
    window: Window,
    sampling: RaySampling | None = None,
    n_thresh: float = DEFAULT_N_THRESH,
) -> WavefrontReport:
    """Phase-space wavefront detection: decay of ``|V_psi u|`` along rays of
    S^{2d-1}."""
    require_positive("n_thresh", n_thresh)
    if sampling is None:
        sampling = phase_space_rays(u.grid)
    if sampling.space != "phase":
        raise ValueError("estimate_gabor_wf needs a phase-space sampling")
    window.validate_for(u.grid)
    compact = u.central_mass_fraction() >= 0.999
    pos_cap = position_cap(u.grid, window.lam, compact)
    samples, offsets = _sample_rays(sampling, u.grid, lambda p: stft_points(u, window, p), pos_cap)
    profiles = _fit_rays(sampling, samples, offsets)
    return _report("gabor", sampling, profiles, samples, offsets, n_thresh, {"lambda": window.lam})


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
    # 0.1% leeway: band-limited synthesis of discontinuous entries rings at the
    # 1e-6 mass level without making them non-compact
    if u.central_mass_fraction() < 0.999:
        warnings.warn(
            "estimate_sigma: input is not concentrated in the central box; "
            "the frequency cone of a non compactly supported input is not defined",
            stacklevel=2,
        )
    samples, offsets = _sample_rays(sampling, u.grid, lambda p: nudft(u, p))
    profiles = _fit_rays(sampling, samples, offsets)
    return _report("sigma", sampling, profiles, samples, offsets, n_thresh, {"lambda": None})


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
    window.validate_for(u.grid)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if len(x0) != u.grid.dim:
        raise ValueError("base point dimension mismatch")

    def evaluate(freq_pts):
        phase_pts = np.hstack([np.tile(x0, (len(freq_pts), 1)), freq_pts])
        return stft_points(u, window, phase_pts)

    samples, offsets = _sample_rays(sampling, u.grid, evaluate)
    profiles = _fit_rays(sampling, samples, offsets)
    return _report("classical", sampling, profiles, samples, offsets, n_thresh, {"lambda": window.lam}, x0)


def rethreshold(report: WavefrontReport, sampling: RaySampling, n_thresh: float) -> WavefrontReport:
    """Re-flag an existing report at a different threshold.  The stored
    profiles and samples are reused: nothing is sampled or fitted again."""
    require_positive("n_thresh", n_thresh)
    if len(sampling.directions) != len(report.profiles):
        raise ValueError(
            f"sampling has {len(sampling.directions)} directions, the report {len(report.profiles)}"
        )
    extra = {k: report.params[k] for k in ("lambda",) if k in report.params}
    return _report(
        report.kind,
        sampling,
        report.profiles,
        report.samples,
        report.offsets,
        n_thresh,
        extra,
        report.base_point,
    )


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
    require_positive("ang_tol", ang_tol)
    max_x = 0.0
    xi_parts = []
    for z in gabor_report.singular_dirs:
        d = len(z) // 2
        x_part, xi_part = np.array(z[:d]), np.array(z[d:])
        max_x = max(max_x, float(np.linalg.norm(x_part)))
        if np.linalg.norm(xi_part) > 1e-9:
            xi_parts.append(xi_part / np.linalg.norm(xi_part))
    sig = [np.array(s) for s in sigma_report.singular_dirs]
    both_empty = not xi_parts and not sig
    d_gs = 0.0 if both_empty else directed_hausdorff_angle(xi_parts, sig)
    d_sg = 0.0 if both_empty else directed_hausdorff_angle(sig, xi_parts)
    ok = max_x <= np.sin(ang_tol) + 1e-12 and d_gs <= ang_tol and d_sg <= ang_tol
    return ComparisonResult(bool(ok), max_x, float(d_gs), float(d_sg), float(ang_tol))


def schwartz_direction_test(report: WavefrontReport, ang_tol: float | None = None) -> bool:
    """True when no singular direction comes near the pure-frequency sphere
    {0} x S^{d-1}; such states are smooth with polynomially bounded
    derivatives."""
    if report.kind != "gabor":
        raise ValueError("smoothness test needs a phase-space report")
    if ang_tol is None:
        ang_tol = 2 * report.params["angular_step"]
    for z in report.singular_dirs:
        d = len(z) // 2
        xi_norm = float(np.linalg.norm(z[d:]))
        if np.arccos(np.clip(xi_norm, -1.0, 1.0)) <= ang_tol:
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _json_num(x: float):
    if np.isposinf(x):
        return "inf"
    if np.isneginf(x):
        return "-inf"
    return float(x)


def report_to_json(report: WavefrontReport) -> dict:
    params = {k: _json_num(v) if isinstance(v, float) else v for k, v in report.params.items()}
    out = {
        "kind": report.kind,
        "params": params,
        "profiles": [
            {
                "dir": list(p.direction),
                "slope": _json_num(p.slope),
                "residual": p.residual,
                "floor_hit": p.floor_hit,
            }
            for p in report.profiles
        ],
        "singular_dirs": [list(d) for d in report.singular_dirs],
        "isolated": [list(d) for d in report.isolated],
    }
    if report.base_point is not None:
        out["base_point"] = list(report.base_point)
    return out


def profiles_to_csv(report: WavefrontReport) -> str:
    index = np.repeat(np.arange(len(report.profiles)), np.diff(report.offsets)).tolist()
    r, v = report.samples.T.tolist()
    return "\n".join(["dir_index,r,abs_V", *(f"{i},{a!r},{b!r}" for i, a, b in zip(index, r, v))]) + "\n"
