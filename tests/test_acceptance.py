"""Acceptance suite: one test per criterion, each printing a pass line, plus
checks that reuse the same cached detection runs.

Desk scale: 1-D on n = 1024, L = 40; 2-D on n = 256, L = 20.  Detection runs
are cached module-wide since the detectors are deterministic.
"""

import json
import warnings

import numpy as np
import pytest

from gaborwf.signal import (
    CATALOG,
    SampledDistribution,
    catalog_entry,
    catalog_names,
    fourier_transform,
    make_grid,
)
from gaborwf.stft import Window, moyal_reconstruct, stft_points
from gaborwf.symplectic import (
    QuadraticHamiltonian,
    ker_re_f,
    poisson_bracket_vanishes,
    singular_space,
)
from gaborwf.propagator import (
    HermiteBasis,
    harmonic_propagate,
    hermite_coefficients,
    special_time_operator,
    verify_propagation,
)
from gaborwf.wavefront import (
    check_main_theorem,
    directed_hausdorff_angle,
    estimate_gabor_wf,
    estimate_sigma,
    frequency_rays,
    hausdorff_angle,
    phase_space_rays,
    profiles_to_csv,
    report_to_json,
    rethreshold,
)

GRID = {1: make_grid(1, 1024, 20.0), 2: make_grid(2, 256, 10.0)}
STEP = {1: 2 * np.pi / 256, 2: 2 * np.pi / 32}
COMPACT_ENTRIES = ("dirac", "dirac_derivative", "box", "line_delta_2d", "bump", "box2d")
EMPTY_ENTRIES = ("bump", "gaussian")

_cache: dict = {}


def entry(name):
    key = ("entry", name)
    if key not in _cache:
        _cache[key] = catalog_entry(name, None, GRID[CATALOG[name].dim])
    return _cache[key]


def gabor_report(name, lam=0.5, n_thresh=2.5):
    key = ("gabor", name, lam, n_thresh)
    if key not in _cache:
        u, _ = entry(name)
        _cache[key] = estimate_gabor_wf(u, Window(lam, dim=u.grid.dim), n_thresh=n_thresh)
    return _cache[key]


def sigma_report(name, n_thresh=2.5):
    key = ("sigma", name, n_thresh)
    if key not in _cache:
        u, _ = entry(name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _cache[key] = estimate_sigma(u, n_thresh=n_thresh)
    return _cache[key]


def propagation_report(t):
    key = ("prop", round(t, 12))
    if key not in _cache:
        u, truth = entry("dirac")
        _cache[key] = verify_propagation(u, truth, t)
    return _cache[key]


def dirs_of(report):
    return [np.array(d) for d in report.singular_dirs]


def test_criterion_1_main_theorem():
    for name in COMPACT_ENTRIES:
        dim = CATALOG[name].dim
        tol = 2 * STEP[dim]
        result = check_main_theorem(gabor_report(name), sigma_report(name), tol)
        assert result.passed, (name, result)
    for name in EMPTY_ENTRIES:
        dim = CATALOG[name].dim
        result = check_main_theorem(gabor_report(name), sigma_report(name), 2 * STEP[dim])
        assert result.passed and result.dist_gabor_to_sigma == 0.0, name
        assert result.dist_sigma_to_gabor == 0.0, name
    print("[PASS] criterion 1: phase-space singular set = {0} x frequency cone "
          "on every compactly supported entry (tol = 2 angular steps)")


def test_criterion_2_weak_inclusion():
    bound = np.sin(np.radians(5.0))
    for name in COMPACT_ENTRIES:
        for lam in (0.5, 1.0, 2.0):
            rep = gabor_report(name, lam)
            d = CATALOG[name].dim
            for z in rep.singular_dirs:
                assert np.linalg.norm(z[:d]) <= bound, (name, lam, z)
    print("[PASS] criterion 2: no detected phase-space singular direction of a "
          "compactly supported entry has position component above sin(5 deg)")


def test_criterion_3_stft_correctness():
    g = GRID[1]
    dirac, _ = entry("dirac")
    w = Window(1.0)
    rng = np.random.default_rng(2024)
    pts = np.column_stack([rng.uniform(-9, 9, 200), rng.uniform(-36, 36, 200)])
    vals = np.abs(stft_points(dirac, w, pts))
    exact = (np.pi) ** -0.25 * np.exp(-(pts[:, 0] ** 2) / 2)
    worst = np.max(np.abs(vals - exact))
    assert worst < 1e-8, worst
    for name, params, tol in (("gaussian", None, 1e-6), ("hermite", {"n": 3}, 1e-6)):
        u, _ = catalog_entry(name, params, g)
        rec = moyal_reconstruct(u, w)
        err = np.sqrt(np.sum(np.abs(rec.samples - u.samples) ** 2) * g.spacing) / u.norm()
        assert err < tol, (name, err)
    print(f"[PASS] criterion 3: spike transform matches the closed form to 1e-8 "
          f"(worst {worst:.2e}); inversion round-trip under 1e-6 on smooth entries")


def test_criterion_4_window_independence():
    for name in catalog_names():
        dim = CATALOG[name].dim
        sets = {lam: dirs_of(gabor_report(name, lam)) for lam in (0.5, 1.0, 2.0)}
        for a in (0.5, 1.0):
            for b in (1.0, 2.0):
                if a >= b:
                    continue
                if not sets[a] and not sets[b]:
                    continue
                gap = hausdorff_angle(sets[a], sets[b])
                assert gap <= STEP[dim] + 1e-9, (name, a, b, gap)
    print("[PASS] criterion 4: singular directions stable within one angular step "
          "across window widths 0.5, 1, 2 on every catalog entry")


def test_criterion_5_singular_space():
    for d in (1, 2):
        osc = QuadraticHamiltonian(d, 1j * np.eye(2 * d))
        assert singular_space(osc).subspace_dim == 2 * d
    assert singular_space(QuadraticHamiltonian(1, np.eye(2) + 0j)).subspace_dim == 0
    free = QuadraticHamiltonian(1, np.diag([0.0, 1.0]) + 0j)
    space = singular_space(free)
    assert space.subspace_dim == 1
    assert abs(abs(space.basis[0, 0]) - 1.0) < 1e-12 and abs(space.basis[1, 0]) < 1e-12
    bracket_true = [
        QuadraticHamiltonian(1, 1j * np.eye(2)),
        QuadraticHamiltonian(2, 1j * np.eye(4)),
        QuadraticHamiltonian(1, np.eye(2) + 0j),
        QuadraticHamiltonian(1, np.diag([0.0, 1.0]) + 0j),
        QuadraticHamiltonian(1, np.diag([1.0, 0.0]) + 0j),
        QuadraticHamiltonian(1, np.array([[2.0, 0.5], [0.5, 1.0]]) + 0j),
        QuadraticHamiltonian(1, 1j * np.array([[2.0, 1.0], [1.0, 2.0]])),
    ]
    for q in bracket_true:
        assert poisson_bracket_vanishes(q)
        full, short = singular_space(q), ker_re_f(q)
        assert full.subspace_dim == short.subspace_dim
        resid = 0.0
        for v in full.basis.T:
            resid = max(resid, short.distance(v))
        for v in short.basis.T:
            resid = max(resid, full.distance(v))
        assert resid <= 1e-9
    print("[PASS] criterion 5: singular spaces match the hand computations and the "
          "kernel shortcut whenever the symbol commutes with its conjugate")


PROPAGATION_TIMES = (0.0, np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4, np.pi / 2, np.pi)


def test_criterion_6_exact_rotation():
    u, truth = entry("dirac")
    initial = [np.array(z) for z in truth.gabor_wf_dirs]
    for t in PROPAGATION_TIMES:
        rep = propagation_report(t)
        assert rep.passed, (t, rep)
        assert rep.hausdorff_angle <= 2 * STEP[1], t
        if t in (np.pi / 2, np.pi):
            sign = (-1) ** int(round(2 * t / np.pi))
            target = [sign * z for z in initial]
            detected = [np.array(z) for z in rep.detected_dirs]
            gap = hausdorff_angle(detected, target)
            assert gap <= 2 * STEP[1], (t, gap)
    print("[PASS] criterion 6: detected singular set follows the exact phase-space "
          "rotation at rate 2t, including the half-period sign lattice")


def test_criterion_7_smoothing_off_lattice():
    for t in (np.pi / 16, np.pi / 8, 3 * np.pi / 16, np.pi / 4, 0.9):
        rep = propagation_report(t)
        assert rep.smooth_detected is True, t
    for t in (0.0, np.pi / 2, np.pi):
        rep = propagation_report(t)
        assert rep.smooth_detected is False, t
    print("[PASS] criterion 7: evolved spike is smooth exactly away from the "
          "half-period time lattice")


def test_criterion_8_propagator_numerics():
    g = GRID[1]
    basis = HermiteBasis.build(g)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    u = SampledDistribution(g, vals, label="random")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c0, _ = hermite_coefficients(u, basis)
        for t in (0.4, 1.3):
            moved = harmonic_propagate(u, t, basis)
            c1, _ = hermite_coefficients(moved.state, basis)
            assert abs(np.linalg.norm(c1) - np.linalg.norm(c0)) < 1e-10
        s, t = 0.6, -1.1
        two = harmonic_propagate(harmonic_propagate(u, s, basis).state, t, basis)
        one = harmonic_propagate(u, s + t, basis)
        gap = np.sqrt(np.sum(np.abs(two.state.samples - one.state.samples) ** 2) * g.spacing)
        assert gap / one.state.norm() < 1e-9
    smooth, _ = entry("gaussian")
    quarter = harmonic_propagate(smooth, np.pi / 4, basis)
    target = special_time_operator(smooth, quarter=True)
    inner = np.vdot(target.samples, quarter.state.samples)
    phase = inner / abs(inner)
    err = np.sqrt(
        np.sum(np.abs(quarter.state.samples - phase * target.samples) ** 2) * g.spacing
    ) / smooth.norm()
    assert err < 1e-6
    x, h = g.axis(), g.spacing
    stencil = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])
    for n in range(11):
        hn = basis.values[:, n]
        second = sum(stencil[k] * np.roll(hn, 3 - k) for k in range(7)) / h**2
        applied = x**2 * hn - second
        rel = np.linalg.norm(applied - (2 * n + 1) * hn) / np.linalg.norm((2 * n + 1) * hn)
        assert rel <= 1e-4, n
    print("[PASS] criterion 8: unitarity 1e-10, group law 1e-9, quarter-period = "
          "scaled Fourier transform to 1e-6, eigenrelation residual under 1e-4")


def test_criterion_9_symplectic_invariance():
    J = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for name in ("dirac", "box"):
        u, _ = entry(name)
        direct = estimate_gabor_wf(u, Window(1.0))
        transformed = estimate_gabor_wf(fourier_transform(u), Window(1.0))
        rotated = [J @ np.array(z) for z in direct.singular_dirs]
        gap = hausdorff_angle(rotated, dirs_of(transformed))
        assert gap <= STEP[1] + 1e-9, (name, gap)
    print("[PASS] criterion 9: Fourier transform rotates detected directions by J "
          "within one angular step")


def test_criterion_10_determinism_and_monotonicity():
    u, _ = entry("box")
    a = estimate_gabor_wf(u, Window(0.5))
    b = estimate_gabor_wf(u, Window(0.5))
    blob_a = json.dumps(report_to_json(a), sort_keys=True)
    blob_b = json.dumps(report_to_json(b), sort_keys=True)
    assert blob_a == blob_b
    for name in catalog_names():
        dim = CATALOG[name].dim
        rep = gabor_report(name, 0.5)
        sampling = phase_space_rays(GRID[dim])
        prev_flagged = set(rep.flagged_indices())
        prev_dirs = dirs_of(rep)
        for thresh in (1.5, 0.75, 0.3):
            lowered = rethreshold(rep, sampling, thresh)
            cur = set(lowered.flagged_indices())
            assert cur <= prev_flagged, (name, thresh)
            if lowered.singular_dirs and prev_dirs:
                gap = directed_hausdorff_angle(dirs_of(lowered), prev_dirs)
                assert gap <= STEP[dim] + 1e-9, (name, thresh)
            assert not (lowered.singular_dirs and not prev_dirs), (name, thresh)
            prev_flagged = cur
            if lowered.singular_dirs:
                prev_dirs = dirs_of(lowered)
    print("[PASS] criterion 10: repeated runs byte-identical; lowering the decay "
          "threshold never flags new directions or grows the reported cones")


def test_rethreshold_at_report_threshold_is_identity():
    # re-flagging at the report's own threshold reproduces both written outputs
    for name in catalog_names():
        dim = CATALOG[name].dim
        pairs = [(gabor_report(name, 0.5), phase_space_rays(GRID[dim]))]
        if name in COMPACT_ENTRIES:
            pairs.append((sigma_report(name), frequency_rays(GRID[dim])))
        for rep, sampling in pairs:
            again = rethreshold(rep, sampling, rep.params["n_thresh"])
            assert report_to_json(again) == report_to_json(rep), (name, rep.kind)
            assert profiles_to_csv(again) == profiles_to_csv(rep), (name, rep.kind)
