"""Command-line front end: catalog inspection, wavefront analysis, propagation
verification, and singular-space computation with reproducible JSON/CSV
outputs.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error.  Outputs carry no timestamps; rerunning a command with identical
arguments produces byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import signal as sig
from .stft import Window
from .symplectic import (
    QuadraticHamiltonian,
    ker_re_f,
    poisson_bracket_vanishes,
    singular_space,
)
from .propagator import HermiteBasis, default_n_max, verify_propagation
from .wavefront import (
    check_main_theorem,
    directed_hausdorff_angle,
    estimate_gabor_wf,
    estimate_sigma,
    frequency_rays,
    phase_space_rays,
    profiles_to_csv,
    report_to_json,
    require_positive,
)

GRID_DEFAULTS = {1: (1024, 40.0), 2: (256, 20.0)}


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _fmt_dirs(dirs) -> str:
    return str([[round(float(c), 6) for c in d] for d in dirs])


def _default_grid(name: str, n: int | None = None, length: float | None = None) -> sig.Grid:
    dim = sig.CATALOG[name].dim
    if n is None:
        n = GRID_DEFAULTS[dim][0]
    if length is None:
        length = GRID_DEFAULTS[dim][1]
    return sig.make_grid(dim, n, length / 2.0)


def _entry_params(args) -> dict | None:
    if args.params is None:
        return None
    return json.loads(args.params)


def _entry_defaults(name: str):
    """Default parameters, default grid and ground truth of a catalog entry."""
    grid = _default_grid(name)
    _, truth = sig.catalog_entry(name, None, grid)
    return sig.CATALOG[name].defaults, grid, truth


def cmd_catalog(args) -> int:
    if args.action == "list":
        rows = [(name, *_entry_defaults(name)) for name in sig.catalog_names()]
        if args.json:
            payload = [sig.catalog_entry_json(n, p, g, t) for n, p, g, t in rows]
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(f"{'name':<18} {'dim':<4} {'params':<18} {'support':<9} {'schwartz':<9} singular dirs")
            for name, params, grid, truth in rows:
                sup = "inf" if truth.support_radius == np.inf else f"{truth.support_radius:g}"
                dirs = "empty" if not truth.gabor_wf_dirs else f"{len(truth.gabor_wf_dirs)} generators"
                print(f"{name:<18} {grid.dim:<4} {json.dumps(params):<18} {sup:<9} {str(truth.is_schwartz):<9} {dirs}")
        return 0
    name = args.name
    if name not in sig.catalog_names():
        print(f"unknown catalog entry {name!r}", file=sys.stderr)
        return 2
    payload = sig.catalog_entry_json(name, *_entry_defaults(name))
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _detector_samplings(grid: sig.Grid, args):
    kw = {}
    if args.n_dirs is not None:
        kw["n_dirs"] = args.n_dirs
    if args.r_min is not None:
        kw["r_min"] = args.r_min
    if args.r_max is not None:
        kw["r_max"] = args.r_max
    if args.rho is not None:
        kw["rho"] = args.rho
    phase = phase_space_rays(grid, **kw)
    kw.pop("n_dirs", None)
    freq = frequency_rays(grid, **kw)
    return phase, freq


def cmd_analyze(args) -> int:
    try:
        grid = _default_grid(args.name, args.n, args.length)
        u, truth = sig.catalog_entry(args.name, _entry_params(args), grid)
        window = Window(args.lam, dim=grid.dim)
        phase, freq = _detector_samplings(grid, args)
        ang_tol = args.ang_tol if args.ang_tol is not None else 2 * phase.angular_step
        require_positive("ang_tol", ang_tol)
        # detector errors (a threshold out of range, too few radii for a
        # fit) come from the options, so they are configuration errors too
        gabor = estimate_gabor_wf(u, window, phase, args.n_thresh)
        if truth.theorem_applicable:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sigma = estimate_sigma(u, freq, args.n_thresh)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / f"{args.name}_gabor.json", report_to_json(gabor))
    (out / f"{args.name}_gabor_profiles.csv").write_text(profiles_to_csv(gabor))
    print(f"{args.name}: gabor singular dirs: {_fmt_dirs(gabor.singular_dirs)}")

    failed = False
    detected_sets = {"gabor": gabor.singular_dirs}
    if truth.theorem_applicable:
        _write_json(out / f"{args.name}_sigma.json", report_to_json(sigma))
        (out / f"{args.name}_sigma_profiles.csv").write_text(profiles_to_csv(sigma))
        print(f"{args.name}: frequency-cone singular dirs: {_fmt_dirs(sigma.singular_dirs)}")
        result = check_main_theorem(gabor, sigma, ang_tol)
        verdict = "PASS" if result.passed else "FAIL"
        print(
            f"{args.name}: main theorem check: {verdict} "
            f"(max |x| = {result.max_x_component:.6f}, hausdorff = "
            f"{result.dist_gabor_to_sigma:.6f}/{result.dist_sigma_to_gabor:.6f}, tol = {ang_tol:.6f})"
        )
        failed = failed or not result.passed
        detected_sets["sigma"] = sigma.singular_dirs
        truth_sets = {"gabor": truth.gabor_wf_dirs, "sigma": truth.sigma_dirs}
    else:
        print(f"{args.name}: not compactly supported: theorem check skipped")
        truth_sets = {"gabor": truth.gabor_wf_dirs}

    # every analytic generator must be found; extra arcs are judged by the
    # theorem check above, not here
    for kind, expected in truth_sets.items():
        if expected is None:
            continue
        miss = directed_hausdorff_angle(
            [np.array(e) for e in expected], [np.array(d) for d in detected_sets[kind]]
        )
        if miss > ang_tol:
            print(f"{args.name}: {kind} detection missed ground-truth directions (gap {miss:.4f})")
            failed = True

    if args.dump_samples:
        (out / f"{args.name}_samples.bin").write_bytes(sig.dump_samples(u))
    return 1 if failed else 0


def cmd_propagate(args) -> int:
    try:
        grid = _default_grid(args.name, args.n, args.length)
        u, truth = sig.catalog_entry(args.name, _entry_params(args), grid)
        window = Window(args.lam, dim=grid.dim)
        n_max = args.n_max if args.n_max is not None else default_n_max(grid)
        basis = HermiteBasis.build(grid, n_max)
        report = verify_propagation(
            u, truth, args.t, window=window, n_thresh=args.n_thresh, ang_tol=args.ang_tol, basis=basis
        )
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / f"{args.name}_propagation_t{args.t:.10g}.json", report.to_json())
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"{args.name} t={args.t:.10g}: {verdict} hausdorff={report.hausdorff_angle:.6f} "
        f"smooth expected/detected: {report.smooth_expected}/{report.smooth_detected} "
        f"truncation_error={report.truncation_error:.4f}"
    )
    print(f"predicted: {_fmt_dirs(report.predicted_dirs)}")
    print(f"detected:  {_fmt_dirs(report.detected_dirs)}")
    return 0 if report.passed else 1


def cmd_singular_space(args) -> int:
    try:
        q = QuadraticHamiltonian.from_json(Path(args.q_file).read_text())
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"invalid Hamiltonian file: {exc}", file=sys.stderr)
        return 2
    space = singular_space(q, args.tol)
    bracket = poisson_bracket_vanishes(q)
    payload = {
        "dim": q.dim,
        "tol": args.tol,
        "subspace_dim": space.subspace_dim,
        "basis": [list(map(float, v)) for v in space.basis.T],
        "poisson_bracket_vanishes": bracket,
    }
    if bracket:
        kernel = ker_re_f(q, args.tol)
        resid = 0.0
        for v in space.basis.T:
            resid = max(resid, kernel.distance(v))
        for v in kernel.basis.T:
            resid = max(resid, space.distance(v))
        payload["ker_re_f_basis"] = [list(map(float, v)) for v in kernel.basis.T]
        payload["ker_re_f_projection_residual"] = resid
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / (Path(args.q_file).stem + "_singular_space.json")
    _write_json(target, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gaborwf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="list or show test distributions")
    cat_sub = cat.add_subparsers(dest="action", required=True)
    cat_list = cat_sub.add_parser("list")
    cat_list.add_argument("--json", action="store_true")
    cat_show = cat_sub.add_parser("show")
    cat_show.add_argument("name")
    cat.set_defaults(func=cmd_catalog)

    def add_common(p):
        p.add_argument("name", help="catalog entry name")
        p.add_argument("--params", help="JSON object of entry parameters")
        p.add_argument("--n", type=int, default=None, help="grid points per axis")
        p.add_argument("--L", dest="length", type=float, default=None, help="box length per axis")
        p.add_argument("--lam", type=float, default=1.0, help="window width")
        p.add_argument("--n-thresh", type=float, default=2.5, help="decay-order threshold")
        p.add_argument("--ang-tol", type=float, default=None, help="angular tolerance (radians)")
        p.add_argument("--out", default="out", help="output directory")

    ana = sub.add_parser("analyze", help="wavefront detection + main-theorem check")
    add_common(ana)
    ana.add_argument("--n-dirs", type=int, default=None)
    ana.add_argument("--r-min", type=float, default=None)
    ana.add_argument("--r-max", type=float, default=None)
    ana.add_argument("--rho", type=float, default=None)
    ana.add_argument("--dump-samples", action="store_true")
    ana.set_defaults(func=cmd_analyze)

    prop = sub.add_parser("propagate", help="oscillator evolution + propagation check")
    add_common(prop)
    prop.add_argument("--t", type=float, required=True, help="evolution time")
    prop.add_argument("--n-max", type=int, default=None, help="highest retained order")
    prop.set_defaults(func=cmd_propagate)

    ss = sub.add_parser("singular-space", help="singular space of a quadratic Hamiltonian")
    ss.add_argument("q_file", help="JSON file {dim, re, im}")
    ss.add_argument("--tol", type=float, default=1e-10)
    ss.add_argument("--out", default="out")
    ss.set_defaults(func=cmd_singular_space)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
