"""Command-line front end: catalog inspection, wavefront analysis, propagation
verification, and singular-space computation with reproducible JSON/CSV
outputs.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, reported before any output file is written.  Outputs carry no
timestamps; rerunning a command with identical arguments produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

from . import signal as sig
from .stft import Window
from .symplectic import (
    QuadraticHamiltonian,
    ker_re_f,
    poisson_bracket_vanishes,
    singular_space,
)
from .propagator import verify_propagation
from .wavefront import (
    DEFAULT_N_THRESH,
    angular_tolerance,
    check_main_theorem,
    directed_hausdorff_angle,
    estimate_gabor_wf,
    estimate_sigma,
    frequency_rays,
    phase_space_rays,
    profiles_to_csv,
    report_to_json,
)

# bad options, catalog names, parameters and --params JSON, detector errors (a
# threshold out of range, too few radii for a fit) and an --out that is no
# directory (OSError from mkdir, before any output) come from the command line; a closed stdout does not
CONFIGURATION_ERRORS = (ValueError, OSError)


def _say(*lines: str):
    """Print ``lines`` to stdout, flushed; once its reader is gone, send the rest to
    ``os.devnull``, so that the command still writes its files and returns its verdict."""
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_json(path: Path, payload: dict):
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fmt_dirs(dirs) -> str:
    return str([[round(float(c), 6) for c in d] for d in dirs])


def _entry_and_window(args):
    """Samples, ground truth and window of an ``analyze`` or ``propagate`` run."""
    grid = sig.default_grid(args.name, args.n, args.length)
    params = None if args.params is None else json.loads(args.params)
    u, truth = sig.catalog_entry(args.name, params, grid)
    return u, truth, Window(args.lam)


def _default_record(name: str) -> dict:
    """The ``catalog_entry_json`` record of an entry at its defaults."""
    grid = sig.default_grid(name)
    _, truth = sig.catalog_entry(name, None, grid)
    return sig.catalog_entry_json(name, sig.CATALOG[name].defaults, grid, truth)


def cmd_catalog(args) -> int:
    if args.action == "show":
        _say(json.dumps(_default_record(args.name), indent=2, sort_keys=True))
        return 0
    records = [_default_record(name) for name in sig.catalog_names()]
    if args.json:
        _say(json.dumps(records, indent=2, sort_keys=True))
        return 0
    _say(f"{'name':<18} {'dim':<4} {'params':<18} {'support':<9} {'schwartz':<9} singular dirs")
    for rec in records:
        truth, params = rec["ground_truth"], json.dumps(rec["params"])
        sup = float(truth["support_radius"])  # "inf" reads as inf
        dirs = f"{len(truth['gabor_wf_dirs'])} generators" if truth["gabor_wf_dirs"] else "empty"
        _say(f"{rec['name']:<18} {rec['grid']['dim']:<4} {params:<18} {sup:<9g} {str(truth['is_schwartz']):<9} {dirs}")
    return 0


def cmd_analyze(args) -> int:
    u, truth, window = _entry_and_window(args)
    phase = phase_space_rays(u.grid, args.n_dirs, args.r_max, args.rho)
    freq = frequency_rays(u.grid, args.r_max, args.rho)
    ang_tol = angular_tolerance(phase, args.ang_tol)
    # kind: (label, ground-truth directions, report), written and checked in turn
    reports = {"gabor": ("gabor", truth.gabor_wf_dirs, estimate_gabor_wf(u, window, phase, args.n_thresh))}
    if truth.theorem_applicable:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports["sigma"] = ("frequency-cone", truth.sigma_dirs, estimate_sigma(u, freq, args.n_thresh))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for kind, (label, _, report) in reports.items():
        _write_json(out / f"{args.name}_{kind}.json", report_to_json(report))
        with (out / f"{args.name}_{kind}_profiles.csv").open("w") as fh:
            profiles_to_csv(report, fh)
        _say(f"{args.name}: {label} singular dirs: {_fmt_dirs(report.singular_dirs)}")

    failed = False
    if truth.theorem_applicable:
        result = check_main_theorem(reports["gabor"][2], reports["sigma"][2], ang_tol)
        verdict = "PASS" if result.passed else "FAIL"
        _say(
            f"{args.name}: main theorem check: {verdict} "
            f"(max |x| = {result.max_x_component:.6f}, hausdorff = "
            f"{result.dist_gabor_to_sigma:.6f}/{result.dist_sigma_to_gabor:.6f}, tol = {ang_tol:.6f})"
        )
        failed = not result.passed
    else:
        _say(f"{args.name}: not compactly supported: theorem check skipped")

    # every analytic generator must be found; extra arcs are judged by the
    # theorem check above, not here
    for kind, (_, expected, report) in reports.items():
        miss = directed_hausdorff_angle(expected, report.singular_dirs)
        if miss > ang_tol:
            _say(f"{args.name}: {kind} detection missed ground-truth directions (gap {miss:.4f})")
            failed = True

    if args.dump_samples:
        (out / f"{args.name}_samples.bin").write_bytes(sig.dump_samples(u))
    return 1 if failed else 0


def cmd_propagate(args) -> int:
    u, truth, window = _entry_and_window(args)
    report = verify_propagation(u, truth, args.t, window=window, n_thresh=args.n_thresh, ang_tol=args.ang_tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / f"{args.name}_propagation_t{args.t:.10g}.json", report.to_json())
    verdict = "PASS" if report.passed else "FAIL"
    _say(
        f"{args.name} t={args.t:.10g}: {verdict} hausdorff={report.hausdorff_angle:.6f} "
        f"smooth expected/detected: {report.smooth_expected}/{report.smooth_detected} "
        f"truncation_error={report.truncation_error:.4f}",
        f"predicted: {_fmt_dirs(report.predicted_dirs)}",
        f"detected:  {_fmt_dirs(report.detected_dirs)}",
    )
    return 0 if report.passed else 1


def cmd_singular_space(args) -> int:
    try:
        q = QuadraticHamiltonian.from_json(Path(args.q_file).read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"invalid Hamiltonian file {args.q_file}: {exc}", file=sys.stderr)
        return 2
    space = singular_space(q, args.tol)
    bracket = poisson_bracket_vanishes(q)
    payload = {
        "dim": q.dim,
        "tol": args.tol,
        "subspace_dim": space.subspace_dim,
        "basis": space.basis.T.tolist(),
        "poisson_bracket_vanishes": bracket,
    }
    if bracket:
        kernel = ker_re_f(q, args.tol)
        dists = [kernel.distance(v) for v in space.basis.T] + [space.distance(v) for v in kernel.basis.T]
        resid = max([0.0, *dists])
        payload["ker_re_f_basis"] = kernel.basis.T.tolist()
        payload["ker_re_f_projection_residual"] = resid
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / (Path(args.q_file).stem + "_singular_space.json")
    _write_json(target, payload)
    _say(json.dumps(payload, indent=2, sort_keys=True))
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
        p.add_argument("--n-thresh", type=float, default=DEFAULT_N_THRESH, help="decay-order threshold")
        p.add_argument("--ang-tol", type=float, default=None, help="angular tolerance (radians)")
        p.add_argument("--out", default="out", help="output directory")

    ana = sub.add_parser("analyze", help="wavefront detection + main-theorem check")
    add_common(ana)
    ana.add_argument("--n-dirs", type=int, default=None)
    ana.add_argument("--r-max", type=float, default=None)
    ana.add_argument("--rho", type=float, default=None)
    ana.add_argument("--dump-samples", action="store_true")
    ana.set_defaults(func=cmd_analyze)

    prop = sub.add_parser("propagate", help="oscillator evolution + propagation check")
    add_common(prop)
    prop.add_argument("--t", type=float, required=True, help="evolution time")
    prop.set_defaults(func=cmd_propagate)

    ss = sub.add_parser("singular-space", help="singular space of a quadratic Hamiltonian")
    ss.add_argument("q_file", help="JSON file {dim, re, im}")
    ss.add_argument("--tol", type=float, default=1e-10)
    ss.add_argument("--out", default="out")
    ss.set_defaults(func=cmd_singular_space)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CONFIGURATION_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
