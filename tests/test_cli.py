import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gaborwf
from gaborwf.cli import main
from gaborwf.signal import CATALOG, default_grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalogCommands:
    def test_list_has_all_entries(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        lines = [l for l in out.strip().split("\n") if l and not l.startswith("name")]
        assert len(lines) >= 9
        for required in ("dirac", "gaussian", "box", "chirp", "line_delta_2d"):
            assert any(l.startswith(required) for l in lines), required

    def test_list_json(self, capsys):
        code, out, _ = run(capsys, "catalog", "list", "--json")
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list) and len(payload) >= 9

    def test_show_dirac_ground_truth(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "dirac")
        assert code == 0
        payload = json.loads(out)
        dirs = {tuple(d) for d in payload["ground_truth"]["gabor_wf_dirs"]}
        assert dirs == {(0.0, 1.0), (0.0, -1.0)}

    def test_show_unknown(self, capsys):
        code, _, err = run(capsys, "catalog", "show", "wavelet")
        assert code == 2
        assert "unknown" in err


class TestAnalyze:
    def test_dirac_detects_poles(self, tmp_path, capsys):
        code, out, _ = run(capsys, "analyze", "dirac", "--out", str(tmp_path))
        assert code == 0
        assert "PASS" in out
        report = json.loads((tmp_path / "dirac_gabor.json").read_text())
        assert report["kind"] == "gabor"
        assert len(report["singular_dirs"]) == 2
        csv = (tmp_path / "dirac_gabor_profiles.csv").read_text()
        assert csv.startswith("dir_index,r,abs_V")
        assert (tmp_path / "dirac_sigma.json").exists()

    def test_chirp_skips_theorem(self, tmp_path, capsys):
        code, out, _ = run(capsys, "analyze", "chirp", "--out", str(tmp_path))
        assert code == 0
        assert "not compactly supported: theorem check skipped" in out

    def test_box_low_threshold_fails(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "analyze", "box", "--n-thresh", "0.5", "--out", str(tmp_path)
        )
        assert code == 1
        assert "missed ground-truth" in out

    def test_invalid_grid_is_config_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", "dirac", "--n", "1000", "--out", str(tmp_path))
        assert code == 2
        assert "configuration error" in err

    def test_invalid_params_json(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", "box", "--params", "{bad", "--out", str(tmp_path))
        assert code == 2

    def test_unknown_entry(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", "nonsense", "--out", str(tmp_path))
        assert code == 2

    def test_dump_samples(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "analyze", "gaussian", "--dump-samples", "--out", str(tmp_path)
        )
        assert code == 0
        blob = (tmp_path / "gaussian_samples.bin").read_bytes()
        assert blob[:4] == b"GWF2"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "analyze", "box", "--out", str(a))
        run(capsys, "analyze", "box", "--out", str(b))
        for name in ("box_gabor.json", "box_gabor_profiles.csv", "box_sigma.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_verdict_does_not_depend_on_n_dirs(self, tmp_path, capsys, name):
        # the exit code and every stdout line, the detected directions
        # included, less the numbers in brackets; a finer sampling smears a
        # generator over more members, whose arc must still collapse to the
        # same axis (box and dirac_derivative failed the theorem check at 2,048)
        n_dirs = (256, 512, 1024, 2048) if CATALOG[name].dims[0] == 1 else (32, 48)
        verdicts = set()
        for k in n_dirs:
            code, out, _ = run(capsys, "analyze", name, "--n-dirs", str(k), "--out", str(tmp_path / str(k)))
            verdicts.add((code, tuple(line.partition(" (")[0] for line in out.splitlines())))
        assert len(verdicts) == 1, verdicts

    @pytest.mark.xfail(
        strict=True,
        reason="at 4,096 directions two members just under n_thresh form a component of their own, "
        "which the jitter rule for lone flags does not cover, and are reported as a generator",
    )
    def test_chirp_directions_at_4096_match_256(self, tmp_path, capsys):
        # today 4,096 adds (0.843208, 0.537587) and its mirror to the
        # (0.707107, 0.707107) pair that 256 to 2,048 directions report
        dirs = {}
        for k in (256, 4096):
            code, out, _ = run(capsys, "analyze", "chirp", "--n-dirs", str(k), "--out", str(tmp_path / str(k)))
            assert code == 0
            dirs[k] = [line for line in out.splitlines() if "singular dirs" in line]
        assert dirs[4096] == dirs[256]

    @pytest.mark.xfail(
        strict=True,
        reason="hermite orders 40 to 64 fail the main theorem check on the default grid (max |x| = 1 "
        "at order 40), although their turning radius sqrt(2n + 1), 9.0 to 11.4, lies well inside the box",
    )
    def test_hermite_order_40_passes(self, tmp_path, capsys):
        code, out, _ = run(capsys, "analyze", "hermite", "--params", '{"n": 40}', "--out", str(tmp_path))
        assert code == 0, out


class TestPropagate:
    def test_eighth_period(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "propagate", "dirac", "--t", "0.3926990817", "--out", str(tmp_path)
        )
        assert code == 0
        assert "PASS" in out
        files = list(tmp_path.glob("dirac_propagation_t*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["passed"] is True

    def test_half_period_returns_poles(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "propagate", "dirac", "--t", "1.5707963268", "--out", str(tmp_path)
        )
        assert code == 0
        payload = json.loads(next(iter(tmp_path.glob("*.json"))).read_text())
        dirs = {tuple(np.round(d, 6)) for d in payload["detected_dirs"]}
        assert dirs == {(0.0, 1.0), (-0.0, -1.0)} or dirs == {(0.0, 1.0), (0.0, -1.0)}

    def test_gaussian_stays_smooth(self, tmp_path, capsys):
        code, out, _ = run(capsys, "propagate", "gaussian", "--t", "0.7", "--out", str(tmp_path))
        assert code == 0
        assert "PASS" in out

    def test_huge_time_passes(self, tmp_path, capsys):
        # 1e300 is reduced modulo the period 2 pi before both the evolution
        # and the forecast, so no FAIL is made up from rounding
        code, out, _ = run(capsys, "propagate", "dirac", "--t", "1e300", "--out", str(tmp_path))
        assert code == 0
        assert "PASS" in out

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "propagate", "dirac", "--t", "0.9", "--out", str(a))
        run(capsys, "propagate", "dirac", "--t", "0.9", "--out", str(b))
        fa, fb = next(iter(a.glob("*.json"))), next(iter(b.glob("*.json")))
        assert fa.read_bytes() == fb.read_bytes()


class TestSingularSpace:
    def write_q(self, tmp_path, name, re, im):
        path = tmp_path / name
        path.write_text(json.dumps({"dim": 1, "re": re, "im": im}))
        return path

    def test_oscillator_full_space(self, tmp_path, capsys):
        q = self.write_q(tmp_path, "osc.json", [[0, 0], [0, 0]], [[1, 0], [0, 1]])
        code, out, _ = run(capsys, "singular-space", str(q), "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "osc_singular_space.json").read_text())
        assert payload["subspace_dim"] == 2
        assert payload["poisson_bracket_vanishes"] is True
        assert payload["ker_re_f_projection_residual"] <= 1e-9

    def test_identity_empty_space(self, tmp_path, capsys):
        q = self.write_q(tmp_path, "id.json", [[1, 0], [0, 1]], [[0, 0], [0, 0]])
        code, out, _ = run(capsys, "singular-space", str(q), "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "id_singular_space.json").read_text())
        assert payload["subspace_dim"] == 0

    def test_free_symbol_position_axis(self, tmp_path, capsys):
        q = self.write_q(tmp_path, "free.json", [[0, 0], [0, 1]], [[0, 0], [0, 0]])
        code, out, _ = run(capsys, "singular-space", str(q), "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "free_singular_space.json").read_text())
        (v,) = payload["basis"]
        assert abs(abs(v[0]) - 1.0) < 1e-12 and abs(v[1]) < 1e-12

    def test_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "singular-space", str(bad), "--out", str(tmp_path))
        assert code == 2
        assert "invalid" in err

    @pytest.mark.parametrize(
        "payload, named",
        [
            ("[1, 2]", "JSON object"),
            ('{"dim": 1e400, "re": [[1, 0], [0, 1]]}', "dim"),
            ('{"dim": 1.9, "re": [[1, 0], [0, 1]]}', "dim"),
            ('{"dim": true, "re": [[1, 0], [0, 1]]}', "dim"),
            ('{"dim": "1", "re": [[1, 0], [0, 1]]}', "dim"),
            ('{"dim": 0, "re": []}', "dim"),
            ('{"dim": 1, "re": {"a": 1}}', "dict"),
        ],
        ids=["array", "overflowing-dim", "fractional-dim", "bool-dim", "string-dim", "zero-dim", "object-matrix"],
    )
    def test_malformed_payload_rejected(self, tmp_path, capsys, payload, named):
        # an array or an object matrix died with a TypeError, a 1e400 dim with
        # an OverflowError; 1.9, true and "1" were read as 1 and exited 0
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        code, _, err = run(capsys, "singular-space", str(bad), "--out", str(tmp_path))
        assert code == 2
        assert "invalid Hamiltonian file" in err and named in err and "Traceback" not in err
        assert not (tmp_path / "bad_singular_space.json").exists()

    def test_asymmetric_rejected(self, tmp_path, capsys):
        q = self.write_q(tmp_path, "asym.json", [[1, 2], [0, 1]], [[0, 0], [0, 0]])
        code, _, err = run(capsys, "singular-space", str(q), "--out", str(tmp_path))
        assert code == 2

    def test_non_finite_entry_named(self, tmp_path, capsys):
        nan = float("nan")
        q = self.write_q(tmp_path, "nan.json", [[0, nan], [nan, 0]], [[1, 0], [0, 1]])
        code, _, err = run(capsys, "singular-space", str(q), "--out", str(tmp_path))
        assert code == 2
        assert "nan.json" in err and "Q[0, 1] must be finite" in err
        assert not (tmp_path / "nan_singular_space.json").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-10"])
    def test_bad_tol_is_config_error(self, tmp_path, capsys, tol):
        # Q = I has the singular space {0}; a NaN or infinite tol reported a
        # two-dimensional one and exited 0
        q = self.write_q(tmp_path, "id.json", [[1, 0], [0, 1]], [[0, 0], [0, 0]])
        code, _, err = run(capsys, "singular-space", str(q), f"--tol={tol}", "--out", str(tmp_path))
        assert code == 2
        assert err.startswith("configuration error:") and "tol" in err
        assert not (tmp_path / "id_singular_space.json").exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        q = self.write_q(tmp_path, "osc.json", [[0, 0], [0, 0]], [[1, 0], [0, 1]])
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "singular-space", str(q), "--out", str(a))
        run(capsys, "singular-space", str(q), "--out", str(b))
        assert (a / "osc_singular_space.json").read_bytes() == (
            b / "osc_singular_space.json"
        ).read_bytes()


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])  # missing entry name
    assert exc.value.code == 2


def test_n_max_is_an_unknown_option(capsys):
    # propagate evolves on the basis of the grid's default order
    with pytest.raises(SystemExit) as exc:
        main(["propagate", "dirac", "--t", "0.3", "--n-max", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-max 8" in capsys.readouterr().err


def test_box_too_small_for_the_basis_is_a_config_error(tmp_path, capsys):
    # the derived order 8 turns at 4.1, outside the box of half-width 2; the
    # message named n_max, a setting propagate does not have
    argv = ["propagate", "dirac", "--t", "0.3", "--n", "64", "--L", "4", "--out", str(tmp_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "n_max" not in err
    assert "spills outside the box of half-width 2; a larger box helps" in err


def test_r_min_is_an_unknown_option(tmp_path, capsys):
    # every radius ladder starts at 1
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "dirac", "--r-min", "2", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --r-min 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class ClosedStdout:
    """A stdout whose reader is gone: every write and flush raises."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


# a run whose stdout reader is gone writes all its files and returns its
# verdict: the dirac analysis passes, the 2-D propagation at t = 0.3 fails
CLOSED_STDOUT_RUNS = pytest.mark.parametrize(
    "argv, code, files",
    [
        (("analyze", "dirac", "--dump-samples"), 0, 5),
        (("propagate", "line_delta_2d", "--t", "0.3"), 1, 1),
    ],
    ids=["analyze", "propagate"],
)


@CLOSED_STDOUT_RUNS
def test_closed_stdout_keeps_files_and_exit_code(tmp_path, monkeypatch, argv, code, files):
    fd = os.open(os.devnull, os.O_WRONLY)
    monkeypatch.setattr(sys, "stdout", ClosedStdout(fd))
    try:
        assert main([*argv, "--out", str(tmp_path)]) == code
    finally:
        os.close(fd)
    assert len(list(tmp_path.iterdir())) == files


@CLOSED_STDOUT_RUNS
def test_closed_pipe_keeps_files_and_exit_code(tmp_path, argv, code, files):
    # the read end is closed before the process starts, so every flush of
    # stdout fails; buffered, as stdout to a pipe is by default, it still
    # holds the output at the interpreter's exit flush
    src = str(Path(gaborwf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        command = [sys.executable, "-m", "gaborwf.cli", *argv, "--out", str(tmp_path)]
        proc = subprocess.run(command, stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert len(list(tmp_path.iterdir())) == files


@pytest.mark.parametrize(
    "argv, named",
    [
        (("analyze", "gaussian", "--params", '{"sigma": NaN}'), None),
        (("analyze", "dirac", "--n-thresh", "nan"), None),
        (("propagate", "dirac", "--t", "nan"), None),
        (("analyze", "dirac", "--r-max", "2"), None),
        (("analyze", "dirac", "--ang-tol", "nan"), None),
        (("analyze", "dirac", "--ang-tol", "-1"), None),
        (("propagate", "dirac", "--t", "0.3927", "--ang-tol", "nan"), None),
        (("analyze", "dirac", "--params", "[1]"), None),
        (("analyze", "dirac", "--params", "5"), None),
        (("analyze", "dirac", "--params", '{"foo": 1}'), None),
        (("analyze", "hermite", "--params", '{"n": 1.5}'), None),
        (("analyze", "box", "--params", '{"a": -1}'), None),
        (("analyze", "box", "--params", '{"a": "1"}'), None),
        (("analyze", "dirac", "--r-max", "nan"), "r_max"),
        (("analyze", "dirac", "--rho", "nan"), "rho"),
        (("analyze", "dirac", "--rho", "inf"), "rho"),
        (("propagate", "dirac", "--t", "0.3", "--L", "inf"), "half_width"),
        (("analyze", "box2d", "--L", "1e160"), "grid spacing"),
        (("analyze", "gaussian", "--params", '{"sigma": 1e-300}'), "sigma"),
        (("analyze", "gaussian", "--params", '{"sigma": 1e-160}'), "sigma"),
        (("analyze", "gaussian", "--params", '{"sigma": 1e300}'), "sigma"),
        (("propagate", "gaussian", "--t", "0.3", "--params", '{"sigma": 1e200}'), "sigma"),
        (("analyze", "bump", "--params", '{"width": 1e-300}'), "below the grid spacing"),
        (("analyze", "bump", "--params", '{"width": 1e-320}'), "below the grid spacing"),
        (("analyze", "box", "--params", '{"a": 1e-300}'), "below the grid spacing"),
        (("analyze", "dirac", "--n", "16", "--L", "20"), "admits no window width: 4h = 5.0 exceeds L/8 = 2.5"),
    ],
    ids=[
        "nan-sample",
        "nan-threshold",
        "nan-time",
        "degenerate-fit",
        "nan-ang-tol",
        "negative-ang-tol",
        "nan-ang-tol-propagate",
        "params-not-object-list",
        "params-not-object-number",
        "params-unknown-key",
        "params-non-integral-order",
        "params-negative-support",
        "params-string-value",
        "nan-r-max",
        "nan-rho",
        "inf-rho",
        "inf-length",
        "overflowing-cell-volume",
        "underflowing-sigma",
        "overflowing-sigma-ratio",
        "overflowing-sigma",
        "overflowing-sigma-propagate",
        "unresolved-bump",
        "subnormal-bump",
        "unresolved-box",
        "grid-without-window-width",
    ],
)
def test_bad_values_are_config_errors(tmp_path, capsys, argv, named):
    # values argparse accepts but the detectors cannot use: exit 2 with a
    # message, never a traceback or a verdict
    code, _, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert "configuration error" in err
    assert "Traceback" not in err
    if named is not None:
        assert named in err


@pytest.mark.parametrize("ang_tol", [repr(math.pi / 2), "3.0", "4.712", "7.0", "1e308"])
@pytest.mark.parametrize(
    "argv",
    [("analyze", "box"), ("propagate", "dirac", "--t", "0.3927")],
    ids=["analyze", "propagate"],
)
def test_ang_tol_of_a_right_angle_is_a_config_error(tmp_path, capsys, argv, ang_tol):
    # no frequency gap exceeds pi/2, and sin(ang_tol) shrinks again beyond
    # it: box printed a FAIL verdict at 4.712 and PASS at 3.0 and 7.0
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--n", "256", "--L", "20", "--ang-tol", ang_tol, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("configuration error:") and "ang_tol" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [("analyze", "foo"), ("propagate", "foo", "--t", "0"), ("catalog", "show", "foo")],
    ids=["analyze", "propagate", "catalog-show"],
)
def test_unknown_entry_is_one_config_error(tmp_path, capsys, monkeypatch, argv):
    # every command names the known entries in one stderr line and writes nothing
    monkeypatch.chdir(tmp_path)
    known = ", ".join(CATALOG)
    assert run(capsys, *argv) == (2, "", f"configuration error: unknown catalog entry 'foo'; known: {known}\n")
    assert list(tmp_path.iterdir()) == []


def test_catalog_publishes_the_default_grids(capsys):
    code, out, _ = run(capsys, "catalog", "list", "--json")
    assert code == 0
    for record in json.loads(out):
        grid = default_grid(record["name"])
        assert record["grid"] == {"dim": grid.dim, "n": grid.n, "half_width": grid.half_width}
        code, shown, _ = run(capsys, "catalog", "show", record["name"])
        assert (code, json.loads(shown)) == (0, record)


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "dirac", "--n", "256", "--L", "20"),
        ("propagate", "dirac", "--n", "256", "--L", "20", "--t", "0.3"),
        ("singular-space", "q.json"),
    ],
    ids=["analyze", "propagate", "singular-space"],
)
@pytest.mark.parametrize("where", ["file", "below-a-file"])
def test_unusable_out_is_a_config_error(tmp_path, capsys, monkeypatch, argv, where):
    # an --out that names a file, or lies below one, exits 2 with one line on
    # stderr and writes nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text(json.dumps({"dim": 1, "re": [[0, 0], [0, 0]], "im": [[1, 0], [0, 1]]}))
    (tmp_path / "taken").write_text("kept")
    before = sorted(tmp_path.rglob("*"))
    out = "taken" if where == "file" else "taken/sub"
    code, stdout, err = run(capsys, *argv, "--out", out)
    assert code == 2
    assert stdout == ""
    assert err.startswith("configuration error:") and "taken" in err and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "taken").read_text() == "kept"


# The exit-code fuzz draws a grid and up to three more options.  Each value
# is a plain one, in range or just out of it, or an odd one: NaN, +-inf, 0,
# negative, huge or unparsable.
# 1-D runs use n <= 128 and 2-D runs n = 16, on which no window fits, so
# every run is quick.  n, --n-dirs and --rho exclude values that would ask
# for huge arrays.
ODD = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", "1e400", "abc", "")
GRIDS = (("64", "10"), ("128", "20"))
PLAIN = {
    "--lam": ("0.5", "1", "2"),
    "--n-thresh": ("2.5", "1.5", "0.75", "4"),
    "--ang-tol": ("0.1", "0.5", "1e-9", "3.2"),
    "--params": ("{}", '{"a": 1.0}', '{"k": 2}', '{"n": 3.0}', '{"sigma": 0.5}', '{"width": 2}'),
    "--n-dirs": ("64", "128", "32", "66", "-4"),
    "--r-max": ("3", "5", "1"),
    "--rho": ("1.15", "1.5", "1", "0.5"),
    "--t": ("0.3", "1.5707963267948966", "0.7", "-0.3", "1e300"),
}
ODD_PARAMS = (
    '{"a": 1e400}', '{"a": NaN}', '{"a": 1e-300}', '{"sigma": -1}', '{"sigma": 1e-300}', '{"sigma": 1e300}',
    '{"width": "x"}', '{"width": 1e-320}',
    '{"foo": 1}', "[1]", "null", '"a"', "{bad"
)
ANALYZE_ONLY = ("--n-dirs", "--r-max", "--rho")
PROPAGATE_ONLY = ("--t",)


def _value(draw, option):
    odd = ODD + ODD_PARAMS if option == "--params" else ODD
    return draw(st.one_of(st.sampled_from(PLAIN[option]), st.sampled_from(odd)))


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(("analyze", "propagate")))
    name = draw(st.sampled_from((*CATALOG, "nonsense")))
    n, length = draw(st.sampled_from(GRIDS))
    if name in CATALOG and CATALOG[name].dims[0] == 2:
        n = "16"
    if draw(st.integers(0, 3)) == 0:
        length = draw(st.sampled_from(ODD))
    argv = [command, name, f"--n={n}", f"--L={length}"]
    skip = PROPAGATE_ONLY if command == "analyze" else ANALYZE_ONLY
    options = [o for o in PLAIN if o not in skip and o != "--t"]
    if command == "propagate":
        argv.append(f"--t={_value(draw, '--t')}")
    for option in draw(st.lists(st.sampled_from(options), max_size=3, unique=True)):
        argv.append(f"{option}={_value(draw, option)}")
    return argv


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None, database=None)
@given(argv=cli_argv())
def test_exit_code_contract(fuzz_out, argv):
    # 0, 1 or 2 for every argv; the only exception to escape is argparse's
    # usage exit, also with code 2
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([*argv, "--out", str(fuzz_out)])
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv
