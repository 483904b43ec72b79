import json

import numpy as np
import pytest

from gaborwf.cli import main


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
        assert blob[:4] == b"GWF1"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "analyze", "box", "--out", str(a))
        run(capsys, "analyze", "box", "--out", str(b))
        for name in ("box_gabor.json", "box_gabor_profiles.csv", "box_sigma.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


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

    def test_bad_n_max_is_config_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "propagate", "dirac", "--t", "0.1", "--n-max", "500", "--out", str(tmp_path)
        )
        assert code == 2

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

    def test_asymmetric_rejected(self, tmp_path, capsys):
        q = self.write_q(tmp_path, "asym.json", [[1, 2], [0, 1]], [[0, 0], [0, 0]])
        code, _, err = run(capsys, "singular-space", str(q), "--out", str(tmp_path))
        assert code == 2

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


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "gaussian", "--params", '{"sigma": NaN}'),
        ("analyze", "dirac", "--n-thresh", "nan"),
        ("propagate", "dirac", "--t", "nan"),
        ("analyze", "dirac", "--r-max", "2"),
        ("analyze", "dirac", "--ang-tol", "nan"),
        ("analyze", "dirac", "--ang-tol", "-1"),
        ("propagate", "dirac", "--t", "0.3927", "--ang-tol", "nan"),
    ],
    ids=[
        "nan-sample",
        "nan-threshold",
        "nan-time",
        "degenerate-fit",
        "nan-ang-tol",
        "negative-ang-tol",
        "nan-ang-tol-propagate",
    ],
)
def test_bad_values_are_config_errors(tmp_path, capsys, argv):
    # values argparse accepts but the detectors cannot use: exit 2 with a
    # message, never a traceback or a verdict
    code, _, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert "configuration error" in err
    assert "Traceback" not in err
