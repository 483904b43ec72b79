"""The benchmark's tracer (perfbench/tracing.py) wraps package functions at
the module attributes callers look them up through.  A rename of any of them
fails here instead of only in the benchmark."""

from pathlib import Path

import gaborwf.wavefront
from gaborwf import cli
from gaborwf.stft import stft_points

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_analyze_op(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.begin_op("analyze dirac")
        code = cli.main(["analyze", "dirac", "--n", "256", "--L", "20", "--out", str(tmp_path)])
        op = tracer.end_op()
    assert code == 0
    assert gaborwf.wavefront.stft_points is stft_points
    metrics = tracing.op_metrics(op)
    for span in (
        "cli.main",
        "signal.catalog_entry",
        "signal.nudft",
        "stft.stft_points",
        "wavefront.estimate_gabor_wf",
        "wavefront.estimate_sigma",
        "wavefront.phase_space_rays",
        "wavefront.report_to_json",
        "wavefront.profiles_to_csv",
        "wavefront.check_main_theorem",
    ):
        assert metrics[f"{span}.ms"] > 0, span
    assert metrics["stft.stft_points.calls"] == 1
    # the tracer reads WavefrontReport.rays as per-ray (r, |V|) sequences
    assert metrics["wavefront.points_evaluated"] == metrics["stft.stft_points.points"] > 0


def test_traced_propagate_op(tmp_path, monkeypatch):
    # an off-lattice 1-D time, so the state is evolved by the Hermite
    # expansion and the forecast by the symplectic flow
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.begin_op("propagate dirac")
        code = cli.main(["propagate", "dirac", "--t", "0.3927", "--n", "512", "--L", "40", "--out", str(tmp_path)])
        op = tracer.end_op()
    assert code == 0
    metrics = tracing.op_metrics(op)
    for span in (
        "cli.main",
        "propagator.verify_propagation",
        "propagator.HermiteBasis.build",
        "propagator.taper_expansion",
        "propagator.harmonic_propagate",
        "symplectic.propagate_wf_set",
        "wavefront.estimate_gabor_wf",
        "stft.stft_points",
    ):
        assert metrics[f"{span}.ms"] > 0, span


def test_traced_multi_round_detection(tmp_path, monkeypatch):
    # the 2-D detection evaluates its rays over several kernel calls and
    # omits rays; the tracer's per-ray walk of WavefrontReport.rays must
    # still count exactly the points the kernel evaluated
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.begin_op("analyze box2d")
        code = cli.main(["analyze", "box2d", "--n", "128", "--out", str(tmp_path)])
        op = tracer.end_op()
    assert code == 0
    metrics = tracing.op_metrics(op)
    assert metrics["stft.stft_points.calls"] > 1
    assert metrics["wavefront.points_evaluated"] == metrics["stft.stft_points.points"]
    # the evaluated phase-space rays and the 32 frequency rays
    assert metrics["wavefront.directions"] < 3136
