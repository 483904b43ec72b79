"""Numerical phase-space wavefront analysis.

Estimates conic singular directions of grid-sampled distributions from the
decay of the short-time Fourier transform, compares the phase-space and
frequency pictures for compactly supported inputs, and verifies the exact
rotation/smoothing laws of the harmonic-oscillator evolution against linear
symplectic forecasts.
"""

from .signal import (
    Grid,
    GroundTruth,
    SampledDistribution,
    catalog_entry,
    catalog_names,
    dump_samples,
    fourier_transform,
    load_samples,
    make_grid,
    nudft,
)
from .stft import Window, moyal_reconstruct, stft_at, stft_points, stft_slice
from .wavefront import (
    ComparisonResult,
    RaySampling,
    WavefrontReport,
    check_main_theorem,
    estimate_classical_wf,
    estimate_gabor_wf,
    estimate_sigma,
    frequency_rays,
    hausdorff_angle,
    phase_space_rays,
    rethreshold,
    schwartz_direction_test,
)
from .symplectic import (
    QuadraticHamiltonian,
    SingularSpace,
    flow_matrix,
    hamilton_map,
    is_symplectic,
    ker_re_f,
    poisson_bracket_form,
    poisson_bracket_vanishes,
    propagate_wf_set,
    singular_space,
    standard_symplectic_matrix,
)
from .propagator import (
    HermiteBasis,
    PropagatedState,
    VerificationReport,
    harmonic_propagate,
    hermite_coefficients,
    special_time_operator,
    verify_propagation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
