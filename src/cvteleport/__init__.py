"""Simulator and analysis toolkit for broadband all-optical CV teleportation.

Subpackages whose public names this package re-exports:

* :mod:`cvteleport.gaussian` - Gaussian states, symplectic transforms, loss
  channels, coherent-state fidelity;
* :mod:`cvteleport.teleporter` - teleportation circuit and analytic noise
  budget;
* :mod:`cvteleport.spectral` - sideband spectra of the teleported vacuum;
* :mod:`cvteleport.timetrace` - homodyne time series and temporal-mode
  statistics.

Subpackages imported by module (``from cvteleport.fock import ...``):

* :mod:`cvteleport.cli` - command-line front end; only its ``validate``
  command loads the three below;
* :mod:`cvteleport.validate` - cross-checks between independent computations;
* :mod:`cvteleport.fock` - brute-force truncated Fock-space oracle;
* :mod:`cvteleport.opa` - lumped waveguide-amplifier model (distributed
  gain/loss effective efficiency).
"""

__version__ = "0.1.0"

from .gaussian import (
    GaussianState,
    QuadAxis,
    SymplecticTransform,
    apply_loss,
    apply_symplectic,
    beamsplitter,
    coherent_state,
    coherent_vs_gaussian_fidelity,
    from_db,
    make_vacuum,
    partial_trace,
    psa_transform,
    quad_statistics,
    squeezer,
    tensor,
    to_db,
)
from .teleporter import (
    EstimatorReport,
    NoiseBudget,
    Regime,
    TeleporterConfig,
    analytic_noise_budget,
    build_epr,
    calibrate_unity_gain,
    fidelity_from_variances,
    intrinsic_from_raw,
    run_teleport,
)
from .spectral import (
    LowFreqExcess,
    SpectrumRecord,
    SqueezingProfile,
    apply_measurement_jitter,
    band_average,
    spectrum_report,
    synthesize_spectrum,
)
from .timetrace import (
    AmplitudeTracks,
    SldSourceSpec,
    TimeTrace,
    WavepacketModes,
    estimate_report,
    extract_modes,
    quantize_trace,
    simulate_traces,
    synth_random_coherent,
)
