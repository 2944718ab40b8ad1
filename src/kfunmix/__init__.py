"""Streaming linear spectral unmixing in a truncated Fourier subspace.

The package re-exports the public names of its submodules, except that
``kfunmix.vca`` is the module; the function is ``kfunmix.vca.vca``.
"""

from .abundance import (
    FclsConfig,
    estimate_concentration,
    estimate_concentrations,
)
from .datamodel import (
    ConcentrationMatrix,
    DatasetBundle,
    EndmemberMatrix,
    SpectraMatrix,
    load_dataset,
    load_matrix_csv,
    save_dataset,
    save_matrix_csv,
)
from .fourier import (
    FourierBasis,
    build_basis,
    max_harmonics,
    reduce_columns,
    reduce_spectrum,
    select_num_harmonics,
)
from .kalman import (
    FilterState,
    NoiseConfig,
    NumericalError,
    dl_update,
    kf_update,
    rls_update,
)
from .mcrals import McrConfig, McrResult, mcr_als, pca_nonneg_init
from .metrics import (
    MetricRecord,
    align_components,
    asad,
    pca_lower_bound,
    read_trace_csv,
    reconstruction_error,
    rmse_concentrations,
    sad,
    write_trace_csv,
)
from .pipeline import (
    ExperimentResult,
    PipelineConfig,
    PipelineState,
    RunTrace,
    init_pipeline,
    pipeline_step,
    run_experiment,
)
from .protocols import (
    AcquisitionOrder,
    P2Config,
    convex_hull_phasor,
    load_order_csv,
    phasor_embedding,
    protocol_p1,
    protocol_p2,
    save_order_csv,
)
from .regression import RegressorSet, build_regressor_set, solve_regression
from .synthdata import (
    SynthConfig,
    estimate_noise_variance,
    generate_dataset,
    generate_pure_spectra,
    savitzky_golay,
)
from .vca import VcaConfig

__version__ = "0.1.0"

__all__ = [
    "AcquisitionOrder",
    "ConcentrationMatrix",
    "DatasetBundle",
    "EndmemberMatrix",
    "ExperimentResult",
    "FclsConfig",
    "FilterState",
    "FourierBasis",
    "McrConfig",
    "McrResult",
    "MetricRecord",
    "NoiseConfig",
    "NumericalError",
    "P2Config",
    "PipelineConfig",
    "PipelineState",
    "RegressorSet",
    "RunTrace",
    "SpectraMatrix",
    "SynthConfig",
    "VcaConfig",
    "align_components",
    "asad",
    "build_basis",
    "build_regressor_set",
    "convex_hull_phasor",
    "dl_update",
    "estimate_concentration",
    "estimate_concentrations",
    "estimate_noise_variance",
    "generate_dataset",
    "generate_pure_spectra",
    "init_pipeline",
    "kf_update",
    "load_dataset",
    "load_matrix_csv",
    "load_order_csv",
    "max_harmonics",
    "mcr_als",
    "pca_lower_bound",
    "pca_nonneg_init",
    "phasor_embedding",
    "pipeline_step",
    "protocol_p1",
    "protocol_p2",
    "read_trace_csv",
    "reconstruction_error",
    "reduce_columns",
    "reduce_spectrum",
    "rls_update",
    "rmse_concentrations",
    "run_experiment",
    "sad",
    "save_dataset",
    "save_matrix_csv",
    "save_order_csv",
    "select_num_harmonics",
    "solve_regression",
    "write_trace_csv",
]
