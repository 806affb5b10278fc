"""leakbench: measure metric inflation from resampling before the split.

The package runs the same imbalanced-classification experiment under two
protocols. The leaky one scales and oversamples the full dataset before
splitting; the clean one splits first and touches only training rows. A
provenance audit counts synthetic rows and duplicates that cross into the
test set, and the grid runner sweeps model capacity to show how the two
protocols diverge.
"""

from .data import (
    Dataset,
    RowOrigin,
    SynthConfig,
    generate_synthetic,
    load_csv,
    save_csv,
)
from .experiment import (
    DatasetSpec,
    GridConfig,
    GridReport,
    ModelParams,
    REFERENCE_RESULTS,
    compare_to_reference,
    emit_report,
    run_cell,
    run_grid,
)
from .metrics import ConfusionMatrix, MetricReport, evaluate
from .model import MlpConfig, MlpModel, bce_loss, forward, init_mlp, train
from .pipeline import (
    ContaminationReport,
    SplitSpec,
    contamination_audit,
    fit_scaler,
    run_protocol,
    split,
)
from .resample import METHODS, ResampleResult, ResamplerSpec, apply_resampler
from .seeding import derive_rng, derive_seed

__version__ = "0.1.0"

__all__ = [
    "ConfusionMatrix",
    "ContaminationReport",
    "Dataset",
    "DatasetSpec",
    "GridConfig",
    "GridReport",
    "METHODS",
    "MetricReport",
    "MlpConfig",
    "MlpModel",
    "ModelParams",
    "REFERENCE_RESULTS",
    "ResampleResult",
    "ResamplerSpec",
    "RowOrigin",
    "SplitSpec",
    "SynthConfig",
    "apply_resampler",
    "bce_loss",
    "compare_to_reference",
    "contamination_audit",
    "derive_rng",
    "derive_seed",
    "emit_report",
    "evaluate",
    "fit_scaler",
    "forward",
    "generate_synthetic",
    "init_mlp",
    "load_csv",
    "run_cell",
    "run_grid",
    "run_protocol",
    "save_csv",
    "split",
    "train",
    "__version__",
]
