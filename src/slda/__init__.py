"""Sparse linear discriminant analysis by thresholding for
high-dimensional data: estimation, classification, misclassification
rates, diagnostics and a reproducible simulation harness."""

from .classify import (
    SparsityReport,
    build_lda,
    build_lda_known_sigma,
    build_oracle,
    build_slda,
    build_slda_multi,
    classify_many,
)
from .errors import (
    DataError,
    DomainError,
    NotPositiveDefiniteError,
    NumericalError,
    ShapeError,
    SldaError,
    UnusableMatrixError,
)
from .estimation import compute_an, compute_tn, threshold_delta
from .evaluate import (
    CvSurface,
    RateReport,
    conditional_rate,
    cv_grid_search,
    empirical_rate,
    loocv_rate,
    optimal_rate,
)
from .model import (
    Dataset,
    LinearRule,
    MultiRule,
    PopulationSpec,
    ThresholdConfig,
    validate_dataset,
)
from .numerics import (
    SymOperator,
    cholesky_spd,
    invert_sparse_sym,
    sample_mvn,
    sample_mvt,
    std_normal_cdf,
    std_normal_log_tail,
    stream,
    substream,
)
from .simulate import (
    PopulationRecipe,
    ReplicateRecord,
    Scenario,
    build_population,
    preset_scenarios,
    run_scenario,
)

__version__ = "0.1.0"
