"""Sparse bilinear logistic regression over grouped two-modality data.

The model couples a genetic and an imaging feature block through a
group-sparse interaction matrix on top of penalized marginal effects, and
is trained by proximal gradient descent with a backtracking line search.
"""

from .core import (
    Dataset,
    GroupStructure,
    Hyperparameters,
    ParameterSet,
    VARIANTS,
    expand_columns,
    expand_overlap,
    flat_length,
)
from .evaluation import (
    CvResult,
    FittedModel,
    MetricsReport,
    ReducedParameters,
    SelectedGroups,
    balanced_accuracy,
    fit_pipeline,
    kfold_cv,
    log_grid,
    make_grid,
    metrics,
    predict,
    reduce_parameters,
    selected_groups,
    stratified_folds,
)
from .objective import (
    Design,
    ObjectiveValue,
    log_posterior_unnormalized,
    margins,
    objective,
    penalty,
    risk,
    risk_gradient,
    sigmoid,
)
from .preprocessing import (
    ScalingRecord,
    fit_scaler,
    load_scaler,
    make_design,
    save_scaler,
)
from .solver import (
    ScreeningResult,
    SolverFailure,
    SolverState,
    backtracking_step,
    fit,
    parameter_update,
    prox_group,
    prox_ridge,
    screen_lambda_max,
)
from .synthetic import (
    SyntheticData,
    SyntheticSpec,
    build_groups,
    finite_difference_gradient,
    generate,
    reference_solve,
)

__version__ = "0.1.0"
