"""Function-on-function regression with continuous-layer neural networks.

Two estimators share one architecture: a direct network whose intercept
functions and weight surfaces live on grids (fdnn), and a basis network
whose parameter functions are B-spline expansions (fbnn).  Supporting
modules provide Matérn Gaussian-process simulation scenarios, a
penalized functional linear model and a vector-net baseline, and a
training toolkit (quadratic functional loss, early stopping, k-fold CV
stopping strategies, smoothing-parameter tuning, gradient checks).
"""

from . import activations, baselines, bsplines, datagen, fbnn, fdnn, gp, grids, network, training
from .activations import Activation
from .baselines import FflmModel, VectorNN, fflm_fit, fflm_tune_lambda, vnn_init
from .bsplines import BSplineBasis, curvature_penalty_matrix, laplacian_penalty_matrix
from .datagen import FuncDataset, Scenario, SplitSpec, generate, load_table, noiseless_response, save_table, split
from .fbnn import FbnnConfig, FbnnLayer, FbnnNetwork, expand_to_direct
from .fdnn import FdnnConfig, FdnnLayer, FdnnNetwork
from .gp import MaternParams, gp_sample, matern_cov, matern_cov_matrix
from .grids import Grid
from .training import (
    Adam,
    CvResult,
    FitResult,
    PlainGradient,
    TrainConfig,
    TrainingDiverged,
    cv_early_stopping,
    grad_check,
    quadratic_loss,
    rmse,
    train_early_stopping,
    train_fixed,
    tune_lambda,
)

__version__ = "0.1.0"
