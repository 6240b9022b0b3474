"""Channel-attention kernel learning on the unit sphere.

Library layout:

- harmonics: dimension counts, Gegenbauer recurrences, sphere sampling
- kernels: the channel activation and empirical/population gram matrices
- targets: zonal polynomial targets and noisy dataset generation
- selection: one-step-gradient channel selection and thresholding
- training: second-layer gradient descent and its exact residual oracle
- complexity: kernel complexity, critical radii, Monte Carlo risk
- experiments / config / cli: reproducible experiment harness
"""

__version__ = "0.1.0"

from .harmonics import (
    cumulative_dim,
    gegenbauer_all,
    gegenbauer_blocks,
    gegenbauer_weighted_matrix,
    gegenbauer_weighted_sum,
    harmonic_dim,
    sample_sphere,
)
from .kernels import (
    activation,
    activation_matrix,
    empirical_gram,
    finalized_weights,
    gram_spectrum,
    normalized_gram,
    oracle_weights,
    population_gram,
)
from .targets import (
    LabeledDataset,
    ZonalTarget,
    eval_target,
    gen_dataset,
    l2_norm_sq,
    make_target,
    rkhs_norm,
)
from .selection import (
    EmptySelectionError,
    SelectionResult,
    one_step_channel_weights,
    one_step_second_layer,
    one_step_updates,
    select_channels,
    threshold_channels,
)
from .training import (
    DivergenceError,
    TrainerState,
    TrainingTrace,
    closed_form_residual,
    feature_matrix,
    gd_step,
    predict,
    train,
)
from .complexity import (
    KernelSpectrum,
    critical_radius,
    empirical_loss,
    empirical_spectrum,
    empirical_spectrum_from_points,
    kernel_complexity,
    mc_risk,
    population_complexity,
    population_spectrum,
)
