"""edmlab: a desk-scale lab for learning under combined closed-set and open-set label noise.

The package covers the full experimental loop: synthetic benchmark generation
with provenance-tagged label corruption (`benchgen`), a small classifier
with a hand-written backward pass (`backbone`), the training objectives and
their closed-form gradients (`losses`), a one-dimensional Gaussian-mixture
noise classifier (`gmm`), the dual-network training procedure (`train`),
metrics and exports (`evaluation`), and a CLI (`cli`).
"""

__version__ = "0.1.0"

from .backbone import (
    ModelParams,
    augment,
    forward_logits,
    hidden_features,
    init_model,
    load_checkpoint,
    save_checkpoint,
    softmax_probs,
)
from .benchgen import (
    DatasetManifest,
    LabeledSample,
    NoiseSpec,
    Provenance,
    inject_noise,
    make_open_pool,
    make_synthetic_clean,
)
from .errors import (
    ChecksumError,
    ConfigError,
    DataError,
    DimensionError,
    EdmError,
    FormatError,
    NumericsError,
)
from .evaluation import (
    AccuracyReport,
    SplitConfusion,
    split_confusion,
    test_accuracy,
)
from .gmm import (
    GmmConfig,
    GmmModel,
    Partition,
    PosteriorSplit,
    fit_em,
    group_posteriors,
    normalize_losses,
    partition,
)
from .losses import (
    LossWeights,
    ce_loss,
    dm_loss,
    reg_loss,
    sl_loss,
    temp_sharpen,
    unlabeled_mse,
)
from .manifest_io import load_manifest, save_manifest
from .train import (
    EpochReport,
    TrainConfig,
    TrainOutcome,
    run,
    run_baseline_ce,
)

__all__ = [
    "AccuracyReport",
    "ChecksumError",
    "ConfigError",
    "DataError",
    "DatasetManifest",
    "DimensionError",
    "EdmError",
    "EpochReport",
    "FormatError",
    "GmmConfig",
    "GmmModel",
    "LabeledSample",
    "LossWeights",
    "ModelParams",
    "NoiseSpec",
    "NumericsError",
    "Partition",
    "PosteriorSplit",
    "Provenance",
    "SplitConfusion",
    "TrainConfig",
    "TrainOutcome",
    "__version__",
    "augment",
    "ce_loss",
    "dm_loss",
    "fit_em",
    "forward_logits",
    "group_posteriors",
    "hidden_features",
    "inject_noise",
    "init_model",
    "load_checkpoint",
    "load_manifest",
    "make_open_pool",
    "make_synthetic_clean",
    "normalize_losses",
    "partition",
    "reg_loss",
    "run",
    "run_baseline_ce",
    "save_checkpoint",
    "save_manifest",
    "sl_loss",
    "split_confusion",
    "temp_sharpen",
    "test_accuracy",
    "unlabeled_mse",
]
