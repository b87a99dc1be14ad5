"""Autoencoders with exclusivity regularization.

Latent codes are trained to reconstruct their inputs while staying
dissimilar (clamped cosine) to the encoded mean of everything else and
similar to the encoded mean of their nearest peers. Includes greedy
stacked pretraining with norm-band-constrained fine-tuning and a
nearest-neighbor evaluation harness.
"""

from .autoencoder import AEConfig, AEModel, LossBreakdown, build_model, decode, encode, total_loss, train
from .dataio import Dataset, SplitSpec, load_idx, split_per_class, synth_gaussian
from .evalharness import (
    DataSpec,
    ExperimentConfig,
    MetricsRecord,
    accuracy,
    extract_features,
    knn_classify,
    load_checkpoint,
    run_experiment,
    save_checkpoint,
)
from .exclusivity import (
    ExclusivityContext,
    build_context,
    exclusivity_loss,
    omega,
    top_m_neighbors,
)
from .numkit import DenseLayer, affine_backward, affine_forward, sgd_step
from .stacking import StackConfig, StackedModel, fine_tune, project_to_band, train_stack, weight_ratio

__version__ = "0.1.0"
