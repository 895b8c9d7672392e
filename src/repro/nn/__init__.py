"""From-scratch neural network substrate (paper substitute for TensorFlow).

Provides a reverse-mode autograd engine over numpy arrays, dense layers,
the activation set used by the AgEBO-Tabular search space (identity, swish,
relu, tanh, sigmoid), Adam/SGD optimizers, the gradual-warmup and
reduce-on-plateau schedules used in the paper's training recipe, and the
skip-connection graph network builder that materializes an architecture
sampled from :class:`repro.searchspace.ArchitectureSpace`.
"""

from repro.nn.autograd import Tensor, is_grad_enabled, no_grad
from repro.nn.activations import ACTIVATIONS, apply_activation
from repro.nn.initializers import glorot_uniform, he_normal, zeros_init
from repro.nn.layers import Dense, Layer
from repro.nn.losses import softmax_cross_entropy
from repro.nn.metrics import accuracy
from repro.nn.optimizers import SGD, Adam, Optimizer
from repro.nn.schedules import GradualWarmup, ReduceLROnPlateau
from repro.nn.graph_network import GraphNetwork
from repro.nn.compiled import CompiledPlan
from repro.nn.trainer import Trainer, TrainResult

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "ACTIVATIONS",
    "apply_activation",
    "glorot_uniform",
    "he_normal",
    "zeros_init",
    "Dense",
    "Layer",
    "softmax_cross_entropy",
    "accuracy",
    "Optimizer",
    "SGD",
    "Adam",
    "GradualWarmup",
    "ReduceLROnPlateau",
    "GraphNetwork",
    "CompiledPlan",
    "Trainer",
    "TrainResult",
]
