"""From-scratch neural network substrate (paper substitute for TensorFlow).

Provides dense layers, the activation set used by the AgEBO-Tabular search
space (identity, swish, relu, tanh, sigmoid), the skip-connection graph
network builder that materializes an architecture sampled from
:class:`repro.searchspace.ArchitectureSpace`, the compiled plan that runs
its fused forward/backward pass, the Adam optimizer, and the gradual-warmup
and reduce-on-plateau schedules used in the paper's training recipe.  The
training loop itself is :class:`repro.dataparallel.DataParallelTrainer`;
plain training is that loop with one rank.

A network keeps all its parameters in one contiguous vector
(``GraphNetwork.params_flat``) and its gradients in another
(``grads_flat``); every ``Dense`` weight and bias is a reshaped view of the
parameter vector.  Views are never rebound, so loading weights copies into
them, and Adam updates the whole vector in place.
"""

from repro.nn.activations import ACTIVATION_NAMES
from repro.nn.initializers import glorot_uniform, he_normal, zeros_init
from repro.nn.layers import Dense
from repro.nn.metrics import accuracy
from repro.nn.optimizers import Adam
from repro.nn.schedules import GradualWarmup, ReduceLROnPlateau
from repro.nn.graph_network import GraphNetwork
from repro.nn.compiled import CompiledPlan

__all__ = [
    "ACTIVATION_NAMES",
    "glorot_uniform",
    "he_normal",
    "zeros_init",
    "Dense",
    "accuracy",
    "Adam",
    "GradualWarmup",
    "ReduceLROnPlateau",
    "GraphNetwork",
    "CompiledPlan",
]
