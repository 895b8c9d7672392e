"""The ``Dense`` layer: parameter arrays plus the metadata the plan traces.

A layer owns its weight ``W`` and bias ``b`` arrays; the forward and
backward arithmetic lives in the compiled plan (:mod:`repro.nn.compiled`)
and the architecture-level wiring (skip connections, projections, sums) in
:mod:`repro.nn.graph_network`.  Inside a network, ``W`` and ``b`` are
reshaped views of the network's flat parameter vector.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ACTIVATION_NAMES
from repro.nn.initializers import glorot_uniform, he_normal, zeros_init

__all__ = ["Dense"]


class Dense:
    """Fully connected layer ``activation(x @ W + b)``.

    Parameters
    ----------
    fan_in, units:
        Input and output widths.
    activation:
        One of the five search-space activations, or ``None`` for a purely
        affine map (used for skip-connection projections and the output
        logits layer).
    rng:
        Generator used for weight initialization.  ReLU/Swish layers use He
        initialization; others use Glorot.
    dtype:
        Parameter precision (``float64`` default; ``float32`` halves memory
        traffic on the training hot path).  Weights are drawn in float64 and
        cast, so a seed gives the same initialization at either precision.
    """

    def __init__(
        self,
        fan_in: int,
        units: int,
        activation: str | None,
        rng: np.random.Generator,
        name: str = "dense",
        dtype=np.float64,
    ) -> None:
        if fan_in <= 0 or units <= 0:
            raise ValueError(f"fan_in and units must be positive, got {fan_in}, {units}")
        if activation is not None and activation not in ACTIVATION_NAMES:
            raise ValueError(
                f"unknown activation {activation!r}; expected one of {ACTIVATION_NAMES}"
            )
        self.fan_in = fan_in
        self.units = units
        self.activation = activation
        self.dtype = np.dtype(dtype)
        if activation in ("relu", "swish"):
            self.W = he_normal(fan_in, units, rng, dtype=self.dtype)
        else:
            self.W = glorot_uniform(fan_in, units, rng, dtype=self.dtype)
        self.b = zeros_init(units, dtype=self.dtype)
        self.name = name

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return self.W.size + self.b.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dense({self.fan_in}->{self.units}, act={self.activation})"
