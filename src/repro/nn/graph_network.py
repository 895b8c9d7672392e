"""Materialize a searched architecture into a trainable network.

The AgEBO-Tabular search space (paper §III-A) is a chain of up to ``m``
*variable nodes* (each either a dense layer ``Dense(units, activation)`` or
an identity op) with optional *skip connections*.  Node ``i`` always
receives the output of node ``i-1``; a skip from an earlier node ``s``
(``s ∈ {i-4, i-3, i-2}``, the three previous non-consecutive nodes,
including the input node 0) passes ``h_s`` through a linear projection to
the width of ``h_{i-1}``, sums it with ``h_{i-1}``, and applies ReLU before
feeding node ``i``.  The output node is a logits layer that receives the
same skip treatment.

This module is intentionally independent of the search-space encoding: it
consumes a plain :class:`ArchitectureSpec` so it can also build
hand-designed networks (baselines, tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.autograd import Tensor, no_grad
from repro.nn.layers import Dense

__all__ = ["NodeOp", "ArchitectureSpec", "GraphNetwork"]


@dataclass(frozen=True)
class NodeOp:
    """Operation of one variable node.

    ``units is None`` encodes the identity op (the 31st layer type); then
    ``activation`` must also be ``None``.
    """

    units: int | None
    activation: str | None

    def __post_init__(self) -> None:
        if (self.units is None) != (self.activation is None):
            raise ValueError("identity op requires both units and activation to be None")
        if self.units is not None and self.units <= 0:
            raise ValueError(f"units must be positive, got {self.units}")

    @property
    def is_identity(self) -> bool:
        return self.units is None


@dataclass(frozen=True)
class ArchitectureSpec:
    """A decoded architecture: node ops plus active skip connections.

    Attributes
    ----------
    node_ops:
        Ops for variable nodes 1..m, in order.
    skips:
        Set of ``(source, destination)`` pairs over graph-node indices where
        0 is the input node, ``1..m`` are variable nodes and ``m+1`` is the
        output node.  Only pairs with ``destination - source >= 2`` are
        valid (consecutive nodes are always connected).
    """

    node_ops: tuple[NodeOp, ...]
    skips: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        m = len(self.node_ops)
        for src, dst in self.skips:
            if not (0 <= src <= m and 2 <= dst <= m + 1):
                raise ValueError(f"skip ({src},{dst}) out of range for {m} nodes")
            if dst - src < 2:
                raise ValueError(f"skip ({src},{dst}) duplicates the sequential edge")

    @property
    def num_nodes(self) -> int:
        return len(self.node_ops)


class GraphNetwork:
    """Trainable network built from an :class:`ArchitectureSpec`.

    Parameters
    ----------
    spec:
        Decoded architecture.
    input_dim, n_classes:
        Tabular input width and number of output classes.
    rng:
        Generator for all weight initialization, making a build reproducible.
    dtype:
        Parameter/activation precision (float64 default, float32 optional).
        Weights are drawn in float64 and cast, so the same seed produces
        the same network at either precision.
    """

    def __init__(
        self,
        spec: ArchitectureSpec,
        input_dim: int,
        n_classes: int,
        rng: np.random.Generator,
        dtype=np.float64,
    ) -> None:
        if input_dim <= 0 or n_classes <= 1:
            raise ValueError(f"invalid dims: input_dim={input_dim}, n_classes={n_classes}")
        self.spec = spec
        self.input_dim = input_dim
        self.n_classes = n_classes
        self.dtype = np.dtype(dtype)
        if self.dtype.kind != "f":
            raise ValueError(f"dtype must be a float type, got {self.dtype}")
        self._plan = None  # lazily built CompiledPlan (see compile())

        m = spec.num_nodes
        # Width of each graph node's output tensor, propagated through
        # identity ops.  Index 0 is the input node.
        widths = [input_dim]
        self._node_layers: list[Dense | None] = []
        for i, op in enumerate(spec.node_ops, start=1):
            in_width = widths[i - 1]
            if op.is_identity:
                self._node_layers.append(None)
                widths.append(in_width)
            else:
                layer = Dense(
                    in_width, op.units, op.activation, rng, name=f"node{i}", dtype=self.dtype
                )
                self._node_layers.append(layer)
                widths.append(op.units)
        self._widths = widths

        # Skip projections: map h_src's width to h_{dst-1}'s width (the
        # tensor it is summed with).  Built only for active skips; a skip
        # whose source width already matches still uses a projection, per
        # the paper ("passes the tensor ... through a linear layer").
        self._projections: dict[tuple[int, int], Dense] = {}
        for src, dst in sorted(spec.skips):
            target_width = widths[dst - 1]
            self._projections[(src, dst)] = Dense(
                widths[src], target_width, None, rng, name=f"proj{src}-{dst}", dtype=self.dtype
            )

        self._output = Dense(widths[m], n_classes, None, rng, name="output", dtype=self.dtype)

    # ------------------------------------------------------------------ #
    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for layer in self._node_layers:
            if layer is not None:
                params.extend(layer.parameters())
        for proj in self._projections.values():
            params.extend(proj.parameters())
        params.extend(self._output.parameters())
        return params

    def num_parameters(self) -> int:
        """Total scalar parameter count (drives the training-time model)."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray | Tensor) -> Tensor:
        """Compute logits for a ``(batch, input_dim)`` design matrix."""
        h = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=self.dtype))
        if h.shape[-1] != self.input_dim:
            raise ValueError(f"expected input width {self.input_dim}, got {h.shape[-1]}")
        outputs: list[Tensor] = [h]  # outputs[i] is graph node i's output
        m = self.spec.num_nodes
        for i in range(1, m + 2):  # variable nodes then output node
            incoming = outputs[i - 1]
            skip_sources = [s for (s, d) in self._projections if d == i]
            if skip_sources:
                acc = incoming
                for s in sorted(skip_sources):
                    acc = acc + self._projections[(s, i)](outputs[s])
                incoming = acc.relu()
            if i <= m:
                layer = self._node_layers[i - 1]
                outputs.append(incoming if layer is None else layer(incoming))
            else:
                return self._output(incoming)
        raise AssertionError("unreachable")

    __call__ = forward

    def compile(self) -> "CompiledPlan":
        """Trace this architecture into a :class:`~repro.nn.compiled.CompiledPlan`.

        The plan is built once and cached; it shares this network's
        parameter tensors, so optimizer updates (which mutate ``p.data``
        in place) are visible to subsequent plan executions and
        :meth:`get_weights`/:meth:`set_weights` keep working.
        """
        if self._plan is None:
            from repro.nn.compiled import CompiledPlan

            self._plan = CompiledPlan(self)
        return self._plan

    def predict_logits(self, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Inference-mode logits, batched to bound peak memory."""
        with no_grad():
            chunks = [
                self.forward(x[i : i + batch_size]).data
                for i in range(0, x.shape[0], batch_size)
            ]
        return np.concatenate(chunks, axis=0) if chunks else np.zeros((0, self.n_classes))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return self.predict_logits(x).argmax(axis=1)

    # ------------------------------------------------------------------ #
    def get_weights(self) -> list[np.ndarray]:
        """Copy out all parameter arrays (checkpointing)."""
        return [p.data.copy() for p in self.parameters()]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        """Load parameter arrays previously produced by :meth:`get_weights`."""
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError(f"expected {len(params)} arrays, got {len(weights)}")
        for p, w in zip(params, weights):
            if p.data.shape != w.shape:
                raise ValueError(f"shape mismatch: {p.data.shape} vs {w.shape}")
            p.data[...] = w
