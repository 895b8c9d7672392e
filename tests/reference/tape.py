"""Eager-tape forward code of the network: the gradient oracle.

The compiled plan (:mod:`repro.nn.compiled`) is the only training path in
``src/``.  This module keeps the forward pass it replays, written on the
reverse-mode :class:`~tests.reference.autograd.Tensor`: the five
search-space activations, softmax cross-entropy, the ``Dense`` affine map
and the skip-connection graph walk.  Every op builds tape nodes, so
``loss.backward()`` yields the reference gradients the plan is gated
against (``tests/reference/compiled.py``, the trainer loop reference and
``tests/test_compiled.py``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.activations import ACTIVATION_NAMES
from tests.reference.autograd import Tensor, no_grad

__all__ = [
    "ACTIVATIONS",
    "TapeNetwork",
    "apply_activation",
    "dense",
    "softmax_cross_entropy",
    "tape_loss_and_grads",
]


def _identity(x: Tensor) -> Tensor:
    return x


ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "identity": _identity,
    "swish": Tensor.swish,
    "relu": Tensor.relu,
    "tanh": Tensor.tanh,
    "sigmoid": Tensor.sigmoid,
}
assert set(ACTIVATIONS) == set(ACTIVATION_NAMES)


def apply_activation(name: str, x: Tensor) -> Tensor:
    """Apply the named activation to ``x``; ``KeyError`` if unknown."""
    try:
        fn = ACTIVATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown activation {name!r}; expected one of {sorted(ACTIVATIONS)}"
        ) from None
    return fn(x)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``labels`` under row-wise softmax."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError(
            f"labels must be 1-D of length {logits.shape[0]}, got shape {labels.shape}"
        )
    log_probs = logits.log_softmax()
    picked = log_probs.gather_rows(labels.astype(np.intp))
    return -1.0 * picked.mean()


def dense(W, b, x: Tensor, activation: str | None) -> Tensor:
    """``activation(x @ W + b)``; ``activation=None`` is the affine map."""
    out = x @ W + b
    if activation is not None:
        out = apply_activation(activation, out)
    return out


class TapeNetwork:
    """A :class:`~repro.nn.GraphNetwork` evaluated on the tape.

    ``params`` holds one leaf :class:`Tensor` per parameter array, in
    ``model.parameters()`` order.  Each leaf wraps the network's array
    itself (a view of its flat parameter vector), so an optimizer update
    through either side is seen by the other.
    """

    def __init__(self, model) -> None:
        self.model = model
        self.params: list[Tensor] = []
        self._leaves: dict[int, tuple[Tensor, Tensor]] = {}
        for layer in model.layers:
            W = Tensor(layer.W, requires_grad=True, name=f"{layer.name}.W")
            b = Tensor(layer.b, requires_grad=True, name=f"{layer.name}.b")
            self.params.extend((W, b))
            self._leaves[id(layer)] = (W, b)

    def _dense(self, layer, x: Tensor) -> Tensor:
        W, b = self._leaves[id(layer)]
        return dense(W, b, x, layer.activation)

    def forward(self, x) -> Tensor:
        """Logits for a ``(batch, input_dim)`` design matrix."""
        model = self.model
        h = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=model.dtype))
        if h.shape[-1] != model.input_dim:
            raise ValueError(f"expected input width {model.input_dim}, got {h.shape[-1]}")
        outputs: list[Tensor] = [h]  # outputs[i] is graph node i's output
        m = model.spec.num_nodes
        for i in range(1, m + 2):  # variable nodes then output node
            incoming = outputs[i - 1]
            skip_sources = [s for (s, d) in model._projections if d == i]
            if skip_sources:
                acc = incoming
                for s in sorted(skip_sources):
                    acc = acc + self._dense(model._projections[(s, i)], outputs[s])
                incoming = acc.relu()
            if i <= m:
                layer = model._node_layers[i - 1]
                outputs.append(incoming if layer is None else self._dense(layer, incoming))
            else:
                return self._dense(model._output, incoming)
        raise AssertionError("unreachable")

    __call__ = forward

    def predict_logits(self, x: np.ndarray, batch_size: int = 4096) -> np.ndarray:
        """Inference-mode logits, batched like the plan's."""
        with no_grad():
            chunks = [
                self.forward(x[i : i + batch_size]).data
                for i in range(0, x.shape[0], batch_size)
            ]
        if not chunks:
            return np.zeros((0, self.model.n_classes))
        return np.concatenate(chunks, axis=0)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None


def tape_loss_and_grads(
    tape: TapeNetwork, X: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Mean loss and one fresh gradient array per parameter, via the tape."""
    tape.zero_grad()
    loss = softmax_cross_entropy(tape.forward(X), y)
    loss.backward()
    grads = [
        p.grad if p.grad is not None else np.zeros_like(p.data) for p in tape.params
    ]
    return loss.item(), grads
