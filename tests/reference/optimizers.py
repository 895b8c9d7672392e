"""Per-parameter Adam: the reference of the flat in-place update.

This is the optimizer the trainer ran before parameters moved into one
flat vector: it loops over a list of :class:`~tests.reference.autograd.Tensor`
leaves, reads each ``.grad`` and mutates ``.data`` in place.  The flat
:class:`repro.nn.Adam` must reproduce its parameters and moments bit for
bit (``tests/test_optimizers_schedules.py``).
"""

from __future__ import annotations

import numpy as np

from tests.reference.autograd import Tensor

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer over a fixed parameter list.

    The learning rate is a mutable attribute so schedules
    (:mod:`repro.nn.schedules`) can adjust it between steps.
    """

    def __init__(self, parameters: list[Tensor], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def apply_gradients(self, grads: list[np.ndarray]) -> None:
        """Install externally computed gradients then step.

        Used by the data-parallel trainer, which averages shard gradients
        outside the optimizer (the allreduce) before the update.
        """
        if len(grads) != len(self.parameters):
            raise ValueError(
                f"got {len(grads)} gradients for {len(self.parameters)} parameters"
            )
        for p, g in zip(self.parameters, grads):
            p.grad = g
        self.step()


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        parameters: list[Tensor],
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters, lr)
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {beta1}, {beta2}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / b1t
            v_hat = v / b2t
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
