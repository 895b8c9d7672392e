"""The Adam optimizer over one flat parameter vector.

The paper trains every candidate with Adam (Kingma & Ba).  A network keeps
all its parameters in one contiguous ``(P,)`` vector and its gradients in
another (:class:`repro.nn.GraphNetwork`), so one update is a fixed
sequence of in-place array ops over ``P`` elements: no per-layer loop and
no per-step allocation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction, updating in place.

    ``params`` and ``grads`` are equal-shape float vectors; :meth:`step`
    reads ``grads`` and rewrites ``params``.  The learning rate is a
    mutable attribute so schedules (:mod:`repro.nn.schedules`) can adjust
    it between steps; they assign Python floats.

    Each step evaluates, in this order and at the vectors' precision,
    ``m = β1·m + (1−β1)·g``, ``v = β2·v + (1−β2)·(g·g)`` and
    ``p -= (lr·m̂)/(√v̂ + ε)`` with ``m̂ = m/(1−β1ᵗ)``, ``v̂ = v/(1−β2ᵗ)`` —
    the same float operations as a per-array update, so the result does
    not depend on how the vector is split into layers.
    """

    def __init__(
        self,
        params: np.ndarray,
        grads: np.ndarray,
        lr: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {beta1}, {beta2}")
        if params.shape != grads.shape or params.dtype != grads.dtype:
            raise ValueError(
                f"params {params.shape} {params.dtype} and grads "
                f"{grads.shape} {grads.dtype} must match"
            )
        self.params = params
        self.grads = grads
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m = np.zeros_like(params)
        self._v = np.zeros_like(params)
        self._a = np.empty_like(params)
        self._b = np.empty_like(params)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        g, m, v, a, b = self.grads, self._m, self._v, self._a, self._b
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - self.beta2
        v += a
        np.divide(m, b1t, out=a)   # m̂
        a *= self.lr
        np.divide(v, b2t, out=b)   # v̂
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        self.params -= a
