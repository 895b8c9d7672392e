"""Equivalence gate of the compiled training plan against the eager tape."""

from __future__ import annotations

import numpy as np

from repro.nn.losses import softmax_cross_entropy


def assert_plan_equivalence(
    model,
    X: np.ndarray,
    y: np.ndarray,
    tol: float = 1e-10,
) -> dict[str, float]:
    """Seeded equivalence gate: compiled plan vs. the eager tape.

    Computes the loss and all parameter gradients along both paths on the
    same inputs and raises ``AssertionError`` if any quantity differs by
    more than ``tol``.  Returns the observed maximum deviations so callers
    (tests, the perf harness) can report them.
    """
    plan = model.compile()

    # Eager reference.
    params = model.parameters()
    for p in params:
        p.grad = None
    loss_e = softmax_cross_entropy(model.forward(X), y)
    loss_e.backward()
    eager_loss = loss_e.item()
    eager_grads = [np.array(p.grad, copy=True) for p in params]

    compiled_loss = plan.loss_and_grad(X, y)

    loss_diff = abs(eager_loss - compiled_loss)
    grad_diff = 0.0
    for ge, p in zip(eager_grads, params):
        grad_diff = max(grad_diff, float(np.max(np.abs(ge - p.grad))))
    report = {"loss_diff": loss_diff, "grad_diff": grad_diff}
    if loss_diff > tol or grad_diff > tol or not np.isfinite(eager_loss):
        raise AssertionError(
            f"compiled/eager divergence: loss diff {loss_diff:.3e}, "
            f"max grad diff {grad_diff:.3e} exceeds tol {tol:.1e}"
        )
    return report
