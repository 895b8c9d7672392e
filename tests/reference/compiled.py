"""Equivalence gate of the compiled training plan against the eager tape."""

from __future__ import annotations

import numpy as np

from tests.reference.tape import TapeNetwork, tape_loss_and_grads


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
    eager_loss, eager_grads = tape_loss_and_grads(TapeNetwork(model), X, y)
    compiled_loss = plan.loss_and_grad(X, y)

    loss_diff = abs(eager_loss - compiled_loss)
    grad_diff = 0.0
    for ge, gc in zip(eager_grads, model.unflatten(model.grads_flat)):
        grad_diff = max(grad_diff, float(np.max(np.abs(ge - gc))))
    report = {"loss_diff": loss_diff, "grad_diff": grad_diff}
    if loss_diff > tol or grad_diff > tol or not np.isfinite(eager_loss):
        raise AssertionError(
            f"compiled/eager divergence: loss diff {loss_diff:.3e}, "
            f"max grad diff {grad_diff:.3e} exceeds tol {tol:.1e}"
        )
    return report
