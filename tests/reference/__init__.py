"""Reference implementations that exist only for equivalence gates.

Each production fast path in ``src/`` has one readable twin here.  The
tests and the ``benchmarks/test_perf_*.py`` harnesses import them and
assert the production path matches at a stated tolerance; no campaign
runs them.
"""

from tests.reference.allreduce import (
    allreduce_mean,
    flatten_gradients,
    gradient_segments,
    ring_allreduce_reference,
)
from tests.reference.autograd import Tensor, is_grad_enabled, no_grad
from tests.reference.compiled import assert_plan_equivalence
from tests.reference.forest import (
    ArgsortForest,
    ArgsortTree,
    forest_predict_reference,
    predict_recursive,
)
from tests.reference.optimizers import Adam as ReferenceAdam
from tests.reference.tape import (
    TapeNetwork,
    apply_activation,
    softmax_cross_entropy,
    tape_loss_and_grads,
)
from tests.reference.trainer import loop_fit

__all__ = [
    "ArgsortForest",
    "ArgsortTree",
    "ReferenceAdam",
    "TapeNetwork",
    "Tensor",
    "allreduce_mean",
    "apply_activation",
    "assert_plan_equivalence",
    "flatten_gradients",
    "forest_predict_reference",
    "gradient_segments",
    "is_grad_enabled",
    "loop_fit",
    "no_grad",
    "predict_recursive",
    "ring_allreduce_reference",
    "softmax_cross_entropy",
    "tape_loss_and_grads",
]
