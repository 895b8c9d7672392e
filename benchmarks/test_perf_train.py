"""Perf bench: the compiled training path vs the eager-tape reference.

Times the training hot path at four granularities — one Adam update, one
train step, full validation inference, and a whole evaluation's training
run — with the production path against the references in
``tests/reference/`` (the eager autograd tape, the per-parameter Adam and
the per-rank loop trainer), and writes the before/after medians to
``BENCH_train.json`` at the repo root.

Timings are recorded, never asserted.  The bench fails only on its
numerical gates: the compiled plan must reproduce the tape's loss and
gradients to 1e-10 on the benched network, and the flat Adam must
reproduce the per-parameter update bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import ModelEvaluation
from repro.core.config import ModelConfig
from repro.dataparallel import DataParallelTrainer
from repro.datasets import load_dataset
from repro.nn import Adam, GraphNetwork
from repro.perf import BenchEntry, median_time, write_bench_json
from repro.searchspace import ArchitectureSpace

from tests.reference import (
    ReferenceAdam,
    TapeNetwork,
    Tensor,
    assert_plan_equivalence,
    loop_fit,
    softmax_cross_entropy,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BATCH = 256
N_FEATURES = 54
N_CLASSES = 7
STEPS_PER_REP = 20
ADAM_STEPS_PER_REP = 200

# Layer widths of two dense chains whose parameter counts match the median
# campaign-0 model of the agebo_search (P ≈ 14k in 16 arrays) and
# age_train (P ≈ 36k in 24 arrays) campbench workloads.
ADAM_CHAINS = {
    "adam_step_14k": (54, 64, 48, 48, 32, 32, 32, 32, 7),
    "adam_step_36k": (54, 96, 96, 64, 64, 48, 48, 32, 32, 32, 32, 32, 7),
}


def _make_model(seed: int = 0) -> GraphNetwork:
    rng = np.random.default_rng(seed)
    space = ArchitectureSpace(num_nodes=5)
    arch = space.random_sample(rng)
    spec = space.decode(arch)
    return GraphNetwork(spec, N_FEATURES, N_CLASSES, np.random.default_rng(seed))


def _make_batches(seed: int = 1, n: int = 4096):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, N_FEATURES))
    y = rng.integers(0, N_CLASSES, size=n)
    return X, y


def _adam_entry(name: str, widths: tuple[int, ...]) -> BenchEntry:
    """Per-parameter vs flat Adam on one chain's parameter layout."""
    shapes = []
    for fan_in, units in zip(widths, widths[1:]):
        shapes.extend([(fan_in, units), (units,)])
    sizes = [int(np.prod(s)) for s in shapes]
    cuts = np.cumsum(sizes)[:-1]
    rng = np.random.default_rng(0)
    init = rng.standard_normal(sum(sizes))
    grad_steps = rng.standard_normal((8, sum(sizes)))

    def make():
        params = init.copy()
        grads = np.empty_like(params)
        leaves = [
            Tensor(chunk.reshape(shape), requires_grad=True)
            for chunk, shape in zip(np.split(params, cuts), shapes)
        ]
        return params, grads, leaves

    def reference_steps():
        _, _, leaves = make()
        opt = ReferenceAdam(leaves, lr=0.01)
        per_step = [
            [g.reshape(shape) for g, shape in zip(np.split(row, cuts), shapes)]
            for row in grad_steps
        ]
        for i in range(ADAM_STEPS_PER_REP):
            opt.apply_gradients(per_step[i % len(per_step)])

    def flat_steps():
        params, grads, _ = make()
        opt = Adam(params, grads, lr=0.01)
        for i in range(ADAM_STEPS_PER_REP):
            grads[...] = grad_steps[i % len(grad_steps)]
            opt.step()

    # Gate: both updates end on the same bits.
    params, grads, leaves = make()
    flat, ref = Adam(params, grads, lr=0.01), ReferenceAdam(leaves, lr=0.01)
    for row in grad_steps:
        grads[...] = row
        flat.step()
        ref.apply_gradients([g.reshape(s) for g, s in zip(np.split(row, cuts), shapes)])
    assert params.tobytes() == np.concatenate([p.data.ravel() for p in leaves]).tobytes()

    return BenchEntry(
        name,
        median_time(reference_steps) / ADAM_STEPS_PER_REP,
        median_time(flat_steps) / ADAM_STEPS_PER_REP,
        meta={"params": sum(sizes), "arrays": len(shapes), "steps": ADAM_STEPS_PER_REP},
    )


def test_perf_train_step_and_evaluation():
    model = _make_model()
    X, y = _make_batches()
    Xb, yb = X[:BATCH], y[:BATCH]

    # --- equivalence gate ---------------------------------------------- #
    diffs = assert_plan_equivalence(model, Xb, yb, tol=1e-10)
    assert diffs["loss_diff"] <= 1e-10 and diffs["grad_diff"] <= 1e-10

    # --- one optimizer update: per-parameter vs flat Adam --------------- #
    entries = [_adam_entry(name, widths) for name, widths in ADAM_CHAINS.items()]

    # --- train step: eager tape vs compiled plan ----------------------- #
    def eager_steps():
        tape = TapeNetwork(_make_model())
        opt = ReferenceAdam(tape.params, lr=0.01)
        for i in range(STEPS_PER_REP):
            lo = (i * BATCH) % (X.shape[0] - BATCH)
            logits = tape.forward(Tensor(X[lo : lo + BATCH]))
            loss = softmax_cross_entropy(logits, y[lo : lo + BATCH])
            opt.zero_grad()
            loss.backward()
            opt.step()

    def compiled_steps():
        m = _make_model()
        plan = m.compile()
        opt = Adam(m.params_flat, m.grads_flat, lr=0.01)
        for i in range(STEPS_PER_REP):
            lo = (i * BATCH) % (X.shape[0] - BATCH)
            plan.loss_and_grad(X[lo : lo + BATCH], y[lo : lo + BATCH])
            opt.step()

    entries.append(
        BenchEntry(
            "train_step",
            median_time(eager_steps) / STEPS_PER_REP,
            median_time(compiled_steps) / STEPS_PER_REP,
            meta={"batch_size": BATCH, "steps": STEPS_PER_REP, "num_nodes": 5},
        )
    )

    # --- full-set inference: eager forward vs plan.predict_logits ------ #
    model_inf = _make_model()
    tape_inf = TapeNetwork(model_inf)
    plan_inf = model_inf.compile()
    entries.append(
        BenchEntry(
            "predict_logits_4096",
            median_time(lambda: tape_inf.predict_logits(X)),
            median_time(lambda: plan_inf.predict_logits(X)),
            meta={"rows": X.shape[0]},
        )
    )

    # --- one evaluation's training: tape loop vs the trainer ----------- #
    ds = load_dataset("covertype", size=1500)
    space = ArchitectureSpace(num_nodes=5)
    arch = space.random_sample(np.random.default_rng(3))
    config = ModelConfig(
        arch=arch,
        hyperparameters={"learning_rate": 0.01, "batch_size": 256, "num_ranks": 1},
    )
    evaluation = ModelEvaluation(ds, space, epochs=3, nominal_epochs=20)
    data = (ds.X_train, ds.y_train, ds.X_valid, ds.y_valid)

    def run_fit(path: str):
        rng = np.random.default_rng(0)
        model = evaluation.build_model(config, rng)
        trainer = DataParallelTrainer(
            num_ranks=1, epochs=3, batch_size=256, learning_rate=0.01, allreduce="fused"
        )
        if path == "tape":
            return loop_fit(trainer, model, *data, rng, gradients="tape")
        return trainer.fit(model, *data, rng)

    entries.append(
        BenchEntry(
            "evaluation_training",
            median_time(lambda: run_fit("tape"), repeats=3),
            median_time(lambda: run_fit("compiled"), repeats=3),
            meta={"dataset": "covertype", "rows": 1500, "epochs": 3},
        )
    )

    out = write_bench_json(REPO_ROOT / "BENCH_train.json", "train", entries)
    for e in entries:
        print(f"{e.name}: ref {e.reference_s * 1e6:.1f} us -> "
              f"opt {e.optimized_s * 1e6:.1f} us ({e.speedup:.1f}x)")
    print(f"written: {out}")


if __name__ == "__main__":
    pytest.main([__file__, "-s"])
