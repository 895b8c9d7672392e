"""Perf bench: compiled training plan vs the eager autograd tape.

Times the training hot path at three granularities — single train step,
full validation inference, and a whole :class:`ModelEvaluation` call —
with the compiled plan against the eager reference, and writes the
before/after medians to ``BENCH_train.json`` at the repo root.

Timings are recorded, never asserted.  The only way this bench fails is
the numerical equivalence gate: the compiled plan must reproduce the
eager loss and gradients to 1e-10 on the benched network.  The gate is
imported from ``tests/reference/``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core import ModelEvaluation
from repro.core.config import ModelConfig
from repro.datasets import load_dataset
from repro.nn import Adam, GraphNetwork, Tensor, softmax_cross_entropy
from repro.perf import BenchEntry, median_time, write_bench_json
from repro.searchspace import ArchitectureSpace

from tests.reference import assert_plan_equivalence

REPO_ROOT = Path(__file__).resolve().parent.parent
BATCH = 256
N_FEATURES = 54
N_CLASSES = 7
STEPS_PER_REP = 20


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


def test_perf_train_step_and_evaluation():
    model = _make_model()
    X, y = _make_batches()
    Xb, yb = X[:BATCH], y[:BATCH]

    # --- equivalence gate (the only assertion in this bench) ----------- #
    diffs = assert_plan_equivalence(model, Xb, yb, tol=1e-10)
    assert diffs["loss_diff"] <= 1e-10 and diffs["grad_diff"] <= 1e-10

    # --- train step: eager tape vs compiled plan ----------------------- #
    def eager_steps():
        m = _make_model()
        opt = Adam(m.parameters(), lr=0.01)
        for i in range(STEPS_PER_REP):
            lo = (i * BATCH) % (X.shape[0] - BATCH)
            logits = m.forward(Tensor(X[lo : lo + BATCH]))
            loss = softmax_cross_entropy(logits, y[lo : lo + BATCH])
            opt.zero_grad()
            loss.backward()
            opt.step()

    def compiled_steps():
        m = _make_model()
        plan = m.compile()
        opt = Adam(m.parameters(), lr=0.01)
        for i in range(STEPS_PER_REP):
            lo = (i * BATCH) % (X.shape[0] - BATCH)
            plan.loss_and_grad(X[lo : lo + BATCH], y[lo : lo + BATCH])
            opt.step()

    eager_s = median_time(eager_steps) / STEPS_PER_REP
    compiled_s = median_time(compiled_steps) / STEPS_PER_REP
    entries = [
        BenchEntry(
            "train_step",
            eager_s,
            compiled_s,
            meta={"batch_size": BATCH, "steps": STEPS_PER_REP, "num_nodes": 5},
        )
    ]

    # --- full-set inference: eager forward vs plan.predict_logits ------ #
    model_inf = _make_model()
    plan_inf = model_inf.compile()
    entries.append(
        BenchEntry(
            "predict_logits_4096",
            median_time(lambda: model_inf.predict_logits(X)),
            median_time(lambda: plan_inf.predict_logits(X)),
            meta={"rows": X.shape[0]},
        )
    )

    # --- whole evaluation call: backend="eager" vs "compiled" ---------- #
    ds = load_dataset("covertype", size=1500)
    space = ArchitectureSpace(num_nodes=5)
    arch = space.random_sample(np.random.default_rng(3))
    config = ModelConfig(
        arch=arch,
        hyperparameters={"learning_rate": 0.01, "batch_size": 256, "num_ranks": 1},
    )

    def run_eval(backend: str):
        ev = ModelEvaluation(ds, space, epochs=3, nominal_epochs=20, backend=backend)
        return ev(config)

    eval_eager_s = median_time(lambda: run_eval("eager"), repeats=3)
    eval_compiled_s = median_time(lambda: run_eval("compiled"), repeats=3)
    entries.append(
        BenchEntry(
            "model_evaluation",
            eval_eager_s,
            eval_compiled_s,
            meta={"dataset": "covertype", "rows": 1500, "epochs": 3},
        )
    )

    out = write_bench_json(REPO_ROOT / "BENCH_train.json", "train", entries)
    for e in entries:
        print(f"{e.name}: ref {e.reference_s * 1e3:.2f} ms -> "
              f"opt {e.optimized_s * 1e3:.2f} ms ({e.speedup:.1f}x)")
    print(f"written: {out}")


if __name__ == "__main__":
    pytest.main([__file__, "-s"])
