"""Table II: AgEBO's single model vs AutoGluon-like ensemble.

Paper: test accuracy is comparable on all four data sets while the single
searched network's inference is ~2 orders of magnitude faster than the
stacked ensemble (seconds vs minutes).
"""

from __future__ import annotations

import time

import numpy as np

from common import format_table, get_dataset, get_scale, report, run_search
from repro.baselines import AutoGluonLike
from repro.core import ModelEvaluation
from repro.datasets import dataset_names
from repro.searchspace import ArchitectureSpace


def evaluate_best_agebo_model(name: str) -> tuple[float, float]:
    """Retrain the best searched model and measure test accuracy + inference."""
    scale = get_scale()
    ds = get_dataset(name)
    history, _ = run_search(name, "AgEBO", seed=0)
    best = history.best()
    space = ArchitectureSpace(num_nodes=scale.num_nodes)
    run_fn = ModelEvaluation(
        ds, space, epochs=scale.epochs * 2, nominal_epochs=20, keep_best_weights=True
    )
    result = run_fn(best.config)
    rng = np.random.default_rng(0)
    model = run_fn.build_model(best.config, rng)
    # Rebuild untrained, then load the trained best-epoch weights.
    model.set_weights(result.metadata["best_weights"])
    plan = model.compile()
    t0 = time.perf_counter()
    preds = plan.predict_logits(ds.X_test).argmax(axis=1)
    inference = time.perf_counter() - t0
    test_acc = float((preds == ds.y_test).mean())
    return test_acc, inference


def run_experiment():
    out = {}
    for name in dataset_names():
        agebo_acc, agebo_inf = evaluate_best_agebo_model(name)
        ds = get_dataset(name)
        ag = AutoGluonLike(preset="best_quality", seed=0).fit(ds)
        rep = ag.evaluate(ds)
        out[name] = {
            "agebo_acc": agebo_acc,
            "agebo_inf": agebo_inf,
            "ag_acc": rep.test_accuracy,
            "ag_inf": rep.inference_seconds,
        }
    return out


def test_table2_autogluon(benchmark):
    out = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for name, r in out.items():
        rows.append(
            [
                name,
                round(r["agebo_acc"], 4),
                f"{r['agebo_inf'] * 1000:.1f} ms",
                round(r["ag_acc"], 4),
                f"{r['ag_inf'] * 1000:.1f} ms",
                round(r["ag_inf"] / max(r["agebo_inf"], 1e-9), 1),
            ]
        )
    report(
        "table2_autogluon",
        format_table(
            "Table II — AgEBO single model vs AutoGluon-like ensemble",
            [
                "dataset",
                "AgEBO test acc",
                "AgEBO inference",
                "AutoGluon test acc",
                "AutoGluon inference",
                "inference ratio",
            ],
            rows,
        ),
    )
    for name, r in out.items():
        # Accuracy parity: within a few points either way (paper: mixed wins).
        assert abs(r["agebo_acc"] - r["ag_acc"]) < 0.12, name
        # The ensemble's inference is at least an order of magnitude slower
        # (paper: two orders at their scale).
        assert r["ag_inf"] / max(r["agebo_inf"], 1e-9) > 10.0, name
