"""Unit tests for ModelConfig, SearchHistory and ModelEvaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EvaluationRecord, ModelConfig, ModelEvaluation, SearchHistory
from repro.core.evaluation import _config_seed
from repro.dataparallel import TrainingCostModel
from repro.searchspace import ArchitectureSpace


# --------------------------------------------------------------------- #
# ModelConfig
# --------------------------------------------------------------------- #
def test_model_config_accessors():
    cfg = ModelConfig(
        arch=np.array([1, 2, 3]),
        hyperparameters={"batch_size": 64, "learning_rate": 0.01, "num_ranks": 4},
    )
    assert cfg.batch_size == 64
    assert cfg.learning_rate == 0.01
    assert cfg.num_ranks == 4


def test_model_config_key_is_architecture_identity():
    a = ModelConfig(np.array([1, 2]), {"batch_size": 64})
    b = ModelConfig(np.array([1, 2]), {"batch_size": 128})
    c = ModelConfig(np.array([1, 3]), {"batch_size": 64})
    assert a.key() == b.key()
    assert a.key() != c.key()


def test_model_config_rejects_matrix_arch():
    with pytest.raises(ValueError):
        ModelConfig(np.zeros((2, 2)))


# --------------------------------------------------------------------- #
# SearchHistory
# --------------------------------------------------------------------- #
def record(obj, end, arch=(0,)):
    return EvaluationRecord(
        config=ModelConfig(np.array(arch), {"batch_size": 256}),
        objective=obj,
        duration=1.0,
        submit_time=0.0,
        start_time=0.0,
        end_time=end,
    )


def test_history_best_and_topk():
    h = SearchHistory()
    for obj, end in [(0.5, 1.0), (0.9, 2.0), (0.7, 3.0)]:
        h.add(record(obj, end))
    assert h.best().objective == 0.9
    assert [r.objective for r in h.top_k(2)] == [0.9, 0.7]


def test_history_best_so_far_monotone():
    h = SearchHistory()
    for obj, end in [(0.5, 1.0), (0.3, 2.0), (0.8, 3.0), (0.6, 4.0)]:
        h.add(record(obj, end))
    times, objs = h.best_so_far()
    np.testing.assert_array_equal(times, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(objs, [0.5, 0.5, 0.8, 0.8])


def test_history_best_so_far_sorts_by_completion():
    h = SearchHistory()
    h.add(record(0.9, end=5.0))
    h.add(record(0.5, end=1.0))  # completed earlier despite later insertion
    times, objs = h.best_so_far()
    np.testing.assert_array_equal(times, [1.0, 5.0])
    np.testing.assert_array_equal(objs, [0.5, 0.9])


def test_history_time_to_reach():
    h = SearchHistory()
    for obj, end in [(0.5, 1.0), (0.8, 2.0)]:
        h.add(record(obj, end))
    assert h.time_to_reach(0.7) == 2.0
    assert h.time_to_reach(0.95) is None


def test_history_empty_edge_cases():
    h = SearchHistory()
    times, objs = h.best_so_far()
    assert times.size == 0
    with pytest.raises(RuntimeError):
        h.best()


# --------------------------------------------------------------------- #
# ModelEvaluation
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def evaluation(tiny_covertype):
    space = ArchitectureSpace(num_nodes=3)
    return (
        ModelEvaluation(tiny_covertype, space, epochs=3, nominal_epochs=20),
        space,
    )


def sample_config(space, seed=0):
    rng = np.random.default_rng(seed)
    return ModelConfig(
        arch=space.random_sample(rng),
        hyperparameters={"batch_size": 64, "learning_rate": 0.005, "num_ranks": 2},
    )


def test_evaluation_returns_real_accuracy(evaluation):
    run, space = evaluation
    result = run(sample_config(space))
    assert 0.0 <= result.objective <= 1.0
    assert result.duration > 0.0
    assert result.metadata["num_params"] > 0
    assert len(result.metadata["epoch_val_accuracies"]) == 3


def test_evaluation_deterministic_per_config(evaluation):
    run, space = evaluation
    a = run(sample_config(space, seed=3))
    b = run(sample_config(space, seed=3))
    assert a.objective == b.objective
    assert a.duration == b.duration


def test_evaluation_different_configs_different_seeds(evaluation):
    run, space = evaluation
    cfg_a = sample_config(space, seed=1)
    cfg_b = sample_config(space, seed=2)
    assert _config_seed(cfg_a, 0) != _config_seed(cfg_b, 0)


def test_evaluation_duration_uses_nominal_scale(evaluation, tiny_covertype):
    """Durations are billed at paper scale (244k rows, 20 epochs), not at
    the reduced real-training scale."""
    run, space = evaluation
    result = run(sample_config(space))
    cm = TrainingCostModel()
    expected = cm.training_minutes(
        num_params=result.metadata["num_params"],
        train_size=tiny_covertype.nominal_train_size,
        batch_size=64,
        num_ranks=2,
        epochs=20,
    )
    assert result.duration == pytest.approx(expected)


def test_evaluation_more_ranks_shorter_duration(evaluation):
    run, space = evaluation
    rng = np.random.default_rng(5)
    arch = space.random_sample(rng)
    durations = {}
    for n in (1, 8):
        cfg = ModelConfig(arch, {"batch_size": 64, "learning_rate": 0.005, "num_ranks": n})
        durations[n] = run(cfg).duration
    assert durations[8] < durations[1]


def test_evaluation_objective_mode_validation(tiny_covertype):
    space = ArchitectureSpace(num_nodes=2)
    with pytest.raises(ValueError):
        ModelEvaluation(tiny_covertype, space, objective="median")


def test_evaluation_allreduce_mode_validation(tiny_covertype):
    space = ArchitectureSpace(num_nodes=2)
    for mode in ("ring", "fused"):
        assert ModelEvaluation(tiny_covertype, space, allreduce=mode).allreduce == mode
    with pytest.raises(ValueError, match="mean"):
        ModelEvaluation(tiny_covertype, space, allreduce="mean")


def test_evaluation_final_objective_mode(tiny_covertype):
    space = ArchitectureSpace(num_nodes=2)
    run = ModelEvaluation(tiny_covertype, space, epochs=3, objective="final")
    result = run(sample_config(space, seed=8))
    assert result.objective == result.metadata["final_val_accuracy"]
