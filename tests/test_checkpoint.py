"""Checkpoint/resume: schema round-trips and bit-identical continuation.

The headline guarantee (ISSUE acceptance criterion): a campaign killed at
evaluation N and resumed from its checkpoint produces a final history
*identical* to the uninterrupted run — same configs, same objectives, same
timestamps.  That requires every stochastic component (search rng, BO
tell-history + rng, evaluator clock/queues/event counters, fault-injector
rng) to round-trip through the checkpoint.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import CheckpointConfig, resume_campaign
from repro.core import AgE, AgEBO, load_checkpoint, save_checkpoint
from repro.core.config import ModelConfig
from repro.core.serialization import (
    CHECKPOINT_VERSION,
    history_to_dict,
    record_from_dict,
    record_to_dict,
)
from repro.searchspace import ArchitectureSpace
from repro.searchspace.hpspace import default_dataparallel_space
from repro.workflow import (
    EvaluationResult,
    FaultInjector,
    FaultPolicy,
    SimulatedEvaluator,
)


def fake_eval(config):
    """Deterministic stand-in keyed on the full config."""
    arch_part = int(np.sum(config.arch * np.arange(1, config.arch.size + 1)))
    hp = config.hyperparameters
    h = (arch_part * 31 + int(hp["num_ranks"]) * 7 + int(hp["batch_size"])) % 1013
    return EvaluationResult(
        objective=0.3 + 0.6 * (h / 1013.0),
        duration=3.0 + (h % 13),
        metadata={"h": h},
    )


def build_agebo(run_function, seed=7, num_workers=8, policy=None):
    space = ArchitectureSpace(num_nodes=3)
    hp_space = default_dataparallel_space(max_ranks=4)
    ev = SimulatedEvaluator(run_function, num_workers=num_workers, fault_policy=policy)
    return AgEBO(
        space, hp_space, ev,
        population_size=10, sample_size=3, n_initial_points=5, seed=seed,
    )


# --------------------------------------------------------------------- #
# Schema round-trip
# --------------------------------------------------------------------- #
def test_checkpoint_version_round_trip(tmp_path):
    search = build_agebo(fake_eval)
    search.search(max_evaluations=8)
    path = tmp_path / "ck.json"
    search.checkpoint_metadata = {"note": "hello"}
    save_checkpoint(search, path)
    data = load_checkpoint(path)
    assert data["version"] == CHECKPOINT_VERSION
    assert data["algorithm"] == "AgEBO"
    assert data["extra"] == {"note": "hello"}
    assert "search" in data
    # The file is plain JSON — re-serializable as-is.
    assert json.loads(path.read_text())["version"] == CHECKPOINT_VERSION


def test_checkpoint_version_mismatch_rejected(tmp_path):
    search = build_agebo(fake_eval)
    search.search(max_evaluations=4)
    path = tmp_path / "ck.json"
    save_checkpoint(search, path)
    data = json.loads(path.read_text())
    data["version"] = CHECKPOINT_VERSION + 99
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path)


def test_checkpoint_missing_search_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": CHECKPOINT_VERSION}))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_write_is_atomic(tmp_path):
    search = build_agebo(fake_eval)
    search.search(max_evaluations=4)
    path = tmp_path / "ck.json"
    save_checkpoint(search, path)
    assert not list(tmp_path.glob("*.tmp"))  # temp file replaced, not left over


def test_record_round_trip_preserves_rich_metadata():
    search = build_agebo(fake_eval)
    history = search.search(max_evaluations=4)
    rec = history.records[0]
    row = record_to_dict(rec, rich_metadata=True)
    back = record_from_dict(row)
    assert back.objective == rec.objective
    assert back.duration == rec.duration
    assert np.array_equal(back.config.arch, rec.config.arch)
    assert back.config.hyperparameters == rec.config.hyperparameters
    assert back.metadata.get("h") == rec.metadata.get("h")


# --------------------------------------------------------------------- #
# Bit-identical resume
# --------------------------------------------------------------------- #
def assert_identical_history(a, b):
    da, db = history_to_dict(a), history_to_dict(b)
    assert len(da["records"]) == len(db["records"])
    assert da == db


def test_agebo_resume_is_bit_identical(tmp_path):
    # Uninterrupted reference run.
    full = build_agebo(fake_eval).search(max_evaluations=32)

    # Interrupted run: checkpoint every iteration, stop at 16.
    path = tmp_path / "ck.json"
    interrupted = build_agebo(fake_eval)
    interrupted.search(max_evaluations=16, checkpoint_path=path, checkpoint_every=1)

    resumed = build_agebo(fake_eval)
    resumed.load_state(load_checkpoint(path)["search"])
    history = resumed.search(max_evaluations=32)
    assert_identical_history(full, history)


def test_agebo_resume_under_faults_is_bit_identical(tmp_path):
    """Resume replays the injector's rng too, so the same faults recur."""
    policy = FaultPolicy(
        on_error="retry", max_retries=2, retry_backoff=1.0, timeout=60.0
    )
    make_injector = lambda: FaultInjector(
        fake_eval, crash_prob=0.2, hang_prob=0.1, seed=3
    )

    full = build_agebo(make_injector(), policy=policy).search(max_evaluations=32)

    path = tmp_path / "ck.json"
    interrupted = build_agebo(make_injector(), policy=policy)
    interrupted.search(max_evaluations=16, checkpoint_path=path, checkpoint_every=1)

    resumed = build_agebo(make_injector(), policy=policy)
    resumed.load_state(load_checkpoint(path)["search"])
    history = resumed.search(max_evaluations=32)
    assert_identical_history(full, history)
    assert interrupted.evaluator.num_failures > 0  # faults actually fired


def test_age_resume_is_bit_identical(tmp_path):
    space = ArchitectureSpace(num_nodes=3)
    hps = {"batch_size": 64, "learning_rate": 0.01, "num_ranks": 2}

    def run(seed=5):
        ev = SimulatedEvaluator(fake_eval, num_workers=4)
        return AgE(space, ev, hyperparameters=hps,
                   population_size=8, sample_size=3, seed=seed)

    full = run().search(max_evaluations=24)

    path = tmp_path / "ck.json"
    run().search(max_evaluations=12, checkpoint_path=path, checkpoint_every=1)
    resumed = run()
    resumed.load_state(load_checkpoint(path)["search"])
    history = resumed.search(max_evaluations=24)
    assert_identical_history(full, history)


def test_resume_restores_bo_observations(tmp_path):
    path = tmp_path / "ck.json"
    interrupted = build_agebo(fake_eval)
    interrupted.search(max_evaluations=16, checkpoint_path=path, checkpoint_every=1)
    n_obs = interrupted.optimizer.num_observations
    rng_state = interrupted.optimizer._rng.bit_generator.state

    resumed = build_agebo(fake_eval)
    resumed.load_state(load_checkpoint(path)["search"])
    # The checkpoint is written at the last quiescent iteration boundary,
    # which may trail the in-memory search by at most one iteration.
    n_resumed = resumed.optimizer.num_observations
    assert n_resumed >= n_obs - interrupted.num_workers
    assert n_resumed > 0
    assert resumed.optimizer._y == pytest.approx(interrupted.optimizer._y[:n_resumed])
    if n_resumed == n_obs:
        assert resumed.optimizer._rng.bit_generator.state == rng_state


# --------------------------------------------------------------------- #
# load_state checks the settings a checkpoint records
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "kwargs,setting",
    [
        (dict(population_size=12), "population_size"),
        (dict(sample_size=2), "sample_size"),
        (dict(mutate_skips=False), "mutate_skips"),
        (dict(replacement="elitist"), "replacement"),
        (dict(kappa=1.96), "kappa"),
        (dict(n_initial_points=4), "n_initial_points"),
        (dict(lie_strategy="max"), "lie_strategy"),
        (dict(surrogate="knn"), "surrogate"),
    ],
)
def test_agebo_load_state_rejects_other_settings(tmp_path, kwargs, setting):
    path = tmp_path / "ck.json"
    build_agebo(fake_eval).search(max_evaluations=8, checkpoint_path=path)
    ev = SimulatedEvaluator(fake_eval, num_workers=8)
    other = AgEBO(
        ArchitectureSpace(num_nodes=3), default_dataparallel_space(max_ranks=4), ev,
        **{"population_size": 10, "sample_size": 3, "n_initial_points": 5, **kwargs},
    )
    with pytest.raises(ValueError, match=setting):
        other.load_state(load_checkpoint(path)["search"])


def test_age_load_state_rejects_other_hyperparameters(tmp_path):
    space = ArchitectureSpace(num_nodes=3)
    path = tmp_path / "ck.json"
    ev = SimulatedEvaluator(fake_eval, num_workers=4)
    AgE(space, ev, population_size=8, sample_size=3).search(
        max_evaluations=8, checkpoint_path=path
    )
    other = AgE(space, SimulatedEvaluator(fake_eval, num_workers=4),
                hyperparameters={"batch_size": 64}, population_size=8, sample_size=3)
    with pytest.raises(ValueError, match="hyperparameters"):
        other.load_state(load_checkpoint(path)["search"])


@pytest.mark.parametrize(
    "kwargs,setting",
    [
        (dict(num_workers=3), "num_workers"),
        (dict(fault_policy=FaultPolicy(on_error="penalize")), "on_error"),
        (dict(fault_policy=FaultPolicy(timeout=30.0)), "timeout"),
        (dict(run_function=FaultInjector(fake_eval, crash_prob=0.1)), "fault injection"),
    ],
)
def test_simulated_evaluator_load_state_rejects_other_settings(kwargs, setting):
    ev = SimulatedEvaluator(fake_eval, num_workers=2)
    ev.submit([ModelConfig(arch=np.zeros(3, dtype=np.int64),
                           hyperparameters={"num_ranks": 1, "batch_size": 32})])
    other = SimulatedEvaluator(**{"run_function": fake_eval, "num_workers": 2, **kwargs})
    with pytest.raises(ValueError, match=setting):
        other.load_state(ev.state_dict())


def test_parent_written_checkpoint_still_resumes():
    """A version-1 checkpoint of the golden faulty AgE campaign, written at
    12 evaluations by the previous resume path, resumes to the golden
    uninterrupted history."""
    from tests.test_golden import GOLDEN, golden_digest

    path = Path(__file__).parent / "data" / "age_faulty_half.ckpt"
    campaign = resume_campaign(path, checkpoint=CheckpointConfig(path=None))
    history = campaign.run()
    assert len(history) == 24
    assert golden_digest(history) == GOLDEN["resume"]


def test_checkpoint_every_throttles_writes(tmp_path, monkeypatch):
    writes = {"n": 0}
    import repro.core.search as search_mod
    original = search_mod.AgingEvolutionBase.checkpoint

    def counting(self, path):
        writes["n"] += 1
        original(self, path)

    monkeypatch.setattr(search_mod.AgingEvolutionBase, "checkpoint", counting)
    path = tmp_path / "ck.json"
    search = build_agebo(fake_eval)
    search.search(max_evaluations=16, checkpoint_path=path, checkpoint_every=4)
    assert 0 < writes["n"] <= 4 + 1  # every 4th iteration (+ final)
