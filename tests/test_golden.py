"""Golden histories: pinned digests of seeded campaigns on the simulated backend.

Each test runs one small seeded campaign through :func:`build_campaign`
and compares a SHA-256 digest of its ordered history records — the
configuration, the objective, the simulated submit/start/end times and the
failed flag — with a digest pinned in this file.  A refactor that claims
"no behaviour change" must leave every digest here untouched; an intended
behaviour change re-pins them and says why.

Tolerance: every float is hashed as ``round(x, 6)``.  Objectives are
validation accuracies (multiples of ``1/n_valid``) and times are simulated
minutes, so six decimals keep every real difference while absorbing
last-ulp drift between the BLAS builds and SIMD math kernels that ship
with the numpy versions of the CI matrix.  The gate is never skipped.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.campaign import (
    CampaignConfig,
    CheckpointConfig,
    EvaluatorConfig,
    FaultConfig,
    SearchConfig,
    TrainingConfig,
    build_campaign,
    resume_campaign,
)
from repro.campaign.events import (
    CacheHit,
    CacheStore,
    FaultInjected,
    JobGathered,
    JobRetried,
    JobSubmitted,
)

DECIMALS = 6


def _canon(value):
    if isinstance(value, float):
        return round(value, DECIMALS)
    return value


def golden_digest(history) -> str:
    h = hashlib.sha256()
    for r in history:
        row = (
            [int(a) for a in r.config.arch],
            sorted((k, _canon(v)) for k, v in r.config.hyperparameters.items()),
            _canon(float(r.objective)),
            _canon(float(r.submit_time)),
            _canon(float(r.start_time)),
            _canon(float(r.end_time)),
            bool(r.metadata.get("failed")),
        )
        h.update(repr(row).encode())
    return h.hexdigest()


def _config(
    method: str, cache: str = "off", training: TrainingConfig | None = None, **faults
) -> CampaignConfig:
    # A 2-node space is small enough that AgE re-proposes configurations,
    # so the exact cache scores hits; AgEBO lets BO pick 1-8 ranks.
    return CampaignConfig(
        dataset="covertype",
        size=600,
        num_nodes=2,
        max_evaluations=24,
        search=SearchConfig(
            method=method, population_size=6, sample_size=2, seed=7, n_initial_points=4
        ),
        training=training or TrainingConfig(epochs=2, base_seed=3),
        evaluator=EvaluatorConfig(num_workers=4, cache=cache),
        faults=FaultConfig(**faults),
    )


# Pinned at the commit that introduced this file.  ``fused`` averages the
# loss over the global batch while ``ring`` averages per-rank gradients,
# so they differ in round-off and pin different digests.  The ``mean``
# entry is the removed allreduce mode, which configs older than version 3
# still name; they load as ``ring`` and must keep its digest.
GOLDEN = {
    "AgE": "2c4dcc2b903b6321cebef67892b94167e6e6a847378e6c03246b0d70e7aeb880",
    "AgEBO": "a0a18141be871fb13d871816339d4792bd6b04b2275f5a42b5ae3ee8fc33bbe4",
    "AgEBO-ring-compiled": "ab7eca20bf5791da55d12319238dd140295fe2661732454dc1bd74a708e46874",
    "AgEBO-mean-compiled": "ab7eca20bf5791da55d12319238dd140295fe2661732454dc1bd74a708e46874",
    "resume": "c15dcaf495f10d06183bb7c71b7fd021bb961f4dcdd5d136119f63c75f59cb2a",
    "resume-events": "c146208820dacb366595ae4a23c683097c43f6b7afa812bc2c4159f5fbd34014",
}


# The second id field names the training path: the compiled plan is the
# only one.
@pytest.mark.parametrize(
    "allreduce,backend",
    [
        ("ring", "compiled"),
        ("mean", "compiled"),
    ],
)
def test_training_modes_match_golden(allreduce, backend):
    if allreduce == "mean":
        # Only a version-2 config can still name it.
        data = _config("AgEBO", training=TrainingConfig(epochs=2, base_seed=3)).to_dict()
        data["config_version"] = 2
        data["training"]["allreduce"] = "mean"
        config = CampaignConfig.from_dict(data)
    else:
        training = TrainingConfig(epochs=2, base_seed=3, allreduce=allreduce)
        config = _config("AgEBO", training=training)
    history = build_campaign(config).run()
    assert golden_digest(history) == GOLDEN[f"AgEBO-{allreduce}-{backend}"]


@pytest.mark.parametrize("cache", ["off", "exact"])
@pytest.mark.parametrize("method", ["AgE", "AgEBO"])
def test_seeded_history_matches_golden(method, cache):
    history = build_campaign(_config(method, cache)).run()
    assert len(history) == 24
    # On the simulated backend a cache hit replays the memoized result and
    # duration, so both cache modes pin the same digest.
    assert golden_digest(history) == GOLDEN[method]


# AgE with injected crashes and hangs, retries, timeouts and the exact
# cache; the resumed run is checkpointed every iteration.
_FAULTS = dict(
    on_error="retry",
    max_retries=1,
    timeout=60.0,
    crash_prob=0.3,
    hang_prob=0.15,
    fault_seed=11,
)


def test_uninterrupted_faulty_history_matches_golden():
    history = build_campaign(_config("AgE", "exact", **_FAULTS)).run()
    assert len(history) == 24
    assert golden_digest(history) == GOLDEN["resume"]


def test_killed_and_resumed_history_matches_golden(tmp_path):
    path = tmp_path / "campaign.ckpt"
    config = _config("AgE", "exact", **_FAULTS).replace(
        checkpoint=CheckpointConfig(path=str(path))
    )
    build_campaign(config).run(max_evaluations=12)
    history = resume_campaign(path).run()
    assert len(history) == 24
    assert golden_digest(history) == GOLDEN["resume"]


# The evaluator's side of the same run: every job, cache and fault event
# in emission order with all fields, then the final failure counters and
# utilization.  The history digest alone sees none of these.
_EVALUATOR_EVENTS = (JobSubmitted, JobGathered, JobRetried, CacheHit, CacheStore, FaultInjected)


def event_digest(events, evaluator) -> str:
    h = hashlib.sha256()
    for event in events:
        fields = sorted((k, _canon(v)) for k, v in dataclasses.asdict(event).items())
        h.update(repr((event.name, fields)).encode())
    h.update(
        repr(
            (
                evaluator.num_failures,
                evaluator.num_retries,
                evaluator.num_timeouts,
                _canon(float(evaluator.utilization())),
            )
        ).encode()
    )
    return h.hexdigest()


def test_faulty_event_stream_matches_golden():
    campaign = build_campaign(_config("AgE", "exact", **_FAULTS))
    events = []
    campaign.subscribe(events.append)
    campaign.run()
    events = [e for e in events if isinstance(e, _EVALUATOR_EVENTS)]
    assert len(events) == 27 + 24 + 7 + 3 + 19 + 12
    evaluator = campaign.evaluator
    assert (evaluator.num_failures, evaluator.num_retries, evaluator.num_timeouts) == (12, 7, 2)
    assert event_digest(events, evaluator) == GOLDEN["resume-events"]
