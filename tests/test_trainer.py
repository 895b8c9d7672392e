"""Unit tests for the single-process training loop.

Plain training is ``DataParallelTrainer(num_ranks=1)``, the loop the MLP
baselines use; its training behaviour is covered by the
``test_single_rank_*`` cases in ``test_dp_trainer.py``.
"""

from __future__ import annotations

import pytest

from repro.dataparallel import DataParallelTrainer


def test_constructor_validation():
    with pytest.raises(ValueError):
        DataParallelTrainer(num_ranks=1, epochs=-1)
    with pytest.raises(ValueError):
        DataParallelTrainer(num_ranks=1, batch_size=0)
    # Zero epochs is a valid (no-op) run, not a configuration error.
    assert DataParallelTrainer(num_ranks=1, epochs=0).epochs == 0
