"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


def run_cli(argv) -> str:
    out = io.StringIO()
    code = main(argv, out=out)
    assert code == 0
    return out.getvalue()


def test_datasets_command_lists_all():
    text = run_cli(["datasets"])
    for name in ("covertype", "airlines", "albert", "dionis"):
        assert name in text
    assert "355 classes" in text


def test_search_command_agebo_smoke():
    text = run_cli(
        [
            "search",
            "--dataset",
            "covertype",
            "--method",
            "AgEBO",
            "--size",
            "800",
            "--num-nodes",
            "2",
            "--epochs",
            "2",
            "--max-evaluations",
            "6",
            "--workers",
            "3",
            "--population",
            "4",
            "--sample",
            "2",
        ]
    )
    assert "AgEBO: " in text
    assert "evaluations in" in text
    assert "val acc" in text


def test_search_command_age_variant():
    text = run_cli(
        [
            "search",
            "--dataset",
            "airlines",
            "--method",
            "AgE",
            "--num-ranks",
            "2",
            "--size",
            "800",
            "--num-nodes",
            "2",
            "--epochs",
            "2",
            "--max-evaluations",
            "5",
            "--population",
            "4",
            "--sample",
            "2",
        ]
    )
    assert "AgE-2:" in text


def test_baseline_command_autopytorch():
    text = run_cli(
        ["baseline", "--dataset", "covertype", "--system", "autopytorch", "--size", "800"]
    )
    assert "Auto-PyTorch-like" in text
    assert "best val=" in text


def test_parser_rejects_unknown_dataset():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["search", "--dataset", "mnist"])


def test_parser_rejects_unknown_method():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["search", "--dataset", "covertype", "--method", "BOHB"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_search_requires_dataset_unless_resuming():
    with pytest.raises(SystemExit, match="--dataset"):
        main(["search", "--max-evaluations", "4"], out=io.StringIO())


def test_search_checkpoint_resume_round_trip(tmp_path):
    """--resume continues a checkpointed campaign to a history identical
    to the uninterrupted run, restoring --dataset etc. from the file."""
    base = [
        "search", "--dataset", "covertype", "--method", "AgEBO",
        "--size", "800", "--num-nodes", "2", "--epochs", "2",
        "--workers", "3", "--population", "4", "--sample", "2",
    ]
    full = tmp_path / "full.json"
    run_cli(base + ["--max-evaluations", "10", "--save-history", str(full)])

    ck = tmp_path / "camp.ckpt"
    run_cli(base + ["--max-evaluations", "5", "--checkpoint", str(ck)])

    resumed = tmp_path / "resumed.json"
    text = run_cli([
        "search", "--resume", str(ck),
        "--max-evaluations", "10", "--save-history", str(resumed),
    ])
    assert "resuming campaign" in text

    import json

    assert json.loads(full.read_text()) == json.loads(resumed.read_text())


def _resume_in_subprocess(ck) -> subprocess.CompletedProcess:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "search", "--resume", str(ck),
         "--max-evaluations", "8"],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_search_rejects_removed_train_backend_flag():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "search", "--dataset", "covertype",
         "--train-backend", "eager"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert "--train-backend" in proc.stderr


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    ck = tmp_path_factory.mktemp("cli") / "camp.ckpt"
    run_cli([
        "search", "--dataset", "covertype", "--method", "AgE", "--size", "300",
        "--num-nodes", "2", "--epochs", "1", "--workers", "2", "--population", "4",
        "--sample", "2", "--max-evaluations", "4", "--checkpoint", str(ck),
    ])
    return json.loads(ck.read_text())


@pytest.mark.parametrize(
    "tamper,message",
    [
        # A search state missing a key: a malformed checkpoint.
        (lambda d: d["search"].pop("population"), "is malformed: KeyError('population')"),
        # An embedded config that disagrees with the recorded search settings.
        (lambda d: d["extra"]["campaign"]["search"].update(population_size=6),
         "checkpoint has population_size=4, but this run has 6"),
    ],
    ids=["malformed", "mismatched"],
)
def test_search_resume_of_bad_checkpoint_exits_with_one_line(
    tmp_path, small_checkpoint, tamper, message
):
    data = json.loads(json.dumps(small_checkpoint))
    tamper(data)
    ck = tmp_path / "bad.ckpt"
    ck.write_text(json.dumps(data))
    proc = _resume_in_subprocess(ck)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().count("\n") == 0
    assert proc.stderr.startswith(f"search: cannot resume from {ck}: ")
    assert message in proc.stderr


def test_search_with_fault_injection_penalizes():
    text = run_cli([
        "search", "--dataset", "covertype", "--size", "800",
        "--num-nodes", "2", "--epochs", "2", "--max-evaluations", "8",
        "--workers", "3", "--population", "4", "--sample", "2",
        "--crash-prob", "0.4", "--fault-seed", "1", "--on-error", "penalize",
    ])
    assert "penalized" in text


def test_search_command_saves_history_and_report(tmp_path):
    hist = tmp_path / "h.json"
    rep = tmp_path / "r.md"
    text = run_cli(
        [
            "search", "--dataset", "covertype", "--method", "AgEBO",
            "--size", "800", "--num-nodes", "2", "--epochs", "2",
            "--max-evaluations", "6", "--workers", "3",
            "--population", "4", "--sample", "2",
            "--save-history", str(hist), "--report", str(rep),
        ]
    )
    assert hist.exists() and rep.exists()
    from repro.core import load_history

    loaded = load_history(hist)
    assert len(loaded) >= 6
    assert rep.read_text().startswith("# Search report")
    assert "history written" in text and "report written" in text
