"""Output checks: a perturbed simulation must be reported, not averaged."""

import json

import pytest
import run
import workloads
from workloads import Outcome


def _outcome(latencies=(0.1, 0.2, 0.3), **fields):
    outcome = Outcome(sim_s=100.0, window_wall_s=1.0, setup_s=0.5)
    outcome.latencies = list(latencies)
    outcome.submitted = outcome.completed = len(outcome.latencies)
    for name, value in fields.items():
        setattr(outcome, name, value)
    return outcome


def test_identical_repeats_pass():
    assert run.output_checks([_outcome(), _outcome(), _outcome()]) == []


@pytest.mark.parametrize(
    "perturbed",
    [
        _outcome(latencies=(0.1, 0.2, 0.3 + 1e-12)),
        _outcome(hits=1),
        _outcome(history_digest="feed"),
        _outcome(sim_s=100.0 + 1e-9),
    ],
)
def test_perturbed_fingerprint_is_a_failed_check(perturbed):
    failures = run.output_checks([_outcome(), perturbed])
    assert len(failures) == 1
    assert "fingerprint differs" in failures[0]


def test_traced_fingerprint_is_compared_with_the_untraced_one():
    reference = _outcome().fingerprint()
    failures = run.output_checks(
        [_outcome(misses=3)], reference, label="traced repeat"
    )
    assert failures and failures[0].startswith("traced repeat:")


def test_perturbed_repeat_makes_the_run_incorrect(monkeypatch, capsys):
    made = []

    def fake_repeat(name, seed, on_setup_done=None):
        made.append(name)
        return _outcome(hits=int(len(made) == run.MIN_REPEATS))

    monkeypatch.setenv("PYTHONHASHSEED", "0")
    monkeypatch.setattr(workloads, "run_repeat", fake_repeat)
    assert run.main(
        ["--workload", "macro", "--seed", "0", "--seconds", "0", "--trace", "0"]
    ) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(made) == run.MIN_REPEATS
    assert result["correct"] is False
    assert result["failed"] == 1
    assert set(result["metrics"]) == {
        "sim_s_per_wall_s", "setup_s", "peak_rss_mb", "sim_latency_p50_s",
        "hit_ratio",
    }


def test_drain_mismatch_and_unmodelled_failures_fail_the_run(monkeypatch, capsys):
    def fake_repeat(name, seed, on_setup_done=None):
        return _outcome(
            unexpected=2, check_failures=["drain: 3 submitted but 2 terminal"]
        )

    monkeypatch.setenv("PYTHONHASHSEED", "0")
    monkeypatch.setattr(workloads, "run_repeat", fake_repeat)
    run.main(["--workload", "harvest", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    # Per repeat: two unmodelled failures plus one failed drain check.
    assert result["failed"] == run.MIN_REPEATS * (2 + 1)
