"""CLI entry points (fast commands only)."""

import pytest

from repro.cli import main


def test_select_command(capsys):
    exit_code = main(["select", "--segments", "8", "--seed", "42"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "selected" in captured
    assert "rejected" in captured


def test_attack_study_command(capsys):
    exit_code = main(["attack-study", "--attempts", "3", "--seed", "5"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "Google Home" in captured
    assert "iPhone" in captured


@pytest.mark.slow
def test_demo_command(capsys):
    exit_code = main(["demo", "--seed", "3"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "attack detected" in captured


def test_serve_command(capsys):
    exit_code = main(
        [
            "serve",
            "--segmenter", "none",
            "--workers", "2",
            "--requests", "4",
            "--seed", "11",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "self-test: 4/4 served" in captured
    assert "p50 ms" in captured
    assert "queue-wait" in captured


def test_loadgen_command(capsys):
    exit_code = main(
        [
            "loadgen",
            "--segmenter", "none",
            "--workers", "2",
            "--requests", "8",
            "--concurrency", "4",
            "--seed", "11",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "loadgen[closed]: 8 issued, 8 served" in captured
    assert "latency p50/p95/p99" in captured


@pytest.mark.parametrize(
    "skew, message",
    [
        (
            {"n_submitted": 1},
            "error: service resolved 4 of 5 submitted request(s)",
        ),
        (
            {"n_served": -1, "n_failed": 1},
            "error: service counted 3 served, client 4",
        ),
    ],
)
def test_loadgen_fails_closed_on_accounting_mismatch(
    capsys, monkeypatch, skew, message
):
    import dataclasses

    from repro.serve import VerificationService

    honest = VerificationService.metrics

    def skewed(service):
        metrics = honest(service)
        return dataclasses.replace(
            metrics,
            **{
                name: getattr(metrics, name) + delta
                for name, delta in skew.items()
            },
        )

    monkeypatch.setattr(VerificationService, "metrics", skewed)
    exit_code = main(
        [
            "loadgen",
            "--segmenter", "none",
            "--workers", "1",
            "--requests", "4",
            "--concurrency", "2",
            "--seed", "11",
        ]
    )
    assert exit_code == 1
    assert message in capsys.readouterr().out


def test_fleet_loadgen_command(capsys):
    exit_code = main(
        [
            "fleet", "loadgen",
            "--segmenter", "none",
            "--shards", "2",
            "--requests", "20",
            "--users", "1000",
            "--rate", "20",
            "--queue-capacity", "64",
            "--seed", "7",
        ]
    )
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "fleet: 20 issued" in captured
    assert "latency p50/p95/p99" in captured
    assert "shard-0" in captured and "shard-1" in captured


def test_fleet_invalid_flags_exit_early():
    with pytest.raises(SystemExit) as excinfo:
        main(["fleet", "loadgen", "--shards", "0"])
    assert "error:" in str(excinfo.value)
    with pytest.raises(SystemExit) as excinfo:
        main(["fleet", "loadgen", "--rate", "0"])
    assert "error:" in str(excinfo.value)


@pytest.mark.parametrize(
    "flags",
    [
        ["--workers", "0"],
        ["--queue-capacity", "0"],
        ["--max-wait", "-0.5"],
        ["--batch-size", "0"],
        ["--deadline", "-1"],
        ["--policy", "block", "--max-wait", "-1"],
    ],
)
@pytest.mark.parametrize("command", ["serve", "loadgen"])
def test_serving_invalid_durations_exit_early(command, flags):
    """Bad bounds/durations die before any worker warms up."""
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--segmenter", "none", *flags])
    assert "error:" in str(excinfo.value)


def test_loadgen_invalid_rate_exits():
    with pytest.raises(SystemExit) as excinfo:
        main(["loadgen", "--segmenter", "none", "--rate", "0"])
    assert "error:" in str(excinfo.value)


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_help_exits_zero():
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
