"""``python -m repro.experiments.runner --json``: stdout is exactly one JSON report.

The experiment steps are stubbed (each returns a canned summary), so this
exercises the runner's own plumbing — progress logging and report
serialization — without training anything.
"""

import json
import sys
from types import SimpleNamespace

from repro.experiments import runner


def test_json_report_is_the_whole_of_stdout(monkeypatch, capsys):
    contexts = (SimpleNamespace(dataset="jackson"), SimpleNamespace(dataset="roadway"))
    stubs = {
        "_make_contexts": lambda preset, seed: contexts,
        "run_table3": lambda jackson, roadway: [],
        "run_figure5": lambda: None,
        "summarize_figure5": lambda result: {"scaling": 1.0},
        "run_figure6": lambda: SimpleNamespace(breakdowns={}),
        "run_figure7": lambda context: SimpleNamespace(trained={}),
        "summarize_figure7": lambda result: {"accuracy_ratio": 1.0},
        "run_figure4": lambda context, architecture, trained: None,
        "summarize_figure4": lambda result: {"bandwidth_reduction": 2.0},
    }
    for name, stub in stubs.items():
        monkeypatch.setattr(runner, name, stub)
    monkeypatch.setattr(sys, "argv", ["runner", "--preset", "quick", "--json"])

    runner.main()

    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["preset"] == "quick"
    assert report["figure7"] == {"jackson": {"accuracy_ratio": 1.0}, "roadway": {"accuracy_ratio": 1.0}}
    assert report["figure4"]["localized"] == {"bandwidth_reduction": 2.0}
    assert captured.err.count("\n") == 5  # one progress line per experiment
