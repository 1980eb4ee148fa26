"""Smoke tests for the scripts under experiments/."""

import importlib.util
from pathlib import Path

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, EXPERIMENTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_detection_reports_each_gadget(capsys):
    fd = _load("first_detection")
    assert fd.main(["--gadgets", "1", "11", "13", "--sessions", "2",
                    "--runs", "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines[:3]] == [
        ["g01", "found", "2/2"], ["g11", "found", "2/2"], ["g13", "found", "2/2"]]
    assert lines[-1] == "0 of 6 sessions found nothing"
    # A session too short to reach the leak says so.
    assert fd.first_detection(11, 0, 1) is None
    assert "not-found" in fd.summarize(11, [None, 5])
