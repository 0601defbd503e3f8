"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one artefact of the paper's evaluation
section.  Each one

* runs the relevant pipeline under ``pytest-benchmark`` (so regressions
  in the *simulator's own* speed are tracked),
* prints the table/series the paper reports (the modelled GPU/CPU
  numbers), and
* writes the rendered table to ``benchmarks/reports/`` so the artefacts
  survive the run.

Wall-clock benchmarks differ on every run, so their tables and JSON
results go to the untracked ``benchmarks/out/`` instead (``publish_run``);
the tracked reports hold only the deterministic, modelled tables.
"""

import json
import pathlib

import pytest

REPORT_DIR = pathlib.Path(__file__).parent / "reports"
RUN_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def report_dir():
    REPORT_DIR.mkdir(exist_ok=True)
    return REPORT_DIR


@pytest.fixture(scope="session")
def publish(report_dir):
    """Print a rendered table and persist it under benchmarks/reports/."""

    def _publish(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (report_dir / f"{name}.txt").write_text(text + "\n")

    return _publish


@pytest.fixture(scope="session")
def publish_run():
    """Print a wall-clock table; write it and ``BENCH_<name>.json`` under
    benchmarks/out/."""

    def _publish(name: str, text: str, payload: dict) -> None:
        print(f"\n{text}\n")
        RUN_DIR.mkdir(exist_ok=True)
        (RUN_DIR / f"{name}.txt").write_text(text + "\n")
        (RUN_DIR / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2, default=str) + "\n")

    return _publish
