"""Benchmark fixtures: the flow pipeline runs once per session; each bench
regenerates one paper figure/table from the shared results and saves its
series as CSV under benchmarks/artifacts/ (wall-clock tables under the
git-ignored benchmarks/artifacts/timing/).  The shared flow and tabI's
large case run with the BLAS thread count their golden values
(tests/data/golden/enforcement.json) were recorded at."""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import FlowOptions, make_paper_testcase, run_flow
from repro.campaign import limit_blas_threads

ARTIFACTS = Path(__file__).parent / "artifacts"
GOLDEN = json.loads(
    (Path(__file__).parent.parent / "tests/data/golden/enforcement.json")
    .read_text(encoding="utf-8")
)


@contextlib.contextmanager
def golden_blas_threads():
    """Pin this process's BLAS threads to the golden values' count, then
    restore the previous count and environment."""
    saved = dict(os.environ)
    previous = int(saved.get("OPENBLAS_NUM_THREADS") or os.cpu_count() or 1)
    limit_blas_threads(GOLDEN["blas_threads"])
    try:
        yield
    finally:
        limit_blas_threads(previous)
        os.environ.clear()
        os.environ.update(saved)


@pytest.fixture(scope="session")
def artifacts_dir():
    ARTIFACTS.mkdir(exist_ok=True)
    return ARTIFACTS


@pytest.fixture(scope="session")
def timing_artifacts_dir(artifacts_dir):
    """Outputs that record wall-clock times: every run rewrites them, so
    the directory is git-ignored (CI uploads it with the rest)."""
    path = artifacts_dir / "timing"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def testcase():
    return make_paper_testcase()


@pytest.fixture(scope="session")
def flow_options():
    return FlowOptions()


@pytest.fixture(scope="session")
def flow_result(flow_options, testcase):
    with golden_blas_threads():
        return run_flow(
            testcase.data, testcase.termination, testcase.observe_port,
            flow_options,
        )


def save_series(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write aligned columns as CSV (the figure's data series)."""
    table = np.column_stack([np.asarray(c) for c in columns])
    np.savetxt(path, table, delimiter=",", header=",".join(header), comments="")


def emit(path: Path, text: str) -> None:
    """Print a result table and persist it next to the CSV artifacts."""
    print(text)
    path.write_text(text + "\n", encoding="utf-8")
