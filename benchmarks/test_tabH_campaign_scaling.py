"""Table H: campaign engine scaling -- serial vs parallel, cache, resume.

Runs a 24-scenario sweep (2 weight modes x 3 decap scalings x 2 VRM
resistances x 2 switching currents) end-to-end through the ``repro
campaign`` CLI, then re-runs it to measure what the batch engine buys:

* ``cold``      -- first `repro campaign --jobs N` invocation;
* ``resume``    -- identical invocation with ``--resume`` (registry skip);
* ``cache``     -- fresh registry, warm content-addressed cache;
* ``serial-8`` / ``parallel-8`` -- an 8-scenario subset executed cold with
  1 and 2 workers to measure raw pool speedup.

Acceptance: the resumed and cache-served invocations must be >= 5x faster
than the cold campaign, and -- on machines with at least two cores -- the
2-worker pool must beat serial execution by > 1.3x.  The pool assert
became meaningful once workers started capping their BLAS thread pools
(``cpu_count // jobs`` each): before the cap, every worker's BLAS spawned
one thread per core and the oversubscription ate the entire pool win
(0.98x measured for 8 scenarios / 2 workers on the PR-2 engine).  The
records double-check that the cap was applied and recorded.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.campaign import (
    CampaignRegistry,
    CampaignSpec,
    ScenarioSpec,
    run_campaign,
    save_campaign,
)
from repro.cli import main

from benchmarks.conftest import emit, save_series

_SPEEDUP_FLOOR = 5.0
_POOL_SPEEDUP_FLOOR = 1.3
_JOBS = 2

_BASE = ScenarioSpec(
    name="tabH",
    size="small",
    n_frequencies=41,
    include_dc=False,
    n_poles=6,
    refinement_rounds=1,
    weight_model_order=4,
    enforcement_max_iterations=15,
)

_AXES = {
    "weight_mode": ["relative", "absolute"],
    "decap_c_scale": [0.5, 1.0, 2.0],
    "vrm_resistance": [1e-4, 1e-3],
    "total_die_current": [1.0, 2.0],
}


def _manifest_counts(registry_dir) -> dict:
    manifest = json.loads(
        (registry_dir / "manifest.json").read_text(encoding="utf-8")
    )
    runs = manifest["runs"]
    return {
        "n_runs": len(runs),
        "ok": sum(1 for r in runs if r["status"] == "ok"),
        "failed": sum(1 for r in runs if r["status"] == "failed"),
        "cache_hits": sum(1 for r in runs if r.get("cache_hit")),
        "resumed": sum(1 for r in runs if r.get("resumed")),
    }


def _timed_cli(argv) -> float:
    started = time.perf_counter()
    assert main(argv) == 0
    return time.perf_counter() - started


def test_tabH_campaign_scaling(timing_artifacts_dir, tmp_path):
    spec = CampaignSpec.from_axes("tabH", _BASE, _AXES)
    n_scenarios = len(spec.expand())
    assert n_scenarios == 24  # the 20+-scenario acceptance bar

    spec_path = tmp_path / "tabH.json"
    save_campaign(spec, spec_path)
    out_dir = tmp_path / "campaigns"
    cache_dir = tmp_path / "cache"
    argv = [
        "campaign", str(spec_path),
        "--jobs", str(_JOBS),
        "--output-dir", str(out_dir),
        "--cache-dir", str(cache_dir),
    ]

    phases: list[tuple[str, float, dict]] = []

    # Cold end-to-end run through the CLI.
    t_cold = _timed_cli(argv)
    counts = _manifest_counts(out_dir / "tabH")
    assert counts["ok"] == n_scenarios and counts["failed"] == 0
    phases.append(("cold", t_cold, counts))

    # Second invocation with --resume: registry-level skip.
    t_resume = _timed_cli(argv + ["--resume"])
    counts = _manifest_counts(out_dir / "tabH")
    assert counts["resumed"] == n_scenarios
    phases.append(("resume", t_resume, counts))

    # Fresh registry, warm cache: every flow served content-addressed.
    t_cache = _timed_cli(
        [
            "campaign", str(spec_path),
            "--jobs", "1",
            "--output-dir", str(tmp_path / "campaigns2"),
            "--cache-dir", str(cache_dir),
        ]
    )
    counts = _manifest_counts(tmp_path / "campaigns2" / "tabH")
    assert counts["cache_hits"] == n_scenarios
    phases.append(("cache", t_cache, counts))

    # Serial vs parallel on a cold 8-scenario subset (separate caches).
    sub = CampaignSpec.from_axes(
        "tabH-sub", _BASE,
        {"weight_mode": ["relative", "absolute"],
         "decap_c_scale": [0.5, 1.0],
         "vrm_resistance": [1e-4, 1e-3]},
    )
    started = time.perf_counter()
    serial = run_campaign(
        sub, registry=CampaignRegistry(tmp_path / "serial8"),
        cache=tmp_path / "cacheS", jobs=1,
    )
    t_serial8 = time.perf_counter() - started
    assert serial.n_ok == 8
    phases.append(
        ("serial-8", t_serial8,
         {"n_runs": 8, "ok": 8, "failed": 0, "cache_hits": 0, "resumed": 0})
    )
    started = time.perf_counter()
    parallel = run_campaign(
        sub, registry=CampaignRegistry(tmp_path / "parallel8"),
        cache=tmp_path / "cacheP", jobs=_JOBS,
    )
    t_parallel8 = time.perf_counter() - started
    assert parallel.n_ok == 8
    phases.append(
        ("parallel-8", t_parallel8,
         {"n_runs": 8, "ok": 8, "failed": 0, "cache_hits": 0, "resumed": 0})
    )

    # Thread budgeting is recorded per run: serial workers are uncapped,
    # pooled workers run under an explicit BLAS thread budget.
    serial_env = serial.records[0]["environment"]
    parallel_env = parallel.records[0]["environment"]
    assert serial_env["blas_thread_limit"] is None
    assert parallel_env["blas_thread_limit"] >= 1
    assert parallel_env["blas_limit_method"] in (
        "threadpoolctl", "ctypes-openblas", "env-only"
    )

    resume_speedup = t_cold / max(t_resume, 1e-9)
    cache_speedup = t_cold / max(t_cache, 1e-9)
    pool_speedup = t_serial8 / max(t_parallel8, 1e-9)

    save_series(
        timing_artifacts_dir / "tabH_campaign_scaling.csv",
        ["phase_index", "n_runs", "wall_s", "ok", "failed",
         "cache_hits", "resumed"],
        [
            np.arange(len(phases), dtype=float),
            np.array([c["n_runs"] for _, _, c in phases], dtype=float),
            np.array([t for _, t, _ in phases]),
            np.array([c["ok"] for _, _, c in phases], dtype=float),
            np.array([c["failed"] for _, _, c in phases], dtype=float),
            np.array([c["cache_hits"] for _, _, c in phases], dtype=float),
            np.array([c["resumed"] for _, _, c in phases], dtype=float),
        ],
    )

    lines = [
        "Table H: campaign scaling "
        f"({n_scenarios} scenarios, {_JOBS} workers)",
        f"{'phase':<12s} {'runs':>5s} {'wall[s]':>9s} {'ok':>4s} "
        f"{'hits':>5s} {'resumed':>8s}",
    ]
    lines.append("-" * len(lines[-1]))
    for label, wall, counts in phases:
        lines.append(
            f"{label:<12s} {counts['n_runs']:>5d} {wall:>9.2f} "
            f"{counts['ok']:>4d} {counts['cache_hits']:>5d} "
            f"{counts['resumed']:>8d}"
        )
    cores = os.cpu_count() or 1
    pool_asserted = cores >= 2 and not os.environ.get(
        "REPRO_SKIP_PERF_ASSERTS"
    )
    lines += [
        "",
        f"resume speedup : {resume_speedup:8.1f}x  (floor {_SPEEDUP_FLOOR}x)",
        f"cache speedup  : {cache_speedup:8.1f}x  (floor {_SPEEDUP_FLOOR}x)",
        f"pool speedup   : {pool_speedup:8.2f}x  "
        f"(8 scenarios, {_JOBS} workers, "
        f"blas budget {parallel_env['blas_thread_limit']} "
        f"via {parallel_env['blas_limit_method']}, {cores} core(s), "
        + (f"floor {_POOL_SPEEDUP_FLOOR}x)" if pool_asserted
           else "informational on this machine)"),
    ]
    emit(timing_artifacts_dir / "tabH_summary.txt", "\n".join(lines))

    assert resume_speedup >= _SPEEDUP_FLOOR
    assert cache_speedup >= _SPEEDUP_FLOOR
    if pool_asserted:
        assert pool_speedup > _POOL_SPEEDUP_FLOOR
