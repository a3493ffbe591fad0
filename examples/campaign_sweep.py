"""Campaign sweep: characterize a fleet of PDN loading scenarios at once.

Where the other examples run the sensitivity-weighted flow on *one* PDN,
this one asks the fleet-level question of power-integrity practice: across
decap stuffing options, VRM regulation states and both weighting modes,
how bad does the loaded-impedance error get, and does the sensitivity
weighting keep its edge everywhere?

The sweep expands to 24 scenarios (2 weight modes x 3 decap scalings x
2 VRM resistances x 2 switching currents), runs them through a process
pool with content-addressed caching, then re-runs the campaign to show
that a resumed/cached invocation is nearly free.

Run:  python examples/campaign_sweep.py        (headless, ~a minute)
"""

import logging
import shutil
import time
from pathlib import Path

from repro.campaign import (
    CampaignRegistry,
    CampaignSpec,
    ScenarioSpec,
    campaign_report,
    default_jobs,
    run_campaign,
    worst_by_group,
)
from repro.util.logging import enable_console_logging


def main():
    enable_console_logging(logging.INFO)
    out = Path("campaign_sweep_out")
    if out.exists():
        shutil.rmtree(out)

    # Coarse-but-representative flow settings keep each run ~1 s so the
    # 24-scenario sweep finishes quickly; bump n_frequencies/n_poles for
    # paper-grade accuracy.
    base = ScenarioSpec(
        name="pdn",
        size="small",
        n_frequencies=61,
        include_dc=False,
        n_poles=8,
        refinement_rounds=1,
        weight_model_order=4,
    )
    spec = CampaignSpec.from_axes(
        "sweep",
        base,
        {
            "weight_mode": ["relative", "absolute"],
            "decap_c_scale": [0.5, 1.0, 2.0],
            "vrm_resistance": [1e-4, 1e-3],
            "total_die_current": [1.0, 2.0],
        },
    )
    scenarios = spec.expand()
    print(f"campaign {spec.name!r}: {len(scenarios)} scenarios, "
          f"{default_jobs()} workers\n")

    registry = CampaignRegistry(out / "registry")
    cache = out / "cache"

    started = time.perf_counter()
    result = run_campaign(spec, registry=registry, cache=cache,
                          jobs=default_jobs())
    cold_s = time.perf_counter() - started
    print()
    print(campaign_report(result))

    # Second invocation: the registry already holds every run, so --resume
    # semantics skip straight to the stored records.
    started = time.perf_counter()
    resumed = run_campaign(spec, registry=registry, cache=cache,
                           jobs=default_jobs(), resume=True)
    resume_s = time.perf_counter() - started
    print(f"\ncold run : {cold_s:6.2f} s")
    print(f"resume   : {resume_s:6.2f} s "
          f"({resumed.n_resumed} runs resumed, "
          f"{cold_s / max(resume_s, 1e-9):.0f}x faster)")

    worst = worst_by_group(result.records, "weight_mode",
                           "low_band_rel_impedance_weighted_cost")
    print("\nFleet verdict (worst low-band relZ error of the "
          "weighted-cost passive model):")
    for mode, entry in sorted(worst.items()):
        print(f"  {mode:<9s} {entry['value']:8.4f}  ({entry['run_id']})")
    print("\nArtifacts under", out)


if __name__ == "__main__":
    main()
