"""repro.campaign: parallel scenario-sweep orchestration.

Turns the single-shot :func:`repro.flow.macromodel.run_flow` into a
batch engine:

* :mod:`repro.campaign.scenario` -- declarative scenario/campaign specs
  with Cartesian grid expansion and JSON persistence;
* :mod:`repro.campaign.executor` -- process-parallel execution with
  failure isolation and deterministic run IDs; whole runs are cached in
  the content-addressed :class:`~repro.api.artifacts.ArtifactStore`, so
  re-running a campaign skips already-computed flows;
* :mod:`repro.campaign.registry` -- on-disk result store (manifests,
  model artifacts, query/aggregation helpers);
* :mod:`repro.campaign.report` -- campaign-level accuracy/passivity
  summary tables.
"""

from repro.campaign.executor import (
    CampaignResult,
    default_blas_threads,
    default_jobs,
    execute_scenario,
    limit_blas_threads,
    run_campaign,
)
from repro.campaign.registry import CampaignRegistry, worst_by_group
from repro.campaign.report import campaign_report, campaign_table
from repro.campaign.scenario import (
    CampaignSpec,
    ScenarioSpec,
    filter_scenarios,
    load_campaign,
    save_campaign,
    slugify,
)

__all__ = [
    "CampaignResult",
    "default_blas_threads",
    "default_jobs",
    "execute_scenario",
    "limit_blas_threads",
    "run_campaign",
    "CampaignRegistry",
    "worst_by_group",
    "campaign_report",
    "campaign_table",
    "CampaignSpec",
    "ScenarioSpec",
    "filter_scenarios",
    "load_campaign",
    "save_campaign",
    "slugify",
]
