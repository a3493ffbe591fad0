"""Pipeline API: embed the engine, insert a custom stage, swap a variant.

Three things the composable pipeline engine (:mod:`repro.api`) gives you
beyond the fixed chain of :func:`repro.flow.run_flow`:

1. **Embedding with per-stage caching** -- seed a
   :func:`~repro.api.pipeline.standard_pipeline` with in-memory data and
   point it at a content-addressed :class:`~repro.api.ArtifactStore`;
   re-runs (and any other pipeline sharing the store) resume from stored
   stage results.
2. **Custom stage insertion** -- a ``WeightBoostAuditStage`` rides
   between the weighting and enforcement stages, consuming the weight
   artifacts and publishing a new ``weight_stats`` artifact, without
   touching any stock stage.
3. **Variant stages** -- a ``SmoothedWeightingStage`` subclass overrides
   just the weighting law (moving-average smoothing of the sensitivity
   weights); the store recognises that the data and the upstream stages
   are unchanged, so the standard fit and sensitivity stages are cache
   hits and only weighting/enforcement/validation recompute.

Run:  python examples/pipeline_api.py
"""

import tempfile

import numpy as np

from repro import make_paper_testcase
from repro.api import (
    ArtifactSpec,
    ArtifactStore,
    PipelineStage,
    ReproConfig,
    WeightingStage,
    standard_pipeline,
)
from repro.flow.macromodel import FlowOptions
from repro.vectfit.options import VFOptions


class WeightBoostAuditStage(PipelineStage):
    """Custom stage: how much did refinement boost the weights, and where?"""

    name = "weight_audit"
    inputs = (
        ArtifactSpec("network", description="for the frequency grid"),
        ArtifactSpec("base_weights", np.ndarray),
        ArtifactSpec("final_weights", np.ndarray),
    )
    outputs = (ArtifactSpec("weight_stats", dict),)

    def run(self, config, inputs):
        boost = inputs["final_weights"] / inputs["base_weights"]
        peak = int(np.argmax(boost))
        return {
            "weight_stats": {
                "max_boost": float(boost[peak]),
                "max_boost_hz": float(inputs["network"].frequencies[peak]),
                "mean_boost": float(np.mean(boost)),
            }
        }


class SmoothedWeightingStage(WeightingStage):
    """Variant weighting law: 5-point moving average of the base weights.

    Overriding :meth:`base_weights` is enough -- the weighted fit, the
    refinement loop and the Xi~ model all come from the stock stage.
    Store entries can never collide with the stock stage's (the concrete
    class is part of every stage cache key); the bumped ``version``
    additionally marks revisions of *this* stage's own numerics.
    """

    version = "smoothed-1"

    def base_weights(self, config, data, xi, reference):
        base = super().base_weights(config, data, xi, reference)
        kernel = np.ones(5) / 5.0
        padded = np.pad(base, 2, mode="edge")
        return np.maximum(
            np.convolve(padded, kernel, mode="valid"),
            config.flow.weight_floor,
        )


def describe(label, run):
    print(f"\n[{label}]")
    for record in run.provenance():
        print(
            f"  {record['stage']:<14s} {record['status']:<9s}"
            f" {record['seconds']:7.3f}s"
        )


def main():
    testcase = make_paper_testcase(n_frequencies=61, include_dc=False)
    config = ReproConfig(
        flow=FlowOptions(vf=VFOptions(n_poles=8), refinement_rounds=1)
    )
    seed = {
        "network": testcase.data,
        "termination": testcase.termination,
        "observe_port": testcase.observe_port,
    }
    store = ArtifactStore(tempfile.mkdtemp(prefix="repro-stages-"))

    # 1. The stock flow, with the audit stage inserted mid-chain.
    pipeline = standard_pipeline(store=store).with_stage(
        WeightBoostAuditStage(), after="weighting"
    )
    print("stage graph:")
    print(pipeline.describe())
    run = pipeline.run(config, seed=dict(seed))
    describe("stock weighting + audit stage", run)
    stats = run["weight_stats"]
    print(
        f"  refinement boosted weights up to {stats['max_boost']:.2f}x "
        f"(at {stats['max_boost_hz']:.3g} Hz)"
    )

    # 2. The smoothed-weighting variant over the same store: upstream
    #    stages (standard fit, sensitivity) are served from the store.
    variant = pipeline.replace_stage("weighting", SmoothedWeightingStage())
    variant_run = variant.run(config, seed=dict(seed))
    describe("smoothed weighting variant", variant_run)

    stock = run["headline_metrics"]
    smooth = variant_run["headline_metrics"]
    print("\nmax rel Z error (weighted cost):")
    print(f"  stock weighting    : {stock['max_rel_impedance_weighted_cost']:.4f}")
    print(f"  smoothed weighting : {smooth['max_rel_impedance_weighted_cost']:.4f}")

    cached = [e.stage for e in variant_run.executions if e.status == "cached"]
    print(f"store-served stages on the variant run: {', '.join(cached)}")


if __name__ == "__main__":
    main()
