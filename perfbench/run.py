"""Repository benchmark: one named workload, timed, checked, reported.

    python3 perfbench/run.py --workload flow-small --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
of the checkout this file sits in.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
operations and reports the per-layer metrics, writing the span tree to
``perfbench/results/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import os
import sys
import time

_STARTED = time.perf_counter()

#: BLAS/OpenMP threads of this process, fixed before numpy loads: outputs
#: do not depend on it, but wall times on a shared 2-core box spread less
#: at one thread.  Campaign workers get the same budget.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import bench_checks as checks  # noqa: E402
import bench_layers as layers  # noqa: E402

FLOW_CASES = {
    "flow-small": {"size": "small", "n_frequencies": 201, "n_poles": 12},
    "flow-large": {"size": "large", "n_frequencies": 121, "n_poles": 16},
}
#: Fit RMS against the data that every checked model must stay below;
#: the campaign's 6-pole fits of 41 points are coarser.
FLOW_RMS_BOUND = 0.01
CAMPAIGN_RMS_BOUND = 0.02
#: Relative spread of the total die current the seed draws on the flows.
#: Element values stay nominal: the enforcement's iteration count, and on
#: flow-large the low-band error, jump under 100 ppm changes of them (see
#: README), which would make the work per operation depend on the seed.
CURRENT_JITTER = 0.1
CAMPAIGN = "campaign-sweep"
WORKLOADS = (*FLOW_CASES, CAMPAIGN)
#: Scenarios of one campaign pass and the base of the sweep.
CAMPAIGN_BASE = {"size": "small", "n_frequencies": 41, "n_poles": 6,
                 "refinement_rounds": 1}
CAMPAIGN_SCENARIOS = 24
#: Store replays after each cold flow, and warm campaign passes after
#: each cold pass.  Both are short, and on a shared 2-core box the time
#: of a 10-60 ms replay flips between a fast and a slow speed every few
#: seconds, so a run's median follows the phase it happened to hit.  The
#: cached rates are taken from the fastest, over every operation of the
#: run (warm-up included: its replays find the process as warm as later
#: ones do).
REPLAYS = 60
WARM_PASSES = 5


def process_age_s() -> float:
    """Seconds since this process started (cold set-up time)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
        if 0.0 < age < 3600.0:
            return age
    except (OSError, ValueError, IndexError):
        pass
    return time.perf_counter() - _STARTED


def import_program():
    """Import ``repro`` from this checkout's ``src/``, or stop."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def flow_digest(result) -> str:
    return digest(*(
        part
        for _, attr in checks.FLOW_MODELS
        for part in checks.model_triple(getattr(result, attr).model)
    ))


# ----------------------------------------------------------------------
# Flow workloads
# ----------------------------------------------------------------------
class FlowWorkload:
    """One full ``run_flow`` per operation, then a replay from its store.

    The seed draws the total die current within ``CURRENT_JITTER`` of
    nominal.  It rescales the excitation, hence the reference impedance,
    the sensitivity and the weights, while relative errors stay the same
    in exact arithmetic; scattering data and standard fit do not depend
    on it.
    """

    #: Operations one call of :meth:`operation` attempts.
    size = 1

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        from repro.flow.macromodel import FlowOptions
        from repro.pdn import testcase
        from repro.vectfit.options import VFOptions

        case = FLOW_CASES[name]
        rng = np.random.default_rng(seed)
        self.die_current = float(1.0 + rng.uniform(-CURRENT_JITTER, CURRENT_JITTER))
        self.case = testcase.make_variant_testcase(
            case["size"], n_frequencies=case["n_frequencies"],
            total_die_current=self.die_current,
        )
        self.options = FlowOptions(vf=VFOptions(n_poles=case["n_poles"]))
        self.workdir = workdir
        self.ops = 0
        self.verdicts: dict[str, tuple] = {}
        self.first_digest: str | None = None
        self.checked: dict | None = None
        self.samples: dict[str, list] = {"flow_s": [], "replay_s": [], "lowband": []}

    def describe(self) -> dict:
        return {"total_die_current": self.die_current, "n_ports": self.case.data.n_ports,
                "n_frequencies": self.case.data.n_frequencies,
                "n_poles": self.options.vf.n_poles, "checked": self.checked}

    def operation(self) -> tuple[int, int, list[str]]:
        """Run one flow cold into a fresh stage store, then replay it.

        The first operation of a run warms the process up: it is checked
        and counted, but its cold flow stays out of the median.
        """
        from repro.flow import macromodel

        store = self.workdir / f"store-{self.ops}"
        timed = self.ops > 0
        self.ops += 1
        data, term, port = self.case.data, self.case.termination, self.case.observe_port
        started = time.perf_counter()
        result = macromodel.run_flow(data, term, port, self.options, store=store)
        cold = time.perf_counter() - started
        replays = []
        for _ in range(REPLAYS):
            started = time.perf_counter()
            replay = macromodel.run_flow(data, term, port, self.options, store=store)
            replays.append(time.perf_counter() - started)
        shutil.rmtree(store)
        self.samples["replay_s"].extend(replays)
        if timed:
            self.samples["flow_s"].append(cold)
        return self.size, 0, self.audit(result, replay)

    def audit(self, result, replay) -> list[str]:
        key = flow_digest(result)
        if self.first_digest is None:
            self.first_digest = key
        failures = []
        if key != self.first_digest:
            failures.append("equal inputs gave a different flow result")
        if flow_digest(replay) != key:
            failures.append("the store replay differs from the cold flow")
        if any(stage["status"] != "cached" for stage in replay.stage_provenance):
            failures.append("the store replay recomputed a stage")
        if key not in self.verdicts:
            self.verdicts[key] = checks.audit_flow(
                result, self.case.data, self.case.termination,
                self.case.observe_port, FLOW_RMS_BOUND,
            )
        found, self.checked = self.verdicts[key]
        self.samples["lowband"].append(self.checked["weighted_enforced"]["lowband"])
        return failures + found

    def metrics(self) -> dict:
        flow_s = statistics.median(self.samples["flow_s"])
        return {
            "flow_s": flow_s,
            "lowband_zerr_weighted": statistics.median(self.samples["lowband"]),
            "scenarios_per_s": 1.0 / flow_s,
            "cached_scenarios_per_s": 1.0 / min(self.samples["replay_s"]),
        }

    def traced_operation(self):
        """One operation inside an in-memory telemetry session."""
        from repro.obs import telemetry as obs

        base = time.time()
        session = obs.Telemetry(None, label="perfbench")
        with layers.traced(), obs.session(session):
            outcome = self.operation()
        part = layers.flow_layers(session.counters, session.span_totals,
                                  session.gauges, layers.eig_dims(session))
        return outcome, part, layers.obs_spans(session, base), 1


# ----------------------------------------------------------------------
# Campaign workload
# ----------------------------------------------------------------------
class CampaignWorkload:
    """A 24-scenario sweep: cold pass, warm passes from its cache, resume.

    The scenarios are fixed; the seed draws the order in which they are
    submitted to the pool.  Terminations are not drawn: even a changed
    die current flips the enforcement of a scenario now and then, and
    100 ppm changes of the elements moved the sweep's error by 20 %.
    """

    #: Scenario executions one call of :meth:`operation` attempts.
    size = (2 + WARM_PASSES) * CAMPAIGN_SCENARIOS

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        from repro.campaign import CampaignSpec, ScenarioSpec
        from repro.pdn import testcase

        axes = {
            "weight_mode": ["relative", "absolute"],
            "decap_c_scale": [0.5, 1.0, 2.0],
            "vrm_resistance": [1e-4, 1e-3],
            "total_die_current": [1.0, 2.0],
        }
        base = ScenarioSpec(name="bench", **CAMPAIGN_BASE)
        self.spec = CampaignSpec.from_axes("bench-sweep", base=base, axes=axes)
        expanded = self.spec.expand()
        self.order = [expanded[i] for i in np.random.default_rng(seed).permutation(len(expanded))]
        self.scenarios = {s.run_id: s for s in self.order}
        if len(self.scenarios) != CAMPAIGN_SCENARIOS:
            raise RuntimeError(f"sweep expanded to {len(self.scenarios)} scenarios")
        nominal = testcase.make_paper_testcase(
            base.size, n_frequencies=base.n_frequencies, include_dc=base.include_dc
        )
        self.data = nominal.data
        self.observe_port = nominal.observe_port
        self.terminations = {
            run_id: testcase.perturb_termination(
                nominal.termination,
                decap_c_scale=s.decap_c_scale, decap_esr_scale=s.decap_esr_scale,
                vrm_resistance=s.vrm_resistance, total_die_current=s.total_die_current,
            )
            for run_id, s in self.scenarios.items()
        }
        self.reference = {
            run_id: checks.target_impedance(
                self.data.samples, self.data.omega, term, self.observe_port, self.data.z0)
            for run_id, term in self.terminations.items()
        }
        self.jobs = min(2, os.cpu_count() or 1)
        self.workdir = workdir
        self.ops = 0
        self.verdicts: dict[str, tuple] = {}
        self.samples: dict[str, list] = {k: [] for k in (
            "cold_s", "warm_s", "resume_s", "flow_s", "lowband", "busy_s",
            "cache_hits", "cache_misses", "registry_bytes", "cache_bytes")}

    def describe(self) -> dict:
        return {"spec": self.spec.to_dict(), "jobs": self.jobs,
                "order": [s.name for s in self.order],
                "blas_threads_per_worker": BLAS_THREADS}

    def _pass(self, label: str, registry_dir: Path, cache_dir: Path, *,
              resume=False, telemetry=None):
        from repro.campaign import CampaignRegistry, run_campaign

        started, wall = time.perf_counter(), time.time()
        result = run_campaign(
            self.spec, scenarios=self.order, registry=CampaignRegistry(registry_dir),
            cache=str(cache_dir), jobs=self.jobs, resume=resume,
            blas_threads=BLAS_THREADS, telemetry_dir=str(telemetry) if telemetry else None,
        )
        seconds = time.perf_counter() - started
        layers.LOG.add(f"campaign.{label}", wall, wall + seconds)
        return result, seconds

    def operation(self, telemetry: Path | None = None):
        """Cold pass, warm passes into fresh registries, resume of the last.

        As for the flows, the cold pass of the first operation of a run is
        checked and counted but stays out of the medians.
        """
        root = self.workdir / f"campaign-{self.ops}"
        timed = self.ops > 0
        self.ops += 1
        cache = root / "cache"
        cold, cold_s = self._pass("cold", root / "cold", cache, telemetry=telemetry)
        warms = [self._pass("warm", root / f"warm-{i}", cache) for i in range(WARM_PASSES)]
        resumed, resume_s = self._pass(
            "resume", root / f"warm-{WARM_PASSES - 1}", cache, resume=True)
        self.cold_records = cold.records
        passes = [cold, *(warm for warm, _ in warms), resumed]
        n_ok = sum(r["status"] == "ok" for p in passes for r in p.records)
        failures = self.audit(root, cold, [warm for warm, _ in warms], resumed)
        s = self.samples
        s["warm_s"].extend(seconds for _, seconds in warms)
        if timed:
            ran = [r for r in cold.records if r["status"] == "ok" and not r["cache_hit"]]
            s["cold_s"].append(cold_s)
            s["resume_s"].append(resume_s)
            if ran:
                s["flow_s"].append(statistics.median(r["timings"]["flow_s"] for r in ran))
            s["busy_s"].append(sum(r["duration_s"] or 0.0 for r in cold.records))
            s["cache_hits"].append(sum(bool(r["cache_hit"]) for r in warms[0][0].records))
            s["cache_misses"].append(sum(not r["cache_hit"] for r in cold.records))
            s["registry_bytes"].append(tree_bytes(root / "cold"))
            s["cache_bytes"].append(tree_bytes(cache))
        shutil.rmtree(root)
        return self.size, self.size - n_ok, failures

    def audit(self, root: Path, cold, warms: list, resumed) -> list[str]:
        failures = []
        ok = {r["run_id"] for r in cold.records if r["status"] == "ok"}
        if any(r["cache_hit"] for r in cold.records):
            failures.append("cold pass: a scenario was served from an empty cache")
        for warm in warms:
            if not all(r["cache_hit"] for r in warm.records if r["run_id"] in ok):
                failures.append("warm pass: a scenario that ran cold missed the cache")
        if not all(r.get("resumed") for r in resumed.records if r["run_id"] in ok):
            failures.append("resume pass: a scenario that ran cold was not resumed")
        lowbands = []
        for run_id in sorted(ok):
            stored = [root / name / "runs" / run_id / "model.json"
                      for name in ("cold", *(f"warm-{i}" for i in range(len(warms))))]
            if not all(path.is_file() for path in stored):
                failures.append(f"{run_id}: stored model missing")
                continue
            triple = checks.load_model_json(stored[0])
            if any(digest(*checks.load_model_json(path)) != digest(*triple)
                   for path in stored[1:]):
                failures.append(f"{run_id}: a warm model differs from the cold one")
            found, lowband = self._audit_model(run_id, triple, cold.records)
            failures.extend(found)
            lowbands.append(lowband)
        if lowbands:
            self.samples["lowband"].append(statistics.geometric_mean(lowbands))
        return failures

    def _audit_model(self, run_id: str, triple, records) -> tuple[list[str], float]:
        key = run_id + digest(*triple)
        if key not in self.verdicts:
            data, term = self.data, self.terminations[run_id]
            verdict = checks.passivity_test(triple, data.omega)
            lowband = checks.lowband_error(triple, data.omega, self.reference[run_id],
                                           term, self.observe_port, data.z0)
            rms = checks.rms_error(triple, data.omega, data.samples)
            reported = next(r["metrics"] for r in records if r["run_id"] == run_id)
            found = []
            if not verdict.ok:
                found.append(
                    f"{run_id}: stored model not certified by the independent test ({verdict})")
            if not rms < CAMPAIGN_RMS_BOUND:
                found.append(f"{run_id}: fit RMS {rms:.3e} >= {CAMPAIGN_RMS_BOUND}")
            program = reported["low_band_rel_impedance_weighted_cost"]
            if abs(lowband - program) > checks.ACCURACY_RTOL * abs(lowband):
                found.append(f"{run_id}: low-band error {lowband:.9g} recomputed, "
                             f"{program:.9g} reported")
            self.verdicts[key] = (found, lowband)
        return self.verdicts[key]

    def metrics(self) -> dict:
        s = self.samples
        return {
            "flow_s": statistics.median(s["flow_s"]),
            "lowband_zerr_weighted": statistics.median(s["lowband"]),
            "scenarios_per_s": CAMPAIGN_SCENARIOS / statistics.median(s["cold_s"]),
            "cached_scenarios_per_s": CAMPAIGN_SCENARIOS / min(s["warm_s"]),
        }

    def campaign_layers(self) -> dict:
        s = self.samples
        cold = statistics.median(s["cold_s"])
        busy = statistics.median(s["busy_s"])
        return {
            "campaign.cold_s": cold,
            "campaign.worker_busy_s": busy,
            "campaign.dispatch_idle_s": self.jobs * cold - busy,
            "campaign.warm_s": statistics.median(s["warm_s"]),
            "campaign.resume_s": statistics.median(s["resume_s"]),
            "campaign.cache_hits": statistics.median(s["cache_hits"]),
            "campaign.cache_misses": statistics.median(s["cache_misses"]),
            "campaign.registry_bytes": statistics.median(s["registry_bytes"]),
            "campaign.cache_bytes": statistics.median(s["cache_bytes"]),
        }

    def traced_operation(self):
        """One operation with wrappers and worker telemetry sessions on."""
        telemetry = self.workdir / f"telemetry-{self.ops}"
        with layers.traced():
            outcome = self.operation(telemetry=telemetry)
        shutil.rmtree(telemetry, ignore_errors=True)
        part: dict = {}
        flows = 0
        for record in self.cold_records:
            snapshot = record.get("telemetry") or {}
            if record.get("cache_hit") or not snapshot:
                continue
            flows += 1
            layers.add_layers(part, layers.flow_layers(
                snapshot.get("counters", {}), snapshot.get("spans", {}),
                snapshot.get("gauges", {})))
        return outcome, part, [], flows


# ----------------------------------------------------------------------
# Measurement loop and report
# ----------------------------------------------------------------------
CAMPAIGN_LAYER_NAMES = (
    "campaign.cold_s", "campaign.worker_busy_s", "campaign.dispatch_idle_s",
    "campaign.warm_s", "campaign.resume_s", "campaign.cache_hits",
    "campaign.cache_misses", "campaign.registry_bytes", "campaign.cache_bytes",
)


class Tally:
    """Operations attempted and failed, failed checks, traced-run numbers."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.layer_total: dict = {}
        self.layer_flows = 0
        self.spans: list[dict] = []
        self.walls: dict[str, list] = {"untraced": [], "traced": []}


def measure(workload, seconds: float, trace: bool) -> Tally:
    """Whole rounds until ``seconds`` have passed, and at least two.

    A round is one operation, or with tracing an untraced and a traced
    one, so the traced run also prices the tracing.  The first operation
    only warms up (see the workloads' ``operation``).
    """
    tally = Tally()
    rounds = 0
    started = time.perf_counter()
    while True:
        for traced in ((False, True) if trace else (False,)):
            t0, w0 = time.perf_counter(), time.time()
            try:
                if traced:
                    outcome, part, spans, flows = workload.traced_operation()
                    layers.add_layers(tally.layer_total, part)
                    tally.layer_flows += flows
                    tally.spans.extend(spans)
                else:
                    outcome = workload.operation()
            except Exception as exc:  # noqa: BLE001 -- counted as failed
                print(f"FAILED OPERATION: {exc!r}")
                outcome = (workload.size, workload.size, [])
            wall = time.perf_counter() - t0
            if traced:
                tally.spans.append({"name": "op", "start": w0, "end": w0 + wall})
            tally.walls["traced" if traced else "untraced"].append(wall)
            tally.attempted += outcome[0]
            tally.failed += outcome[1]
            tally.failures.extend(outcome[2])
        rounds += 1
        if rounds >= 2 and time.perf_counter() - started >= seconds:
            return tally


def layer_metrics(workload, setup_spans: list[dict], tally: Tally) -> dict:
    """Per-layer metrics of a traced run (per flow, or per campaign pass)."""
    metrics = {"pdn.testcase_s": sum(
        s["end"] - s["start"] for s in setup_spans
        if s["name"] == "pdn.testcase" and s["outermost"])}
    metrics.update(layers.per_flow(tally.layer_total, tally.layer_flows))
    if isinstance(workload, CampaignWorkload):
        metrics.update(workload.campaign_layers())
    else:
        metrics.update({name: 0.0 for name in CAMPAIGN_LAYER_NAMES})
    metrics["obs.tracing_overhead_s"] = (
        statistics.median(tally.walls["traced"])
        - statistics.median(tally.walls["untraced"][1:]))
    return metrics


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one section of ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in declared[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    trace = bool(args.trace)
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        kind = CampaignWorkload if args.workload == CAMPAIGN else FlowWorkload
        if trace:
            with layers.traced():
                workload = kind(args.workload, args.seed, workdir)
        else:
            workload = kind(args.workload, args.seed, workdir)
        setup_s = process_age_s()
        setup_spans = list(layers.LOG.spans)
        tally = measure(workload, args.seconds, trace)
        if trace:
            values = layer_metrics(workload, setup_spans, tally)
        else:
            values = dict(setup_s=setup_s, **workload.metrics(), peak_rss_mb=peak_rss_mb())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / ".work").rmdir()

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": BLAS_THREADS,
        "inputs": workload.describe(), "op_walls_s": tally.walls,
        "samples": workload.samples,
        "failures": tally.failures[:50], "metrics": values,
    }
    if trace:
        report["spans"], report["span_tree"] = layers.span_tree(
            [*layers.LOG.spans, *tally.spans])
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if trace else ''}.json"
    (results / name).write_text(json.dumps(report, indent=1), encoding="utf-8")
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(units) != set(values):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json declares {sorted(units)}")
    for line in tally.failures[:20]:
        print(f"FAILED CHECK: {line}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
