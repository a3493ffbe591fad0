"""Command-line interface.

Four subcommands cover the practical workflow:

``testcase``
    Generate the canonical synthetic PDN: Touchstone data + termination
    spec, ready for the other commands.

``fit``
    Vector fit of any Touchstone file (external solver/VNA exports
    included): data is conditioned through :mod:`repro.ingest` first
    (grid repair, band selection, renormalization, ...), then plain-fit;
    with ``--termination`` the full sensitivity-weighted flow runs
    instead, so ``repro fit board.s4p --termination "*=r(50)"`` takes an
    arbitrary multiport straight to a passive weighted macromodel.

``flow``
    The full paper pipeline on a Touchstone file + termination spec
    (JSON file or compact inline spec): sensitivity, weighted fit, both
    passivity enforcements, accuracy report, passive model JSON, CSV
    series for plotting, and a ``flow_summary.json`` with per-stage wall
    times and cache provenance.

``campaign``
    Batch engine: expand a campaign spec (JSON) into a scenario grid, run
    the flow on every scenario in parallel with content-addressed caching,
    and write a result registry plus summary report.

``trace``
    Render the telemetry of a completed run (``--telemetry DIR`` on
    ``fit``/``flow``/``campaign`` records it): solver convergence
    trajectories, per-stage/per-kernel time breakdowns, cache hit/miss
    counters, and campaign rollups.

Every subcommand executes through the composable pipeline engine of
:mod:`repro.api`; the ingest/termination flags are registered once on
shared parent parsers, so ``fit``, ``flow`` and ``campaign`` can never
drift apart on a flag name or default (``campaign`` applies them as
overrides to its external-data scenarios).

Global ``--verbose``/``--quiet`` flags control the package-wide structured
logging (workers included); primary results still go to stdout.

Examples
--------
::

    python -m repro testcase --size small --output-dir case/
    python -m repro fit case/pdn.s9p --poles 12 --output-dir fit/
    python -m repro flow case/pdn.s9p --termination case/termination.json \\
        --observe-port 0 --output-dir flow/
    python -m repro -v campaign sweep.json --jobs 4 --output-dir campaigns/
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from repro.api import (
    ConsoleObserver,
    Pipeline,
    ReproConfig,
    StandardFitStage,
    ValidationOptions,
)
from repro.flow.macromodel import FlowOptions, run_flow
from repro.flow.metrics import impedance_error_report
from repro.ingest import ConditioningOptions, build_termination, load_network
from repro.passivity.check import check_passivity
from repro.passivity.enforce import EnforcementOptions, EnforcementResult
from repro.pdn.spec import save_termination
from repro.pdn.testcase import make_paper_testcase
from repro.sensitivity.zpdn import target_impedance_of_model
from repro.sparams.touchstone import write_touchstone
from repro.statespace.serialization import save_model
from repro.util.logging import enable_console_logging
from repro.vectfit.options import VFOptions


def _cmd_testcase(args: argparse.Namespace) -> int:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    testcase = make_paper_testcase(size=args.size)
    data_path = out / f"pdn.s{testcase.data.n_ports}p"
    write_touchstone(testcase.data, data_path)
    save_termination(testcase.termination, out / "termination.json")
    (out / "README.txt").write_text(testcase.summary() + "\n", encoding="utf-8")
    print(f"wrote {data_path}")
    print(f"wrote {out / 'termination.json'}")
    print(f"observation port: {testcase.observe_port}")
    return 0


def _conditioning_options(args: argparse.Namespace) -> ConditioningOptions:
    """Map the shared ingest flags to a conditioning configuration."""
    return ConditioningOptions(
        z0=args.z0,
        dc_policy="drop" if args.drop_dc else "keep",
        f_min=args.f_min,
        f_max=args.f_max,
        max_points=args.max_points,
        symmetrize=args.symmetrize if args.symmetrize is not None else "auto",
    )


def _flow_options(args: argparse.Namespace) -> FlowOptions:
    """Flow configuration from CLI flags.

    Both the ``fit`` and ``flow`` subcommands register the full flag set
    through :func:`_flow_parent`, so argparse owns every default exactly
    once.
    """
    return FlowOptions(
        vf=VFOptions(
            n_poles=args.poles,
            dc_exact=args.dc_exact,
            kernel=args.kernel,
        ),
        weight_mode=args.weight_mode,
        refinement_rounds=args.refinement_rounds,
        weight_model_order=args.weight_order,
        enforcement=EnforcementOptions(
            checker_strategy=_checker_strategy(args),
            exact_every=args.exact_every,
        ),
    )


def _repro_config(args: argparse.Namespace) -> ReproConfig:
    """The unified pipeline configuration described by the parsed flags."""
    return ReproConfig(
        flow=_flow_options(args),
        ingest=_conditioning_options(args),
        validation=ValidationOptions(low_band_hz=args.low_band_hz),
    )


def _observers(args: argparse.Namespace) -> list:
    """Pipeline event observers implied by the flags (``--profile``)."""
    # Stream explicitly to stdout: the observer's logger default is for
    # library embedders; --profile output must not need logging setup.
    return (
        [ConsoleObserver(sys.stdout)] if getattr(args, "profile", False)
        else []
    )


def _with_telemetry(args: argparse.Namespace, label: str, func) -> int:
    """Run ``func(args)`` inside a telemetry session when --telemetry is set."""
    directory = getattr(args, "telemetry", None)
    if directory is None:
        return func(args)
    from repro.obs import telemetry_session

    with telemetry_session(directory, label=label, kind="flow"):
        code = func(args)
    print(f"telemetry     : {Path(directory) / 'run_metrics.json'}")
    return code


def _observe_port(args: argparse.Namespace) -> int:
    """Shared --observe-port flag with the fit/flow default of port 0."""
    return args.observe_port if args.observe_port is not None else 0


def _run_flow_outputs(args: argparse.Namespace, data, termination, out: Path) -> int:
    """Run the full pipeline and write the flow artifact set to ``out``."""
    observe_port = _observe_port(args)
    result = run_flow(
        data, termination, observe_port, _repro_config(args),
        observers=_observers(args),
    )

    if args.profile:
        print(_enforcement_profile("standard cost", result.standard_enforced))
        print(_enforcement_profile("weighted cost", result.weighted_enforced))

    save_model(result.weighted_enforced.model, out / "passive_model.json")
    omega = data.omega
    report = impedance_error_report(list(result.accuracy_rows))
    (out / "flow_report.txt").write_text(report + "\n", encoding="utf-8")
    print(report)
    (out / "flow_summary.json").write_text(
        json.dumps(result.summary_dict(), indent=1) + "\n", encoding="utf-8"
    )

    z_final = target_impedance_of_model(
        result.weighted_enforced.model, omega, termination, observe_port,
        z0=data.z0,
    )
    table = np.column_stack(
        [
            data.frequencies,
            np.abs(result.reference_impedance),
            np.abs(z_final),
            result.xi,
            result.final_weights,
        ]
    )
    np.savetxt(
        out / "flow_series.csv",
        table,
        delimiter=",",
        header="frequency_hz,z_nominal_ohm,z_passive_ohm,xi,weight",
        comments="",
    )
    print(f"passive model : {out / 'passive_model.json'}")
    print(f"series        : {out / 'flow_series.csv'}")
    print(f"summary       : {out / 'flow_summary.json'}")
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    return _with_telemetry(args, "fit", _cmd_fit_impl)


def _cmd_fit_impl(args: argparse.Namespace) -> int:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        data, ingest_report = load_network(args.data, _conditioning_options(args))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(ingest_report.summary())
    ingest_report.save(out / "ingest_report.json")

    if args.termination is not None:
        try:
            termination = build_termination(
                args.termination, data.n_ports, observe_port=_observe_port(args)
            )
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _run_flow_outputs(args, data, termination, out)

    # Plain fit: a one-stage pipeline seeded with the conditioned data.
    pipeline = Pipeline([StandardFitStage()], observers=_observers(args))
    run = pipeline.run(_repro_config(args), seed={"network": data})
    result = run["standard_fit"]
    save_model(result.model, out / "model.json")
    report = check_passivity(result.model)
    lines = [
        f"input          : {args.data} ({data.n_ports} ports, "
        f"{data.n_frequencies} points)",
        f"model order    : {args.poles}",
        f"rms error      : {result.rms_error:.4e}",
        f"converged      : {result.converged} ({result.iterations} iterations)",
        f"passive        : {report.is_passive} "
        f"(worst sigma {report.worst_sigma:.6f})",
    ]
    (out / "fit_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"model written to {out / 'model.json'}")
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    """``flow`` is ``fit`` with --termination mandatory (argparse enforces
    the flag, so the shared implementation always takes the full-flow
    branch)."""
    return _with_telemetry(args, "flow", _cmd_fit_impl)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import render_trace

    try:
        print(render_trace(args.run_dir), end="")
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _find_repo_root(start: Path | None = None) -> Path | None:
    """Nearest ancestor holding the in-repo dev tools (tools/reprolint)."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "tools" / "reprolint" / "__init__.py").is_file():
            return candidate
    return None


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the in-repo static-analysis pass (tools/reprolint).

    ``reprolint`` lives in the repository's ``tools/`` tree, not in the
    installed package: it checks *this codebase's* conventions (telemetry
    grammar, error taxonomy, fingerprint safety, ...), so running it only
    makes sense inside a checkout.
    """
    root = _find_repo_root()
    if root is None:
        print(
            "error: repro lint must run inside the repository "
            "(tools/reprolint not found in any parent directory)",
            file=sys.stderr,
        )
        return 2
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from tools.reprolint.cli import main as reprolint_main

    forwarded = list(args.paths)
    if args.json:
        forwarded.append("--json")
    if args.rules:
        forwarded.extend(["--rules", args.rules])
    if args.update_registry:
        forwarded.append("--update-registry")
    if args.list_rules:
        forwarded.append("--list-rules")
    return reprolint_main(forwarded, root=root)


def _external_overrides(args: argparse.Namespace) -> dict:
    """Scenario-field overrides implied by the shared ingest/termination
    flags (``campaign`` applies them to external-data scenarios).

    ``--observe-port`` is *not* in here: it is a general scenario field
    (synthetic cases observe ports too) and is applied to every scenario.
    """
    overrides: dict = {}
    if args.termination is not None:
        overrides["termination_spec"] = args.termination
    if args.z0 is not None:
        overrides["data_z0"] = args.z0
    if args.drop_dc:
        overrides["data_dc_policy"] = "drop"
    if args.f_min is not None:
        overrides["data_f_min"] = args.f_min
    if args.f_max is not None:
        overrides["data_f_max"] = args.f_max
    if args.max_points is not None:
        overrides["data_max_points"] = args.max_points
    if args.symmetrize is not None:
        overrides["data_symmetrize"] = args.symmetrize
    return overrides


def _cmd_campaign(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.campaign import (
        CampaignRegistry,
        campaign_report,
        default_jobs,
        filter_scenarios,
        load_campaign,
        run_campaign,
        slugify,
    )
    from repro.resilience import RetryPolicy

    try:
        spec = load_campaign(args.spec)
    except (OSError, ValueError) as exc:
        # ValueError covers bad schema/axes and json.JSONDecodeError.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    scenarios = filter_scenarios(spec.expand(), args.filter)
    if args.fast or args.exact:
        strategy = _checker_strategy(args)
        scenarios = [
            replace(s, checker_strategy=strategy) for s in scenarios
        ]
    if args.observe_port is not None:
        scenarios = [
            replace(s, observe_port=args.observe_port) for s in scenarios
        ]
    overrides = _external_overrides(args)
    if overrides:
        # Ingest/termination flags override the spec's external-data
        # knobs; synthetic scenarios have no data file to condition.
        external = [s for s in scenarios if s.data_file is not None]
        if not external:
            print(
                "error: ingest/termination overrides "
                f"{sorted(overrides)} apply to external-data scenarios "
                "only, and this campaign has none",
                file=sys.stderr,
            )
            return 2
        scenarios = [
            replace(s, **overrides) if s.data_file is not None else s
            for s in scenarios
        ]
    if not scenarios:
        print(
            f"campaign {spec.name!r}: no scenarios"
            + (f" match filter {args.filter!r}" if args.filter else
               " (empty grid)")
        )
        return 0

    if args.dry_run:
        print(f"campaign {spec.name!r}: {len(scenarios)} scenario(s)")
        for scenario in scenarios:
            print(f"  {scenario.run_id}  {scenario.name}")
        return 0

    out = Path(args.output_dir) / slugify(spec.name)
    registry = CampaignRegistry(out)
    cache = None
    if not args.no_cache:
        cache = args.cache_dir or str(Path(args.output_dir) / "cache")

    jobs = args.jobs if args.jobs is not None else default_jobs()
    try:
        retry = RetryPolicy(
            max_retries=args.max_retries,
            backoff_base_s=args.retry_backoff,
            retry_budget=args.retry_budget,
            timeout_s=args.timeout,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_campaign(
        spec,
        scenarios=scenarios,
        registry=registry,
        cache=cache,
        jobs=jobs,
        resume=args.resume,
        worker_log_level=_log_level(args),
        share_fits=not args.no_shared_fits,
        blas_threads=args.blas_threads,
        telemetry_dir=args.telemetry,
        retry=retry,
        retry_failed=args.retry_failed,
    )
    report = campaign_report(result)
    (out / "report.txt").write_text(report + "\n", encoding="utf-8")
    print(report)
    if args.profile:
        for record in result.records:
            timings = record.get("timings") or {}
            stages = timings.get("stages")
            if stages:
                print(f"{record['run_id']} stages:")
                for stage in stages:
                    print(
                        f"  {stage['stage']}: {stage['status']} "
                        f"in {stage['seconds']:.3f}s"
                    )
            profile = timings.get("enforcement_profile")
            if not profile:
                continue
            print(f"{record['run_id']}:")
            for label, p in profile.items():
                print(
                    f"  {label}: check {p['check_seconds']:.3f}s, "
                    f"constraints {p['constraint_seconds']:.3f}s, "
                    f"qp {p['qp_seconds']:.3f}s, "
                    f"rebuild {p['rebuild_seconds']:.3f}s"
                )
    print(f"registry      : {out}")
    if cache is not None:
        print(f"cache         : {cache}")
    if args.telemetry is not None:
        print(
            f"telemetry     : {Path(args.telemetry) / 'run_metrics.json'}"
        )
    return 0 if result.n_failed == 0 else 3


def _checker_strategy(args: argparse.Namespace) -> str:
    """Map the --fast/--exact flag pair to a checker strategy name."""
    return "exact" if getattr(args, "exact", False) else "fast"


def _enforcement_profile(label: str, enforced: EnforcementResult) -> str:
    """Per-iteration timing breakdown table for ``--profile``."""
    lines = [
        f"enforcement profile ({label}): {enforced.iterations} iteration(s), "
        f"converged={enforced.converged}",
        "  iter  mode              worst sigma   n_con   check_s  constr_s"
        "    qp_s  rebuild_s",
    ]
    for rec in enforced.history:
        lines.append(
            f"  {rec.iteration:>4d}  {rec.check_mode:<16s}  "
            f"{rec.worst_sigma:>11.6f}  {rec.n_constraints:>6d}  "
            f"{rec.check_seconds:>8.3f}  {rec.constraint_seconds:>8.3f}  "
            f"{rec.qp_seconds:>6.3f}  {rec.rebuild_seconds:>9.3f}"
        )
    totals = enforced.profile()
    lines.append(
        "  totals: check {check_seconds:.3f}s, constraints "
        "{constraint_seconds:.3f}s, qp {qp_seconds:.3f}s, model rebuild "
        "{rebuild_seconds:.3f}s".format(**totals)
    )
    return "\n".join(lines)


def _log_level(args: argparse.Namespace) -> int | None:
    if getattr(args, "quiet", False):
        return logging.ERROR
    verbose = getattr(args, "verbose", 0)
    if verbose >= 2:
        return logging.DEBUG
    if verbose == 1:
        return logging.INFO
    return None


def _ingest_parent() -> argparse.ArgumentParser:
    """Shared parent parser: the repro.ingest data-conditioning flags.

    Consumed (via ``parents=``) by ``fit``, ``flow`` and ``campaign``, so
    the three subcommands expose identical flags with identical defaults;
    ``campaign`` treats them as overrides of its external-data scenarios,
    hence the "unset" defaults (``None``/``False``) everywhere.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group(
        "data conditioning",
        "repro.ingest pipeline applied to the input file; every action "
        "is recorded in <output-dir>/ingest_report.json (for campaigns "
        "these flags override the external-data scenarios' data_* knobs)",
    )
    group.add_argument(
        "--z0", type=float, default=None,
        help="renormalize scattering data to this reference resistance "
        "(ohm; default keeps the file's reference)",
    )
    group.add_argument(
        "--drop-dc", action="store_true",
        help="drop an f = 0 point instead of keeping it",
    )
    group.add_argument(
        "--f-min", type=float, default=None,
        help="low edge of the fitting band (Hz; a kept DC point survives)",
    )
    group.add_argument(
        "--f-max", type=float, default=None,
        help="high edge of the fitting band (Hz)",
    )
    group.add_argument(
        "--max-points", type=int, default=None,
        help="decimate the grid to at most this many points "
        "(endpoints always kept)",
    )
    group.add_argument(
        "--symmetrize", choices=["auto", "always", "never"], default=None,
        help="reciprocity symmetrization: 'auto' (default) enforces "
        "S = S^T only on data already reciprocal to solver tolerance",
    )
    return parent


def _termination_parent(*, required: bool) -> argparse.ArgumentParser:
    """Shared parent parser: termination spec + observation port.

    ``fit`` takes the spec optionally (plain fit without), ``flow``
    requires it, ``campaign`` applies it as an external-scenario
    override.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--termination", required=required, default=None,
        help="termination spec: JSON file or compact inline spec "
        "(e.g. '*=r(50)' or '0=rlc(r=0.2,c=2e-9);1=short(1e-4)')",
    )
    parent.add_argument(
        "--observe-port", type=int, default=None,
        help="observation port (0-based) of the full-flow path (default "
        "0); also receives the nominal 1 A excitation when the spec sets "
        "none",
    )
    return parent


def _telemetry_parent() -> argparse.ArgumentParser:
    """Shared parent parser: the --telemetry flag of fit/flow/campaign."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="record telemetry (structured solver/cache events) into DIR: "
        "per-process events-*.jsonl streams plus run_metrics.json and a "
        "Prometheus-style metrics.prom; render with 'repro trace DIR'",
    )
    return parent


def _flow_parent() -> argparse.ArgumentParser:
    """Shared parent parser: pipeline-configuration flags of fit/flow."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--poles", type=int, default=12)
    parent.add_argument("--dc-exact", action="store_true")
    parent.add_argument(
        "--kernel", choices=["batched", "reference"], default="batched",
        help="vector-fitting kernel: stacked batched LAPACK (default) or "
        "the per-column reference loops",
    )
    parent.add_argument("--weight-mode", choices=["relative", "absolute"],
                        default="relative")
    parent.add_argument("--refinement-rounds", type=int, default=3)
    parent.add_argument("--weight-order", type=int, default=8)
    parent.add_argument("--low-band-hz", type=float, default=1e6)
    _add_checker_flags(parent)
    parent.add_argument(
        "--exact-every", type=int, default=5,
        help="cadence of interleaved exact Hamiltonian checks in fast "
        "mode (0 disables interleaving)",
    )
    parent.add_argument(
        "--profile", action="store_true",
        help="print per-stage pipeline timings plus a per-iteration "
        "breakdown of both passivity-enforcement runs",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sensitivity-weighted passivity enforcement for PDN "
        "macromodels (Ubolli et al., DATE 2014)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="enable structured progress logging (-vv for debug)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only log errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_case = sub.add_parser("testcase", help="generate the synthetic PDN test case")
    p_case.add_argument("--size", choices=["small", "medium", "large"],
                        default="small")
    p_case.add_argument("--output-dir", default="testcase")
    p_case.set_defaults(func=_cmd_testcase)

    ingest_parent = _ingest_parent()
    flow_parent = _flow_parent()
    telemetry_parent = _telemetry_parent()

    p_fit = sub.add_parser(
        "fit",
        help="fit a Touchstone file (any multiport; full flow with "
        "--termination)",
        description="Condition a Touchstone file through repro.ingest and "
        "vector-fit it.  Without --termination this is a plain fit; with "
        "--termination (JSON file or compact inline spec, e.g. "
        "'0=rlc(r=0.2,c=2e-9);1=short(1e-4)' or '*=r(50)') the full "
        "sensitivity-weighted passivity-enforcement flow runs on the "
        "external data.",
        parents=[ingest_parent, _termination_parent(required=False),
                 flow_parent, telemetry_parent],
    )
    p_fit.add_argument("data", help="input .sNp file")
    p_fit.add_argument("--output-dir", default="fit")
    p_fit.set_defaults(func=_cmd_fit)

    p_flow = sub.add_parser(
        "flow",
        help="run the full paper pipeline",
        parents=[ingest_parent, _termination_parent(required=True),
                 flow_parent, telemetry_parent],
    )
    p_flow.add_argument("data", help="input .sNp file")
    p_flow.add_argument("--output-dir", default="flow")
    p_flow.set_defaults(func=_cmd_flow)

    p_camp = sub.add_parser(
        "campaign",
        help="run a parameter-sweep campaign of flow runs",
        description="Expand a campaign spec (JSON: base scenario + sweep "
        "axes) into a scenario grid and run the full pipeline on every "
        "scenario, in parallel, with content-addressed caching and an "
        "on-disk result registry.  The shared ingest/termination flags "
        "override the data_* knobs of external-data scenarios.",
        parents=[ingest_parent, _termination_parent(required=False),
                 telemetry_parent],
    )
    p_camp.add_argument("spec", help="campaign spec JSON file")
    p_camp.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: CPU count, capped at 8; "
        "1 = serial in-process)",
    )
    p_camp.add_argument(
        "--resume", action="store_true",
        help="skip scenarios already completed in the registry",
    )
    p_camp.add_argument(
        "--filter", default=None,
        help="only run scenarios whose name matches (substring or glob)",
    )
    p_camp.add_argument(
        "--dry-run", action="store_true",
        help="list the expanded scenarios without running anything",
    )
    p_camp.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-addressed store of runs and standard fits",
    )
    p_camp.add_argument(
        "--cache-dir", default=None,
        help="store location (default: <output-dir>/cache, shared "
        "across campaigns)",
    )
    p_camp.add_argument("--output-dir", default="campaigns")
    p_camp.add_argument(
        "--no-shared-fits", action="store_true",
        help="disable precomputing one shared standard vector fit per "
        "group of scenarios reusing the same scattering data",
    )
    p_camp.add_argument(
        "--blas-threads", type=int, default=None,
        help="per-worker BLAS/OpenMP thread budget (default: CPU count "
        "divided by the worker count; prevents oversubscription)",
    )
    _add_checker_flags(p_camp, override=True)
    p_camp.add_argument(
        "--profile", action="store_true",
        help="print each run's per-stage pipeline timings and enforcement "
        "breakdown (check vs. QP vs. model rebuild)",
    )
    p_camp.add_argument(
        "--max-retries", type=int, default=0,
        help="re-run a failed scenario up to N extra attempts with "
        "exponential backoff (default: 0, fail fast)",
    )
    p_camp.add_argument(
        "--retry-backoff", type=float, default=0.1,
        help="base backoff in seconds before the first retry; doubles "
        "per attempt with deterministic per-run jitter (default: 0.1)",
    )
    p_camp.add_argument(
        "--retry-budget", type=int, default=None,
        help="campaign-wide cap on total retry attempts across all "
        "scenarios (default: unlimited)",
    )
    p_camp.add_argument(
        "--timeout", type=float, default=None,
        help="per-scenario wall-clock timeout in seconds; a timed-out "
        "scenario is killed and requeued (pooled runs only)",
    )
    p_camp.add_argument(
        "--retry-failed", action="store_true",
        help="re-run only the scenarios whose stored registry record "
        "failed, keeping completed results",
    )
    p_camp.set_defaults(func=_cmd_campaign)

    p_trace = sub.add_parser(
        "trace",
        help="render a recorded run's telemetry (convergence, timings)",
        description="Render the telemetry recorded by --telemetry DIR: "
        "per-iteration solver convergence trajectories, per-stage and "
        "per-kernel wall-time breakdowns, cache hit/miss counters, and "
        "campaign-level rollups.  RUN_DIR may be the telemetry directory "
        "itself, an output directory containing telemetry/, or a campaign "
        "registry directory.",
    )
    p_trace.add_argument(
        "run_dir", metavar="RUN_DIR",
        help="telemetry directory, output directory, or campaign registry",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo's static-analysis pass (tools/reprolint)",
        description="AST-based invariant checks over the checkout: "
        "telemetry hygiene, error taxonomy, fingerprint safety.  Exit 0 "
        "clean, 1 findings, 2 usage error.  Requires running inside the "
        "repository.",
    )
    p_lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to scan (default: src tests)",
    )
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable report on stdout")
    p_lint.add_argument("--rules", default=None,
                        help="comma-separated subset of rules")
    p_lint.add_argument("--update-registry", action="store_true",
                        help="rewrite the telemetry counter registry")
    p_lint.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    p_lint.set_defaults(func=_cmd_lint)
    return parser


def _add_checker_flags(
    parser: argparse.ArgumentParser, *, override: bool = False
) -> None:
    """--fast/--exact passivity-checker strategy flags.

    With ``override=True`` (campaign) the pair overrides every scenario's
    ``checker_strategy``; unset leaves the spec values untouched.
    """
    group = parser.add_mutually_exclusive_group()
    suffix = " (overrides the campaign spec)" if override else " (default)"
    group.add_argument(
        "--fast", dest="fast", action="store_true",
        help="sampling-first passivity checker with exact Hamiltonian "
        "certification" + suffix,
    )
    group.add_argument(
        "--exact", dest="exact", action="store_true",
        help="exact Hamiltonian passivity check every enforcement "
        "iteration",
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    level = _log_level(args)
    if level is not None:
        enable_console_logging(level)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
