"""Telemetry tour: record, inspect and render a flow run's event stream.

Walks the observability surface end to end on the paper's small PDN case:

1. run the standard five-stage pipeline inside a ``telemetry_session`` so
   every solver iteration, stage span and cache lookup is recorded;
2. poke at the live session object -- counters, hierarchical span totals,
   raw events -- and pull the per-iteration convergence trajectories the
   way ``run_metrics.json`` does;
3. read the pipeline's ``stage.finish`` events -- one structured dict per
   stage with its status, span-timed seconds and store key;
4. render the recorded directory with the same code path as the
   ``repro trace`` subcommand.

Equivalent CLI::

    repro testcase --size small --output-dir case
    repro flow case/pdn.s9p --termination case/termination.json \\
        --telemetry telemetry_tour_out
    repro trace telemetry_tour_out

Run:  python examples/telemetry_tour.py        (headless, a few seconds)
"""

import shutil
from pathlib import Path

from repro.api import Pipeline, ReproConfig, standard_stages
from repro.obs import render_trace, telemetry_session
from repro.obs.metrics import convergence_from_events
from repro.obs.telemetry import events_of
from repro.pdn.testcase import make_paper_testcase


def main():
    out = Path("telemetry_tour_out")
    if out.exists():
        shutil.rmtree(out)

    case = make_paper_testcase(size="small", n_frequencies=201)
    seed = {
        "network": case.data,
        "termination": case.termination,
        "observe_port": case.observe_port,
    }

    # 1 -- record a session.
    print("== running the pipeline under a telemetry session ==")
    with telemetry_session(out, label="tour", kind="flow") as telemetry:
        Pipeline(standard_stages()).run(ReproConfig(), seed)

    # 2 -- the session object after the run.
    print("\n== counters ==")
    for name, value in sorted(telemetry.counters.items()):
        print(f"  {name:<32} {value}")

    print("\n== span totals (hierarchical paths) ==")
    for path, total in sorted(
        telemetry.span_totals.items(), key=lambda kv: -kv[1]["seconds"]
    ):
        print(f"  {path:<52} {total['seconds']:8.3f}s  x{total['count']}")

    convergence = convergence_from_events(telemetry.events)
    print("\n== vector-fitting pole relocation (per fit) ==")
    for key, rows in sorted(convergence["vf"].items()):
        last = rows[-1]
        print(
            f"  fit {key}: {len(rows)} iterations, final pole change "
            f"{last['pole_change']:.3e}, converged={last['converged']}"
        )
    print("\n== passivity enforcement (worst sigma trajectory) ==")
    for cost, rows in sorted(convergence["enforcement"].items()):
        sigmas = " -> ".join(f"{row['worst_sigma']:.6f}" for row in rows)
        print(f"  cost {cost}: {sigmas}")

    # 3 -- the stage events, as structured dicts.
    print("\n== stage.finish events ==")
    for event in events_of(telemetry, "stage.finish"):
        print(
            f"  {event['stage']:<14} {event['status']:<9}"
            f" {event['seconds']:.3f}s"
        )

    # 4 -- the files on disk and the trace renderer over them.
    print("\n== recorded files ==")
    for path in sorted(out.iterdir()):
        print(f"  {path}")

    print("\n== repro trace ==")
    print(render_trace(out))


if __name__ == "__main__":
    main()
