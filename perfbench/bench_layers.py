"""Per-layer timing for the traced run.

Layers are the ``repro`` modules an operation passes through.  Each is
timed from outside: :func:`traced` swaps the public functions below for
wrappers that record a span (name, start, end) in this process and add
their seconds and call count to the active ``repro.obs`` session's
counters (``perfbench.<label>.s`` / ``.n``).  The counters are what carry
the numbers back from campaign worker processes, whose telemetry
snapshots ride along in the run records.  The program's own spans and
counters (VF relocations, QP solves, Hamiltonian eigensolves, checker
calls) are read from the same sessions.

Nothing under ``src/`` changes: the wrappers are installed by attribute
assignment on the modules that call the functions, and removed again
when the traced operation ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

#: (module, attribute, label).  The label's first dotted part is the
#: layer.  A call made while another call of the same label is open is
#: not counted again (make_variant_testcase calls make_paper_testcase).
WRAPPED = (
    ("repro.pdn.testcase", "make_paper_testcase", "pdn.testcase"),
    ("repro.pdn.testcase", "make_variant_testcase", "pdn.testcase"),
    ("repro.campaign.scenario", "make_variant_testcase", "pdn.testcase"),
    ("repro.api.stages", "vector_fit", None),  # standard or weighted, by args
    ("repro.api.stages", "refine_weighted_fit", "vectfit.refine"),
    ("repro.api.stages", "sensitivity_analytic", "sensitivity.xi"),
    ("repro.api.stages", "build_weight_model", "sensitivity.weight_model"),
    ("repro.api.stages", "sensitivity_weighted_cost", "sensitivity.weighted_cost"),
    ("repro.api.stages", "check_passivity", "passivity.precheck"),
    ("repro.passivity.check", "check_passivity", "passivity.check"),
    ("repro.passivity.check", "imaginary_eigenvalue_frequencies", "passivity.full_eig"),
    ("repro.api.stages", "l2_gramian_cost", "passivity.l2_cost"),
    ("repro.api.stages", "enforce_passivity", None),  # by cost_label
    ("repro.passivity.enforce", "build_constraints", "passivity.constraints"),
    ("repro.passivity.engine.PassivityChecker", "check_exact", "passivity.enforce_check"),
    ("repro.passivity.engine.PassivityChecker", "check_sampling", "passivity.enforce_check"),
    ("repro.flow.metrics", "flow_accuracy_rows", "flow.validate"),
    ("repro.flow.macromodel", "run_flow", "api.run_flow"),
    ("repro.campaign.executor", "run_flow", "api.run_flow"),
)


def _label(label, args, kwargs):
    if label is not None:
        return label
    if "cost_label" in kwargs:  # enforce_passivity(model, cost, options, ...)
        return f"passivity.enforce_{kwargs['cost_label']}"
    weights = args[2] if len(args) > 2 else kwargs.get("weights")
    return "vectfit.standard_fit" if weights is None else "vectfit.weighted_fit"


class SpanLog:
    """Spans recorded by the wrappers in this process, in wall-clock time."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.open: dict[str, int] = defaultdict(int)

    def add(self, name: str, start: float, end: float, outermost: bool = True) -> None:
        self.spans.append(
            {"name": name, "start": start, "end": end, "outermost": outermost})


LOG = SpanLog()


def _resolve(path: str):
    module_name, _, cls = path.rpartition(".")
    if cls and cls[0].isupper():
        return getattr(importlib.import_module(module_name), cls)
    return importlib.import_module(path)


def _wrapper(fn, label):
    from repro.obs import telemetry as obs

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = _label(label, args, kwargs)
        outermost = LOG.open[name] == 0
        LOG.open[name] += 1
        start = time.time()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.time()
            LOG.open[name] -= 1
            LOG.add(name, start, end, outermost)
            if outermost:
                obs.incr(f"perfbench.{name}.s", end - start)
                obs.incr(f"perfbench.{name}.n")
                if name == "passivity.full_eig":
                    _note_eig_dim(obs.active(), 2 * args[0].a.shape[0])

    return wrapper


def _note_eig_dim(telemetry, dim: int) -> None:
    if telemetry is not None:
        gauges = telemetry.gauges
        gauges["perfbench.eig_dim_max"] = max(gauges.get("perfbench.eig_dim_max", 0), dim)


@contextlib.contextmanager
def traced():
    """Install the wrappers for the dynamic extent of the block."""
    saved = []
    try:
        for path, attr, label in WRAPPED:
            owner = _resolve(path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapper(original, label))
        yield LOG
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Reading one operation's numbers
# ----------------------------------------------------------------------
def _span_sum(spans: dict, leaf: str) -> tuple[float, int]:
    seconds, count = 0.0, 0
    for path, total in spans.items():
        if path.rsplit("/", 1)[-1] == leaf:
            seconds += total["seconds"]
            count += int(total["count"])
    return seconds, count


def flow_layers(counters: dict, spans: dict, gauges: dict, eig_dims=()) -> dict:
    """Layer numbers of the flows behind one telemetry snapshot (totals).

    ``counters``/``spans``/``gauges`` are a ``repro.obs`` snapshot's
    fields; ``eig_dims`` are the sizes of the enforcement checker's
    eigensolves when the session's span events are at hand.
    """
    def wrapped(label):
        return float(counters.get(f"perfbench.{label}.s", 0.0))

    def calls(label):
        return int(counters.get(f"perfbench.{label}.n", 0))

    relocate_s, _ = _span_sum(spans, "kernel:vf.relocate")
    qp_s, qp_calls = _span_sum(spans, "kernel:qp_solve")
    eig_s, _ = _span_sum(spans, "kernel:hamiltonian_eig")
    stage_s = sum(
        total["seconds"] for path, total in spans.items()
        if path.startswith("stage:") and "/" not in path
    )
    eig_dim = max([int(gauges.get("perfbench.eig_dim_max", 0)), *eig_dims])
    return {
        "vectfit.standard_fit_s": wrapped("vectfit.standard_fit"),
        "vectfit.weighted_fit_s": wrapped("vectfit.weighted_fit"),
        "vectfit.relocate_s": relocate_s,
        "vectfit.relocations": float(counters.get("vf.iterations", 0)),
        "vectfit.fits": float(counters.get("vf.fits", 0)),
        "sensitivity.xi_s": wrapped("sensitivity.xi"),
        "sensitivity.weight_model_s": wrapped("sensitivity.weight_model"),
        "sensitivity.weighted_cost_s": wrapped("sensitivity.weighted_cost"),
        "passivity.precheck_s": wrapped("passivity.precheck"),
        "passivity.l2_cost_s": wrapped("passivity.l2_cost"),
        "passivity.enforce_standard_s": wrapped("passivity.enforce_standard"),
        "passivity.enforce_weighted_s": wrapped("passivity.enforce_weighted"),
        "passivity.qp_s": qp_s,
        "passivity.qp_calls": float(qp_calls),
        "passivity.constraints_s": wrapped("passivity.constraints"),
        "passivity.check_s": (
            wrapped("passivity.precheck") + wrapped("passivity.check")
            + wrapped("passivity.enforce_check")
        ),
        "passivity.hamiltonian_eig_s": eig_s + wrapped("passivity.full_eig"),
        "passivity.eig_dim_max": float(eig_dim),
        "passivity.exact_checks": float(
            counters.get("checker.exact_checks", 0)
            + calls("passivity.precheck") + calls("passivity.check")
        ),
        "passivity.sampling_checks": float(counters.get("checker.sampling_checks", 0)),
        "passivity.enforce_iterations": float(counters.get("enforce.iterations", 0)),
        "flow.validate_s": wrapped("flow.validate"),
        "api.unattributed_s": wrapped("api.run_flow") - stage_s,
    }


def add_layers(total: dict, part: dict) -> None:
    for name, value in part.items():
        if name == "passivity.eig_dim_max":
            total[name] = max(total.get(name, 0.0), value)
        else:
            total[name] = total.get(name, 0.0) + value


def per_flow(total: dict, n_flows: int) -> dict:
    """Totals over ``n_flows`` flows as per-flow values (maxima stay)."""
    return {
        name: value if name == "passivity.eig_dim_max" else value / max(n_flows, 1)
        for name, value in total.items()
    }


def obs_spans(telemetry, base: float) -> list[dict]:
    """The session's finished program spans as (name, start, end) rows."""
    rows = []
    for event in telemetry.events:
        if event.get("event") != "span.finish":
            continue
        end = base + event["t"]
        rows.append({
            "name": event["span"].rsplit("/", 1)[-1],
            "start": end - event["seconds"],
            "end": end,
        })
    return rows


def eig_dims(telemetry) -> list[int]:
    return [
        int(event["n"]) for event in telemetry.events
        if event.get("event") == "span.finish"
        and event["span"].endswith("kernel:hamiltonian_eig") and "n" in event
    ]


# ----------------------------------------------------------------------
# Span tree
# ----------------------------------------------------------------------
_NEST_SLACK_S = 1e-4


def span_tree(spans: list[dict]) -> tuple[list[dict], list[dict]]:
    """Nest spans by time containment; aggregate self time per path.

    Returns the raw spans with ``id``/``parent``/``path`` added, and one
    row per path (count, total and self seconds) followed, for every
    path with children, by an ``<path>/(unattributed)`` row holding the
    time none of its children account for.
    """
    ordered = sorted(spans, key=lambda s: (s["start"], -s["end"]))
    stack: list[dict] = []
    children_s: dict[int, float] = defaultdict(float)
    out = []
    for index, span in enumerate(ordered):
        while stack and not (
            span["start"] >= stack[-1]["start"] - _NEST_SLACK_S
            and span["end"] <= stack[-1]["end"] + _NEST_SLACK_S
        ):
            stack.pop()
        parent = stack[-1] if stack else None
        row = dict(span, id=index, parent=parent["id"] if parent else None,
                   path=(parent["path"] + "/" if parent else "") + span["name"])
        if parent is not None:
            children_s[parent["id"]] += row["end"] - row["start"]
        out.append(row)
        stack.append(row)
    totals: dict[str, dict] = {}
    for row in out:
        seconds = row["end"] - row["start"]
        entry = totals.setdefault(
            row["path"], {"path": row["path"], "count": 0, "total_s": 0.0,
                          "self_s": 0.0, "has_children": False})
        entry["count"] += 1
        entry["total_s"] += seconds
        entry["self_s"] += seconds - children_s.get(row["id"], 0.0)
        entry["has_children"] |= row["id"] in children_s
    rows = []
    for path in sorted(totals):
        entry = totals[path]
        has_children = entry.pop("has_children")
        rows.append(entry)
        if has_children:
            rows.append({"path": path + "/(unattributed)", "count": entry["count"],
                         "total_s": entry["self_s"], "self_s": entry["self_s"]})
    return out, rows
