"""Step-by-step walkthrough of the paper's algorithm on the canonical
test case, with every intermediate quantity exposed and exported.

Stages (paper section in parentheses):
  1. tabulated scattering data (Sec. II)      -> exported as Touchstone
  2. standard vector fit, eq. (4)
  3. first-order sensitivity Xi_k, eq. (5)
  4. weighted vector fit, eq. (6)
  5. sensitivity macromodel via Magnitude VF, eq. (17)
  6. passivity check (Hamiltonian), Sec. III
  7. weighted passivity enforcement, eqs. (8)-(9) + (18)-(21)

Run:  python examples/sensitivity_weighted_flow.py [output_dir]
"""

import sys
from pathlib import Path

import numpy as np

from repro import FlowOptions, make_paper_testcase
from repro.api.stages import compute_base_weights, refine_weighted_fit
from repro.passivity.check import check_passivity
from repro.sensitivity.firstorder import sensitivity_analytic
from repro.sensitivity.weightmodel import build_weight_model
from repro.sensitivity.zpdn import target_impedance_of_model
from repro.sparams.touchstone import write_touchstone
from repro.vectfit.core import vector_fit


def main(output_dir="flow_output"):
    out = Path(output_dir)
    out.mkdir(exist_ok=True)
    testcase = make_paper_testcase()
    data = testcase.data

    # Stage 1: the raw data a field solver would hand us.
    write_touchstone(data, out / "pdn_raw.s9p")
    print(f"[1] scattering data: {data.n_ports} ports, "
          f"{data.n_frequencies} points -> {out / 'pdn_raw.s9p'}")

    options = FlowOptions()
    termination, port = testcase.termination, testcase.observe_port

    # Stage 2: standard VF.
    standard = vector_fit(data.omega, data.samples, options=options.vf)
    print(f"[2] standard VF: rms error {standard.rms_error:.2e}, "
          f"{standard.iterations} iterations, stable={standard.model.is_stable()}")

    # Stage 3: sensitivity.
    xi = sensitivity_analytic(
        data.samples, data.omega, termination, port, z0=data.z0
    )
    from repro.sensitivity.zpdn import target_impedance

    zref = target_impedance(data.samples, data.omega, termination, port)
    print(f"[3] sensitivity Xi: range {xi.min():.3g} .. {xi.max():.3g}; "
          f"relative Xi/|Z| spans "
          f"{(xi / np.abs(zref)).max() / (xi / np.abs(zref)).min():.0f}x")

    # Stage 4: weighted VF with refinement.
    base = compute_base_weights(options, xi, zref)
    weighted, final_weights = refine_weighted_fit(
        options, data, termination, port, base, zref
    )
    print(f"[4] weighted VF: rms error {weighted.rms_error:.2e} "
          f"(weights floored at {options.weight_floor})")

    # Stage 5: rational sensitivity model.
    weight_model = build_weight_model(
        data.omega, base, order=options.weight_model_order
    )
    print(f"[5] sensitivity macromodel: order {weight_model.model.n_states}, "
          f"fit {weight_model.fit.rms_db_error:.2f} dB rms")

    # Stage 6: passivity check.
    report = check_passivity(weighted.model)
    print(f"[6] passivity check: worst sigma {report.worst_sigma:.6f} "
          f"in {len(report.bands)} violation band(s)")
    for band in report.bands[:5]:
        print(f"      {band}")

    # Stage 7: weighted enforcement.
    from repro.passivity.enforce import enforce_passivity
    from repro.sensitivity.weighted_norm import sensitivity_weighted_cost

    cost = sensitivity_weighted_cost(weighted.model, weight_model.model)
    enforced = enforce_passivity(weighted.model, cost)
    print(f"[7] weighted enforcement: passive={enforced.converged} "
          f"after {enforced.iterations} iterations")

    # Export the final passive macromodel responses and target impedance.
    final = enforced.model
    z_final = target_impedance_of_model(final, data.omega, termination, port)
    table = np.column_stack(
        [data.frequencies, np.abs(zref), np.abs(z_final), xi, final_weights]
    )
    np.savetxt(
        out / "flow_series.csv",
        table,
        delimiter=",",
        header="frequency_hz,z_nominal_ohm,z_passive_model_ohm,xi,final_weight",
        comments="",
    )
    rel = np.abs(z_final - zref) / np.abs(zref)
    print(f"\nFinal passive model: max relative impedance error {rel.max():.3f} "
          f"({rel[data.frequencies < 1e6].max():.3f} below 1 MHz)")
    print(f"Series written to {out / 'flow_series.csv'}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
