"""Transient power-integrity verification: voltage droop at a die port.

The end purpose of the paper's flow: embed the passive macromodel in its
termination network and run a time-domain simulation of the supply droop
caused by switching currents.  Compares the droop predicted by the
sensitivity-weighted passive model against the standard-enforced one --
the low-frequency impedance error of the latter shows up directly as a
wrong settled droop level.

Run:  python examples/transient_droop.py
"""


from repro import make_paper_testcase, run_flow
from repro.timedomain import close_loop, simulate_transient


def main():
    testcase = make_paper_testcase()
    result = run_flow(testcase.data, testcase.termination, testcase.observe_port)

    z_dc = abs(result.reference_impedance[0])
    print(f"Nominal DC target impedance: {z_dc * 1e3:.3f} mohm")
    print("Step excitation: 1 A total switching current, split over "
          f"{len(testcase.die_ports)} die ports\n")

    models = {
        "passive, weighted cost": result.weighted_enforced.model,
        "passive, standard cost": result.standard_enforced.model,
    }
    droops = {}
    for label, model in models.items():
        loop = close_loop(model, testcase.termination)
        stable = loop.is_stable(tol=1e-3)
        sim = simulate_transient(
            model, testcase.termination, t_end=2e-6, dt=5e-11
        )
        droop = sim.droop(testcase.observe_port)
        droops[label] = (sim.time, droop)
        print(f"{label}:")
        print(f"  closed loop stable : {stable}")
        print(f"  peak droop         : {droop.max() * 1e3:.3f} mV")
        print(f"  settled droop      : {droop[-1] * 1e3:.3f} mV "
              f"(nominal {z_dc * 1e3:.3f} mV)")
        error = abs(droop[-1] - z_dc) / z_dc
        print(f"  settled-level error: {error * 100:.1f} %\n")

    # Print a coarse waveform table for the weighted model.
    time, droop = droops["passive, weighted cost"]
    print(f"{'t [ns]':>8s} {'droop [mV]':>11s}")
    for k in range(0, time.size, max(1, time.size // 20)):
        print(f"{time[k] * 1e9:8.1f} {droop[k] * 1e3:11.4f}")

    wtd_err = abs(droops["passive, weighted cost"][1][-1] - z_dc) / z_dc
    std_err = abs(droops["passive, standard cost"][1][-1] - z_dc) / z_dc
    print(f"\nSettled-droop error: weighted {wtd_err*100:.1f}% vs "
          f"standard {std_err*100:.1f}% -- the frequency-domain accuracy "
          "loss of unweighted enforcement is a real time-domain error.")


if __name__ == "__main__":
    main()
