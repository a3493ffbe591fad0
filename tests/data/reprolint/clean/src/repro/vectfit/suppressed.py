"""Fixture: documented legacy names behind line pragmas (clean)."""

from repro import obs


def rescue(lhs, rhs):
    with obs.span(  # reprolint: disable=telemetry-hygiene -- legacy span name
        "rescue",
    ):
        obs.emit(
            "Rescue",
        )  # reprolint: disable=telemetry-hygiene -- pragma on the call's last physical line
    return lhs, rhs
