"""Fixture: whole-file suppression via disable-file (clean).

# reprolint: disable-file=telemetry-hygiene -- legacy span names kept for an external dashboard
"""

from repro import obs


def oracle_eig(matrix):
    with obs.span("eig"):
        return matrix


def oracle_svd(matrix):
    with obs.span("svd"):
        return matrix
