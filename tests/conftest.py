"""Shared fixtures: the canonical PDN test case and (expensive) flow runs
are computed once per session."""

from __future__ import annotations

import numpy as np
import pytest

from repro import make_paper_testcase, run_flow


@pytest.fixture(scope="session")
def testcase():
    """Canonical small PDN test case (202 frequency points, 9 ports)."""
    return make_paper_testcase()


@pytest.fixture(scope="session")
def coarse_testcase():
    """Smaller grid for fast unit tests (61 points, no DC)."""
    return make_paper_testcase(n_frequencies=61, include_dc=False)


@pytest.fixture(scope="session")
def flow_result(testcase):
    """Full pipeline run on the canonical test case (used by integration
    tests and shape-claim checks; ~10 s once per session)."""
    return run_flow(testcase.data, testcase.termination, testcase.observe_port)


@pytest.fixture(scope="session")
def weighted_model(flow_result):
    """The sensitivity-weighted (non-passive) macromodel."""
    return flow_result.weighted_fit.model


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def make_random_stable_model(rng, n_real=1, n_pairs=2, n_ports=2, scale=1.0):
    """Random stable pole-residue model helper shared by several tests."""
    from repro.statespace.poleresidue import PoleResidueModel

    poles = []
    for _ in range(n_real):
        poles.append(complex(-rng.uniform(0.5, 5.0) * scale, 0.0))
    for _ in range(n_pairs):
        re = -rng.uniform(0.2, 3.0) * scale
        im = rng.uniform(1.0, 20.0) * scale
        poles.append(complex(re, im))
        poles.append(complex(re, -im))
    poles = np.asarray(poles, dtype=complex)
    residues = np.zeros((poles.size, n_ports, n_ports), dtype=complex)
    idx = 0
    for _ in range(n_real):
        residues[idx] = rng.normal(size=(n_ports, n_ports))
        idx += 1
    for _ in range(n_pairs):
        value = rng.normal(size=(n_ports, n_ports)) + 1j * rng.normal(
            size=(n_ports, n_ports)
        )
        residues[idx] = value
        residues[idx + 1] = np.conj(value)
        idx += 2
    const = rng.normal(size=(n_ports, n_ports)) * 0.1
    return PoleResidueModel(poles, residues, const)


def rel_rms(a, b):
    """Relative RMS difference of ``a`` against the reference ``b``."""
    a, b = np.asarray(a), np.asarray(b)
    scale = max(float(np.sqrt(np.mean(np.abs(b) ** 2))), 1e-300)
    return float(np.sqrt(np.mean(np.abs(a - b) ** 2))) / scale
