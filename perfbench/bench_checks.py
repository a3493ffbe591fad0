"""Independent checks of the program's outputs.

Everything here is computed from first principles with numpy alone: the
pole-residue response, a real state-space realization, the scattering
Hamiltonian eigenvalue test, the loaded target impedance of the paper's
eq. (2) and the termination admittances.  None of it calls into
``repro``, so a fault in the program's own evaluation, checker or
impedance code cannot also hide in the check.

A model is given as the plain triple ``(poles, residues, const)``:
poles ``(N,)`` complex with conjugate pairs present, residues ``(N, P, P)``
complex, const ``(P, P)`` real.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Relative tolerance of the symmetry test of residues and constant.
RECIPROCITY_RTOL = 1e-8
#: Real-part tolerance (relative to |lambda|) of a Hamiltonian eigenvalue
#: taken as a candidate imaginary-axis crossing.
CROSSING_RTOL = 1e-6
#: A candidate crossing is confirmed when some singular value of H(j w)
#: lies this close to 1.
SIGMA_CONFIRM_TOL = 1e-6


def model_triple(model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(poles, residues, const)`` arrays of a program model object."""
    return (
        np.asarray(model.poles, dtype=complex),
        np.asarray(model.residues, dtype=complex),
        np.asarray(model.const, dtype=float),
    )


def load_model_json(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a stored model file (poles/residues as [re, im] pairs)."""
    payload = json.loads(open(path, encoding="utf-8").read())
    poles = np.asarray(payload["poles"], dtype=float)
    residues = np.asarray(payload["residues"], dtype=float)
    return (
        poles[..., 0] + 1j * poles[..., 1],
        residues[..., 0] + 1j * residues[..., 1],
        np.asarray(payload["const"], dtype=float),
    )


def response(triple, omega: np.ndarray) -> np.ndarray:
    """H(j w) = sum_k R_k / (j w - p_k) + D, shape (K, P, P)."""
    poles, residues, const = triple
    s = 1j * np.asarray(omega, dtype=float)
    weights = 1.0 / (s[:, None] - poles[None, :])
    return np.einsum("kn,npq->kpq", weights, residues) + const[None]


def sigma_max(triple, omega: np.ndarray) -> np.ndarray:
    """Largest singular value of H(j w) per frequency."""
    return np.linalg.svd(response(triple, omega), compute_uv=False)[:, 0]


def realization(triple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real (A, B, C) with P states per real pole and 2P per complex pair.

    A complex pair p = a + jb with residue R = Rr + jRi is realized as
    A = [[a, b], [-b, a]] (x) I, B = [2I; 0], C = [Rr, Ri], which gives
    R/(s - p) + conj(R)/(s - conj(p)).
    """
    poles, residues, _ = triple
    n_ports = residues.shape[1]
    eye = np.eye(n_ports)
    a_blocks, b_blocks, c_blocks = [], [], []
    for pole, residue in zip(poles, residues):
        if pole.imag < 0.0:
            continue  # realized together with its conjugate partner
        if pole.imag == 0.0:
            a_blocks.append(pole.real * eye)
            b_blocks.append(eye)
            c_blocks.append(residue.real)
        else:
            a_blocks.append(np.kron([[pole.real, pole.imag],
                                     [-pole.imag, pole.real]], eye))
            b_blocks.append(np.vstack([2.0 * eye, np.zeros_like(eye)]))
            c_blocks.append(np.hstack([residue.real, residue.imag]))
    n_states = sum(block.shape[0] for block in a_blocks)
    a = np.zeros((n_states, n_states))
    offset = 0
    for block in a_blocks:
        size = block.shape[0]
        a[offset:offset + size, offset:offset + size] = block
        offset += size
    return a, np.vstack(b_blocks), np.hstack(c_blocks)


@dataclass(frozen=True)
class PassivityVerdict:
    """Outcome of :func:`passivity_test`."""

    stable: bool
    reciprocal: bool
    passive: bool
    worst_sigma: float
    crossings: int

    @property
    def ok(self) -> bool:
        return self.stable and self.reciprocal and self.passive


def passivity_test(triple, omega_data: np.ndarray) -> PassivityVerdict:
    """Stability, reciprocity and the Hamiltonian/sigma_max passivity test.

    The scattering Hamiltonian

        M = [[A - B R^-1 D' C,  -B R^-1 B'],
             [C' S^-1 C,        -A' + C' D R^-1 B']],
        R = D'D - I,  S = DD' - I,

    has an eigenvalue j w exactly where a singular value of H(j w) equals
    1.  The model is passive when ||D|| < 1 and no such crossing exists,
    so sigma_max < 1 at every frequency.  sigma_max is also swept on a
    dense grid and at the midpoints between candidate crossings; the
    worst value seen is reported.
    """
    poles, residues, const = triple
    stable = bool(np.all(poles.real < 0.0))
    scale = max(float(np.max(np.abs(residues))), float(np.max(np.abs(const))), 1e-300)
    defect = max(
        float(np.max(np.abs(residues - residues.transpose(0, 2, 1)))),
        float(np.max(np.abs(const - const.T))),
    )
    reciprocal = defect <= RECIPROCITY_RTOL * scale
    omega_hi = 10.0 * max(float(np.max(np.abs(poles))), float(np.max(omega_data)))
    omega_lo = max(float(np.min(omega_data[omega_data > 0])) / 10.0, 1e-3)
    grid = np.concatenate(([0.0], np.geomspace(omega_lo, omega_hi, 1500)))
    worst = float(np.max(sigma_max(triple, grid)))
    d_norm = float(np.linalg.norm(const, 2))
    if not stable or d_norm >= 1.0:
        return PassivityVerdict(stable, reciprocal, False, max(worst, d_norm), 0)

    a, b, c = realization(triple)
    n_ports = const.shape[0]
    r_inv = np.linalg.inv(const.T @ const - np.eye(n_ports))
    s_inv = np.linalg.inv(const @ const.T - np.eye(n_ports))
    hamiltonian = np.block([
        [a - b @ r_inv @ const.T @ c, -b @ r_inv @ b.T],
        [c.T @ s_inv @ c, -a.T + c.T @ const @ r_inv @ b.T],
    ])
    eigenvalues = np.linalg.eigvals(hamiltonian)
    near_axis = eigenvalues[
        (eigenvalues.imag > 0.0)
        & (np.abs(eigenvalues.real) <= CROSSING_RTOL * np.abs(eigenvalues))
    ]
    candidates = np.sort(near_axis.imag)
    confirmed = 0
    if candidates.size:
        sigmas = np.linalg.svd(response(triple, candidates), compute_uv=False)
        confirmed = int(np.sum(
            np.min(np.abs(sigmas - 1.0), axis=1) <= SIGMA_CONFIRM_TOL
        ))
        edges = np.concatenate(([0.0], candidates, [omega_hi]))
        midpoints = 0.5 * (edges[:-1] + edges[1:])
        worst = max(worst, float(np.max(sigma_max(triple, midpoints))))
    passive = confirmed == 0 and worst < 1.0
    return PassivityVerdict(stable, reciprocal, passive, worst, confirmed)


def realization_error(triple, omega: np.ndarray) -> float:
    """Relative mismatch of :func:`realization` against :func:`response`."""
    a, b, c = realization(triple)
    const = triple[2]
    s = 1j * np.asarray(omega, dtype=float)
    eye = np.eye(a.shape[0])
    state = np.stack([np.linalg.solve(sk * eye - a, b) for sk in s])
    direct = response(triple, omega)
    via_states = c[None] @ state + const[None]
    return float(np.max(np.abs(via_states - direct)) / np.max(np.abs(direct)))


def rms_error(triple, omega: np.ndarray, samples: np.ndarray) -> float:
    """RMS of |H(j w) - S| over all frequencies and entries."""
    return float(np.sqrt(np.mean(np.abs(response(triple, omega) - samples) ** 2)))


# ----------------------------------------------------------------------
# Loaded target impedance, paper eq. (2)
# ----------------------------------------------------------------------
def _port_admittance(term, omega: np.ndarray) -> np.ndarray:
    """Admittance of one termination from its element values."""
    kind = type(term).__name__
    out = np.zeros(omega.shape, dtype=complex)
    nonzero = omega != 0.0
    w = omega[nonzero]
    if kind == "OpenTermination":
        return out
    if kind in ("ShortTermination", "ResistiveTermination"):
        return np.full(omega.shape, 1.0 / term.resistance, dtype=complex)
    if kind == "DieBlock":  # series R + C
        out[nonzero] = 1.0 / (term.resistance + 1.0 / (1j * w * term.capacitance))
        return out
    if kind == "DecouplingCapacitor":  # series ESR + ESL + C
        out[nonzero] = 1.0 / (
            term.esr + 1j * w * term.esl + 1.0 / (1j * w * term.capacitance)
        )
        return out
    raise TypeError(f"no independent admittance formula for {kind}")


def load_admittances(termination, omega: np.ndarray) -> np.ndarray:
    """Diagonal load admittances Y_L(j w), shape (K, P)."""
    omega = np.asarray(omega, dtype=float)
    return np.stack(
        [_port_admittance(term, omega) for term in termination.terminations],
        axis=1,
    )


def target_impedance(samples, omega, termination, observe_port, z0) -> np.ndarray:
    """Z_PDN,k = (Z_k J)_i with Z_k = {R0^-1 (I - S)(I + S)^-1 + Y_L}^-1."""
    samples = np.asarray(samples, dtype=complex)
    eye = np.eye(samples.shape[1])[None]
    # Y = (I - S)(I + S)^-1 / R0, via the transposed solve.
    y_block = np.linalg.solve(
        (eye + samples).transpose(0, 2, 1), (eye - samples).transpose(0, 2, 1)
    ).transpose(0, 2, 1) / z0
    y_total = y_block.copy()
    idx = np.arange(samples.shape[1])
    y_total[:, idx, idx] += load_admittances(termination, omega)
    excitation = np.asarray(termination.excitations, dtype=float)
    voltages = np.linalg.solve(
        y_total, np.broadcast_to(excitation, samples.shape[:2])[..., None]
    )[..., 0]
    return voltages[:, observe_port]


def lowband_error(
    triple, omega, reference, termination, observe_port, z0,
    low_band_hz: float = 1e6,
) -> float:
    """Max |Z_model - Z_ref| / |Z_ref| over w <= 2 pi low_band_hz."""
    omega = np.asarray(omega, dtype=float)
    model_z = target_impedance(
        response(triple, omega), omega, termination, observe_port, z0
    )
    errors = np.abs(model_z - reference) / np.abs(reference)
    return float(np.max(errors[omega <= 2.0 * np.pi * low_band_hz]))


# ----------------------------------------------------------------------
# The audit of one flow result
# ----------------------------------------------------------------------
#: Agreement asked of the recomputed low-band errors and the program's
#: accuracy rows (both evaluate eq. (2); they differ by roundoff only).
ACCURACY_RTOL = 1e-6

#: (row label, result attribute) of the four models of a flow, in the
#: order of the program's accuracy rows.
FLOW_MODELS = (
    ("standard VF", "standard_fit"),
    ("weighted VF (non-passive)", "weighted_fit"),
    ("passive, standard cost", "standard_enforced"),
    ("passive, weighted cost", "weighted_enforced"),
)
_ENFORCED = ("standard_enforced", "weighted_enforced")


def audit_flow(result, data, termination, observe_port, rms_bound: float):
    """Check one flow's four models; returns ``(failures, numbers)``.

    * both enforced models are stable, reciprocal and passive;
    * every passivity verdict of the program's accuracy rows agrees with
      :func:`passivity_test` (so the non-passive weighted fit must be
      rejected here too);
    * the RMS error against the data of the standard fit and of both
      enforced models is below ``rms_bound``;
    * the weighted-cost model's low-band error, recomputed via eq. (2),
      is below the standard-cost model's;
    * each recomputed low-band error agrees with the program's row
      within :data:`ACCURACY_RTOL`.
    """
    omega, samples = data.omega, data.samples
    reference = target_impedance(samples, omega, termination, observe_port, data.z0)
    rows = {row.label: row for row in result.accuracy_rows}
    failures: list[str] = []
    numbers: dict = {}
    for label, attr in FLOW_MODELS:
        triple = model_triple(getattr(result, attr).model)
        verdict = passivity_test(triple, omega)
        lowband = lowband_error(triple, omega, reference, termination, observe_port, data.z0)
        rms = rms_error(triple, omega, samples)
        numbers[attr] = {"worst_sigma": verdict.worst_sigma, "lowband": lowband, "rms": rms}
        row = rows.get(label)
        if row is None:
            failures.append(f"{attr}: no accuracy row {label!r}")
            continue
        if attr in _ENFORCED and not verdict.ok:
            failures.append(f"{attr}: not certified by the independent test ({verdict})")
        if bool(row.is_passive) != verdict.passive:
            failures.append(
                f"{attr}: program says passive={row.is_passive}, "
                f"independent test says {verdict.passive} "
                f"(worst sigma {verdict.worst_sigma:.6f})")
        if attr != "weighted_fit" and not rms < rms_bound:
            failures.append(f"{attr}: fit RMS {rms:.3e} >= {rms_bound:.1e}")
        if abs(lowband - row.low_band_rel_impedance) > ACCURACY_RTOL * abs(lowband):
            failures.append(
                f"{attr}: low-band error {lowband:.9g} recomputed, "
                f"{row.low_band_rel_impedance:.9g} reported")
    weighted = numbers["weighted_enforced"]["lowband"]
    standard = numbers["standard_enforced"]["lowband"]
    if not weighted < standard:
        failures.append(
            f"weighted-cost low-band error {weighted:.4g} not below "
            f"standard-cost {standard:.4g}")
    return failures, numbers
