"""Container for tabulated multiport frequency responses.

The paper's raw input is "a P-port PDN structure known via its scattering
matrix samples S_k at frequencies omega_k for k = 1..K, normalized to a port
resistance R0".  :class:`NetworkData` is exactly that: a frequency grid plus
a (K, P, P) stack of matrices and the reference resistance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.util.linalg import max_singular_values
from repro.util.validation import check_frequency_grid, check_square_stack

_VALID_KINDS = ("s", "y", "z")


@dataclass(frozen=True)
class NetworkData:
    """Tabulated P-port network parameters on a frequency grid.

    Parameters
    ----------
    frequencies:
        Frequency grid in Hz, strictly increasing, DC allowed as first point.
    samples:
        Complex array of shape (K, P, P); ``samples[k]`` is the parameter
        matrix at ``frequencies[k]``.
    kind:
        One of ``"s"``, ``"y"``, ``"z"``.
    z0:
        Reference (normalization) resistance in ohms; only meaningful for
        scattering data but stored for all kinds so conversions round-trip.
    port_names:
        Optional list of P human-readable port labels.
    """

    frequencies: np.ndarray
    samples: np.ndarray
    kind: str = "s"
    z0: float = 50.0
    port_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        frequencies = check_frequency_grid(self.frequencies)
        samples = check_square_stack(self.samples, "samples")
        if samples.shape[0] != frequencies.size:
            raise ValueError(
                f"got {samples.shape[0]} sample matrices for "
                f"{frequencies.size} frequencies"
            )
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"kind must be one of {_VALID_KINDS}, got {self.kind!r}")
        if self.z0 <= 0.0:
            raise ValueError("z0 must be positive")
        if self.port_names and len(self.port_names) != samples.shape[1]:
            raise ValueError("port_names length must match port count")
        object.__setattr__(self, "frequencies", frequencies)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "port_names", tuple(self.port_names))

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def n_ports(self) -> int:
        """Number of ports P."""
        return int(self.samples.shape[1])

    @property
    def n_frequencies(self) -> int:
        """Number of frequency samples K."""
        return int(self.frequencies.size)

    @property
    def omega(self) -> np.ndarray:
        """Angular frequency grid in rad/s."""
        return 2.0 * np.pi * self.frequencies

    def element(self, row: int, col: int) -> np.ndarray:
        """Return the length-K trace of matrix entry (row, col)."""
        return self.samples[:, row, col]

    # ------------------------------------------------------------------
    # Derived data sets
    # ------------------------------------------------------------------
    def with_samples(self, samples: np.ndarray, kind: str | None = None) -> "NetworkData":
        """Copy of this data set with replaced sample matrices."""
        return replace(self, samples=samples, kind=kind or self.kind)

    def subset(self, mask: np.ndarray) -> "NetworkData":
        """Restrict to the frequency points selected by boolean ``mask``."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.frequencies.shape:
            raise ValueError("mask must match the frequency grid")
        if not mask.any():
            raise ValueError("mask selects no frequency points")
        return replace(
            self, frequencies=self.frequencies[mask], samples=self.samples[mask]
        )

    def band(self, f_min: float, f_max: float) -> "NetworkData":
        """Restrict to frequencies within [f_min, f_max] (inclusive)."""
        mask = (self.frequencies >= f_min) & (self.frequencies <= f_max)
        return self.subset(mask)

    def without_dc(self) -> "NetworkData":
        """Drop an f = 0 point if present (some algorithms need omega > 0)."""
        if self.frequencies[0] == 0.0:
            return self.subset(self.frequencies > 0.0)
        return self

    # ------------------------------------------------------------------
    # Sanity checks
    # ------------------------------------------------------------------
    def is_reciprocal(self, tol: float = 1e-8) -> bool:
        """True when every sample matrix is symmetric (reciprocal network)."""
        deviation = np.max(np.abs(self.samples - np.transpose(self.samples, (0, 2, 1))))
        scale = max(float(np.max(np.abs(self.samples))), 1e-30)
        return bool(deviation <= tol * scale)

    def passivity_metric(self) -> np.ndarray:
        """Per-frequency worst singular value (scattering data only).

        Values <= 1 everywhere mean the tabulated data itself is passive.
        """
        if self.kind != "s":
            raise ValueError("passivity_metric is defined for scattering data")
        return max_singular_values(self.samples)
