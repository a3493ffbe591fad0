"""Fixture: digest function that skips a field (fingerprint-safety)."""

from dataclasses import dataclass


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    vf_kernel: str = "batched"

    def to_dict(self):
        return {"name": self.name}
