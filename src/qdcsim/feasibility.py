"""Experimental-feasibility arithmetic.

Quoted hardware constants (Rydberg atoms, high-Q microwave cavity):
radiative time t_r = 3.0e-2 s, cavity quality factor Q = 3.0e8, effective
cavity decay time t_d = 3.0e-3 s, atomic-entanglement disentanglement time
T_d = 1.6e-2 s, quoted transfer time t1 = 1.0e-4 s and detection window
t2 = 5.0e-5 s.  Couplings quoted in "MHz" are interpreted as angular
frequencies (value x 1e6 rad/s); all regime ratios are unit-convention
invariant.  k is derived as 1/t_d (Q is echoed, not used, since no cavity
frequency is quoted).

The dispersive-regime conditions Omega*g/Delta^2 << 1, Delta >> gamma and
Omega_k >> k are scored with fixed thresholds: "<<" means ratio <= 0.05,
">>" means ratio >= 20.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import PhysicalParams, transfer_time
from .hilbert import Message
from . import protocol

MUCH_LESS_THRESHOLD = 0.05
MUCH_GREATER_THRESHOLD = 20.0

UNIT_NOTE = "couplings quoted in MHz are read as angular frequencies (x 1e6 rad/s)"


@dataclass(frozen=True)
class HardwareConstants:
    t_r: float = 3.0e-2
    Q: float = 3.0e8
    t_d: float = 3.0e-3
    T_d: float = 1.6e-2
    t1: float = 1.0e-4
    t2: float = 5.0e-5

    def __post_init__(self):
        for name in ("t_r", "Q", "t_d", "T_d", "t1", "t2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(self.t1 + self.t2):
            raise ValueError(f"t1 + t2 = {self.t1 + self.t2!r} must be finite")


def paper_params(constants: HardwareConstants | None = None) -> PhysicalParams:
    """Quoted coupling set: Omega = g = 10 MHz, Delta = 100 MHz, k = 1/t_d,
    gamma = 1/t_r."""
    c = constants or HardwareConstants()
    return PhysicalParams(
        g=10e6, Omega=10e6, Delta=100e6, k=1.0 / c.t_d, gamma=1.0 / c.t_r
    )


class CheckRow(NamedTuple):
    name: str
    value: float
    threshold: float
    relation: str  # "<=" or ">="
    passed: bool


def regime_report(params: PhysicalParams) -> list[CheckRow]:
    """Validity ratios for eliminating the upper atomic level and for the
    underdamped transfer.  Omega*g/Delta^2 is taken as delta/Delta, which
    neither overflows nor underflows where Delta^2 would."""
    ratio_dispersive = params.delta_eff / params.Delta
    ratio_gamma = params.Delta / params.gamma if params.gamma > 0 else math.inf
    ratio_k = params.omega_k / params.k if params.k > 0 else math.inf
    return [
        CheckRow("Omega*g/Delta^2", ratio_dispersive, MUCH_LESS_THRESHOLD, "<=",
                 ratio_dispersive <= MUCH_LESS_THRESHOLD),
        CheckRow("Delta/gamma", ratio_gamma, MUCH_GREATER_THRESHOLD, ">=",
                 ratio_gamma >= MUCH_GREATER_THRESHOLD),
        CheckRow("Omega_k/k", ratio_k, MUCH_GREATER_THRESHOLD, ">=",
                 ratio_k >= MUCH_GREATER_THRESHOLD),
    ]


class TimescaleRow(NamedTuple):
    name: str
    total: float
    limit: float
    passed: bool


class TimescaleReport(NamedTuple):
    rows: tuple[TimescaleRow, ...]
    quoted_t1: float
    computed_transfer_time: float
    t1_discrepancy_flagged: bool


def timescale_report(
    params: PhysicalParams, constants: HardwareConstants | None = None
) -> TimescaleReport:
    """Protocol duration (quoted t1 + t2) against radiative, cavity-decay and
    disentanglement times; the transfer time recomputed from the couplings is
    reported beside the quoted t1 and the gap flagged, not reconciled."""
    c = constants or HardwareConstants()
    total = c.t1 + c.t2
    rows = (
        TimescaleRow("t1+t2 < t_r", total, c.t_r, total < c.t_r),
        TimescaleRow("t1+t2 < t_d", total, c.t_d, total < c.t_d),
        TimescaleRow("t1+t2 < T_d", total, c.T_d, total < c.T_d),
    )
    t_star = transfer_time(params)
    flagged = not (0.5 <= t_star / c.t1 <= 2.0)
    return TimescaleReport(rows, c.t1, t_star, flagged)


class DarkCountRow(NamedTuple):
    dark_prob: float
    success_rate: float
    fidelity: float | None
    fidelity_drop: float | None


def dark_count_fidelity_sweep(
    config: protocol.RoundConfig,
    dark_probs: tuple[float, ...] = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1),
    n_rounds: int = 20000,
) -> tuple[list[DarkCountRow], list[float]]:
    """Sweep the per-window dark-count probability and report the range whose
    fidelity drop (wrong decodes among non-aborts, psi-branch messages) lands
    in the quoted 5%-10% band; every point runs on the seed ``config.seed``."""
    rows = []
    in_band = []
    messages = (Message.X, Message.IY)
    for p_dc in dark_probs:
        cfg = dataclasses.replace(
            config, detector=dataclasses.replace(config.detector, dark_prob=float(p_dc))
        )
        stats = protocol.run_batch(cfg, n_rounds, messages=messages)
        confusion = np.array(stats.confusion)
        correct = int(sum(confusion[i, i] for i in range(4)))
        decoded = int(confusion[:, :4].sum())
        fidelity = correct / decoded if decoded else None
        drop = (1.0 - fidelity) if fidelity is not None else None
        rows.append(DarkCountRow(float(p_dc), stats.success_rate, fidelity, drop))
        if drop is not None and 0.05 <= drop <= 0.10:
            in_band.append(float(p_dc))
    return rows, in_band


def report_text(params: PhysicalParams, constants: HardwareConstants | None = None) -> str:
    """Aligned plain-text rendering of both reports."""
    c = constants or HardwareConstants()
    regime = regime_report(params)
    times = timescale_report(params, c)
    lines = [f"# feasibility report ({UNIT_NOTE})", "", "regime checks:"]
    for row in regime:
        lines.append(
            f"  {row.name:<18} {row.value:>12.6g}  {row.relation} {row.threshold:<8g}"
            f" {'pass' if row.passed else 'FAIL'}"
        )
    lines.append("")
    lines.append("timescale checks:")
    for row in times.rows:
        lines.append(
            f"  {row.name:<12} {row.total:>12.6g} vs {row.limit:<12.6g}"
            f" {'pass' if row.passed else 'FAIL'}"
        )
    lines.append("")
    lines.append(
        f"  quoted transfer time t1 = {times.quoted_t1:.6g} s;"
        f" recomputed from couplings = {times.computed_transfer_time:.6g} s"
    )
    if times.t1_discrepancy_flagged:
        lines.append(
            "  WARNING: quoted t1 differs from the transfer time implied by the"
            " quoted couplings; both are reported, neither is adjusted."
        )
    return "\n".join(lines)


def report_json(params: PhysicalParams, constants: HardwareConstants | None = None) -> dict:
    c = constants or HardwareConstants()
    regime = regime_report(params)
    times = timescale_report(params, c)

    def _finite(x: float):
        return x if math.isfinite(x) else "inf"

    return {
        "unit_note": UNIT_NOTE,
        "params": {
            "g": params.g, "Omega": params.Omega, "Delta": params.Delta,
            "k": params.k, "gamma": params.gamma,
            "delta_eff": params.delta_eff, "Omega_k": params.omega_k,
        },
        "constants": dataclasses.asdict(c),
        "regime": [{**r._asdict(), "value": _finite(r.value)} for r in regime],
        "timescales": [r._asdict() for r in times.rows],
        "quoted_t1": times.quoted_t1,
        "computed_transfer_time": times.computed_transfer_time,
        "t1_discrepancy_flagged": times.t1_discrepancy_flagged,
    }
