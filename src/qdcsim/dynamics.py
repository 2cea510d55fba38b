"""Conditional (no-jump) atom-cavity dynamics.

A laser-driven atom exchanges its excitation with a lossy cavity mode
under the non-Hermitian effective generator

    H_e = i*delta*(a |e><g| - a^dag |g><e|) - i*k*a^dag a,

with delta = g*Omega/Delta.  On the single-excitation pair
``{|e,0>, |g,1>}`` the amplitudes obey

    d(c_e)/dt = delta * c_g
    d(c_g)/dt = -delta * c_e - k * c_g,

whose underdamped solution from ``|e,0>`` is

    alpha(t) = exp(-k t/2) (cos(W t/2) + (k/W) sin(W t/2))
    beta(t)  = -(2 delta / W) exp(-k t/2) sin(W t/2),

with W = Omega_k = sqrt(4 delta^2 - k^2).  ``|g,0>`` is dark.  The
protocol pipeline maps atoms to cavities with these closed forms
(``protocol._pipeline_sectors``); no numerical integrator ships.  The test
suite checks the closed forms and the pipeline against a fixed-step RK4
integration of the same generator on the full dense state
(``tests/scalar_oracle.py``).

The first zero of alpha, at W t/2 = pi - arctan(W/k), is the transfer
time t* (:func:`transfer_time`, in closed form): the atomic excitation
has fully mapped onto the cavity and beta(t*) = -exp(-k t*/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class PhysicalParams:
    """Couplings and rates, all in mutually consistent angular-frequency units.

    ``gamma`` (spontaneous decay from the eliminated upper level) enters
    only the feasibility regime checks, never the dynamics.
    """

    g: float
    Omega: float
    Delta: float
    k: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not (self.g > 0 and self.Omega > 0 and self.Delta > 0):
            raise ValueError("g, Omega, Delta must be positive")
        if self.k < 0 or self.gamma < 0:
            raise ValueError("k and gamma must be nonnegative")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma!r}")
        if 2.0 * self.delta_eff <= self.k:
            raise ValueError(
                f"underdamped regime required: 2*delta = {2 * self.delta_eff} must exceed k = {self.k}"
            )
        if not 0.0 < 4.0 * self.delta_eff * self.delta_eff < math.inf:
            raise ValueError(
                f"g = {self.g!r}, Omega = {self.Omega!r}, Delta = {self.Delta!r} give "
                f"delta = g*Omega/Delta = {self.delta_eff!r}, outside the range where the rate "
                "Omega_k = sqrt(4 delta^2 - k^2) is finite and positive"
            )

    @cached_property
    def delta_eff(self) -> float:
        return self.g * self.Omega / self.Delta

    @cached_property
    def omega_k(self) -> float:
        return math.sqrt(4.0 * self.delta_eff**2 - self.k**2)


def alpha_beta(params: PhysicalParams, t: float) -> tuple[float, float]:
    """Closed-form no-jump coefficients of |e,0> -> alpha|e,0> + beta|g,1>."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    k, w, delta = params.k, params.omega_k, params.delta_eff
    envelope = math.exp(-0.5 * k * t)
    half = 0.5 * w * t
    alpha = envelope * (math.cos(half) + (k / w) * math.sin(half))
    beta = -(2.0 * delta / w) * envelope * math.sin(half)
    return alpha, beta


def transfer_time(params: PhysicalParams) -> float:
    """Smallest t* > 0 with alpha(t*) = 0, i.e. tan(W t/2) = -W/k:
    W t*/2 = pi - arctan(W/k), which ``atan2`` also gives at k = 0
    (t* = pi/W).  At the root |beta(t*)| = exp(-k t*/2)."""
    w = params.omega_k
    return 2.0 * (math.pi - math.atan2(w, params.k)) / w
