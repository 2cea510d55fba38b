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
(``protocol.map_to_cavities``).  ``evolve_conditional`` integrates the
same generator on a full state by fixed-step RK4; it is the oracle the
test suite checks the closed forms and the pipeline against.

The first zero of alpha, at W t/2 = pi - arctan(W/k), is the transfer
time t*: the atomic excitation has fully mapped onto the cavity and
beta(t*) = -exp(-k t*/2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .hilbert import (
    NotAnAtomSite,
    NotACavityModeSite,
    SiteKind,
    StateVector,
    TruncationOverflow,
    annihilation_matrix,
    apply_site_operator,
    creation_matrix,
    NUMERIC_SLACK,
)


class StepTooCoarse(UserWarning):
    """Advisory: halving the RK4 step changed the result by more than 1e-6."""


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
        if 2.0 * self.delta_eff <= self.k:
            raise ValueError(
                f"underdamped regime required: 2*delta = {2 * self.delta_eff} must exceed k = {self.k}"
            )

    @cached_property
    def delta_eff(self) -> float:
        return self.g * self.Omega / self.Delta

    @cached_property
    def omega_k(self) -> float:
        return math.sqrt(4.0 * self.delta_eff**2 - self.k**2)


_LOWER = np.array([[0, 1], [0, 0]], dtype=np.complex128)  # |g><e|
_RAISE = np.array([[0, 0], [1, 0]], dtype=np.complex128)  # |e><g|


def effective_hamiltonian_apply(
    state: StateVector, atom_site: int, mode_site: int, params: PhysicalParams
) -> StateVector:
    """Return ``H_e|state>`` for one atom-cavity pair (not the propagated state).

    The ``-i k a^dag a`` decay term acts on the mode regardless of the
    atom; with several active pairs the total generator is the sum of the
    per-pair terms.
    """
    layout = state.layout
    if layout.site_kind(atom_site) is not SiteKind.ATOM:
        raise NotAnAtomSite(f"site {atom_site} is not an atom")
    if layout.site_kind(mode_site) is not SiteKind.CAVITY_MODE:
        raise NotACavityModeSite(f"site {mode_site} is not a cavity mode")

    d_mode = layout.dims[mode_site]
    if _overflow_weight(state, atom_site, mode_site) > NUMERIC_SLACK:
        raise TruncationOverflow(
            f"a^dag on mode site {mode_site} would exceed cutoff {d_mode - 1}"
        )

    delta = params.delta_eff
    # i*delta * a (x) |e><g|
    t1 = apply_site_operator(apply_site_operator(state, atom_site, _RAISE), mode_site,
                             annihilation_matrix(d_mode))
    # -i*delta * a^dag (x) |g><e|
    t2 = apply_site_operator(apply_site_operator(state, atom_site, _LOWER), mode_site,
                             creation_matrix(d_mode))
    # -i*k * a^dag a
    n_op = np.diag(np.arange(d_mode, dtype=np.complex128))
    t3 = apply_site_operator(state, mode_site, n_op)

    amps = 1j * delta * t1.amplitudes - 1j * delta * t2.amplitudes - 1j * params.k * t3.amplitudes
    return StateVector(layout, amps)


def _overflow_weight(state: StateVector, atom_site: int, mode_site: int) -> float:
    """Weight on (atom = e, mode = cutoff): the configurations a^dag would
    push out of the truncated space."""
    dims = state.layout.dims
    shaped = state.amplitudes.reshape(dims)
    sl = [slice(None)] * len(dims)
    sl[atom_site] = 1
    sl[mode_site] = dims[mode_site] - 1
    return float(np.sum(np.abs(shaped[tuple(sl)]) ** 2))


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


def default_step(params: PhysicalParams) -> float:
    """Documented step guidance: dt <= 0.01 / max(delta, k)."""
    return 0.01 / max(params.delta_eff, params.k)


def evolve_conditional(
    state: StateVector,
    pairs: Sequence[tuple[int, int]],
    params: PhysicalParams,
    t: float,
    dt: float | None = None,
    check_step: bool = False,
) -> StateVector:
    """Propagate ``d|psi>/dt = -i (sum_pairs H_e) |psi>`` with fixed-step RK4.

    Returns the subnormalized no-jump state.  Fixed stepping keeps results
    bit-reproducible across runs; ``check_step=True`` reruns at half step
    and warns (:class:`StepTooCoarse`) if results differ by more than 1e-6.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return state.copy()
    if dt is None:
        dt = min(default_step(params), t / 100.0)
    if dt > t / 100.0 + 1e-15 * t:
        raise ValueError(f"dt = {dt} too coarse; need dt <= t/100 = {t / 100.0}")

    result = _rk4(state, pairs, params, t, dt)
    if check_step:
        finer = _rk4(state, pairs, params, t, dt / 2.0)
        err = float(np.max(np.abs(result.amplitudes - finer.amplitudes)))
        if err > 1e-6:
            warnings.warn(
                f"halving dt changed the propagated state by {err:.2e}", StepTooCoarse
            )
    return result


def _rk4(
    state: StateVector,
    pairs: Sequence[tuple[int, int]],
    params: PhysicalParams,
    t: float,
    dt: float,
) -> StateVector:
    layout = state.layout

    def rhs(amps: np.ndarray) -> np.ndarray:
        vec = StateVector(layout, amps)
        total = np.zeros_like(amps)
        for atom_site, mode_site in pairs:
            total += effective_hamiltonian_apply(vec, atom_site, mode_site, params).amplitudes
        return -1j * total

    n_steps = max(1, math.ceil(t / dt))
    h = t / n_steps
    y = state.amplitudes.copy()
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return StateVector(layout, y)


def transfer_time(params: PhysicalParams) -> float:
    """Smallest t* > 0 with alpha(t*) = 0, i.e. tan(W t/2) = -W/k.

    Found by bracketed bisection of alpha over (0, 2*pi/W], run to
    floating-point resolution (well inside the 1e-12 contract); at the
    root |beta(t*)| = exp(-k t*/2).
    """
    w = params.omega_k
    lo, hi = 0.0, 2.0 * math.pi / w
    # alpha(0) = 1 > 0 and alpha(2pi/W) = -exp(-pi k/W) < 0: valid bracket.
    f_lo = 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = alpha_beta(params, mid)[0]
        if f_mid == 0.0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
