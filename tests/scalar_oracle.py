"""The scalar per-round path: one protocol round at a time on one numpy
``Generator`` (:func:`round_rng`), with its results as per-round objects
(:class:`RoundOutcome`, :class:`DetectionRecord`, :class:`WindowResult`),
the reference the lockstep engine is tested against; the fixed-step RK4
integration of the no-jump generator and the bisection for its transfer
time, the references the closed forms (``dynamics.alpha_beta``,
``dynamics.transfer_time``) are tested against; and the state-space
helpers only the tests use.  States are dense vectors over the
layouts of ``dense``, where the engine reads the photon-sector amplitudes
of the compiled plan (:func:`dense.sectors` relates the two).

Each function takes its draws from ``rng`` in the order the engine's rows
take them from their own streams, and makes the same decisions from them.
The detection window here carries the dense state vector through every
jump (the Monte-Carlo wavefunction), and sums its weights over every
receiver bit code, where the engine reads compiled jump-history tables
over the bits' parity: the first jump time is bit-equal at 2 receivers,
where the parity is the bit code, jump times otherwise agree within
``TIME_TOL`` (``assert_window_row``, ``assert_log_close``), and everything
else is equal.  ``tamper`` hooks act on the state
before it is measured (``run_check_round``) or detected
(``_encode_round``), as the security experiments' eavesdroppers do.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from dense import (
    HilbertError, LayoutInfo, NotAnAtomSite, SiteKind, StateVector, SystemLayout,
    apply_site_operator, atom_site, layout_for, layout_info, pipeline_state, sectors,
    site_measurement,
)
from qdcsim import lockstep
from qdcsim import protocol as P
from qdcsim.dynamics import PhysicalParams, alpha_beta
from qdcsim.hilbert import MESSAGES, Message
from qdcsim.protocol import (
    CHANNEL_MINUS,
    CHANNEL_PLUS,
    DARK_MINUS,
    DARK_PLUS,
    BELL_LABELS,
    RoundConfig,
)


# ---------------------------------------------------------------------------
# per-round results and streams


def round_rng(seed: int, index: int) -> np.random.Generator:
    """Round ``index``'s stream of the batch with ``seed``: the numpy
    ``Generator`` whose draws a ``qdcsim.streams.RowStreams`` row computes."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class DetectionRecord:
    """Timestamped detector events within one window, times ascending.

    Dark channels are simulator ground truth; the receiver observes only
    which detector fired.
    """

    events: tuple[tuple[float, str], ...]
    window: float

    def counts(self) -> tuple[int, int]:
        """Observable click counts (n_plus, n_minus), darks included."""
        n_plus = sum(1 for _, ch in self.events if ch in (CHANNEL_PLUS, DARK_PLUS))
        n_minus = sum(1 for _, ch in self.events if ch in (CHANNEL_MINUS, DARK_MINUS))
        return n_plus, n_minus

    def has_real_click(self) -> bool:
        return any(ch in (CHANNEL_PLUS, CHANNEL_MINUS) for _, ch in self.events)


@dataclass(frozen=True)
class WindowResult:
    record: DetectionRecord
    state: StateVector
    jumped: bool
    photon_survived: bool


@dataclass(frozen=True)
class RoundOutcome:
    mode: str  # "check" | "encode"
    sent: Message | None = None
    receiver_bits: str | None = None
    detection: DetectionRecord | None = None
    decoded: Message | None = None  # None = abort in encode mode
    bell_label: str | None = None  # ideal-PNR mode only
    check_conclusive: bool | None = None
    check_passed: bool | None = None
    check_bases: str | None = None
    real_click: bool = False
    photon_survived: bool = False


# ---------------------------------------------------------------------------
# state-space helpers

NUMERIC_SLACK = 1e-12
DUMP_AMPLITUDE_FLOOR = 1e-14


class TruncationOverflow(HilbertError):
    """A creation operator would push amplitude past a mode's cutoff."""


class NotACavityModeSite(HilbertError):
    pass


def annihilation_matrix(dim: int) -> np.ndarray:
    """Truncated ``a``: maps ``|n> -> sqrt(n)|n-1>``."""
    m = np.zeros((dim, dim), dtype=np.complex128)
    for n in range(1, dim):
        m[n - 1, n] = np.sqrt(n)
    return m


def creation_matrix(dim: int) -> np.ndarray:
    """Truncated ``a^dag`` within the cutoff."""
    return annihilation_matrix(dim).conj().T


def dump_state(state: StateVector) -> str:
    """Debug dump: ``index<TAB>occupation-tuple<TAB>re<TAB>im`` per line,
    amplitudes below 1e-14 omitted, indices ascending."""
    lines = []
    for idx in range(state.layout.dim):
        amp = state.amplitudes[idx]
        if abs(amp) < DUMP_AMPLITUDE_FLOOR:
            continue
        occ = ",".join(str(o) for o in state.layout.occupations_of(idx))
        lines.append(f"{idx}\t{occ}\t{float(amp.real)!r}\t{float(amp.imag)!r}")
    return "\n".join(lines)


def draw_outcome(weights: np.ndarray, u: float) -> int:
    """The first outcome whose cumulative weight exceeds ``u * total``."""
    outcome = int(np.searchsorted(np.cumsum(weights), u * weights.sum(), side="right"))
    return min(outcome, len(weights) - 1)


def measure_site(
    state: StateVector, site: int, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Projective measurement of one site in its computational basis; returns
    (occupation outcome, collapsed renormalized state).

    One uniform draw ``u`` selects the outcome (:func:`draw_outcome`), so a
    subnormalized state is measured as if normalized.
    """
    probs, collapse = site_measurement(state, site)
    outcome = draw_outcome(probs, rng.random())
    return outcome, collapse(outcome)


def apply_annihilation(state: StateVector, site: int) -> StateVector:
    if state.layout.site_kind(site) is not SiteKind.CAVITY_MODE:
        raise NotACavityModeSite(f"site {site} is not a cavity mode")
    return apply_site_operator(state, site, annihilation_matrix(state.layout.dims[site]))


def dump_trajectory(samples) -> str:
    """Debug dump of a propagated trajectory: the state dump format with a
    leading time column (``t<TAB>index<TAB>occupations<TAB>re<TAB>im``)."""
    lines = []
    for t, state in samples:
        for line in dump_state(state).splitlines():
            lines.append(f"{float(t)!r}\t{line}")
    return "\n".join(lines)


def all_bit_strings(config: RoundConfig) -> tuple[str, ...]:
    return layout_info(layout_for(config.n_parties)).bit_strings


def spread(table: np.ndarray, config: RoundConfig, axis: int = -1,
           amplitudes: bool = False) -> np.ndarray:
    """A plan table's parity axis ``axis`` spread over every bit code: each
    code gets its parity's weight over the 2^(n-2) codes of that parity, or,
    for ``amplitudes``, its amplitude over sqrt(2^(n-2))."""
    codes = np.arange(2 ** (config.n_receivers - 1))
    size = 2.0 ** (config.n_receivers - 2)
    return np.take(table, lockstep.parity(codes), axis=axis) / (
        math.sqrt(size) if amplitudes else size)


def bell_weights(config: RoundConfig, message: Message, cutoff: int = 1) -> dict:
    """``protocol.bell_weights`` of the dense :func:`dense.pipeline_state`
    at ``cutoff``, projected onto the photon sectors."""
    state = pipeline_state(config, message, cutoff)
    weights = P._bell(sectors(state)[0][None], P.pipeline_beta(config))[0].tolist()
    return {
        (label, bits): weights[j][code]
        for code, bits in enumerate(layout_info(state.layout).bit_strings)
        for j, label in enumerate(BELL_LABELS)
    }


def jump_apply(state: StateVector, sign: int, k: float) -> StateVector:
    """Collapse operator C_pm = sqrt(2k) (a_A pm a_B)/sqrt(2).

    The sqrt(2k) scale makes ``sum C^dag C = 2k (n_A + n_B)``, matching the
    no-jump norm decay of one ``-i k a^dag a`` term per cavity.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    out = _beamsplitter_raw(layout_info(state.layout), state.amplitudes, sign)
    return StateVector(state.layout, math.sqrt(2.0 * k) * out)


@lru_cache(maxsize=None)
def _annihilation_action(layout, site: int):
    """The annihilator of ``site`` as gather arrays: dst <- coef * src."""
    occ = layout.occupations[:, site]
    src = np.flatnonzero(occ >= 1)
    return src, src - layout.strides[site], np.sqrt(occ[src].astype(np.float64))


def _beamsplitter_raw(info: LayoutInfo, amps: np.ndarray, sign: int) -> np.ndarray:
    """The per-sign jump channel (a_A + sign a_B)/sqrt(2) as scatter-adds."""
    src_a, dst_a, coef_a = _annihilation_action(info.layout, info.mode_a)
    src_b, dst_b, coef_b = _annihilation_action(info.layout, info.mode_b)
    out = np.zeros_like(amps)
    out[dst_a] += coef_a * amps[src_a]
    out[dst_b] += sign * coef_b * amps[src_b]
    out /= math.sqrt(2.0)
    return out


# ---------------------------------------------------------------------------
# conditional no-jump evolution by fixed-step RK4

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


def default_step(params: PhysicalParams) -> float:
    """Documented step guidance: dt <= 0.01 / max(delta, k)."""
    return 0.01 / max(params.delta_eff, params.k)


def evolve_conditional(
    state: StateVector,
    pairs: Sequence[tuple[int, int]],
    params: PhysicalParams,
    t: float,
    dt: float | None = None,
) -> StateVector:
    """Propagate ``d|psi>/dt = -i (sum_pairs H_e) |psi>`` with fixed-step RK4.

    Returns the subnormalized no-jump state.  Fixed stepping keeps results
    bit-reproducible across runs.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return StateVector(state.layout, state.amplitudes.copy())
    if dt is None:
        dt = min(default_step(params), t / 100.0)
    if dt > t / 100.0 + 1e-15 * t:
        raise ValueError(f"dt = {dt} too coarse; need dt <= t/100 = {t / 100.0}")
    return _rk4(state, pairs, params, t, dt)


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


def bisect_transfer_time(params: PhysicalParams) -> float:
    """The first zero of alpha by bisection over (0, 2 pi/W], run to
    floating-point resolution: the reference ``dynamics.transfer_time``'s
    closed form is tested against."""
    lo, hi = 0.0, 2.0 * math.pi / params.omega_k
    # alpha(0) = 1 > 0 and alpha(2pi/W) = -exp(-pi k/W) < 0: a valid bracket
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        f_mid = alpha_beta(params, mid)[0]
        if f_mid == 0.0:
            return mid
        if f_mid > 0:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# Monte-Carlo wavefunction detection window


def _nojump_crossing(
    sector_norms: np.ndarray, k: float, u: float, t_max: float
) -> float | None:
    """First t in (0, t_max] where the no-jump squared norm hits u.

    The norm is sum_n P_n x^n with x = exp(-2kt); for photon sectors up to
    n = 2 this is a quadratic in x.
    """
    n_max = len(sector_norms) - 1
    if n_max > 2:
        raise ValueError("the scalar window takes states of at most two photons")
    x_end = math.exp(-2.0 * k * t_max)
    norm_end = sum(p * x_end**n for n, p in enumerate(sector_norms))
    if norm_end >= u:
        return None
    p0 = sector_norms[0]
    p1 = sector_norms[1] if n_max >= 1 else 0.0
    p2 = sector_norms[2] if n_max >= 2 else 0.0
    if p2 < 1e-300:
        x = (u - p0) / p1
    else:
        disc = p1 * p1 - 4.0 * p2 * (p0 - u)
        x = (-p1 + math.sqrt(max(disc, 0.0))) / (2.0 * p2)
    x = min(max(x, x_end), 1.0)
    return -math.log(x) / (2.0 * k)


def simulate_window(
    state: StateVector, config: RoundConfig, rng: np.random.Generator
) -> WindowResult:
    """Unravel the detection window for one trajectory."""
    return window_jumps(state, config, rng)[0]


def window_jumps(
    state: StateVector, config: RoundConfig, rng: np.random.Generator
) -> tuple[WindowResult, list[tuple[float, int, bool]]]:
    """:func:`simulate_window` and the (time, sign, registered) of its jumps."""
    info = layout_info(state.layout)
    psi, events, jumps, photon_survived = _window_raw(
        info, state.amplitudes.copy(), config, rng
    )
    record = DetectionRecord(tuple(events), config.t_window)
    return (
        WindowResult(record, StateVector(state.layout, psi), bool(jumps), photon_survived),
        jumps,
    )


def _window_raw(
    info: LayoutInfo, psi: np.ndarray, config: RoundConfig, rng: np.random.Generator
) -> tuple[np.ndarray, list, bool, bool]:
    k = config.params.k
    eta = config.detector.efficiency
    window = config.t_window
    n_vec = info.photon_numbers
    n_max = int(n_vec.max())

    events: list[tuple[float, str]] = []
    jumps: list[tuple[float, int, bool]] = []
    t = 0.0
    photon_survived = False

    while True:
        sector_norms = np.bincount(n_vec, weights=np.abs(psi) ** 2, minlength=n_max + 1)
        total = float(sector_norms.sum())
        if total <= 1e-300:
            break
        u = rng.random()
        if u >= total:
            break
        if k == 0.0:
            # Ideal-extraction limit: photons always leave by window end,
            # arrival times uniform over the remaining window.
            photon_weight = total - float(sector_norms[0])
            if u >= photon_weight:
                break
            t_jump = t + rng.random() * (window - t)
        else:
            # trailing empty sectors trimmed: states of <= 2 photons take the quadratic
            top = n_max
            while sector_norms[top] == 0.0:
                top -= 1
            dt_jump = _nojump_crossing(sector_norms[: top + 1], k, u, window - t)
            if dt_jump is None:
                if not jumps:
                    photon_survived = bool(total - float(sector_norms[0]) > 1e-12)
                break
            t_jump = t + dt_jump
            psi = psi * np.exp(-k * n_vec * dt_jump)
        t = t_jump
        plus = _beamsplitter_raw(info, psi, +1)
        minus = _beamsplitter_raw(info, psi, -1)
        # squared norms summed in numpy's fixed pairwise order (a BLAS dot
        # product's order is the library's), which the lockstep engine repeats
        r_plus = float(np.square(plus.view(np.float64)).sum())
        r_minus = float(np.square(minus.view(np.float64)).sum())
        if r_plus + r_minus <= 0.0:
            break
        if rng.random() * (r_plus + r_minus) < r_plus:
            psi, channel, rate = plus, CHANNEL_PLUS, r_plus
        else:
            psi, channel, rate = minus, CHANNEL_MINUS, r_minus
        psi = psi / math.sqrt(rate)
        seen = bool(rng.random() < eta)
        jumps.append((t, 1 if channel == CHANNEL_PLUS else -1, seen))
        if seen:
            events.append((t, channel))

    if k > 0.0:
        psi = psi * np.exp(-k * n_vec * (window - t))

    p_dc = config.detector.dark_prob
    for dark_channel in (DARK_PLUS, DARK_MINUS):
        if p_dc > 0.0 and rng.random() < p_dc:
            events.append((rng.random() * window, dark_channel))

    events.sort(key=lambda ev: ev[0])
    return psi, events, jumps, photon_survived


def sample_receiver_bits(
    state: StateVector, rng: np.random.Generator
) -> str:
    """Measure the rotated receivers' atoms in the computational basis.

    Sampled from the (normalized) given state; a numerically empty state
    yields uniform bits (lost-photon rounds leave receivers uncorrelated).
    """
    return _sample_bits_raw(layout_info(state.layout), state.amplitudes, rng)


def _sample_bits_raw(
    info: LayoutInfo, amps: np.ndarray, rng: np.random.Generator
) -> str:
    m = len(info.receiver_sites)
    weights = np.abs(amps) ** 2
    total = float(weights.sum())
    if total <= 1e-30:
        code = int(rng.integers(0, 2**m)) if m else 0
        return info.bit_strings[code]
    probs = np.bincount(info.bit_codes, weights=weights, minlength=2**m)
    code = int(np.searchsorted(np.cumsum(probs), rng.random() * total, side="right"))
    code = min(code, 2**m - 1)
    return info.bit_strings[code]


# ---------------------------------------------------------------------------
# GHZ parity check rounds


_BASIS_ROTATIONS = {
    # rows are the target-basis bras; computational outcome 0 maps to +1
    "x": np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0),
    "y": np.array([[1, -1j], [1, 1j]], dtype=np.complex128) / math.sqrt(2.0),
}


def atom_measurement(state: StateVector, site: int, basis: str = "z"):
    """One atom's projective measurement, undrawn: the outcome weights and the
    map to the collapsed renormalized state.  Outcome 0 in basis 'x'/'y' is +1."""
    if state.layout.site_kind(site) is not SiteKind.ATOM:
        raise NotAnAtomSite(f"site {site} is not an atom")
    if basis == "z":
        return site_measurement(state, site)
    rotation = _BASIS_ROTATIONS[basis]
    probs, collapse = site_measurement(apply_site_operator(state, site, rotation), site)
    return probs, lambda outcome: apply_site_operator(collapse(outcome), site, rotation.conj().T)


def measure_atom(
    state: StateVector, site: int, rng: np.random.Generator, basis: str = "z"
) -> tuple[int, StateVector]:
    """Projective measurement of one atom; returns (occupation outcome,
    collapsed renormalized state).  Basis 'x'/'y' measures the respective
    Pauli; the returned outcome 0 corresponds to eigenvalue +1."""
    probs, collapse = atom_measurement(state, site, basis)
    outcome = draw_outcome(probs, rng.random())
    return outcome, collapse(outcome)


def combo_bases(n_parties: int, combo: int) -> str:
    """The x/y basis string of a basis combination, party 0 first."""
    return "".join("y" if (combo >> (n_parties - 1 - j)) & 1 else "x" for j in range(n_parties))


@lru_cache(maxsize=None)
def dense_rotation(n_parties: int, combo: int) -> np.ndarray:
    """The joint basis rotation of a combination as one dense kron matrix."""
    u = np.array([[1.0]], dtype=np.complex128)
    for b in combo_bases(n_parties, combo):
        u = np.kron(u, _BASIS_ROTATIONS[b])
    u.flags.writeable = False
    return u


def dense_combo_laws(amps: np.ndarray, n_parties: int) -> np.ndarray:
    """The outcome law ``law[combo, outcome]`` of every x/y basis combination
    on the atoms-only state ``amps``, from one dense matrix per combination."""
    return np.array([
        np.abs(dense_rotation(n_parties, combo) @ amps) ** 2 for combo in range(2**n_parties)
    ])


def ghz_amplitudes(n_parties: int) -> np.ndarray:
    """The atoms-only GHZ state (|g..g> + |e..e>)/sqrt(2)."""
    ghz = np.zeros(2**n_parties, dtype=np.complex128)
    ghz[0] = ghz[-1] = 1.0 / math.sqrt(2.0)
    return ghz


def ghz_expected_parity(bases: str) -> int | None:
    """The product of the +-1 outcomes of x/y measurements on a GHZ state:
    +1 for 0 mod 4 y bases, -1 for 2 mod 4, None (either) for an odd count."""
    n_y = bases.count("y")
    if n_y % 2 == 1:
        return None
    return +1 if n_y % 4 == 0 else -1


def outcome_parity(outcome: int) -> int:
    """The product of the +-1 outcomes packed in an outcome index."""
    return 1 - 2 * (bin(outcome).count("1") % 2)


def run_check_round(
    config: RoundConfig,
    rng: np.random.Generator,
    tamper: Callable[[StateVector, np.random.Generator], StateVector] | None = None,
) -> RoundOutcome:
    """One security-check round: every party measures its atom in a random
    x/y basis; conclusive basis multisets must reproduce the GHZ parity.

    Check rounds live on an atoms-only layout (the cavities stay in vacuum
    and never participate).  The round draws its outcome from the dense
    rotation of its combination applied to the (tampered) GHZ state."""
    n = config.n_parties
    amps = ghz_amplitudes(n)
    if tamper is not None:
        layout = SystemLayout((atom_site(),) * n)
        amps = tamper(StateVector(layout, amps), rng).amplitudes
    combo = 0
    for _ in range(n):
        combo = (combo << 1) | int(rng.integers(0, 2))
    probs = np.abs(dense_rotation(n, combo) @ amps) ** 2
    outcome = int(np.searchsorted(np.cumsum(probs), rng.random() * float(probs.sum()),
                                  side="right"))
    outcome = min(outcome, len(amps) - 1)
    bases = combo_bases(n, combo)
    expected = ghz_expected_parity(bases)
    return RoundOutcome(
        mode="check",
        check_conclusive=expected is not None,
        check_passed=expected is None or outcome_parity(outcome) == expected,
        check_bases=bases,
    )


# ---------------------------------------------------------------------------
# the outcome law and the decode rule, key by key


def outcome_distribution(
    config: RoundConfig, message: Message, cutoff: int = 1
) -> dict[tuple[tuple[int, int], str], float]:
    """The joint law of (click counts, receiver bits) of one message, one
    key at a time, from its :func:`dense.pipeline_state` at ``cutoff``,
    projected onto the photon sectors: the reference of the compiled
    ``outcomes`` array.  A key sums its terms in the order the loops reach
    them, and dark counts spread each real key in the order the real keys
    were first reached."""
    amps = sectors(pipeline_state(config, message, cutoff))[0]
    strings = all_bit_strings(config)
    bell = bell_weights(config, message, cutoff)
    w0 = dict(zip(strings, (np.abs(amps[:, 0, 0]) ** 2).tolist()))
    wp = {bits: bell[("psi+", bits)] for bits in strings}
    wm = {bits: bell[("psi-", bits)] for bits in strings}
    w2 = dict(zip(strings, (np.abs(amps[:, 1, 1]) ** 2).tolist()))
    eta, p_dc = config.detector.efficiency, config.detector.dark_prob
    q = P._window_q(config)
    s1 = 1.0 - q
    s2 = s1 * s1
    m = len(strings)
    deficit = max(0.0, 1.0 - (sum(w0.values()) + sum(wp.values()) + sum(wm.values())
                              + sum(w2.values())))
    real: dict = {}

    def add(counts, bits, p):
        if p > 0.0:
            real[(counts, bits)] = real.get((counts, bits), 0.0) + p

    nojump = {bits: w0[bits] + (wp[bits] + wm[bits]) * s1 + w2[bits] * s2 for bits in strings}
    n_t = sum(nojump.values())
    for bits in strings:
        share = nojump[bits] / n_t if n_t > 1e-300 else 1.0 / m
        add((0, 0), bits, nojump[bits] if n_t > 1e-300 else 0.0)
        add((0, 0), bits, deficit * share)
    p_j1, p_j2 = 2.0 * q * (1.0 - q), q * q
    for bits in strings:
        add((1, 0), bits, wp[bits] * q * eta)
        add((0, 0), bits, wp[bits] * q * (1.0 - eta))
        add((0, 1), bits, wm[bits] * q * eta)
        add((0, 0), bits, wm[bits] * q * (1.0 - eta))
        w = w2[bits]
        add((0, 0), bits, w * p_j1 * (1.0 - eta))
        add((1, 0), bits, w * p_j1 * eta * 0.5)
        add((0, 1), bits, w * p_j1 * eta * 0.5)
        add((0, 0), bits, w * p_j2 * (1.0 - eta) ** 2)
        add((1, 0), bits, w * p_j2 * 2.0 * eta * (1.0 - eta) * 0.5)
        add((0, 1), bits, w * p_j2 * 2.0 * eta * (1.0 - eta) * 0.5)
        add((2, 0), bits, w * p_j2 * eta * eta * 0.5)
        add((0, 2), bits, w * p_j2 * eta * eta * 0.5)
    if p_dc == 0.0:
        return real
    out: dict = {}
    dark = ((0, (1.0 - p_dc)), (1, p_dc))
    for ((r_plus, r_minus), bits), p in real.items():
        for d_plus, pd_plus in dark:
            for d_minus, pd_minus in dark:
                key = ((r_plus + d_plus, r_minus + d_minus), bits)
                out[key] = out.get(key, 0.0) + p * pd_plus * pd_minus
    return out


@lru_cache(maxsize=None)
def _likelihoods(config: RoundConfig) -> dict:
    """Each message's likelihood per decode key: (Bell label, bits) keys
    from :func:`bell_weights` of the pipeline states, ((n+, n-), bits) keys
    from the key-by-key :func:`outcome_distribution`."""
    out: dict = {}
    for m in MESSAGES:
        for key, p in [*bell_weights(config, m).items(), *outcome_distribution(config, m).items()]:
            out.setdefault(key, dict.fromkeys(MESSAGES, 0.0))[m] = p
    return out


def decode_key(config: RoundConfig, *key) -> Message | None:
    """Maximum likelihood over MESSAGES; ties within a relative 1e-9 and keys
    no message reaches above 1e-300 abort."""
    likelihoods = _likelihoods(config).get(key, dict.fromkeys(MESSAGES, 0.0))
    best = max(likelihoods.values())
    if best <= 1e-300:
        return None
    winners = [m for m in MESSAGES if likelihoods[m] >= best * (1.0 - 1e-9)]
    return winners[0] if len(winners) == 1 else None


def decode(config: RoundConfig, counts: tuple[int, int], bits: str) -> Message | None:
    """No click aborts, a single click reads the psi+- weights, more clicks
    fall back to maximum likelihood over the outcome model."""
    if sum(counts) == 0:
        return None
    label = {(1, 0): "psi+", (0, 1): "psi-"}.get(counts)
    return decode_key(config, label, bits) if label else decode_key(config, counts, bits)


# ---------------------------------------------------------------------------
# rounds


def _sample_ideal_pnr(
    config: RoundConfig, message: Message, rng: np.random.Generator
) -> tuple[str | None, str | None]:
    """Oracle four-state discrimination: sample (Bell label, bits) with the
    exact branch weights of the dense pipeline state (:func:`bell_weights`),
    label-major, bit strings in code order; remaining probability mass is a
    lost round."""
    u = rng.random()
    weights = bell_weights(config, message)
    acc = 0.0
    for label in BELL_LABELS:
        for bits in all_bit_strings(config):
            acc += weights[(label, bits)]
            if u < acc:
                return label, bits
    return None, None


def _encode_round(
    config: RoundConfig,
    sent: Message,
    rng: np.random.Generator,
    tamper: Callable[[StateVector, np.random.Generator], StateVector] | None = None,
    cutoff: int = 1,
    jumps: list | None = None,
) -> RoundOutcome:
    """One encode round of ``sent`` on its :func:`dense.pipeline_state` at
    ``cutoff``; ``tamper`` acts on that state before the detection window,
    and ``jumps``, if given, receives the (time, sign, registered) of the
    window's jumps."""
    if config.ideal_pnr:
        if tamper is not None:
            raise ValueError("ideal_pnr: the oracle decode never reads the tampered state")
        label, bits = _sample_ideal_pnr(config, sent, rng)
        if label is None:
            strings = all_bit_strings(config)
            bits = strings[int(rng.integers(0, len(strings)))]
            decoded = None
        else:
            decoded = decode_key(config, label, bits)
        record = DetectionRecord((), config.t_window)
        return RoundOutcome(
            mode="encode",
            sent=sent,
            receiver_bits=bits,
            detection=record,
            decoded=decoded,
            bell_label=label,
        )

    state = pipeline_state(config, sent, cutoff)
    if tamper is not None:
        state = tamper(state, rng)
    info = layout_info(state.layout)
    psi, events, window_jumps, photon_survived = _window_raw(info, state.amplitudes, config, rng)
    if jumps is not None:
        jumps += window_jumps
    record = DetectionRecord(tuple(events), config.t_window)
    bits = _sample_bits_raw(info, psi, rng)
    decoded = decode(config, record.counts(), bits)
    return RoundOutcome(
        mode="encode",
        sent=sent,
        receiver_bits=bits,
        detection=record,
        decoded=decoded,
        real_click=record.has_real_click(),
        photon_survived=photon_survived,
    )


def run_round(
    config: RoundConfig,
    message: Message | str = "random",
    rng: np.random.Generator | None = None,
    cutoff: int = 1,
    jumps: list | None = None,
) -> RoundOutcome:
    """One full protocol round (check branch with probability p_check,
    otherwise encode/transfer/detect/decode at mode cutoff ``cutoff``;
    ``jumps`` as in :func:`_encode_round`)."""
    if rng is None:
        rng = round_rng(config.seed, 0)
    if rng.random() < config.p_check:
        return run_check_round(config, rng)
    if message == "random":
        sent = MESSAGES[int(rng.integers(0, 4))]
    elif isinstance(message, Message):
        sent = message
    else:
        sent = Message.from_name(str(message))
    return _encode_round(config, sent, rng, cutoff=cutoff, jumps=jumps)


def outcome_to_dict(index: int, out: RoundOutcome) -> dict:
    """The round-log dict of a RoundOutcome: the line format of
    ``rounds.jsonl`` and ``round.json`` is ``json.dumps`` of it."""
    name = lambda m: "abort" if m is None else m.value  # noqa: E731
    d = {"round": index, "mode": out.mode}
    if out.mode == "encode":
        d["sent"] = name(out.sent)
        d["clicks"] = [[t, ch] for t, ch in out.detection.events] if out.detection else []
        d["receiver_bits"] = out.receiver_bits
        d["decoded"] = name(out.decoded)
        if out.bell_label is not None:
            d["bell_label"] = out.bell_label
    else:
        d["check_bases"] = out.check_bases
        d["check_conclusive"] = out.check_conclusive
        d["check_passed"] = out.check_passed
    return d


# ---------------------------------------------------------------------------
# many windows at once, for the statistical tests


def engine_windows(state: StateVector, config: RoundConfig, seed: int, n: int):
    """Yield, one lockstep block at a time, the :class:`lockstep.Rounds` of
    the detection windows of ``state``, projected onto the photon sectors
    (at most ``P._SUPPORT_TOL`` dropped), on the streams ``(seed, 0 .. n-1)``:
    row i holds the jumps, dark counts and survival flag of
    ``simulate_window(state, config, round_rng(seed, i))``."""
    start, dropped = sectors(state)
    assert dropped <= P._SUPPORT_TOL, dropped
    tables = lockstep.jump_tables(start[None])
    for streams in lockstep.row_blocks(seed, 0, n):
        rows = np.arange(len(streams))
        start = np.zeros(len(rows), dtype=np.int64)
        r = lockstep.Rounds(len(rows))
        lockstep.window(config, tables, streams, rows, start, r)
        yield r


# ---------------------------------------------------------------------------
# engine results against the oracle's

TIME_TOL = 1e-12  # bound on later jump times against the oracle


def assert_records_close(got: DetectionRecord, want: DetectionRecord, first_jump=None,
                         where=None) -> None:
    """Equal records, except that real-click times may differ by ``TIME_TOL``.
    Dark-count times are exact, and so is the first real click when
    ``first_jump``, the oracle's (time, sign, registered) of the round's
    first jump, registered."""
    assert got.window == want.window, where
    assert [ch for _, ch in got.events] == [ch for _, ch in want.events], where
    first_click = first_jump is not None and first_jump[2]
    for (t_got, ch), (t_want, _) in zip(got.events, want.events):
        if ch in (DARK_PLUS, DARK_MINUS):
            assert t_got == t_want, where
        elif first_click:
            assert t_got == t_want, where
            first_click = False
        else:
            assert abs(t_got - t_want) <= TIME_TOL, where


def assert_window_row(r: lockstep.Rounds, row: int, record: DetectionRecord, survived: bool,
                      jumps, where=None, first_exact: bool = True) -> None:
    """Row ``row`` of an engine window against the oracle's window: its
    ``record``, survival flag and ``jumps`` (:func:`window_jumps`).  Jump
    signs, registrations, click counts, dark-count times and the survival
    flag are exact, jump times within ``TIME_TOL``, and with
    ``first_exact``, for tables whose start norms sum the oracle's bit
    codes in its order, the first jump time too."""
    n = len(jumps)  # passes where no row jumped leave zero columns
    times, signs, seen = zip(*jumps) if jumps else ((), (), ())
    assert not r.jump_sign[row, n:].any() and not r.jump_seen[row, n:].any(), where
    assert r.jump_sign[row, :n].tolist() == list(signs), where
    assert r.jump_seen[row, :n].tolist() == list(seen), where
    if first_exact:
        assert r.jump_t[row, :min(n, 1)].tolist() == list(times[:1]), where
    assert np.all(np.abs(r.jump_t[row, :n] - times) <= TIME_TOL), where
    assert tuple(r.clicks[row].tolist()) == record.counts(), where
    darks = dict((ch, t) for t, ch in record.events if ch in (DARK_PLUS, DARK_MINUS))
    assert [None if math.isnan(t) else t for t in r.dark_t[row].tolist()] == [
        darks.get(DARK_PLUS), darks.get(DARK_MINUS)
    ], where
    assert bool(r.survived[row]) == survived, where


def assert_log_close(line: str, want: dict, where=None) -> None:
    """A round-log line against the oracle's dict (:func:`outcome_to_dict`):
    the same keys and values, click times as in :func:`assert_records_close`."""
    got = json.loads(line)
    assert list(got) == list(want), where
    for key, value in want.items():
        if key != "clicks":
            assert got[key] == value, (where, key)
    if "clicks" in want:
        assert_records_close(
            DetectionRecord(tuple(map(tuple, got["clicks"])), 0.0),
            DetectionRecord(tuple(map(tuple, want["clicks"])), 0.0), where=where,
        )
