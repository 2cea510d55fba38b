"""End-to-end secure dense-coding pipeline.

One round: share an (N+1)-party GHZ state (plus two vacuum cavities),
branch into a security-check round with probability ``p_check``, otherwise
encode two classical bits on Alice's atom, map Alice's and Bob's atomic
excitations onto their cavities by the closed-form conditional evolution,
rotate the remaining receivers' atoms, and discriminate the two-mode
photonic state at a 50/50 beam splitter via Monte-Carlo wavefunction
trajectories (jump channels ``(a_A +- a_B)``, detectors D+/D-).

Photonic Bell-like states:

    psi_pm = (|01> pm |10>) / sqrt(2)
    phi_pm = (beta^2 |11> pm |00>) / sqrt(beta^4 + 1)

A single D+/D- click identifies psi+/psi-; the phi pair is not resolvable
by click counting, so those messages abort unless the idealized
photon-number-resolving mode is enabled, which performs an oracle
discrimination in the full four-state basis.

``k == 0`` is treated as the ideal-extraction limit of the detection
window: every photon present is eventually detected, with click times
drawn uniformly over the window (the k -> 0+ limit of the truncated
exponential arrival law).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import hilbert, lockstep
from .dynamics import PhysicalParams, alpha_beta, transfer_time
from .hilbert import (
    G,
    E,
    Message,
    MESSAGES,
    SiteKind,
    StateVector,
    SystemLayout,
    apply_site_operator,
    atom_site,
    mode_site,
    norm_sq,
    pauli_encode,
    site_view,
)

CHANNEL_PLUS = "D+"
CHANNEL_MINUS = "D-"
DARK_PLUS = "darkD+"
DARK_MINUS = "darkD-"

PSI_PLUS = "psi+"
PSI_MINUS = "psi-"
PHI_PLUS = "phi+"
PHI_MINUS = "phi-"
BELL_LABELS = (PSI_PLUS, PSI_MINUS, PHI_PLUS, PHI_MINUS)
_MSG_INDEX = {m: i for i, m in enumerate(MESSAGES)}
_DECODED = MESSAGES + (None,)  # by decoded-message index, lockstep.ABORT = None

_TIE_RTOL = 1e-9
_SUPPORT_TOL = 1e-10
_CACHE_SIZE = 64  # entries per compile cache


class UnexpectedPhotonSupport(hilbert.HilbertError):
    """State has weight outside the two-mode {00,01,10,11} subspace."""


@dataclass(frozen=True)
class DetectorModel:
    """Threshold detector pair: registration efficiency and per-window dark
    count probability (at most one dark event per detector per window)."""

    efficiency: float = 1.0
    dark_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValueError("dark_prob must lie in [0, 1)")


@dataclass(frozen=True, kw_only=True)
class RoundConfig:
    """Knobs for one protocol round / batch, given by keyword.

    ``t_map=None`` resolves to the transfer time t* of ``params``; an
    explicit ``t_map`` must be a zero of alpha (see :func:`map_to_cavities`).
    ``success_convention`` selects which reading of the analytic success
    probability :func:`success_probability_formula` reports.
    The field order is the CLI echo's key order: section ``params``, the
    plain fields (section ``round``), then section ``detector``.
    """

    params: PhysicalParams
    n_receivers: int = 2
    p_check: float = 0.0
    t_map: float | None = None
    t_window: float
    success_convention: str = "survival"
    ideal_pnr: bool = False
    cutoff: int = 1
    seed: int = 0
    detector: DetectorModel = DetectorModel()

    def __post_init__(self):
        if self.n_receivers < 2:
            raise ValueError("n_receivers must be >= 2")
        if not 0.0 <= self.p_check <= 1.0:
            raise ValueError("p_check must lie in [0, 1]")
        if not self.t_window > 0:
            raise ValueError("t_window must be positive")
        if self.t_map is not None:
            if not self.t_map > 0:
                raise ValueError("t_map must be positive")
            alpha2 = alpha_beta(self.params, self.t_map)[0] ** 2
            if alpha2 > _SUPPORT_TOL:
                raise ValueError(
                    f"t_map = {self.t_map!r} leaves weight {alpha2:.3e} on the mapped "
                    "atoms; use null (the transfer time t*) or another zero of alpha"
                )
        if self.success_convention not in ("survival", "integrated"):
            raise ValueError("success_convention must be 'survival' or 'integrated'")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")

    @property
    def n_parties(self) -> int:
        return self.n_receivers + 1


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


@dataclass
class BatchStats:
    n_rounds: int
    n_encode: int
    n_check: int
    success_rate: float
    abort_rate: float
    confusion: list[list[int]]  # rows I,X,iY,Z; cols I,X,iY,Z,Abort
    check_pass_rate: float | None
    psi_click_rate: float | None
    psi_survival_rate: float | None
    wall_time_s: float


# ---------------------------------------------------------------------------
# layout and deterministic pipeline


def layout_for(n_parties: int, cutoff: int = 1) -> SystemLayout:
    """Atoms in party order (Alice, Bob, further receivers), then cavities A, B."""
    sites = tuple([atom_site()] * n_parties) + (mode_site(cutoff), mode_site(cutoff))
    return SystemLayout(sites)


def prepare_ghz(n_parties: int, cutoff: int = 1) -> StateVector:
    """(|e..e> + |g..g>)/sqrt(2) on the atoms, cavities in vacuum."""
    if n_parties < 2:
        raise ValueError("n_parties must be >= 2")
    layout = layout_for(n_parties, cutoff)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index_of((E,) * n_parties + (0, 0))] = 1.0 / math.sqrt(2.0)
    amps[layout.index_of((G,) * n_parties + (0, 0))] = 1.0 / math.sqrt(2.0)
    return StateVector(layout, amps)


def resolve_t_map(config: RoundConfig) -> float:
    return config.t_map if config.t_map is not None else transfer_time(config.params)


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a compiled table read-only: the plan cache hands one copy to every caller."""
    array.flags.writeable = False
    return array


def map_to_cavities(state: StateVector, config: RoundConfig) -> StateVector:
    """Simultaneous conditional evolution of (Alice atom, cavity A) and
    (Bob atom, cavity B) for ``t_map``, in closed form.

    With the cavity in vacuum each pair evolves as |g,0> -> |g,0> (dark)
    and |e,0> -> alpha|e,0> + beta|g,1>, with (alpha, beta) from
    :func:`alpha_beta`.  At ``t_map = t*`` alpha vanishes, so both mapped
    atoms end in |g>, disentangled from the (A, B, remaining receivers)
    subsystem.
    """
    return _map_pairs(state, config.params, resolve_t_map(config))


def _map_pairs(state: StateVector, params: PhysicalParams, t_map: float) -> StateVector:
    layout = state.layout
    if abs(norm_sq(state) - 1.0) > 1e-9:
        raise ValueError("map_to_cavities expects a normalized input state")
    mode_a, mode_b = layout.mode_sites[0], layout.mode_sites[1]
    for m in (mode_a, mode_b):
        if _occupied_weight(state, m) > 1e-12:
            raise ValueError("cavities must start in vacuum")
    alpha, beta = alpha_beta(params, t_map)
    occ = layout.occupations
    amps = state.amplitudes.copy()
    for atom, mode in ((0, mode_a), (1, mode_b)):
        excited = np.flatnonzero((occ[:, atom] == E) & (occ[:, mode] == 0))
        emitted = excited - layout.strides[atom] + layout.strides[mode]
        amps[emitted] += beta * amps[excited]
        amps[excited] *= alpha
    return StateVector(layout, amps)


def _occupied_weight(state: StateVector, site: int) -> float:
    return float(np.sum(np.abs(site_view(state, site)[:, 1:, :]) ** 2))


_ROTATION = np.array([[-1, 1], [1, 1]], dtype=np.complex128) / math.sqrt(2.0)
# |e> -> (|e>+|g>)/sqrt2, |g> -> (|e>-|g>)/sqrt2; involution (R^2 = I).


def receiver_rotation(state: StateVector, atom_index: int) -> StateVector:
    """Classical-field pulse rotating one receiver atom before readout."""
    if state.layout.site_kind(atom_index) is not SiteKind.ATOM:
        raise hilbert.NotAnAtomSite(f"site {atom_index} is not an atom")
    return apply_site_operator(state, atom_index, _ROTATION)


def rotated_receiver_sites(layout: SystemLayout) -> tuple[int, ...]:
    """All receivers except the flying-qubit holder (Bob, atom 1)."""
    return tuple(i for i in layout.atom_sites if i >= 2)


def pipeline_state(config: RoundConfig, message: Message) -> StateVector:
    """Deterministic state entering the detection window for one message."""
    plan = _plan(config)
    return StateVector(plan.info.layout, plan.amps[_MSG_INDEX[message]])


def _pipeline_amps(config: RoundConfig, t_map: float) -> np.ndarray:
    """The pipeline state of every message, as rows in MESSAGES order."""
    rows = []
    for message in MESSAGES:
        state = pauli_encode(prepare_ghz(config.n_parties, config.cutoff), 0, message)
        state = _map_pairs(state, config.params, t_map)
        for site in rotated_receiver_sites(state.layout):
            state = receiver_rotation(state, site)
        rows.append(state.amplitudes)
    return _frozen(np.array(rows))


def pipeline_beta(config: RoundConfig) -> float:
    return alpha_beta(config.params, resolve_t_map(config))[1]


# ---------------------------------------------------------------------------
# layout bookkeeping caches


@dataclass(frozen=True)
class _LayoutInfo:
    layout: SystemLayout
    photon_numbers: np.ndarray  # total photons per basis index
    bit_codes: np.ndarray  # packed rotated-receiver bits per basis index
    bit_strings: tuple[str, ...]  # code -> "eg..." string
    mode_a: int
    mode_b: int
    receiver_sites: tuple[int, ...]


@lru_cache(maxsize=_CACHE_SIZE)
def _layout_info(layout: SystemLayout) -> _LayoutInfo:
    n_sites = len(layout.sites)
    if layout.mode_sites != (n_sites - 2, n_sites - 1):
        raise ValueError("protocol layouts end with cavity A, then cavity B")
    receivers = rotated_receiver_sites(layout)
    mode_a, mode_b = layout.mode_sites
    occ = layout.occupations
    m = len(receivers)
    n = occ[:, list(layout.mode_sites)].sum(axis=1)
    # receiver bits packed first-receiver-most-significant
    codes = occ[:, list(receivers)] @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))
    strings = tuple(
        "".join("e" if (code >> (m - 1 - j)) & 1 else "g" for j in range(m))
        for code in range(2**m)
    )
    n.flags.writeable = False
    codes.flags.writeable = False
    return _LayoutInfo(layout, n, codes, strings, mode_a, mode_b, receivers)


# ---------------------------------------------------------------------------
# photonic Bell decomposition


def _sectors(info: _LayoutInfo, amps: np.ndarray) -> np.ndarray:
    """The two-mode amplitudes of each row of ``amps``: (rows, sector, bit
    code) with sectors (n_A, n_B) = 00, 01, 10, 11 and bit codes indexing
    ``info.bit_strings``.

    Requires every atom outside the rotated receivers to sit in |g> and the
    photonic support inside {00,01,10,11}.
    """
    occ = info.layout.occupations
    weights = np.abs(amps) ** 2
    na, nb = occ[:, info.mode_a], occ[:, info.mode_b]
    stray = (na > 1) | (nb > 1)
    fixed_atoms = [i for i in info.layout.atom_sites if i not in info.receiver_sites]
    excited = ~stray & (occ[:, fixed_atoms] != G).any(axis=1)
    if np.any(weights[:, excited] > _SUPPORT_TOL):
        raise ValueError("mapped atoms retain excitation; pipeline states require t_map = t*")
    stray_weight = float(weights[:, stray].sum(axis=1).max())
    if stray_weight > _SUPPORT_TOL:
        raise UnexpectedPhotonSupport(
            f"weight {stray_weight:.3e} outside the four two-mode basis states"
        )
    kept = ~stray & ~excited
    out = np.zeros((len(amps), 4, len(info.bit_strings)), dtype=np.complex128)
    for sector, (a, b) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        # each (bit code, n_A, n_B) names exactly one kept basis index
        sel = kept & (na == a) & (nb == b)
        out[:, sector, info.bit_codes[sel]] = amps[:, sel]
    return out


def _bell(sectors: np.ndarray, beta: float) -> np.ndarray:
    """Bell-like weights (rows, label, bit code) of sector amplitudes, labels
    in BELL_LABELS order.

    The phi basis depends on beta(t_map) and is non-orthogonal for k > 0;
    weights are squared expansion coefficients, so they total the squared norm.
    """
    beta2 = beta * beta
    if beta2 < 1e-30:
        raise ValueError("beta(t_map) vanishes; phi basis is degenerate")
    norm_phi = math.sqrt(beta2 * beta2 + 1.0)
    a00, a01, a10, a11 = (sectors[:, s] for s in range(4))
    coefficients = (
        (a01 + a10) / math.sqrt(2.0),
        (a01 - a10) / math.sqrt(2.0),
        norm_phi * (a11 / beta2 + a00) / 2.0,
        norm_phi * (a11 / beta2 - a00) / 2.0,
    )
    return np.abs(np.stack(coefficients, axis=1)) ** 2


def bell_weights(
    state: StateVector, config: RoundConfig
) -> dict[tuple[str, str], float]:
    """Expansion weights of a pipeline state in the photonic Bell-like basis,
    jointly with the rotated receivers' bit strings (see :func:`_bell`)."""
    info = _layout_info(state.layout)
    beta = alpha_beta(config.params, _plan(config).t_map)[1]
    weights = _bell(_sectors(info, state.amplitudes[None]), beta)[0].tolist()
    return {
        (label, bits): weights[j][code]
        for code, bits in enumerate(info.bit_strings)
        for j, label in enumerate(BELL_LABELS)
    }


# ---------------------------------------------------------------------------
# Monte-Carlo wavefunction detection window


class _GeneratorRows:
    """:class:`qdcsim.streams.RowStreams` draws for a one-row block, taken
    from one numpy ``Generator``: one value per row given, none for no rows."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def __len__(self) -> int:
        return 1

    def random(self, rows: np.ndarray) -> np.ndarray:
        return self._rng.random(len(rows))

    def integers(self, rows: np.ndarray, n: int) -> np.ndarray:
        return self._rng.integers(0, n, size=len(rows))


def simulate_window(
    state: StateVector, config: RoundConfig, rng: np.random.Generator
) -> WindowResult:
    """Unravel the detection window for one trajectory (one row of
    :func:`qdcsim.lockstep.window` on the state's own jump tables, drawing
    from ``rng``).

    Draw u uniform; evolve the pure-decay no-jump state until its squared
    norm reaches u or the window elapses; on a jump pick the channel with
    probability proportional to <C_pm^dag C_pm>, apply it, and register a
    click with probability eta.  After each jump the state is renormalized
    and a fresh u is drawn.  Dark counts are superimposed per detector.

    For single-photon states the registered-click probability by time t is
    eta * (1 - exp(-2kt)) * (one-photon weight).  A start state with weight
    on three or more photons raises ValueError before any draw.
    """
    info = _layout_info(state.layout)
    tables = lockstep.jump_tables(info, state.amplitudes[None])
    row = np.zeros(1, dtype=np.int64)
    r = lockstep.Rounds.empty(1)
    q, hist = lockstep.window(config, tables, _GeneratorRows(rng), row, row, r)
    h = int(hist[0])
    end = tables.state(info, lockstep.jump_vectors(info, state.amplitudes[None]), 0, h, q[0])
    return WindowResult(
        _records(r, row, config.t_window)[0], StateVector(state.layout, end), h > 0,
        bool(r.survived[0]),
    )


# ---------------------------------------------------------------------------
# analytic outcome model (decode tables, likelihoods, posteriors)


def _window_q(config: RoundConfig) -> float:
    """Per-photon probability of a jump within the window."""
    k = config.params.k
    if k == 0.0:
        return 1.0
    return 1.0 - math.exp(-2.0 * k * config.t_window)


def _outcome_law(config: RoundConfig, sectors: np.ndarray, bell: np.ndarray,
                 n_counts: int) -> np.ndarray:
    """Exact joint law of (observable click counts, receiver bit code) per
    row of ``sectors`` under the trajectory model, dark counts included:
    ``law[row, n+, n-, bit code]``, click counts below ``n_counts``.

    Sector bookkeeping (vacuum / psi+- / two-photon) is exact for pipeline
    states, whose photon sectors never superpose across a jump.  Each cell
    adds its terms in the order the model meets them.
    """
    eta = config.detector.efficiency
    p_dc = config.detector.dark_prob
    q = _window_q(config)
    s1 = 1.0 - q  # single-photon no-jump weight factor exp(-2kT)
    s2 = s1 * s1
    m = sectors.shape[2]
    w0, wp, wm, w2 = np.abs(sectors[:, 0]) ** 2, bell[:, 0], bell[:, 1], np.abs(sectors[:, 3]) ** 2

    # row totals are plain sums in bit-code order, not numpy's pairwise sums
    deficit = np.array([  # per row: the weight the transfer lost
        [max(0.0, 1.0 - (sum(a) + sum(b) + sum(c) + sum(d)))]
        for a, b, c, d in zip(w0.tolist(), wp.tolist(), wm.tolist(), w2.tolist())
    ])
    nojump = w0 + (wp + wm) * s1 + w2 * s2
    n_t = np.array([[sum(row)] for row in nojump.tolist()])
    live = n_t > 1e-300
    law = np.zeros((len(sectors), n_counts, n_counts, m))
    # No-jump residuals plus the transfer-loss deficit: no real clicks; bits
    # follow the residual state (uniform when it is numerically empty).
    share = np.where(live, nojump / np.where(live, n_t, 1.0), 1.0 / m)
    law[:, 0, 0] = np.where(live, nojump, 0.0) + deficit * share
    # single-photon sectors: one jump with prob q, registered with eta
    law[:, 1, 0] += wp * q * eta
    law[:, 0, 0] += wp * q * (1.0 - eta)
    law[:, 0, 1] += wm * q * eta
    law[:, 0, 0] += wm * q * (1.0 - eta)
    # two-photon sector: jumps ~ Binom(2, q); all jumps share one sign (the
    # surviving single-photon state is the matching psi_pm), sign +/-
    # equiprobable; registrations independent with eta
    p_j1 = 2.0 * q * (1.0 - q)
    p_j2 = q * q
    law[:, 0, 0] += w2 * p_j1 * (1.0 - eta)
    law[:, 1, 0] += w2 * p_j1 * eta * 0.5
    law[:, 0, 1] += w2 * p_j1 * eta * 0.5
    law[:, 0, 0] += w2 * p_j2 * (1.0 - eta) ** 2
    law[:, 1, 0] += w2 * p_j2 * 2.0 * eta * (1.0 - eta) * 0.5
    law[:, 0, 1] += w2 * p_j2 * 2.0 * eta * (1.0 - eta) * 0.5
    law[:, 2, 0] += w2 * p_j2 * eta * eta * 0.5
    law[:, 0, 2] += w2 * p_j2 * eta * eta * 0.5

    if p_dc == 0.0:
        return law
    # at most one dark count per detector, independent of the real clicks
    real, law = law, np.zeros_like(law)
    dark = ((0, (1.0 - p_dc)), (1, p_dc))
    # in the order the model first reaches the real counts: (1, 1), the one
    # cell of three terms, adds vacuum, then D+, then D-
    for r_plus, r_minus in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2)):
        for d_plus, pd_plus in dark:
            for d_minus, pd_minus in dark:
                law[:, r_plus + d_plus, r_minus + d_minus] += (
                    real[:, r_plus, r_minus] * pd_plus * pd_minus
                )
    return law


def outcome_distribution(
    config: RoundConfig, message: Message
) -> dict[tuple[tuple[int, int], str], float]:
    """Exact joint distribution of (observable click counts, receiver bits)
    for one message, dark counts included: the nonzero cells of the plan's
    outcome law (:func:`_outcome_law`)."""
    plan = _plan(config)
    law = plan.outcomes[_MSG_INDEX[message]]
    cells = np.argwhere(law > 0.0).tolist()
    return {
        ((a, b), plan.info.bit_strings[code]): p
        for (a, b, code), p in zip(cells, law[law > 0.0].tolist())
    }


def _argmax(likelihoods: np.ndarray) -> np.ndarray:
    """The maximum-likelihood message index along axis 0 (MESSAGES order) of
    every cell: ABORT where the best likelihood is at most 1e-300 or several
    messages reach within a relative ``_TIE_RTOL`` of it."""
    best = likelihoods.max(axis=0)
    winners = likelihoods >= best * (1.0 - _TIE_RTOL)
    unique = (best > 1e-300) & (winners.sum(axis=0) == 1)
    return np.where(unique, winners.argmax(axis=0), lockstep.ABORT)


def build_decode_table(config: RoundConfig) -> dict[tuple[str, str], Message | None]:
    """Maximum-likelihood decode table, generated mechanically from the
    deterministic pipeline.

    Honest mode keys: (D+ | D- | none, receiver bits) from the psi-branch
    weights; ties and unsupported outcomes map to None (abort).  Ideal-PNR
    mode keys: (Bell label, receiver bits) over the full four-state basis.
    """
    plan = _plan(config)
    strings = plan.info.bit_strings
    if config.ideal_pnr:
        keys = [(label, bits) for label in BELL_LABELS for bits in strings]
        return dict(zip(keys, [_DECODED[i] for i in plan.pnr_decoded.tolist()]))
    table = {
        (channel, bits): _DECODED[i]
        for channel, cell in ((CHANNEL_PLUS, (1, 0)), (CHANNEL_MINUS, (0, 1)))
        for bits, i in zip(strings, plan.decoded[cell].tolist())
    }
    table.update({("none", bits): None for bits in strings})
    return table


def decode(config: RoundConfig, counts: tuple[int, int], bits: str) -> Message | None:
    """Decode one window: single-click windows go through the decode table;
    multi-click windows fall back to exact maximum likelihood; irreducible
    ties, no-click windows and counts the model never produces abort."""
    plan = _plan(config)
    n_plus, n_minus = counts
    if not (0 <= n_plus < len(plan.decoded) and 0 <= n_minus < len(plan.decoded)):
        return None
    return _DECODED[plan.decoded[n_plus, n_minus, plan.info.bit_strings.index(bits)]]


# ---------------------------------------------------------------------------
# GHZ parity check rounds (protocol step 2)

# each atom's x and y bras, unscaled (sqrt 2 times the basis rotation): the
# entries are +-1 and +-i, so outcome amplitudes that cancel are exact zeros;
# outcome 0 is eigenvalue +1
_XY_BRAS = np.array([[[1, 1], [1, -1]], [[1, -1j], [1, 1j]]], dtype=np.complex128)


def combo_laws(amps: np.ndarray, n_parties: int) -> np.ndarray:
    """The outcome law of every x/y basis combination on the atoms-only state
    ``amps``: ``law[combo, outcome]``.  Bit j of ``combo`` (party 0 most
    significant) is 1 where party j measures y; ``outcome`` packs the
    parties' outcomes as a basis index packs occupations.

    Each party's rotation acts on its own axis and doubles the combinations
    so far, so the work grows as 4^n, not as the 8^n of one dense matrix per
    combination; the law is scaled by 2^-n once, at the end."""
    psi = amps.reshape(1, -1)
    for j in range(n_parties):
        axes = psi.reshape(len(psi), 2**j, 2, -1)  # combo, parties < j, party j, parties > j
        psi = np.einsum("bik,clkr->cblir", _XY_BRAS, axes).reshape(2 * len(psi), -1)
    return (psi.real**2 + psi.imag**2) * 0.5**n_parties


@dataclass(frozen=True)
class _CheckContext:
    layout: SystemLayout  # atoms-only layout used for check rounds
    ghz: np.ndarray
    bases: tuple[str, ...]  # combo index -> "xyx..." string
    # untampered rounds, per (combo, outcome): the cumulative outcome
    # probabilities of the GHZ state and their sums, and the verdicts
    cum: np.ndarray
    total: np.ndarray
    conclusive: np.ndarray  # per combo: the GHZ state rules out some outcomes
    passed: np.ndarray  # the GHZ state can give the outcome (all, if inconclusive)


@lru_cache(maxsize=_CACHE_SIZE)
def _check_context(n_parties: int) -> _CheckContext:
    layout = SystemLayout((atom_site(),) * n_parties)
    ghz = np.zeros(layout.dim, dtype=np.complex128)
    ghz[0] = ghz[-1] = 1.0 / math.sqrt(2.0)
    law = combo_laws(ghz, n_parties)
    # An even number of y bases fixes the product of the +-1 outcomes, so the
    # outcomes of the other parity cancel exactly; an odd number leaves the
    # outcomes uniform.
    passed = law > 0.0
    bases = tuple(
        "".join("xy"[(combo >> (n_parties - 1 - j)) & 1] for j in range(n_parties))
        for combo in range(2**n_parties)
    )
    return _CheckContext(
        layout, _frozen(ghz), bases,
        cum=_frozen(np.cumsum(law, axis=1)),
        total=_frozen(law.sum(axis=1)),
        conclusive=_frozen(~passed.all(axis=1)),
        passed=_frozen(passed),
    )


# ---------------------------------------------------------------------------
# compiled per-config plan


@dataclass(frozen=True, eq=False)
class _Plan:
    """Everything a round of one config reads, compiled once per config with
    the seed excluded.  Each table holds what a round computed on its own
    would evaluate, from the same expression, so it is bit-equal; the jump
    tables hold the detection window in closed form (``lockstep``).

    One outcome law drives every decision: the single-click decode table and
    the ideal-PNR table come from the Bell weights, the multi-click fallback
    from ``outcomes``, and ``security`` marginalises ``outcomes`` for its
    posteriors."""

    config: RoundConfig
    info: _LayoutInfo
    t_map: float
    amps: np.ndarray  # (4, dim) pipeline amplitudes in MESSAGES order
    tables: lockstep.JumpTables  # detection-window tables of amps
    bell: np.ndarray  # (4, Bell label, bit code) Bell weights of amps
    outcomes: np.ndarray  # (4, n+, n-, bit code) outcome law of amps (_outcome_law)
    decoded: np.ndarray  # (n+, n-, bit code) -> decoded-message index
    pnr_cum: np.ndarray  # (4, label x bit code) cumulative Bell weights
    pnr_decoded: np.ndarray  # (label x bit code) -> decoded-message index
    # round-log line tails per row key, split around the clicks list
    # (``_log_tail``), filled by the first logged blocks
    log_tails: dict = dataclasses.field(default_factory=dict, repr=False)

    @property
    def check(self) -> _CheckContext:
        """Check-round tables; they depend on the party count alone and are
        built at the first check round."""
        return _check_context(self.config.n_parties)

    def row_width(self, checks: bool) -> int:
        """Entries of the widest per-row array a block of this plan's rounds
        holds (``lockstep.row_blocks``): the encode round's (photon sector or
        Bell label, bit code) weights and, with ``checks`` and p_check > 0,
        the check round's law over 2^n outcomes."""
        width = self.pnr_cum.shape[1] if self.config.ideal_pnr else self.tables.width
        if checks and self.config.p_check > 0.0:
            width = max(width, 2**self.config.n_parties)
        return width


def _plan(config: RoundConfig) -> _Plan:
    """The compiled plan of a config.  Nothing in it depends on the seed, so
    configs that differ only in their seed share one entry of the cache."""
    return _compile_plan(config if config.seed == 0 else dataclasses.replace(config, seed=0))


@lru_cache(maxsize=_CACHE_SIZE)
def _compile_plan(config: RoundConfig) -> _Plan:
    t_map = resolve_t_map(config)
    info = _layout_info(layout_for(config.n_parties, config.cutoff))
    amps = _pipeline_amps(config, t_map)
    sectors = _sectors(info, amps)
    bell = _frozen(_bell(sectors, alpha_beta(config.params, t_map)[1]))
    # click counts reach the photon number plus one dark count
    outcomes = _frozen(_outcome_law(config, sectors, bell, int(info.photon_numbers.max()) + 2))
    decoded = _argmax(outcomes)
    decoded[0, 0] = lockstep.ABORT  # no click
    decoded[1, 0], decoded[0, 1] = _argmax(bell[:, 0]), _argmax(bell[:, 1])  # psi+, psi-
    return _Plan(
        config=config, info=info, t_map=t_map, amps=amps,
        tables=lockstep.jump_tables(info, amps),
        bell=bell, outcomes=outcomes, decoded=_frozen(decoded),
        pnr_cum=_frozen(np.cumsum(bell.reshape(len(MESSAGES), -1), axis=1)),
        pnr_decoded=_frozen(_argmax(bell).reshape(-1)),
    )


_plan.cache_info, _plan.cache_clear = _compile_plan.cache_info, _compile_plan.cache_clear


# ---------------------------------------------------------------------------
# rounds and batches


def round_rng(seed: int, index: int) -> np.random.Generator:
    """Independent counter-based stream per (seed, round index)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def run_round(
    config: RoundConfig,
    message: Message | str = "random",
    rng: np.random.Generator | None = None,
) -> RoundOutcome:
    """One full protocol round (check branch with probability p_check,
    otherwise encode/transfer/detect/decode): a one-row lockstep block
    drawing from ``rng`` (by default round 0 of the config's seed)."""
    if rng is None:
        rng = round_rng(config.seed, 0)
    if message == "random":
        msg_ids = np.arange(len(MESSAGES))
    else:
        sent = message if isinstance(message, Message) else Message.from_name(str(message))
        msg_ids = np.array([_MSG_INDEX[sent]])
    plan = _plan(config)
    return _round_outcomes(plan, lockstep.run_block(plan, _GeneratorRows(rng), msg_ids))[0]


_CHANNELS = (CHANNEL_PLUS, CHANNEL_MINUS, DARK_PLUS, DARK_MINUS)


def _clicks(r: lockstep.Rounds, rows: np.ndarray) -> tuple[list, list, list]:
    """The detector events of each of ``rows`` in time order: registered
    jumps, then the D+ and D- dark counts, stably sorted by time.  Returns
    the events of all the rows, concatenated, as their times and their
    indices into ``_CHANNELS``, and each row's end offset."""
    times = np.concatenate((r.jump_t[rows], r.dark_t[rows]), axis=1)
    present = np.concatenate((r.jump_seen[rows], ~np.isnan(r.dark_t[rows])), axis=1)
    channel = np.concatenate(
        (np.where(r.jump_sign[rows] > 0, 0, 1), np.broadcast_to([2, 3], (len(rows), 2))), axis=1
    )
    order = np.argsort(np.where(present, times, np.inf), axis=1, kind="stable")
    present = np.take_along_axis(present, order, axis=1)
    return (
        np.take_along_axis(times, order, axis=1)[present].tolist(),
        np.take_along_axis(channel, order, axis=1)[present].tolist(),
        np.cumsum(present.sum(axis=1)).tolist(),
    )


def _records(r: lockstep.Rounds, rows: np.ndarray, window: float) -> list[DetectionRecord]:
    """The DetectionRecord of each of ``rows`` (:func:`_clicks`)."""
    times, channels, ends = _clicks(r, rows)
    events = [(t, _CHANNELS[c]) for t, c in zip(times, channels)]
    return [
        DetectionRecord(tuple(events[lo:hi]), window) for lo, hi in zip([0] + ends, ends)
    ]


def _round_outcomes(plan: _Plan, r: lockstep.Rounds) -> list[RoundOutcome]:
    """The RoundOutcome of every row of a lockstep block."""
    strings = plan.info.bit_strings
    records = _records(r, np.arange(len(r.check)), plan.config.t_window)
    out = []
    rows = zip(
        r.check.tolist(), r.combo.tolist(), r.outcome.tolist(), r.sent.tolist(),
        r.bits.tolist(), r.decoded.tolist(), r.label.tolist(), r.survived.tolist(), records,
    )
    for check, combo, measured, sent, bits, decoded, label, survived, detection in rows:
        if check:
            ctx = plan.check
            outcome = RoundOutcome(
                mode="check",
                check_conclusive=bool(ctx.conclusive[combo]),
                check_passed=bool(ctx.passed[combo, measured]),
                check_bases=ctx.bases[combo],
            )
        else:
            outcome = RoundOutcome(
                mode="encode",
                sent=_DECODED[sent],
                receiver_bits=strings[bits],
                detection=detection,
                decoded=_DECODED[decoded],
                bell_label=BELL_LABELS[label] if plan.config.ideal_pnr and label >= 0 else None,
                real_click=detection.has_real_click(),
                photon_survived=survived,
            )
        out.append(outcome)
    return out


# The round log: one line per round, ``json.dumps`` of the dict
#   check:  {"round", "mode", "check_bases", "check_conclusive", "check_passed"}
#   encode: {"round", "mode", "sent", "clicks", "receiver_bits", "decoded"}
#           plus "bell_label" on ideal-PNR rounds that kept their photons,
# with "clicks" the [time, channel] pairs of the round's detector events in
# time order, "abort" for an aborted decode.
_LOG_CHANNELS = tuple(json.dumps(ch) for ch in _CHANNELS)


def _log_tail(plan: _Plan, r: lockstep.Rounds, row: int) -> tuple[str, str]:
    """Row ``row``'s log line after ``{"round": <index>``, split inside its
    clicks list: (up to and with the ``[``, from the ``]`` on); a check
    line, which has no clicks, is (the whole tail, "")."""
    if r.check[row]:
        ctx, combo = plan.check, int(r.combo[row])
        d = {
            "round": 0,
            "mode": "check",
            "check_bases": ctx.bases[combo],
            "check_conclusive": bool(ctx.conclusive[combo]),
            "check_passed": bool(ctx.passed[combo, r.outcome[row]]),
        }
    else:
        names = [m.value for m in MESSAGES] + ["abort"]  # by lockstep message index
        d = {
            "round": 0,
            "mode": "encode",
            "sent": names[r.sent[row]],
            "clicks": [],
            "receiver_bits": plan.info.bit_strings[r.bits[row]],
            "decoded": names[r.decoded[row]],
        }
        if plan.config.ideal_pnr and r.label[row] >= 0:
            d["bell_label"] = BELL_LABELS[r.label[row]]
    # an encode tail's first "[]" is its clicks list
    head, brackets, rest = json.dumps(d)[len('{"round": 0'):].partition("[]")
    return head + brackets[:1], brackets[1:] + rest


def _log_clicks(r: lockstep.Rounds, rows: np.ndarray) -> list[str]:
    """The JSON clicks list of each of ``rows`` without its brackets, in
    :func:`_clicks` order; times print as ``repr(float)``, as ``json.dumps``
    prints them."""
    times, channels, ends = _clicks(r, rows)
    pieces = [f"[{t!r}, {_LOG_CHANNELS[c]}]" for t, c in zip(times, channels)]
    return [", ".join(pieces[lo:hi]) for lo, hi in zip([0] + ends, ends)]


def _log_lines(plan: _Plan, r: lockstep.Rounds, first: int) -> list[str]:
    """The round-log line of every row of a lockstep block whose first round
    is ``first``.  Rows without detector events share a line up to the
    round index: each distinct tail is built and split once per plan by
    ``_log_tail``."""
    n_codes = len(plan.info.bit_strings)
    label = r.label + 1 if plan.config.ideal_pnr else 0
    key = np.where(
        r.check,
        -1 - (r.combo << plan.config.n_parties) - r.outcome,
        ((r.sent * n_codes + r.bits) * 5 + r.decoded) * 5 + label,
    )
    keys, rows, inverse = np.unique(key, return_index=True, return_inverse=True)
    tails = []
    for k, row in zip(keys.tolist(), rows.tolist()):
        tail = plan.log_tails.get(k)
        if tail is None:
            tail = plan.log_tails[k] = _log_tail(plan, r, row)
        tails.append(tail)
    clicks = [""] * len(key)
    events = np.flatnonzero(r.jump_seen.any(axis=1) | ~np.isnan(r.dark_t).all(axis=1))
    for row, pairs in zip(events.tolist(), _log_clicks(r, events)):
        clicks[row] = pairs
    return [
        f'{{"round": {i}{head}{pairs}{rest}'
        for i, (head, rest), pairs in zip(
            range(first, first + len(key)), [tails[j] for j in inverse.tolist()], clicks
        )
    ]


def _span_part(plan: _Plan, seed: int, span: tuple[int, int], msg_ids: np.ndarray,
               log: bool, on_round=None) -> tuple[np.ndarray, list[str]]:
    """The rounds ``span[0] .. span[1]-1`` of a batch as one part: its
    counters (the 4 x 5 confusion cells; check rounds, conclusive checks,
    passed checks; psi rounds, those with a registered click, those whose
    photon survived) and, with ``log``, its round-log lines."""
    psi_ids = [_MSG_INDEX[Message.X], _MSG_INDEX[Message.IY]]
    counts, lines, first = np.zeros(26, dtype=np.int64), [], span[0]
    for streams in lockstep.row_blocks(seed, *span, plan.row_width(checks=True)):
        r = lockstep.run_block(plan, streams, msg_ids)
        encode = ~r.check
        counts[:20] += np.bincount(5 * r.sent[encode] + r.decoded[encode], minlength=20)
        if r.check.any():
            ctx = plan.check
            combo, outcome = r.combo[r.check], r.outcome[r.check]
            conclusive = ctx.conclusive[combo]
            counts[20:23] += [r.check.sum(), conclusive.sum(),
                              (conclusive & ctx.passed[combo, outcome]).sum()]
        psi = encode & np.isin(r.sent, psi_ids)
        counts[23:] += [psi.sum(), (psi & r.jump_seen.any(axis=1)).sum(), (psi & r.survived).sum()]
        if on_round is not None:
            for i, out in enumerate(_round_outcomes(plan, r), first):
                on_round(i, out)
        if log:
            lines += _log_lines(plan, r, first)
        first += len(r.check)
    return counts, lines


def run_batch(
    config: RoundConfig,
    n_rounds: int,
    seed: int | None = None,
    messages: Sequence[Message] | None = None,
    on_round: Callable[[int, RoundOutcome], None] | None = None,
    on_log: Callable[[list[str]], None] | None = None,
    workers: int = 1,
) -> BatchStats:
    """Run many rounds with per-round counter-based random streams.

    Output is a pure function of (config, n_rounds, seed, messages).  The
    rounds run in lockstep blocks (:func:`qdcsim.lockstep.row_blocks`),
    each row reproducing :func:`run_round` on its own stream bit for bit,
    and each ``lockstep.SPAN``-round span is one part of the batch.  With
    ``workers`` > 1 the spans are shared by forked processes
    (:func:`qdcsim.lockstep.fork_map`, :func:`qdcsim.lockstep.worker_count`),
    with the same result.  ``on_round(i, outcome)`` receives every round's
    RoundOutcome (it keeps the batch in process), and ``on_log(lines)``
    each span's round-log lines (JSON, no newline), both in round order.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if seed is None:
        seed = config.seed
    plan = _plan(config)  # compile before the clock starts, and before any fork
    msg_ids = np.array([_MSG_INDEX[m] for m in (MESSAGES if messages is None else messages)])

    t0 = time.perf_counter()
    spans = [(lo, min(lo + lockstep.SPAN, n_rounds)) for lo in range(0, n_rounds, lockstep.SPAN)]
    log = on_log is not None

    def part(span):
        return _span_part(plan, seed, span, msg_ids, log, on_round)

    # a callback cannot cross processes; in process, on_log streams span by span
    workers = 1 if on_round is not None else lockstep.worker_count(workers, len(spans), n_rounds)
    parts = map(part, spans) if workers == 1 else lockstep.fork_map(part, spans, workers)
    counts = np.zeros(26, dtype=np.int64)
    for span_counts, lines in parts:
        counts += span_counts
        if log:
            on_log(lines)
    wall = time.perf_counter() - t0

    confusion = counts[:20].reshape(4, 5)
    n_check, check_concl, check_pass, psi_rounds, psi_clicks, psi_survived = counts[20:].tolist()
    n_encode = n_rounds - n_check
    correct = int(sum(confusion[i, i] for i in range(4)))
    aborts = int(confusion[:, 4].sum())
    return BatchStats(
        n_rounds=n_rounds,
        n_encode=n_encode,
        n_check=n_check,
        success_rate=correct / n_encode if n_encode else 0.0,
        abort_rate=aborts / n_encode if n_encode else 0.0,
        confusion=confusion.tolist(),
        check_pass_rate=check_pass / check_concl if check_concl else None,
        psi_click_rate=psi_clicks / psi_rounds if psi_rounds else None,
        psi_survival_rate=psi_survived / psi_rounds if psi_rounds else None,
        wall_time_s=wall,
    )


def success_probability_formula(config: RoundConfig) -> float:
    """Analytic success probability beta^2 * f(2k t_window): the 'survival'
    convention reads the exponential as photon survival, 'integrated' as the
    probability the photon has been emitted (and detected) in the window."""
    beta = pipeline_beta(config)
    decay = math.exp(-2.0 * config.params.k * config.t_window)
    if config.success_convention == "survival":
        return beta * beta * decay
    return beta * beta * (1.0 - decay)


def _no_click_rate(config: RoundConfig) -> str | None:
    """Why a sweep of ``config`` has no click rate, after the field's name."""
    if config.ideal_pnr:
        return "ideal_pnr: ideal-PNR rounds record no clicks, so a sweep has no click rate"
    if config.p_check == 1.0:
        return "p_check: at 1 no round encodes a message, so a sweep has no click rate"
    return None


def run_sweep(
    config: RoundConfig,
    t_windows: Sequence[float],
    n_rounds: int,
    seed: int | None = None,
    workers: int = 1,
) -> list[dict]:
    """Detection-window sweep: both analytic conventions next to the
    Monte-Carlo click-rate estimate for a fixed psi-branch message.  A
    config without a click rate (ideal PNR, p_check = 1) raises ValueError.
    With ``workers`` > 1 the windows are shared by forked processes
    (:func:`qdcsim.lockstep.fork_map`), with the same rows."""
    if not t_windows:
        raise ValueError("sweep grid must be nonempty")
    if reason := _no_click_rate(config):
        raise ValueError(reason)

    def row(t_w) -> dict:
        cfg = dataclasses.replace(config, t_window=float(t_w))
        stats = run_batch(cfg, n_rounds, seed=seed, messages=(Message.X,))
        p = stats.psi_click_rate if stats.psi_click_rate is not None else 0.0
        n = stats.n_encode
        formulas = {
            f"formula_{c}": success_probability_formula(
                dataclasses.replace(cfg, success_convention=c)
            ) for c in ("survival", "integrated")
        }
        return {"t_window": float(t_w), **formulas, "mc_estimate": p,
                "mc_stderr": math.sqrt(p * (1.0 - p) / n) if n else 0.0}

    workers = lockstep.worker_count(workers, len(t_windows), len(t_windows) * n_rounds)
    return lockstep.fork_map(row, t_windows, workers)
