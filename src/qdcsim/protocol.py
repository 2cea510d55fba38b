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
import itertools
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from . import lockstep
from .dynamics import PhysicalParams, alpha_beta, transfer_time
from .hilbert import Message, MESSAGES

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
_BETA2_FLOOR = 1e-30  # below it the phi basis (beta^2 |11> +- |00>) is degenerate
_CACHE_SIZE = 64  # entries of the plan cache
MAX_RECEIVERS = 33  # a round's bit code is integers(0, 2^(n-1)): RowStreams draws n <= 2^32
BIT_STRING_RECEIVERS = 17  # an output that lists every bit string lists 2^16 at most
MAX_SWEEP_WINDOWS = 1024  # a sweep compiles every window's plan, about 7.3 KB each, up front
LOG_ROWS = 2048  # round-log lines formatted and written at a time


class ConfigError(ValueError):
    """A config the called function cannot run, named by its config
    document field (``section.field``); raised before anything compiles."""


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
    explicit ``t_map`` must be a zero of alpha (see :func:`_pipeline_sectors`),
    and beta must not vanish there (the phi basis divides by beta^2).  Each
    cavity only ever holds the one photon its atom emits, so a config's
    modes are compiled at one photon.  The field order is the CLI echo's
    key order: section ``params``, the plain fields (section ``round``),
    then section ``detector``.
    """

    params: PhysicalParams
    n_receivers: int = 2
    p_check: float = 0.0
    t_map: float | None = None
    t_window: float
    ideal_pnr: bool = False
    seed: int = 0
    detector: DetectorModel = DetectorModel()

    def __post_init__(self):
        if self.n_receivers < 2:
            raise ValueError("n_receivers must be >= 2")
        if self.n_receivers > MAX_RECEIVERS:
            raise ValueError(f"n_receivers = {self.n_receivers} is above {MAX_RECEIVERS}: a round "
                             "draws its bit code from 2^(n-1) codes, at most 2^32")
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
        beta2 = pipeline_beta(self) ** 2
        if beta2 < _BETA2_FLOOR:
            field = (f"params.k = {self.params.k!r}" if self.t_map is None
                     else f"t_map = {self.t_map!r}")
            raise ValueError(
                f"{field} leaves beta(t_map)^2 = {beta2:.3e} below {_BETA2_FLOOR:g}: "
                "the mapped photon has decayed and the phi basis is degenerate"
            )

    @property
    def n_parties(self) -> int:
        return self.n_receivers + 1


class BatchStats(NamedTuple):
    n_rounds: int
    n_encode: int
    n_check: int
    success_rate: float
    abort_rate: float
    confusion: list[list[int]]  # rows I,X,iY,Z; cols I,X,iY,Z,Abort
    check_pass_rate: float | None
    psi_click_rate: float | None
    psi_survival_rate: float | None


# ---------------------------------------------------------------------------
# deterministic pipeline, in the photon-sector basis


def resolve_t_map(config: RoundConfig) -> float:
    return config.t_map if config.t_map is not None else transfer_time(config.params)


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark a compiled table read-only: the plan cache hands one copy to every caller."""
    array.flags.writeable = False
    return array


_ROTATION = np.array([[-1, 1], [1, 1]], dtype=np.complex128) / math.sqrt(2.0)
# |e> -> (|e>+|g>)/sqrt2, |g> -> (|e>-|g>)/sqrt2; involution (R^2 = I).

# Alice's Pauli, per message: for the GHZ branch whose atoms sit in g, then
# in e, her atom's value after it (0 = g, 1 = e) and the sign it gives the
# branch.  X swaps g<->e, Z flips the sign of g, and iY flips then signs, so
# that it turns the GHZ state into (|gee>-|egg>)/sqrt(2) with a leading plus.
_ENCODE = {
    Message.I: ((0, 1.0), (1, 1.0)),
    Message.X: ((1, 1.0), (0, 1.0)),
    Message.IY: ((1, -1.0), (0, 1.0)),
    Message.Z: ((0, -1.0), (1, 1.0)),
}


def _pipeline_sectors(n_parties: int, beta: float) -> np.ndarray:
    """The state entering the detection window of every message, as
    amplitudes ``[message, parity, n_A, n_B]``: messages in MESSAGES order,
    the rotated receivers' bit codes (first receiver most significant, e =
    1) by the parity of their bits.

    Each branch of the GHZ state (|e..e> + |g..g>)/sqrt(2) stays one product
    term.  Alice's Pauli sets her atom's value and the branch's sign
    (``_ENCODE``).  At t_map each mapped pair (atom, cavity) sends |e,0> to
    alpha|e,0> + beta|g,1> (:func:`alpha_beta`) with alpha = 0, up to the
    ``_SUPPORT_TOL`` a config allows, so an excited atom leaves one photon
    in its cavity, A's factor beta applied before B's, and both mapped atoms
    end in |g>.  Each further receiver holds Bob's value and is rotated by
    ``_ROTATION``: every bit code gets the same modulus, and on Bob's g
    branch the sign (-1)^(receivers in g).  So a parity's 2^(n-3) codes share
    one amplitude (Hillery, Buzek & Berthiaume, PRA 59, 1829 (1999)), kept
    with the parity's weight: one rotated receiver's, of the parity's sign."""
    out = np.zeros((len(MESSAGES), 2, 2, 2), dtype=np.complex128)
    classes = (np.arange(2) + n_parties - 1) % 2  # the single receiver's bit per parity
    for row, message in enumerate(MESSAGES):
        for bob, (alice, sign) in enumerate(_ENCODE[message]):
            amp = sign / math.sqrt(2.0)
            for excited in (alice, bob):
                if excited:
                    amp = beta * amp
            column = np.array([amp], dtype=np.complex128) * _ROTATION[:, bob]
            out[row, :, alice, bob] = column[classes]
    return out


def pipeline_beta(config: RoundConfig) -> float:
    return alpha_beta(config.params, resolve_t_map(config))[1]


# ---------------------------------------------------------------------------
# photonic Bell decomposition


def _bell(sectors: np.ndarray, beta: float) -> np.ndarray:
    """Bell-like weights (rows, label, parity) of sector amplitudes
    (rows, parity, n_A, n_B), labels in BELL_LABELS order.

    The phi basis depends on beta(t_map) and is non-orthogonal for k > 0;
    weights are squared expansion coefficients, so they total the squared norm.
    """
    beta2 = beta * beta  # at least _BETA2_FLOOR: RoundConfig validates it
    norm_phi = math.sqrt(beta2 * beta2 + 1.0)
    a00, a01, a10, a11 = (sectors.reshape(len(sectors), -1, 4)[:, :, s] for s in range(4))
    coefficients = (
        (a01 + a10) / math.sqrt(2.0),
        (a01 - a10) / math.sqrt(2.0),
        norm_phi * (a11 / beta2 + a00) / 2.0,
        norm_phi * (a11 / beta2 - a00) / 2.0,
    )
    return np.abs(np.stack(coefficients, axis=1)) ** 2


def bell_weights(config: RoundConfig, message: Message) -> dict[tuple[str, str], float]:
    """Expansion weights of a message's pipeline state in the photonic
    Bell-like basis, jointly with the rotated receivers' bit strings (see
    :func:`_bell`), spread over the bit codes (:func:`_spread`)."""
    strings = _bit_strings(config.n_receivers - 1, "a Bell-weight table")
    weights = _spread(_plan(config).bell[_MSG_INDEX[message]], config).tolist()
    return {(label, bits): weights[j][code] for code, bits in enumerate(strings)
            for j, label in enumerate(BELL_LABELS)}


def _bit_strings(n_bits: int, what: str) -> list[str]:
    """Every string of ``n_bits`` rotated receivers' bits (g = 0, e = 1), in
    bit-code order, listed by ``what``: ConfigError past the bits of
    ``BIT_STRING_RECEIVERS`` receivers, before anything of that size exists."""
    if n_bits >= BIT_STRING_RECEIVERS:
        raise ConfigError(f"round.n_receivers: {what} lists all 2^{n_bits} receiver bit "
                          f"strings, for at most {BIT_STRING_RECEIVERS} receivers")
    return ["".join(bits) for bits in itertools.product("ge", repeat=n_bits)]


def _spread(table: np.ndarray, config: RoundConfig) -> np.ndarray:
    """A plan table's last (parity) axis spread over the bit codes: each code
    gets its parity's entry over the 2^(n-2) codes of that parity."""
    codes = np.arange(1 << (config.n_receivers - 1))
    return np.ldexp(table[..., lockstep.parity(codes)], 2 - config.n_receivers)


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
    """Exact joint law of (observable click counts, parity of the receiver
    bits) per row of ``sectors`` (rows, parity, n_A, n_B) under the
    trajectory model, dark counts included: ``law[row, n+, n-, parity]``,
    click counts below ``n_counts``.

    Sector bookkeeping (vacuum / psi+- / two-photon) is exact for pipeline
    states, whose photon sectors never superpose across a jump.  Each cell
    adds its terms in the order the model meets them.
    """
    eta = config.detector.efficiency
    p_dc = config.detector.dark_prob
    q = _window_q(config)
    s1 = 1.0 - q  # single-photon no-jump weight factor exp(-2kT)
    s2 = s1 * s1
    m = sectors.shape[1]
    w0, wp, wm, w2 = (np.abs(sectors[..., 0, 0]) ** 2, bell[:, 0], bell[:, 1],
                      np.abs(sectors[..., 1, 1]) ** 2)

    # per row: the weight the transfer lost
    deficit = np.maximum(0.0, 1.0 - (w0.sum(1) + wp.sum(1) + wm.sum(1) + w2.sum(1)))[:, None]
    nojump = w0 + (wp + wm) * s1 + w2 * s2
    n_t = nojump.sum(axis=1, keepdims=True)
    live = n_t > 1e-300
    law = np.zeros((len(sectors), n_counts, n_counts, m))
    # No-jump residuals plus the transfer-loss deficit: no real clicks; bits
    # follow the residual state (uniform, half per parity, when it is
    # numerically empty).
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
    outcome law (:func:`_outcome_law`), spread over the bit codes."""
    strings = _bit_strings(config.n_receivers - 1, "an outcome distribution")
    law = _spread(_plan(config).outcomes[_MSG_INDEX[message]], config)
    cells = np.argwhere(law > 0.0).tolist()
    return {((a, b), strings[code]): p for (a, b, code), p in zip(cells, law[law > 0.0].tolist())}


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
    A table lists every bit string (:func:`_bit_strings`).
    """
    strings, plan = _bit_strings(config.n_receivers - 1, "a decode table"), _plan(config)
    parities = lockstep.parity(np.arange(len(strings)))
    if config.ideal_pnr:
        rows = zip(BELL_LABELS, plan.pnr_decoded[:, parities].tolist())
    else:
        rows = ((CHANNEL_PLUS, plan.decoded[1, 0, parities].tolist()),
                (CHANNEL_MINUS, plan.decoded[0, 1, parities].tolist()),
                ("none", [lockstep.ABORT] * len(strings)))
    return {(key, bits): _DECODED[i] for key, row in rows for bits, i in zip(strings, row)}


def decode(config: RoundConfig, counts: tuple[int, int], bits: str) -> Message | None:
    """Decode one window: single-click windows go through the decode table;
    multi-click windows fall back to exact maximum likelihood; irreducible
    ties, no-click windows and counts the model never produces abort.
    Bits that are not n - 1 letters g or e raise ValueError."""
    if len(bits) != config.n_receivers - 1 or bits.strip("ge"):
        raise ValueError(f"receiver bits {bits!r}: not {config.n_receivers - 1} letters g or e")
    plan = _plan(config)
    n_plus, n_minus = counts
    if not (0 <= n_plus < len(plan.decoded) and 0 <= n_minus < len(plan.decoded)):
        return None
    return _DECODED[plan.decoded[n_plus, n_minus, bits.count("e") & 1]]


# ---------------------------------------------------------------------------
# compiled per-config plan


class _Plan(NamedTuple):
    """Everything a round of one config reads, compiled once per config with
    the seed excluded.  Each table holds what a round computed on its own
    would evaluate, from the same expression, so it is bit-equal; the jump
    tables hold the detection window in closed form (``lockstep``).

    One outcome law drives every decision: the single-click decode table and
    the ideal-PNR table come from the Bell weights, the multi-click fallback
    from ``outcomes``, and ``security`` marginalises ``outcomes`` for its
    posteriors.  The receivers' bits enter every table through their parity
    alone, so no table grows with the number of receivers."""

    config: RoundConfig
    sectors: np.ndarray  # (4, parity, n_A, n_B) pipeline amplitudes (_pipeline_sectors)
    tables: lockstep.JumpTables  # detection-window tables of sectors
    bell: np.ndarray  # (4, Bell label, parity) Bell weights of sectors
    outcomes: np.ndarray  # (4, n+, n-, parity) outcome law of sectors (_outcome_law)
    decoded: np.ndarray  # (n+, n-, parity) -> decoded-message index
    pnr_cum: np.ndarray  # (4, label x parity) cumulative Bell weights
    pnr_decoded: np.ndarray  # (label, parity) -> decoded-message index


def _plan(config: RoundConfig) -> _Plan:
    """The compiled plan of a config.  Nothing in it depends on the seed, so
    configs that differ only in their seed share one entry of the cache."""
    return _compile_plan(config if config.seed == 0 else dataclasses.replace(config, seed=0))


@lru_cache(maxsize=_CACHE_SIZE)
def _compile_plan(config: RoundConfig) -> _Plan:
    beta = pipeline_beta(config)
    sectors = _frozen(_pipeline_sectors(config.n_parties, beta))
    bell = _frozen(_bell(sectors, beta))
    # click counts reach the two photons plus one dark count
    outcomes = _frozen(_outcome_law(config, sectors, bell, 4))
    decoded = _argmax(outcomes)
    decoded[0, 0] = lockstep.ABORT  # no click
    decoded[1, 0], decoded[0, 1] = _argmax(bell[:, 0]), _argmax(bell[:, 1])  # psi+, psi-
    return _Plan(
        config=config, sectors=sectors, tables=lockstep.jump_tables(sectors),
        bell=bell, outcomes=outcomes, decoded=_frozen(decoded),
        pnr_cum=_frozen(np.cumsum(bell.reshape(len(MESSAGES), -1), axis=1)),
        pnr_decoded=_frozen(_argmax(bell)),
    )


_plan.cache_info, _plan.cache_clear = _compile_plan.cache_info, _compile_plan.cache_clear


# ---------------------------------------------------------------------------
# rounds and batches


# The round log: one line per round, ``json.dumps`` of the dict
#   check:  {"round", "mode", "check_bases", "check_conclusive", "check_passed"}
#   encode: {"round", "mode", "sent", "clicks", "receiver_bits", "decoded"}
#           plus "bell_label" on ideal-PNR rounds that kept their photons,
# with "clicks" the [time, channel] pairs of the round's detector events in
# time order, "abort" for an aborted decode.
_LOG_CHANNELS = tuple(json.dumps(ch) for ch in (CHANNEL_PLUS, CHANNEL_MINUS, DARK_PLUS, DARK_MINUS))
_LOG_NAMES = tuple(m.value for m in MESSAGES) + ("abort",)  # by lockstep message index
_LOG_LABELS = ("",) + tuple(f', "bell_label": "{b}"' for b in BELL_LABELS)  # by Bell label + 1
_LOG_BOOLS = ("false", "true")
_BASES = str.maketrans("01", "xy")  # a basis combination's bits, party 0 first, as bases
_BITS = str.maketrans("01", "ge")  # a bit code's bits, first rotated receiver first, as atoms


def _log_clicks(r: lockstep.Rounds, rows: np.ndarray) -> list[str]:
    """The JSON clicks list of each of ``rows`` without its brackets: the
    registered jumps, then the D+ and D- dark counts, stably sorted by time;
    times print as ``repr(float)``, as ``json.dumps`` prints them."""
    times = np.concatenate((r.jump_t[rows], r.dark_t[rows]), axis=1)
    present = np.concatenate((r.jump_seen[rows], ~np.isnan(r.dark_t[rows])), axis=1)
    channel = np.concatenate(
        (np.where(r.jump_sign[rows] > 0, 0, 1), np.broadcast_to([2, 3], (len(rows), 2))), axis=1
    )
    order = np.argsort(np.where(present, times, np.inf), axis=1, kind="stable")
    present = np.take_along_axis(present, order, axis=1)
    pieces = [
        f"[{t!r}, {_LOG_CHANNELS[c]}]" for t, c in zip(
            np.take_along_axis(times, order, axis=1)[present].tolist(),
            np.take_along_axis(channel, order, axis=1)[present].tolist(),
        )
    ]
    ends = np.cumsum(present.sum(axis=1)).tolist()
    return [", ".join(pieces[lo:hi]) for lo, hi in zip([0] + ends, ends)]


def _log_lines(plan: _Plan, r: lockstep.Rounds, first: int, conclusive: np.ndarray,
               passed: np.ndarray) -> Iterator[str]:
    """The round-log lines of the rows of a lockstep block whose first round
    is ``first``, as text chunks of at most ``LOG_ROWS`` lines, each line
    ending in a newline; ``conclusive`` and ``passed`` hold the check rows'
    verdicts (``lockstep.check_verdicts``).  A line joins ``{"round":
    <index>``, the part of its line state before its clicks, the clicks and
    the part after them; the state is a check's basis combination and
    verdicts, or an encode's sent message, bit code, decoded message and
    Bell label.  The states and their templates are found once per block."""
    parties, width = plan.config.n_parties, plan.config.n_receivers - 1
    verdicts = np.zeros((2, len(r.check)), dtype=bool)
    verdicts[:, r.check] = conclusive, passed
    label = r.label + 1 if plan.config.ideal_pnr else np.zeros_like(r.label)
    sizes = (2, 1 << parties, len(MESSAGES), len(_LOG_NAMES), len(_LOG_LABELS), 2, 2)
    states, inverse = np.unique(np.ravel_multi_index(
        (r.check, np.where(r.check, r.combo, r.bits), r.sent, r.decoded, label, *verdicts), sizes
    ), return_inverse=True)
    parts = [
        (f', "mode": "check", "check_bases": "{format(value, f"0{parties}b").translate(_BASES)}"'
         f', "check_conclusive": {_LOG_BOOLS[c]}, "check_passed": {_LOG_BOOLS[p]}}}\n', "")
        if check else
        (f', "mode": "encode", "sent": "{_LOG_NAMES[sent]}", "clicks": [',
         f'], "receiver_bits": "{format(value, f"0{width}b").translate(_BITS)}"'
         f', "decoded": "{_LOG_NAMES[decoded]}"{_LOG_LABELS[label]}}}\n')
        for check, value, sent, decoded, label, c, p in zip(
            *(column.tolist() for column in np.unravel_index(states, sizes)))
    ]
    events = np.flatnonzero(r.jump_seen.any(axis=1) | ~np.isnan(r.dark_t).all(axis=1))
    for lo in range(0, len(r.check), LOG_ROWS):
        hi = min(lo + LOG_ROWS, len(r.check))
        clicks = [""] * (hi - lo)
        rows = events[np.searchsorted(events, lo):np.searchsorted(events, hi)]
        for row, pairs in zip((rows - lo).tolist(), _log_clicks(r, rows)):
            clicks[row] = pairs
        yield "".join([
            f'{{"round": {i}{head}{pairs}{rest}'
            for i, (head, rest), pairs in zip(
                range(first + lo, first + hi), [parts[j] for j in inverse[lo:hi].tolist()], clicks
            )
        ])


def _range_part(plan: _Plan, seed: int, bounds: tuple[int, int], msg_ids: np.ndarray,
                log: TextIO | None = None) -> np.ndarray:
    """The counters of the rounds ``bounds[0] .. bounds[1]-1`` of a batch:
    the 4 x 5 confusion cells; check rounds, conclusive checks, passed
    checks; psi rounds, those with a registered click, those whose photon
    survived.  With a ``log``, their round-log lines go to it, in chunks
    (:func:`_log_lines`)."""
    psi_ids = [_MSG_INDEX[Message.X], _MSG_INDEX[Message.IY]]
    counts, first = np.zeros(26, dtype=np.int64), bounds[0]
    for streams in lockstep.row_blocks(seed, *bounds):
        r = lockstep.run_block(plan, streams, msg_ids)
        del streams  # its Philox words, the block's largest array, go before the log
        encode = ~r.check
        counts[:20] += np.bincount(5 * r.sent[encode] + r.decoded[encode], minlength=20)
        conclusive, passed = lockstep.check_verdicts(
            r.combo[r.check], r.outcome[r.check], plan.config.n_parties)
        counts[20:23] += [r.check.sum(), conclusive.sum(), (conclusive & passed).sum()]
        psi = encode & np.isin(r.sent, psi_ids)
        counts[23:] += [psi.sum(), (psi & r.jump_seen.any(axis=1)).sum(), (psi & r.survived).sum()]
        if log is not None:
            log.writelines(_log_lines(plan, r, first, conclusive, passed))
        first += len(r.check)
    return counts


def run_batch(
    config: RoundConfig,
    n_rounds: int,
    messages: Sequence[Message] | None = None,
    log: TextIO | None = None,
    workers: int = 1,
    spool: str | os.PathLike | None = None,
) -> BatchStats:
    """Run many rounds with per-round counter-based random streams.

    Output is a pure function of (config, n_rounds, messages); the rounds run
    on the streams of ``config.seed``, in lockstep blocks
    (:func:`qdcsim.lockstep.row_blocks`), each row on its own stream, so a
    row's result does not depend on its block.
    Each of :func:`qdcsim.lockstep.worker_count` processes runs one
    near-equal contiguous range of rounds (:func:`qdcsim.lockstep.map_ranges`;
    one range, in process, at ``workers`` = 1), with the same result.
    With a ``log`` (a text stream), the round log goes to it, one JSON line
    per round in round order, written ``LOG_ROWS`` lines at a time: the
    caller's range straight to it, and each forked range to a file of its
    own in a temporary directory made in ``spool`` (the system's temporary
    directory by default), which the caller then appends in range order, so
    that no process holds more than one chunk of the log.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    plan = _plan(config)  # compile before any fork
    msg_ids = np.array([_MSG_INDEX[m] for m in (MESSAGES if messages is None else messages)])
    if log is None:
        return _batch_stats(n_rounds, sum(lockstep.map_ranges(
            lambda bounds: _range_part(plan, config.seed, bounds, msg_ids),
            n_rounds, 1, workers)))
    caller = os.getpid()
    with tempfile.TemporaryDirectory(prefix=".qdcsim-log-", dir=spool) as parts:
        def part(bounds):
            if os.getpid() == caller:
                return _range_part(plan, config.seed, bounds, msg_ids, log), None
            path = os.path.join(parts, str(bounds[0]))
            with open(path, "w", encoding="utf-8") as own:
                return _range_part(plan, config.seed, bounds, msg_ids, own), path

        counts = np.zeros(26, dtype=np.int64)
        for range_counts, path in lockstep.map_ranges(part, n_rounds, 1, workers):
            counts += range_counts
            if path is not None:
                with open(path, encoding="utf-8") as own:
                    shutil.copyfileobj(own, log)
    return _batch_stats(n_rounds, counts)


def _batch_stats(n_rounds: int, counts: np.ndarray) -> BatchStats:
    """The :class:`BatchStats` of ``n_rounds`` rounds from their summed counters."""
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
    )


def success_probability_formula(config: RoundConfig, convention: str) -> float:
    """Analytic success probability beta^2 * f(2k t_window) in one of two
    readings: ``"survival"`` reads the exponential as photon survival,
    ``"integrated"`` as the probability the photon has been emitted (and
    detected) in the window."""
    beta = pipeline_beta(config)
    decay = math.exp(-2.0 * config.params.k * config.t_window)
    if convention == "survival":
        return beta * beta * decay
    if convention == "integrated":
        return beta * beta * (1.0 - decay)
    raise ValueError(f"convention must be 'survival' or 'integrated', not {convention!r}")


def run_sweep(
    config: RoundConfig,
    t_windows: Sequence[float],
    n_rounds: int,
    workers: int = 1,
) -> list[dict]:
    """Detection-window sweep: both analytic conventions next to the
    Monte-Carlo click-rate estimate for a fixed psi-branch message.  A
    config without a click rate (ideal PNR, p_check = 1) or a grid longer
    than ``MAX_SWEEP_WINDOWS`` raises ConfigError.
    Every window's plan compiles before any fork.  A round is W rows, one
    per window on the streams (seed, i) of round i, split into ranges like a
    batch's (:func:`qdcsim.lockstep.map_ranges`); each range runs once per
    window, so the summed counters do not depend on ``workers``."""
    if not t_windows:
        raise ValueError("sweep grid must be nonempty")
    if len(t_windows) > MAX_SWEEP_WINDOWS:
        raise ConfigError(f"sweep.t_windows: {len(t_windows)} windows, more than the "
                          f"{MAX_SWEEP_WINDOWS} whose plans a sweep compiles up front")
    if config.ideal_pnr:
        raise ConfigError("round.ideal_pnr: ideal-PNR rounds record no clicks, "
                          "so a sweep has no click rate")
    if config.p_check == 1.0:
        raise ConfigError("round.p_check: at 1 no round encodes a message, "
                          "so a sweep has no click rate")
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    configs = [dataclasses.replace(config, t_window=float(t_w)) for t_w in t_windows]
    plans, msg_ids = [_plan(cfg) for cfg in configs], np.array([_MSG_INDEX[Message.X]])
    parts = lockstep.map_ranges(
        lambda bounds: np.stack([_range_part(plan, config.seed, bounds, msg_ids)
                                 for plan in plans]),
        n_rounds, len(plans), workers,
    )
    rows = []
    for cfg, counts in zip(configs, sum(parts)):
        stats = _batch_stats(n_rounds, counts)
        p, n = stats.psi_click_rate or 0.0, stats.n_encode
        formulas = {f"formula_{c}": success_probability_formula(cfg, c)
                    for c in ("survival", "integrated")}
        rows.append({"t_window": cfg.t_window, **formulas, "mc_estimate": p,
                     "mc_stderr": math.sqrt(p * (1.0 - p) / n) if n else 0.0})
    return rows
