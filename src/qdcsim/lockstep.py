"""The round engine: a block of protocol rounds as numpy arrays.

Each row of a block is one round on its own stream: a
:class:`~qdcsim.streams.RowStreams` row, or for ``protocol.run_round`` and
``protocol.simulate_window`` one numpy ``Generator``.  A row equals, bit
for bit, the same round computed alone with scalar numpy and ``math``
calls (the reference the tests keep): it reads the same draws in the same
order and evaluates each floating-point expression the same way:

* element-wise arithmetic and ufuncs (``np.exp``, ``np.abs``, ``np.sqrt``,
  complex multiply and divide) give the same bits per element whatever
  the array's shape or the element's position;
* complex / real is written as the multiply numpy performs for it,
  ``z * (1.0 / s)``: numpy's complex divide scales by the divisor's
  reciprocal, so the bits agree on every operand without a -0.0 part,
  and the jump channels hold none;
* a decay factor ``exp(-k n dt)`` is evaluated once per row and photon
  number ``n`` and gathered by each basis index's photon number, not once
  per amplitude;
* row reductions keep the one-round order: ``sum(axis=1)`` over a row
  equals the row's own ``sum()``, and ``bincount``/``cumsum`` accumulate in
  index order;
* the per-row scalars taken from libm (``math.exp``, ``math.log``, float
  powers) are evaluated by the same Python calls, once per row or once
  for rows that share the argument, never by numpy's SIMD versions.

Start states hold at most two photons (every state the protocol prepares,
and their collapses under a photon-number measurement), so the no-jump
crossing time is the root of a quadratic.  :func:`run_block` runs the
rounds of a block from the compiled plan (``protocol._Plan``); ``security``
drives the same row functions in its own draw orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import RowStreams, philox_words

ABORT = 4  # decoded-message index of an aborted round
BLOCK_AMPLITUDES = 1 << 15  # rows x state dimension per block: ~512 kB per complex state array
_FIRST_WORDS = 4  # Philox blocks (4 words each) computed up front per round
SPAN = 2048  # rounds whose first words are computed in one call


def beamsplitter(info, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a_A + a_B)/sqrt(2) and (a_A - a_B)/sqrt(2) on each row: the unscaled
    jump channels of both signs.

    The cavities are the last two sites, so in the (rows, atoms, n_A, n_B)
    view each annihilator maps the slice of one occupation onto the slice
    below it.  ``a = 0 + a_A psi`` holds no -0.0, so ``a + b`` and ``a - b``
    equal the per-sign scatter-adds of ``+/-(a_B psi)`` onto ``a_A psi``,
    signed zeros included.  The factor sqrt(1) is left out: ``1 * z`` and
    ``z`` differ only in the sign of a zero, which both sums drop."""
    rows, dim = psi.shape
    d_a, d_b = info.layout.dims[-2:]
    psi = psi.reshape(rows, dim // (d_a * d_b), d_a, d_b)  # -1 fails on 0 rows
    plus = np.zeros_like(psi)
    for n in range(1, d_a):  # a_A: n_A = n -> n - 1
        for m in range(d_b):
            a = psi[:, :, n, m] if n == 1 else math.sqrt(n) * psi[:, :, n, m]
            plus[:, :, n - 1, m] += a
    minus = plus.copy()
    for m in range(1, d_b):  # a_B: n_B = m -> m - 1
        for n in range(d_a):
            b = psi[:, :, n, m] if m == 1 else math.sqrt(m) * psi[:, :, n, m]
            plus[:, :, n, m - 1] += b
            minus[:, :, n, m - 1] -= b
    scale = 1.0 / math.sqrt(2.0)
    plus *= scale
    minus *= scale
    return plus.reshape(rows, dim), minus.reshape(rows, dim)


def _jump_rate(psi: np.ndarray) -> np.ndarray:
    """Each row's squared norm: real and imaginary parts squared, then
    numpy's pairwise sum over the row (not a BLAS dot product's order)."""
    return np.square(psi.view(np.float64)).sum(axis=1)


def _binned(weights: np.ndarray, bins: np.ndarray, n_bins: int) -> np.ndarray:
    """Row-wise ``np.bincount(bins, weights=row, minlength=n_bins)``."""
    n = len(weights)
    flat = (np.arange(n)[:, None] * n_bins + bins).ravel()
    return np.bincount(flat, weights=weights.ravel(), minlength=n * n_bins).reshape(n, n_bins)


@dataclass
class Rounds:
    """Per-row results of one block; encode fields are 0 on check rows."""

    check: np.ndarray  # bool: security-check round
    combo: np.ndarray  # check: x/y basis combination index
    outcome: np.ndarray  # check: measured outcome index
    sent: np.ndarray  # encode: message index
    bits: np.ndarray  # encode: receiver bit code
    decoded: np.ndarray  # encode: message index, ABORT = abort
    label: np.ndarray  # ideal PNR: Bell label index, -1 = lost round
    survived: np.ndarray  # bool: photon present at the end of a jump-free window
    clicks: np.ndarray  # (rows, 2) observable click counts (n+, n-), darks included
    jump_t: np.ndarray  # (rows, jumps) jump times
    jump_sign: np.ndarray  # (rows, jumps) +1 (D+) / -1 (D-), 0 = no jump
    jump_seen: np.ndarray  # (rows, jumps) bool: the jump registered a click
    dark_t: np.ndarray  # (rows, 2) D+ / D- dark-count times, NaN = none

    @classmethod
    def empty(cls, n: int) -> Rounds:
        def zeros(dtype=np.int64):
            return np.zeros(n, dtype=dtype)

        return cls(
            check=zeros(bool), combo=zeros(), outcome=zeros(), sent=zeros(), bits=zeros(),
            decoded=zeros(), label=zeros(), survived=zeros(bool),
            clicks=np.zeros((n, 2), dtype=np.int64), jump_t=np.zeros((n, 0)),
            jump_sign=np.zeros((n, 0), dtype=np.int8), jump_seen=np.zeros((n, 0), dtype=bool),
            dark_t=np.full((n, 2), np.nan),
        )


def row_blocks(seed: int, start: int, stop: int, dim: int):
    """Yield the :class:`RowStreams` of rounds ``start .. stop-1`` of the
    batch with ``seed``, in blocks of at most ``BLOCK_AMPLITUDES`` amplitudes
    of states of dimension ``dim``."""
    step = max(1, BLOCK_AMPLITUDES // dim)
    for lo in range(start, stop, SPAN):
        indices = np.arange(lo, min(lo + SPAN, stop))
        words = philox_words(seed, indices, 0, _FIRST_WORDS)
        for b in range(0, len(indices), step):
            block = slice(b, b + step)
            yield RowStreams(seed, indices[block], words[block])


def run_block(plan, streams: RowStreams, msg_ids: np.ndarray) -> Rounds:
    """The protocol rounds of one block of streams; encode rounds send
    ``msg_ids[integers(0, len(msg_ids))]``."""
    rows = np.arange(len(streams))
    res = Rounds.empty(len(rows))
    res.check = streams.random(rows) < plan.config.p_check
    check_rows = rows[res.check]
    if check_rows.size:
        check = plan.check
        res.combo[check_rows], res.outcome[check_rows] = check_rounds(
            streams, check_rows, plan.config.n_parties, check.cum[None], check.total[None],
            np.zeros(len(check_rows), dtype=np.int64),
        )
    encode_rows = rows[~res.check]
    if encode_rows.size:
        sent = msg_ids[streams.integers(encode_rows, len(msg_ids))]
        encode_rounds(plan, streams, encode_rows, sent, res)
    return res


def pick(cum: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise ``min(searchsorted(cum, x, side="right"), len - 1)`` on each
    row's nondecreasing ``cum`` (one row of ``cum`` serves every row)."""
    return np.minimum((cum <= x[:, None]).sum(axis=1), cum.shape[-1] - 1)


def check_rounds(streams: RowStreams, rows: np.ndarray, n_parties: int, cum: np.ndarray,
                 total: np.ndarray, branch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GHZ parity-check rounds after any tamper draws: (basis combo, outcome)
    per row.  ``cum``/``total`` hold the outcome law per (tamper branch, combo);
    ``branch`` is each row's branch (all 0 untampered)."""
    combo = np.zeros(len(rows), dtype=np.int64)
    for _ in range(n_parties):
        combo = (combo << 1) | streams.integers(rows, 2)
    x = streams.random(rows) * total[branch, combo]
    return combo, pick(cum[branch, combo], x)


def encode_rounds(plan, streams: RowStreams, rows: np.ndarray, sent: np.ndarray,
                  res: Rounds) -> None:
    """An encode round of message index ``sent`` for every row."""
    res.sent[rows] = sent
    if plan.config.ideal_pnr:
        _ideal_pnr_rounds(plan, streams, rows, sent, res)
    else:
        window_rounds(plan, streams, rows, plan.amps, plan.sector_norms, sent, res)


def _ideal_pnr_rounds(plan, streams, rows, sent, res: Rounds) -> None:
    n_codes = len(plan.info.bit_strings)
    cum = plan.pnr_cum[sent]
    j = (cum <= streams.random(rows)[:, None]).sum(axis=1)
    lost = j == cum.shape[1]
    code = j % n_codes
    code[lost] = streams.integers(rows[lost], n_codes)
    res.bits[rows] = code
    res.label[rows] = np.where(lost, -1, j // n_codes)
    res.decoded[rows] = np.where(lost, ABORT, plan.pnr_decoded[np.where(lost, 0, j)])


def _crossings(norms: np.ndarray, k: float, u: np.ndarray, t_max: np.ndarray):
    """Row-wise first t in (0, t_max] where the no-jump squared norm, the
    quadratic sum_n P_n x^n in x = exp(-2kt) for sector norms of at most two
    photons, hits u: (dt, none) with ``none`` where it stays above u."""
    p0, p1, p2 = norms[:, 0], norms[:, 1], norms[:, 2]
    if t_max.size and t_max.min() == t_max.max():  # every row at one time (the first pass)
        x_end = math.exp((-2.0 * k) * float(t_max[0]))
        x_end2 = x_end**2
    else:
        x_end = [math.exp(v) for v in ((-2.0 * k) * t_max).tolist()]
        x_end2 = np.array([x**2 for x in x_end])
        x_end = np.array(x_end)
    # sum(p * x_end**n): absent trailing sectors add exact zeros
    norm_end = (p0 + p1 * x_end) + p2 * x_end2
    none = norm_end >= u
    go = ~none
    lin = go & (p2 < 1e-300)
    quad = go & ~lin
    x = np.ones_like(u)
    x[lin] = (u[lin] - p0[lin]) / p1[lin]
    q0, q1, q2, uq = p0[quad], p1[quad], p2[quad], u[quad]
    disc = q1 * q1 - 4.0 * q2 * (q0 - uq)
    x[quad] = (-q1 + np.sqrt(np.maximum(disc, 0.0))) / (2.0 * q2)
    x = np.minimum(np.maximum(x, x_end), 1.0)
    dt = np.zeros_like(u)
    dt[go] = np.array([-math.log(v) for v in x[go].tolist()]) / (2.0 * k)
    return dt, none


def window(info, config, streams, rows, psi: np.ndarray, norms: np.ndarray,
           res: Rounds) -> tuple[np.ndarray, np.ndarray]:
    """The detection window (``protocol.simulate_window``) of every row,
    from start states ``psi`` (overwritten) of layout ``info`` with
    photon-sector weights ``norms``: writes each row's jumps, dark counts,
    click counts and survival flag into ``res``; returns the end-of-window
    states and whether each row jumped."""
    if norms.shape[1] > 3 and norms[:, 3:].any():
        raise ValueError("detection windows take states of at most two photons")
    k, t_window = config.params.k, config.t_window
    eta, p_dc = config.detector.efficiency, config.detector.dark_prob
    n_vec = info.photon_numbers
    n_sectors = norms.shape[1]
    sector_rate = -k * np.arange(n_sectors)
    n = len(rows)
    t = np.zeros(n)
    jumped = np.zeros(n, dtype=bool)
    survived = np.zeros(n, dtype=bool)
    jumps = []  # per jump number: (local rows, times, signs, registered)
    act = np.arange(n)
    while act.size:
        if jumps:
            norms = _binned(np.abs(psi[act]) ** 2, n_vec, n_sectors)
        total = norms.sum(axis=1)
        keep = total > 1e-300
        act, norms, total = act[keep], norms[keep], total[keep]
        u = streams.random(rows[act])
        keep = u < total
        act, norms, total, u = act[keep], norms[keep], total[keep], u[keep]
        if k == 0.0:
            # ideal extraction: every photon leaves, at a uniform time in the rest of the window
            act = act[u < total - norms[:, 0]]
            t_jump = t[act] + streams.random(rows[act]) * (t_window - t[act])
            cur = psi[act]
        else:
            dt, none = _crossings(norms, k, u, t_window - t[act])
            first = none & ~jumped[act]
            survived[act[first]] = total[first] - norms[first, 0] > 1e-12
            act, dt = act[~none], dt[~none]
            t_jump = t[act] + dt
            cur = psi[act]
            cur *= np.exp(sector_rate * dt[:, None])[:, n_vec]
        t[act] = t_jump
        plus, minus = beamsplitter(info, cur)
        r_plus, r_minus = _jump_rate(plus), _jump_rate(minus)
        keep = ~(r_plus + r_minus <= 0.0)
        if not keep.all():
            psi[act[~keep]] = cur[~keep]  # rows that cannot jump keep their decayed state
            act, plus, minus, r_plus, r_minus = (
                act[keep], plus[keep], minus[keep], r_plus[keep], r_minus[keep]
            )
        pick = streams.random(rows[act]) * (r_plus + r_minus) < r_plus
        rate = np.where(pick, r_plus, r_minus)
        np.copyto(minus, plus, where=pick[:, None])
        minus *= (1.0 / np.sqrt(rate))[:, None]
        psi[act] = minus
        jumped[act] = True
        seen = streams.random(rows[act]) < eta
        jumps.append((act, t[act], np.where(pick, 1, -1), seen))
    if k > 0.0:
        psi *= np.exp(sector_rate * (t_window - t)[:, None])[:, n_vec]

    dark_t = np.full((n, 2), np.nan)
    if p_dc > 0.0:
        for col in range(2):
            fired = np.flatnonzero(streams.random(rows) < p_dc)
            dark_t[fired, col] = streams.random(rows[fired]) * t_window

    shape = (len(res.check), len(jumps))
    res.jump_t, res.jump_sign, res.jump_seen = (
        np.zeros(shape), np.zeros(shape, np.int8), np.zeros(shape, bool)
    )
    for j, (a, times, signs, seen) in enumerate(jumps):
        res.jump_t[rows[a], j], res.jump_sign[rows[a], j], res.jump_seen[rows[a], j] = (
            times, signs, seen
        )
    seen, sign = res.jump_seen[rows], res.jump_sign[rows]
    res.clicks[rows, 0] = (seen & (sign > 0)).sum(axis=1) + ~np.isnan(dark_t[:, 0])
    res.clicks[rows, 1] = (seen & (sign < 0)).sum(axis=1) + ~np.isnan(dark_t[:, 1])
    res.survived[rows] = survived
    res.dark_t[rows] = dark_t
    return psi, jumped


def window_rounds(plan, streams: RowStreams, rows, amps: np.ndarray, norms: np.ndarray,
                  start: np.ndarray, res: Rounds) -> None:
    """The :func:`window`, receiver bits and decode of every row, starting
    from ``amps[start]`` with photon-sector weights ``norms[start]``."""
    psi, _ = window(plan.info, plan.config, streams, rows, amps[start], norms[start], res)
    code = _sample_bits(plan, streams, rows, psi)
    res.bits[rows] = code
    res.decoded[rows] = plan.decoded[res.clicks[rows, 0], res.clicks[rows, 1], code]


def _sample_bits(plan, streams: RowStreams, rows, psi: np.ndarray) -> np.ndarray:
    """Each row's receiver bit code, drawn from its end-of-window state
    (uniform where the state is numerically empty)."""
    n_codes = len(plan.info.bit_strings)
    weights = np.abs(psi) ** 2
    total = weights.sum(axis=1)
    code = np.zeros(len(rows), dtype=np.int64)
    empty = total <= 1e-30
    code[empty] = streams.integers(rows[empty], n_codes)
    full = ~empty
    cum = np.cumsum(_binned(weights[full], plan.info.bit_codes, n_codes), axis=1)
    code[full] = pick(cum, streams.random(rows[full]) * total[full])
    return code
