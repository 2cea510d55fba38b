"""The round engine: a block of protocol rounds as numpy arrays.

Each row of a block is one round on its own stream, a
:class:`~qdcsim.streams.RowStreams` row that draws what the round's numpy
``Generator`` would.  A row takes the draws of the same round computed
alone on a dense state vector (the Monte-Carlo wavefunction of Dalibard,
Castin & Molmer, PRL 68, 580 (1992), kept as the reference under
``tests/``), in the same order, and makes the same decisions from them;
every command runs its rounds this way, and a one-round batch is
``qdcsim run``.

The detection window runs in closed form on :func:`jump_tables`.  A start
holds at most one photon per cavity, a jump lowers the photon number by
one, and the no-jump decay exp(-k n t) scales each photon sector n, so a
row's state is V[s, h] = B_h ... psi_s for one of 7 jump histories h,
scaled per sector: a row carries h and its three sector weights.  The first pass reads the
start's own sector norms, so the first jump time is the reference's bit
for bit; later times agree up to rounding.

A row's bits do not depend on its block: element-wise ufuncs give the same
bits per element whatever the array's shape, row reductions keep the
one-row order (``sum(axis=1)``, ``cumsum``), and the per-row scalars that
set a jump time are taken from libm (``math.exp``, ``math.log``, float
powers) by the same Python calls, not from numpy's SIMD versions, which
may differ in the last bit.  The window's two sector decay factors
exp(-2knt), at a jump and at the window's end, do come from ``np.exp``,
and cannot reach a decision: every state the window reaches holds the
weight that can jump in one photon sector, so after a jump that sector
holds all the weight, renormalised to exactly 1; everywhere else the
factor scales both sides of a draw's comparison (the channel draw's r[c]
and its total, or the bit-code draw's parity-class weights, whose shares
are equal in every sector that holds weight).  Only its rounding can move
a draw that lands within a few ulps of a boundary.

:func:`run_block` runs the rounds of a block from the compiled plan
(``protocol._Plan``); ``security`` drives the same row functions in its
own draw orders.

The receivers' bit code enters the tables through its parity alone, so a
row draws it in closed form from two parity-class weights (:func:`pick_code`).
:func:`row_blocks` cuts a range of rounds into blocks of ``BLOCK_ROWS`` rows,
whatever the layout.  Every command splits its rounds one way: into
contiguous ranges, one per process, the caller running the first and forked
workers the others (:func:`map_ranges`, :func:`worker_count`); as every
round reads its own stream, neither blocks nor split change a bit of the
result.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import threading
from typing import NamedTuple

import numpy as np

from .streams import RowStreams, philox_words

ABORT = 4  # decoded-message index of an aborted round
BLOCK_ROWS = 1 << 15  # rows per block on every layout; a row's own arrays take under 1 KiB
# Philox blocks (4 words each) computed up front per row, by row kind: a row
# that may run an encode round draws a varying number (2.46 blocks on
# average on the benchmark security config), an atom-attack check row
# exactly 2 + ceil(n_parties / 2) words; a row that needs more extends its stream
_FIRST_WORDS = {"encode": 4, "check": 1}
_PIPE_BYTES = 1 << 20  # the most a worker's pipe is grown to hold
# worker_count's rule: each added process costs as much wall time as
# FORK_ROWS rows run in process, given a free CPU for it (README, --threads)
FORK_ROWS = 5000
HISTORIES = 7  # jump histories of a window: none, +, -, ++, +-, -+, --
SECTORS = 3  # photon numbers a window state holds: 0, 1, 2


def beamsplitter(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a_A + a_B)/sqrt(2) and (a_A - a_B)/sqrt(2) on each row of photon-sector
    amplitudes ``psi[row, bits, n_A, n_B]``: the unscaled jump channels of
    both signs.

    Each annihilator maps the one-photon slice of its cavity onto the vacuum
    slice, with the factor sqrt(1) left out.  ``a = 0 + a_A psi`` holds no
    -0.0, so ``a + b`` and ``a - b`` equal the per-sign scatter-adds of
    ``+/-(a_B psi)`` onto ``a_A psi``, signed zeros included."""
    plus = np.zeros_like(psi)
    plus[..., 0, :] += psi[..., 1, :]  # a_A: n_A = 1 -> 0
    minus = plus.copy()
    plus[..., 0] += psi[..., 1]  # a_B: n_B = 1 -> 0
    minus[..., 0] -= psi[..., 1]
    scale = 1.0 / math.sqrt(2.0)
    plus *= scale
    minus *= scale
    return plus, minus


class JumpTables(NamedTuple):
    """The detection window of each start state s, compiled per jump history
    h: none, +, -, ++, +-, -+, -- (index 0-6; after h, a jump on channel c,
    0 = D+ and 1 = D-, leads to history 2h + 1 + c)."""

    norms: np.ndarray  # (starts, 7, 3) W[s, h, n]: photon-sector weights of V[s, h]
    branch: np.ndarray  # (starts, 7, 2, 3) F[s, h, c, n] = W[s, 2h+1+c, n-1] / W[s, h, n]
    bits: np.ndarray  # (starts, 7, 3, bits) weights of sector n per entry of bits, per unit W


def _per_unit(weights: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``weights / norms``, 0 where the norm is 0 (so are the weights)."""
    return np.divide(weights, norms, out=np.zeros(np.broadcast(weights, norms).shape),
                     where=norms > 0.0)


def jump_vectors(starts: np.ndarray) -> np.ndarray:
    """V[s, h], shape (starts, 7, bits, 2, 2): the jump channels of history
    h applied to the photon-sector amplitudes ``starts[s]``."""
    vectors = np.zeros((len(starts), HISTORIES) + starts.shape[1:], dtype=np.complex128)
    vectors[:, 0] = starts
    for h in range(HISTORIES // 2):  # histories of at most one jump
        vectors[:, 2 * h + 1], vectors[:, 2 * h + 2] = beamsplitter(vectors[:, h])
    return vectors


def jump_tables(starts: np.ndarray) -> JumpTables:
    """The :class:`JumpTables` of the start states ``starts[s, bits, n_A,
    n_B]`` (bits: the parity, or every bit code).  Sector weights are summed
    in (bits, n_A, n_B) order (``bincount``), so W[s, 0] is the start's own."""
    n_bits = starts.shape[1]
    n_vec = np.tile([0, 1, 1, 2], n_bits)  # photon number per (bits, n_A, n_B)
    bins = n_vec * n_bits + np.repeat(np.arange(n_bits), 4)
    norms = np.zeros((len(starts), HISTORIES, SECTORS))
    bits = np.zeros((len(starts), HISTORIES, SECTORS, n_bits))
    weights = np.abs(jump_vectors(starts).reshape(len(starts), HISTORIES, -1))
    np.square(weights, out=weights)
    for s, h in itertools.product(range(len(starts)), range(HISTORIES)):
        norms[s, h] = np.bincount(n_vec, weights=weights[s, h], minlength=SECTORS)
        bits[s, h] = np.bincount(bins, weights=weights[s, h], minlength=SECTORS * n_bits).reshape(
            SECTORS, n_bits)
    bits = _per_unit(bits, norms[..., None])
    branch = np.zeros((len(starts), HISTORIES, 2, SECTORS))
    for h in range(HISTORIES // 2):
        for c in range(2):
            branch[:, h, c, 1:] = _per_unit(norms[:, 2 * h + 1 + c, :-1], norms[:, h, 1:])
    for table in (norms, branch, bits):
        table.flags.writeable = False
    return JumpTables(norms, branch, bits)


class Rounds:
    """Per-row results of a block of ``n`` rows; encode fields are 0 on
    check rows."""

    def __init__(self, n: int):
        self.check = np.zeros(n, dtype=bool)  # security-check round
        self.combo = np.zeros(n, dtype=np.int64)  # check: x/y basis combination index
        self.outcome = np.zeros(n, dtype=np.int64)  # check: measured outcome index
        self.sent = np.zeros(n, dtype=np.int64)  # encode: message index
        self.bits = np.zeros(n, dtype=np.int64)  # encode: receiver bit code
        self.decoded = np.zeros(n, dtype=np.int64)  # encode: message index, ABORT = abort
        self.label = np.zeros(n, dtype=np.int64)  # ideal PNR: Bell label index, -1 = lost round
        # photon present at the end of a jump-free window
        self.survived = np.zeros(n, dtype=bool)
        # (rows, 2) observable click counts (n+, n-), darks included
        self.clicks = np.zeros((n, 2), dtype=np.int64)
        self.jump_t = np.zeros((n, 0))  # (rows, jumps) jump times
        # (rows, jumps) +1 (D+) / -1 (D-), 0 = no jump
        self.jump_sign = np.zeros((n, 0), dtype=np.int8)
        self.jump_seen = np.zeros((n, 0), dtype=bool)  # (rows, jumps) the jump registered a click
        self.dark_t = np.full((n, 2), np.nan)  # (rows, 2) D+ / D- dark-count times, NaN = none


def row_blocks(seed: int, start: int, stop: int, kind: str = "encode", games: int = 1):
    """Yield the :class:`RowStreams` of rounds ``start .. stop-1`` of ``games``
    games side by side, game g on the streams of seed ``seed + g`` (mod
    2**64), in blocks of ``max(1, BLOCK_ROWS // games)`` rounds, the last
    maybe short.  A block's rows are game-major: row ``g * m + j`` is round
    ``lo + j`` of game g.  One call computes each block's first Philox
    words, ``_FIRST_WORDS[kind]`` blocks of them per row."""
    step = max(1, BLOCK_ROWS // games)
    game_seeds = np.array([(seed + g) % 2**64 for g in range(games)], dtype=np.uint64)
    for lo in range(start, stop, step):
        indices = np.arange(lo, min(lo + step, stop))
        seeds = seed if games == 1 else np.repeat(game_seeds, len(indices))
        indices = np.tile(indices, games)
        yield RowStreams(seeds, indices, philox_words(seeds, indices, 0, _FIRST_WORDS[kind]))


# ---------------------------------------------------------------------------
# round ranges in forked worker processes


def worker_count(workers: int, units: int, rows: int) -> int:
    """Processes to share ``units`` rounds that simulate ``rows`` rows in
    all: the largest w <= ``min(workers, usable CPUs, units)`` for which
    ``rows`` exceeds ``FORK_ROWS * w * (w - 1)``.  Going from w - 1
    processes to w saves the wall time of rows / (w (w - 1)) rows and costs
    that of ``FORK_ROWS``, so the w-th process is the last that still pays.
    It is 1, and the rounds run in process, where ``os.fork`` is missing and
    while other threads run (a forked child could inherit a lock one of them
    holds)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    w = max(1, min(workers, cpus or 1, units))
    while w > 1 and rows <= FORK_ROWS * w * (w - 1):
        w -= 1
    return w


def map_ranges(task, n_rounds: int, rows_per_round: int, workers: int) -> list:
    """``task(bounds)`` for each of :func:`worker_count` near-equal contiguous
    ranges ``bounds = (lo, hi)`` of ``n_rounds`` rounds of ``rows_per_round``
    rows each, in round order.  The caller runs the first range, and a
    forked child each other one: it pickles its result, or the exception it
    raised (raised here), to a pipe and ends with ``os._exit``.  Every child
    is reaped before this returns or raises, and killed first if anything
    failed."""
    workers = worker_count(workers, n_rounds, rows_per_round * n_rounds)
    ranges = [(n_rounds * w // workers, n_rounds * (w + 1) // workers) for w in range(workers)]
    children: dict[int, int] = {}  # pid -> read end of its pipe
    try:
        for bounds in ranges[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: the pipe goes too
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(task, bounds, write, [read, *children.values()])
            os.close(write)
            children[pid] = read
        results = [task(ranges[0])]
        for pid, read in children.items():
            with open(read, "rb", closefd=False) as pipe:
                try:
                    ok, value = pickle.load(pipe)
                except EOFError:
                    raise RuntimeError(f"worker process {pid} ended without a result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        import signal

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read in children.items():
            os.close(read)
            os.waitpid(pid, 0)


def _child(task, bounds: tuple[int, int], write: int, inherited: list[int]):
    """A forked worker: runs ``task(bounds)``, writes the pickled outcome to
    the pipe ``write`` and ends the process, whatever happens."""
    try:
        for fd in inherited:  # the parent's ends of the workers' pipes
            os.close(fd)
        try:
            outcome = (True, task(bounds))
        except BaseException as exc:  # the parent raises it
            outcome = (False, exc)
        try:  # a pipe that holds the whole outcome lets the child end before it is read
            import fcntl

            fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except (ImportError, AttributeError, OSError):
            pass  # the writes wait for the reader
        with open(write, "wb") as pipe:
            pickle.dump(outcome, pipe)
    finally:
        os._exit(0)


def run_block(plan, streams: RowStreams, msg_ids: np.ndarray) -> Rounds:
    """The protocol rounds of one block of streams; encode rounds send
    ``msg_ids[integers(0, len(msg_ids))]``."""
    rows = np.arange(len(streams))
    res = Rounds(len(rows))
    res.check = streams.random(rows) < plan.config.p_check
    check_rows = rows[res.check]
    if check_rows.size:
        res.combo[check_rows], res.outcome[check_rows] = check_rounds(
            streams, check_rows, plan.config.n_parties
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


def parity(codes: np.ndarray) -> np.ndarray:
    """The parity of each bit code's bits (codes below 2^64)."""
    for shift in (32, 16, 8, 4, 2, 1):
        codes = codes ^ (codes >> shift)
    return codes & 1


def pick_code(weights: np.ndarray, x: np.ndarray, n_codes: int,
              base: float | np.ndarray = 0.0) -> np.ndarray:
    """:func:`pick` in closed form on the cumulative weights, from ``base``,
    of ``n_codes`` (a power of 2, at least 2) bit codes, each weighing its
    parity's ``weights[row, parity]`` over the n_codes / 2 codes of that
    parity.  Codes 2j and 2j+1 differ in parity, so every such pair weighs
    as much: ``x`` falls in pair j = floor((x - base) / pair), on its first
    code, of parity popcount(j) mod 2, below base + j pair + that code's
    weight.  A code of weight 0 is never taken."""
    pairs = n_codes // 2
    pair = (weights[:, 0] + weights[:, 1]) / pairs
    j = np.minimum(np.floor((x - base) / pair), pairs - 1).astype(np.int64)
    rows, first = np.arange(len(j)), parity(j)
    w_first, w_second = weights[rows, first], weights[rows, 1 - first]
    second = (w_first == 0.0) | ((x >= base + j * pair + w_first / pairs) & (w_second > 0.0))
    return 2 * j + second


def pick_label_code(cum: np.ndarray, bell: np.ndarray, u: np.ndarray,
                    n_codes: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`pick`, unclipped, in closed form on the cumulative weights of
    every (Bell label, bit code), label-major, for Bell weights
    ``bell[row, label, parity]`` with running sums ``cum[row]``: the label
    is the count of labels whose weights end at or below ``u``, the code
    :func:`pick_code` within it.  A draw past them all is label 4, code 0."""
    label = (cum[:, 1::2] <= u[:, None]).sum(axis=1)
    code = np.zeros(len(u), dtype=np.int64)
    rows = np.flatnonzero(label < bell.shape[1])
    lab = label[rows]
    base = np.where(lab > 0, cum[rows, 2 * lab - 1], 0.0)
    code[rows] = pick_code(bell[rows, lab], u[rows], n_codes, base)
    return label, code


# ---------------------------------------------------------------------------
# GHZ parity-check rounds (protocol step 2), in closed form: bit j of a basis
# combination (party 0 most significant) is 1 where party j measures y, and
# an outcome packs the parties' outcomes alike, 0 for eigenvalue +1


def _popcount(x: np.ndarray, n_bits: int) -> np.ndarray:
    return sum((x >> b) & 1 for b in range(n_bits))


def check_law(combo: np.ndarray, n_parties: int, eve_bit: int = 0, sign: int | np.ndarray = 0,
              entangled: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The outcomes each row's state allows in basis combination ``combo``,
    all equally likely: those whose bits ``fixed`` read ``sign`` and whose
    bits ``mask`` have parity ``parity`` (0 where ``mask`` is 0), as (fixed,
    mask, parity).

    The GHZ state allows every outcome where the number m of y bases is odd,
    else those of parity m/2 mod 2 (Mermin, PRL 65, 1838 (1990)).  Eve's z
    measurement (``entangled=False``) leaves a product state, which allows
    all.  After her x measurement with outcome ``sign`` of the party at
    outcome bit ``eve_bit``, that party reads ``sign`` where it measures x,
    and the others share a GHZ state of sign (-1)^sign: the GHZ rule on
    their own y count, shifted by ``sign``."""
    others = ((1 << n_parties) - 1) & ~eve_bit
    m = _popcount(combo & others, n_parties)
    mask = np.where(entangled & (m % 2 == 0), others, 0)
    return np.where(combo & eve_bit, 0, eve_bit), mask, ((m >> 1) ^ sign) & (mask > 0)


def _insert_zero(x: np.ndarray, bit: np.ndarray) -> np.ndarray:
    low = x & (bit - 1)  # all of x where bit is 0
    return ((x - low) << 1) | low


def check_outcomes(combo: np.ndarray, u: np.ndarray, n_parties: int, eve_bit: int = 0,
                   sign: int | np.ndarray = 0, entangled: bool = True) -> np.ndarray:
    """Each row's outcome for its draw ``u`` in [0, 1): the floor(u |S|)-th,
    in index order, of the set S that :func:`check_law` allows.  S fixes the
    bits ``fixed`` and, given the rest, the lowest bit of ``mask``, and runs
    in the order of its other bits: its j-th outcome is j with zeros
    inserted at those two bits, which are then set.  |S| is a power of 2, so
    u |S| is exact."""
    fixed, mask, parity = check_law(combo, n_parties, eve_bit, sign, entangled)
    pivot = mask & -mask
    j = np.ldexp(u, n_parties - (fixed > 0) - (pivot > 0)).astype(np.int64)
    out = _insert_zero(_insert_zero(j, np.minimum(fixed, pivot)), np.maximum(fixed, pivot))
    out |= fixed * sign
    return out | pivot * ((_popcount(out & mask, n_parties) & 1) ^ parity)


def check_rounds(streams: RowStreams, rows: np.ndarray, n_parties: int,
                 **state) -> tuple[np.ndarray, np.ndarray]:
    """GHZ parity-check rounds after any tamper draws, on the state
    :func:`check_law` describes (``state``: its keywords): (basis
    combination, outcome) per row.  Draws: the bases, party 0 first, then
    the outcome's."""
    combo = np.zeros(len(rows), dtype=np.int64)
    for _ in range(n_parties):
        combo = (combo << 1) | streams.integers(rows, 2)
    return combo, check_outcomes(combo, streams.random(rows), n_parties, **state)


def check_verdicts(combo: np.ndarray, outcome: np.ndarray,
                   n_parties: int) -> tuple[np.ndarray, np.ndarray]:
    """(conclusive, passed) per row: conclusive where the GHZ state rules
    out some outcomes, passed where it allows the row's outcome."""
    _, mask, parity = check_law(combo, n_parties)
    return mask > 0, (_popcount(outcome & mask, n_parties) & 1) == parity


def encode_rounds(plan, streams: RowStreams, rows: np.ndarray, sent: np.ndarray,
                  res: Rounds) -> None:
    """An encode round of message index ``sent`` for every row."""
    res.sent[rows] = sent
    if plan.config.ideal_pnr:
        _ideal_pnr_rounds(plan, streams, rows, sent, res)
    else:
        window_rounds(plan, streams, rows, plan.tables, sent, res)


def _ideal_pnr_rounds(plan, streams, rows, sent, res: Rounds) -> None:
    """Oracle four-state discrimination (:func:`pick_label_code`); a lost
    round draws its bit code uniformly."""
    n_codes = 1 << (plan.config.n_receivers - 1)
    u = streams.random(rows)
    label, code = pick_label_code(plan.pnr_cum[sent], plan.bell[sent], u, n_codes)
    lost = label == 4
    code[lost] = streams.integers(rows[lost], n_codes)
    res.bits[rows] = code
    res.label[rows] = np.where(lost, -1, label)
    res.decoded[rows] = np.where(lost, ABORT, plan.pnr_decoded[label % 4, parity(code)])


def _crossings(norms: np.ndarray, k: float, u: np.ndarray, t_max: np.ndarray):
    """Row-wise first t in (0, t_max] where the no-jump squared norm, the
    quadratic sum_n P_n x^n in x = exp(-2kt) for sector norms of at most two
    photons, hits u: (dt, none) with ``none`` where it stays above u."""
    p0, p1, p2 = norms[:, 0], norms[:, 1], norms[:, 2]
    if t_max.size and t_max.min() == t_max.max():  # every row at one time (the first pass)
        x_end = math.exp((-2.0 * k) * float(t_max[0]))
        x_end2 = x_end**2
    else:
        x_end = np.fromiter(map(math.exp, ((-2.0 * k) * t_max).tolist()), float, len(t_max))
        x_end2 = np.fromiter(map(pow, x_end.tolist(), itertools.repeat(2)), float, len(t_max))
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
    dt[go] = -np.fromiter(map(math.log, x[go].tolist()), float, go.sum()) / (2.0 * k)
    return dt, none


def window(config, tables: JumpTables, streams, rows, start: np.ndarray,
           res: Rounds) -> tuple[np.ndarray, np.ndarray]:
    """The Monte-Carlo wavefunction detection window of every row, from
    start state ``start`` of ``tables``: writes each row's jumps, dark
    counts, click counts and survival flag into ``res``; returns each row's
    end-of-window photon-sector weights q and jump history h, whose end
    state is V[start, h] scaled in sector n by sqrt(q[n] / W[start, h, n]).

    A pass finds where the no-jump norm sum_n q[n] x^n, x = exp(-2kt),
    crosses the row's draw, decays q[n] by exp(-2knt), draws the channel c
    from the rates r[c] = sum_n q[n] F[c, n] and moves to
    q'[n-1] = q[n] F[c, n] / r[c]."""
    k, t_window = config.params.k, config.t_window
    eta, p_dc = config.detector.efficiency, config.detector.dark_prob
    decay = (-2.0 * k) * np.arange(SECTORS)
    n = len(rows)
    q = tables.norms[start, 0]
    hist = np.zeros(n, dtype=np.int64)
    t = np.zeros(n)
    survived = np.zeros(n, dtype=bool)
    jumps = []  # per jump number: (local rows, times, signs, registered)
    act = np.arange(n)
    while act.size:
        cur = q[act]
        total = cur.sum(axis=1)
        keep = total > 1e-300
        act, cur, total = act[keep], cur[keep], total[keep]
        u = streams.random(rows[act])
        keep = u < total
        act, cur, total, u = act[keep], cur[keep], total[keep], u[keep]
        if k == 0.0:
            # ideal extraction: every photon leaves, at a uniform time in the rest of the window
            keep = u < total - cur[:, 0]
            act, cur = act[keep], cur[keep]
            t_jump = t[act] + streams.random(rows[act]) * (t_window - t[act])
        else:
            dt, none = _crossings(cur, k, u, t_window - t[act])
            first = none & (hist[act] == 0)
            survived[act[first]] = total[first] - cur[first, 0] > 1e-12
            act, cur, dt = act[~none], cur[~none], dt[~none]
            t_jump = t[act] + dt
            cur *= np.exp(decay * dt[:, None])
        t[act] = t_jump
        flow = cur[:, None, :] * tables.branch[start[act], hist[act]]  # (rows, channel, n)
        r_plus, r_minus = flow[:, 0].sum(axis=1), flow[:, 1].sum(axis=1)
        keep = ~(r_plus + r_minus <= 0.0)
        if not keep.all():
            q[act[~keep]] = cur[~keep]  # rows that cannot jump keep their decayed weights
            act, flow, r_plus, r_minus = act[keep], flow[keep], r_plus[keep], r_minus[keep]
        pick = streams.random(rows[act]) * (r_plus + r_minus) < r_plus
        channel = np.where(pick, 0, 1)
        moved = flow[np.arange(len(act)), channel]
        q[act, :-1] = moved[:, 1:] / np.where(pick, r_plus, r_minus)[:, None]
        q[act, -1] = 0.0
        hist[act] = 2 * hist[act] + 1 + channel
        seen = streams.random(rows[act]) < eta
        if act.size:  # the last pass draws for no row and records nothing
            jumps.append((act, t[act], np.where(pick, 1, -1), seen))
    if k > 0.0:
        q *= np.exp(decay * (t_window - t)[:, None])

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
    return q, hist


def window_rounds(plan, streams: RowStreams, rows, tables: JumpTables, start: np.ndarray,
                  res: Rounds) -> None:
    """The :func:`window`, receiver bit code and decode of every row,
    starting from start state ``start`` of ``tables``."""
    q, hist = window(plan.config, tables, streams, rows, start, res)
    # sum_n q[n] * bits[n] in sector order: each row's parity-class weights
    weights = q[:, 0, None] * tables.bits[start, hist, 0]
    for n in range(1, SECTORS):
        weights += q[:, n, None] * tables.bits[start, hist, n]
    code = sample_code(streams, rows, weights, 1 << (plan.config.n_receivers - 1))
    res.bits[rows] = code
    res.decoded[rows] = plan.decoded[res.clicks[rows, 0], res.clicks[rows, 1], parity(code)]


def sample_code(streams: RowStreams, rows, weights: np.ndarray, n_codes: int) -> np.ndarray:
    """Each row's receiver bit code among ``n_codes`` from its end-of-window
    parity-class ``weights`` (rows, 2), uniform where they are empty."""
    total = weights[:, 0] + weights[:, 1]
    code = np.zeros(len(rows), dtype=np.int64)
    empty = total <= 1e-30
    code[empty] = streams.integers(rows[empty], n_codes)
    full = ~empty
    code[full] = pick_code(weights[full], streams.random(rows[full]) * total[full], n_codes)
    return code
