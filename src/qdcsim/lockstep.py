"""The round engine: a block of protocol rounds as numpy arrays.

Each row of a block is one round on its own stream: a
:class:`~qdcsim.streams.RowStreams` row, or for ``protocol.run_round`` and
``protocol.simulate_window`` one numpy ``Generator``.  A row takes the
draws of the same round computed alone on a dense state vector (the
Monte-Carlo wavefunction reference the tests keep), in the same order, and
makes the same decisions from them.

The detection window runs in closed form on :func:`jump_tables`.  A start
holds at most two photons, a jump lowers the photon number by one, and the
no-jump decay exp(-k n t) scales each photon sector n, so a row's state is
V[s, h] = B_h ... psi_s for one of 7 jump histories h, scaled per sector:
a row carries h and its three sector weights.  The first pass reads the
start's own sector norms, so the first jump time is the reference's bit
for bit; later times and end states agree up to rounding.

A row's bits do not depend on its block: element-wise ufuncs give the same
bits per element whatever the array's shape, row reductions keep the
one-row order (``sum(axis=1)``, ``cumsum``), and the per-row scalars taken
from libm (``math.exp``, ``math.log``, float powers) are evaluated by the
same Python calls, never by numpy's SIMD versions.

:func:`run_block` runs the rounds of a block from the compiled plan
(``protocol._Plan``); ``security`` drives the same row functions in its
own draw orders.

Independent work units (a batch's ``SPAN``-round spans, ``security``'s
experiments, ``sweep``'s windows) can share forked worker processes
(:func:`fork_map`, :func:`worker_count`); as every round reads its own
stream, the split does not change a bit of the result.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import dataclass

import numpy as np

from .streams import RowStreams, philox_words

ABORT = 4  # decoded-message index of an aborted round
BLOCK_AMPLITUDES = 1 << 15  # rows x entries of the widest per-row array per block
_FIRST_WORDS = 4  # Philox blocks (4 words each) computed up front per round
SPAN = 2048  # rounds whose first words are computed in one call
_PIPE_BYTES = 1 << 20  # the most a worker's pipe is grown to hold
BREAK_EVEN_ROUNDS = 6144  # fewer rounds in all run in process: a fork would not pay (README)
HISTORIES = 7  # jump histories of a window: none, +, -, ++, +-, -+, --
SECTORS = 3  # photon numbers a window state holds: 0, 1, 2


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


@dataclass(frozen=True, eq=False)
class JumpTables:
    """The detection window of each start state s, compiled per jump history
    h: none, +, -, ++, +-, -+, -- (index 0-6; after h, a jump on channel c,
    0 = D+ and 1 = D-, leads to history 2h + 1 + c)."""

    norms: np.ndarray  # (starts, 7, 3) W[s, h, n]: photon-sector weights of V[s, h]
    branch: np.ndarray  # (starts, 7, 2, 3) F[s, h, c, n] = W[s, 2h+1+c, n-1] / W[s, h, n]
    bits: np.ndarray  # (starts, 7, 3, bit codes) bit-code weights of sector n per unit W[s, h, n]

    @property
    def width(self) -> int:
        """Entries a window row holds at once: (sector, bit code) weights."""
        return self.bits.shape[2] * self.bits.shape[3]

    def state(self, info, vectors: np.ndarray, s: int, h: int, q: np.ndarray) -> np.ndarray:
        """The amplitudes of start ``s`` after history ``h`` with sector
        weights ``q``: V[s, h] of ``vectors`` (:func:`jump_vectors` of the
        same starts) scaled in sector n by sqrt(q[n] / W[s, h, n])."""
        scale = np.zeros(max(int(info.photon_numbers.max()) + 1, SECTORS))
        scale[:SECTORS] = np.sqrt(_per_unit(q, self.norms[s, h]))
        return vectors[s, h] * scale[info.photon_numbers]


def _per_unit(weights: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``weights / norms``, 0 where the norm is 0 (so are the weights)."""
    return np.divide(weights, norms, out=np.zeros(np.broadcast(weights, norms).shape),
                     where=norms > 0.0)


def jump_vectors(info, amps: np.ndarray) -> np.ndarray:
    """V[s, h], shape (starts, 7, dim): the jump channels of history h
    applied to the start state ``amps[s]`` of layout ``info``."""
    vectors = np.zeros((len(amps), HISTORIES, amps.shape[1]), dtype=np.complex128)
    vectors[:, 0] = amps
    for h in range(HISTORIES // 2):  # histories of at most one jump
        vectors[:, 2 * h + 1], vectors[:, 2 * h + 2] = beamsplitter(info, vectors[:, h])
    return vectors


def jump_tables(info, amps: np.ndarray) -> JumpTables:
    """The :class:`JumpTables` of the start states ``amps`` (rows) of layout
    ``info``.  Sector weights are summed in index order (``bincount``), so
    W[s, 0] is the start state's own.  A start with weight on three or more
    photons raises ValueError."""
    n_vec, n_codes = info.photon_numbers, len(info.bit_strings)
    n_sectors = max(int(n_vec.max()) + 1, SECTORS)
    weights = np.abs(jump_vectors(info, amps).reshape(-1, amps.shape[1])) ** 2
    norms = np.array([np.bincount(n_vec, weights=w, minlength=n_sectors) for w in weights])
    norms = norms.reshape(len(amps), HISTORIES, n_sectors)
    if norms[..., SECTORS:].any():
        raise ValueError("detection windows take states of at most two photons")
    norms = np.ascontiguousarray(norms[..., :SECTORS])
    bins, size = n_vec * n_codes + info.bit_codes, n_sectors * n_codes
    bits = np.array([np.bincount(bins, weights=w, minlength=size) for w in weights])
    bits = _per_unit(
        bits.reshape(len(amps), HISTORIES, n_sectors, n_codes)[:, :, :SECTORS], norms[..., None]
    )
    branch = np.zeros((len(amps), HISTORIES, 2, SECTORS))
    for h in range(HISTORIES // 2):
        for c in range(2):
            branch[:, h, c, 1:] = _per_unit(norms[:, 2 * h + 1 + c, :-1], norms[:, h, 1:])
    for table in (norms, branch, bits):
        table.flags.writeable = False
    return JumpTables(norms, branch, bits)


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


def row_blocks(seed: int, start: int, stop: int, width: int):
    """Yield the :class:`RowStreams` of rounds ``start .. stop-1`` of the
    batch with ``seed``, in blocks of at most ``BLOCK_AMPLITUDES`` entries of
    the widest per-row array the caller holds, ``width`` entries a row.  A
    range that starts on a multiple of ``SPAN`` gets the blocks of the same
    rounds in a longer range."""
    step = max(1, BLOCK_AMPLITUDES // width)
    for lo in range(start, stop, SPAN):
        indices = np.arange(lo, min(lo + SPAN, stop))
        words = philox_words(seed, indices, 0, _FIRST_WORDS)
        for b in range(0, len(indices), step):
            block = slice(b, b + step)
            yield RowStreams(seed, indices[block], words[block])


# ---------------------------------------------------------------------------
# independent work units in forked worker processes


def worker_count(workers: int, units: int, rounds: int) -> int:
    """Processes to share ``units`` independent work units of ``rounds``
    rounds in all: ``min(workers, usable CPUs, units)``.  It is 1, and the
    units run in process, below ``BREAK_EVEN_ROUNDS`` rounds, where
    ``os.fork`` is missing, and while other threads run (a forked child
    could inherit a lock one of them holds)."""
    if rounds < BREAK_EVEN_ROUNDS or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(workers, cpus or 1, units))


def fork_map(task, units, workers: int) -> list:
    """``[task(u) for u in units]``, with the units split into ``workers``
    contiguous shares.  The calling process runs the first share; each
    other share runs in a forked child, which pickles its results, or the
    exception it raised, to a pipe and ends with ``os._exit``.  The results
    come back in unit order; a child's exception is raised here.  Every
    child is reaped before this returns or raises, and killed first if
    anything failed."""
    units = list(units)
    workers = max(1, min(workers, len(units)))
    size, extra = divmod(len(units), workers)
    shares = [units[w * size + min(w, extra):(w + 1) * size + min(w + 1, extra)]
              for w in range(workers)]
    children: dict[int, int] = {}  # pid -> read end of its pipe
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: the pipe goes too
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(task, share, write, [read, *children.values()])
            os.close(write)
            children[pid] = read
        results = [task(u) for u in shares[0]]
        for pid, read in children.items():
            with open(read, "rb", closefd=False) as pipe:
                try:
                    ok, value = pickle.load(pipe)
                except EOFError:
                    raise RuntimeError(f"worker process {pid} ended without a result") from None
            if not ok:
                raise value
            results.extend(value)
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


def _child(task, share, write: int, inherited: list[int]):
    """A forked worker: runs ``share``, writes the pickled outcome to the
    pipe ``write`` and ends the process, whatever happens."""
    try:
        for fd in inherited:  # the parent's ends of the workers' pipes
            os.close(fd)
        try:
            outcome = (True, [task(u) for u in share])
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
        window_rounds(plan, streams, rows, plan.tables, sent, res)


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


def window(config, tables: JumpTables, streams, rows, start: np.ndarray,
           res: Rounds) -> tuple[np.ndarray, np.ndarray]:
    """The detection window (``protocol.simulate_window``) of every row,
    from start state ``start`` of ``tables``: writes each row's jumps, dark
    counts, click counts and survival flag into ``res``; returns each row's
    end-of-window photon-sector weights q and jump history h
    (:meth:`JumpTables.state`).

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
    """The :func:`window`, receiver bits and decode of every row, starting
    from start state ``start`` of ``tables``."""
    q, hist = window(plan.config, tables, streams, rows, start, res)
    code = _sample_bits(streams, rows, (q[:, :, None] * tables.bits[start, hist]).sum(axis=1))
    res.bits[rows] = code
    res.decoded[rows] = plan.decoded[res.clicks[rows, 0], res.clicks[rows, 1], code]


def _sample_bits(streams: RowStreams, rows, weights: np.ndarray) -> np.ndarray:
    """Each row's receiver bit code, drawn from its end-of-window bit-code
    ``weights`` (uniform where they are numerically empty)."""
    cum = np.cumsum(weights, axis=1)
    total = cum[:, -1]
    code = np.zeros(len(rows), dtype=np.int64)
    empty = total <= 1e-30
    code[empty] = streams.integers(rows[empty], weights.shape[1])
    full = ~empty
    code[full] = pick(cum[full], streams.random(rows[full]) * total[full])
    return code
