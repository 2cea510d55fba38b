"""The lockstep round engine against the scalar per-round oracle.

``run_batch`` runs rounds as numpy arrays (``qdcsim.lockstep``) on
vectorized Philox streams (``qdcsim.streams``).  Each round's log line
must equal the JSON of the RoundOutcome the scalar oracle
(``scalar_oracle``) builds from the round's own ``Generator``
(``outcome_to_dict``), and its survival flag and registered clicks the
oracle's.  A one-row block (``row_blocks(seed, i, i + 1)``) must take the
draws of the oracle's round ``i``, one for one, and leave its stream where
the oracle leaves the ``Generator``.  The oracle carries a dense state
through the detection window and the engine its compiled jump tables, so
jump times after the first may differ by ``scalar_oracle.TIME_TOL``; every
draw and decision is equal.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import dense as D
import scalar_oracle as O
from dense import StateVector
from qdcsim import cli, lockstep
from qdcsim import protocol as P
from qdcsim import security as S
from qdcsim.dynamics import PhysicalParams
from qdcsim.hilbert import MESSAGES, Message
from qdcsim.lockstep import beamsplitter
from qdcsim.streams import _MULTIPLIERS, TILE, RowStreams, _mulhilo, philox_words

MASK64 = 2**64 - 1
ROW = np.zeros(1, dtype=np.int64)


def reference_words(seed, index, n):
    key = np.array([seed & MASK64, index & MASK64], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(n)


class TestPhiloxWords:
    @pytest.mark.parametrize("seed", [0, 2**63 + 12345, -7, MASK64])
    def test_known_answers(self, seed):
        indices = [0, 1, 5, 2**63, MASK64]
        words = philox_words(seed, np.array(indices, dtype=np.uint64), 0, 3)
        for row, index in zip(words, indices):
            np.testing.assert_array_equal(row, reference_words(seed, index, 12))

    def test_index_wraps_modulo_2_64(self):
        index = 2**64 + 9
        words = philox_words(3, np.array([index & MASK64], dtype=np.uint64), 0, 1)
        np.testing.assert_array_equal(words[0], reference_words(3, 9, 4))
        assert O.round_rng(3, index).bit_generator.random_raw(4).tolist() == words[0].tolist()

    def test_later_blocks(self):
        words = philox_words(11, np.arange(4), 2, 2)
        for i in range(4):
            np.testing.assert_array_equal(words[i], reference_words(11, i, 16)[8:])

    @pytest.mark.parametrize("seed", [0, 1, MASK64])
    @pytest.mark.parametrize("first_block, n_blocks", [(0, 4), (0, 1), (1, 3), (4, 2)])
    @pytest.mark.parametrize("indices", [[7], [0, 1, 2, 3, 2**40, MASK64]])
    def test_broadcast_counter_equals_numpy(self, seed, first_block, n_blocks, indices):
        # the counter row and the zero words broadcast against the index
        # column, for one row or many, from the first block or a later one
        words = philox_words(seed, np.array(indices, dtype=np.uint64), first_block, n_blocks)
        assert words.shape == (len(indices), 4 * n_blocks)
        for row, index in zip(words, indices):
            want = reference_words(seed, index, 4 * (first_block + n_blocks))
            np.testing.assert_array_equal(row, want[4 * first_block:])

    @pytest.mark.parametrize("n_rows", [TILE - 1, TILE, TILE + 1])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_across_tile_edges(self, n_rows, per_row):
        # rows are computed a tile at a time into one array: every row of
        # the last, maybe short or lone, tile is its own stream
        indices = np.arange(n_rows, dtype=np.uint64) * np.uint64(2**40 + 3)
        seeds = (np.arange(n_rows, dtype=np.uint64) * np.uint64(7) + np.uint64(MASK64 - 5)
                 if per_row else MASK64)
        words = philox_words(seeds, indices, 1, 2)
        assert words.shape == (n_rows, 8)
        for row, index in enumerate(indices.tolist()):
            seed = int(seeds[row]) if per_row else seeds
            np.testing.assert_array_equal(words[row], reference_words(seed, index, 12)[4:])

    @pytest.mark.parametrize("seed", [0, 1, MASK64])
    def test_streams_extend_past_the_first_words(self, seed):
        # 40 draws a row run past the 16 words computed up front
        indices = np.array([0, 3, 2**33, MASK64], dtype=np.uint64)
        streams = RowStreams(seed, indices, philox_words(seed, indices, 0, 4))
        rows = np.arange(len(indices))
        got = np.array([streams.random(rows) for _ in range(40)]).T
        for row, index in zip(got, indices.tolist()):
            key = np.array([seed, index], dtype=np.uint64)
            want = np.random.Generator(np.random.Philox(key=key)).random(40)
            assert row.tolist() == want.tolist()

    @pytest.mark.parametrize("first_block, n_blocks", [(0, 1), (0, 4), (3, 2)])
    def test_per_row_seeds(self, first_block, n_blocks):
        # one seed per row: each row is the stream of its own (seed, index),
        # MASK64 and the seed + 1 that wraps to 0 included
        seeds = [MASK64, 0, 5, MASK64, 2**63, 0]
        indices = [0, 0, 7, 2**40, MASK64, 3]
        words = philox_words(np.array(seeds, dtype=np.uint64), np.array(indices, dtype=np.uint64),
                             first_block, n_blocks)
        for row, seed, index in zip(words, seeds, indices):
            want = reference_words(seed, index, 4 * (first_block + n_blocks))
            np.testing.assert_array_equal(row, want[4 * first_block:])

    def test_per_row_seed_streams_extend(self):
        seeds = np.array([MASK64, 0, 11], dtype=np.uint64)
        indices = np.array([4, 4, 2**33], dtype=np.uint64)
        streams = RowStreams(seeds, indices, philox_words(seeds, indices, 0, 1))
        rows = np.arange(len(indices))
        got = np.array([streams.random(rows) for _ in range(10)]).T
        for row, seed, index in zip(got, seeds.tolist(), indices.tolist()):
            key = np.array([seed, index], dtype=np.uint64)
            assert row.tolist() == np.random.Generator(np.random.Philox(key=key)).random(10).tolist()

    @pytest.mark.parametrize("kind, n_blocks", [("encode", 4), ("check", 1)])
    def test_games_side_by_side(self, kind, n_blocks, monkeypatch):
        # row g * m + j of a block is round lo + j of game g, on seed + g mod
        # 2**64; blocks hold BLOCK_ROWS // games rounds, whatever the row kind
        monkeypatch.setattr(lockstep, "BLOCK_ROWS", 40)
        games = 3
        blocks = list(lockstep.row_blocks(MASK64 - 1, 5, 40, kind, games))
        assert [len(b) for b in blocks] == [39, 39, 27]  # 13, 13 and 9 rounds of 3 games
        lo = 5
        for streams in blocks:
            m = len(streams) // games
            assert streams.words.shape == (len(streams), 4 * n_blocks)
            for g in range(games):
                for j in range(m):
                    want = reference_words(MASK64 - 1 + g, lo + j, 4 * n_blocks)
                    np.testing.assert_array_equal(streams.words[g * m + j], want)
            lo += m

    @pytest.mark.parametrize("m", [*_MULTIPLIERS, 1, 2**32 - 1, MASK64])
    def test_mulhilo_exact(self, m):
        edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 2**32, MASK64]
        a = np.concatenate((
            np.array(edges, dtype=np.uint64),
            np.random.default_rng(m % 2**32).integers(0, MASK64, 2000, dtype=np.uint64),
        ))
        with np.errstate(over="ignore"):
            hi, lo = _mulhilo(a, m)
        assert hi.tolist() == [x * m >> 64 for x in a.tolist()]
        assert lo.tolist() == [x * m & MASK64 for x in a.tolist()]


def generator_reading(words):
    """A Generator whose next four 64-bit draws are ``words``."""
    bit_gen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    state = bit_gen.state
    state["buffer"][:] = np.array(words, dtype=np.uint64)
    state["buffer_pos"] = 0
    bit_gen.state = state
    return np.random.Generator(bit_gen)


class TestStreamRules:
    """RowStreams against numpy's Generator on chosen words."""

    WORDS = [0x1111111122222222, 0x3333333344444444, 0x5555555566666666, 0x7777777788888888]

    def pair(self, words=WORDS):
        streams = RowStreams(0, np.zeros(1, dtype=np.uint64), np.array([words], dtype=np.uint64))
        return generator_reading(words), streams

    def replay(self, ops, words=WORDS):
        gen, streams = self.pair(words)
        for op, n in ops:
            if op == "random":
                assert streams.random(ROW)[0] == gen.random()
            else:
                assert streams.integers(ROW, n)[0] == gen.integers(0, n)

    def test_random_is_top_53_bits_of_a_word(self):
        gen, streams = self.pair()
        assert streams.random(ROW)[0] == (self.WORDS[0] >> 11) * 2.0**-53 == gen.random()

    def test_uint32_halves_buffered_across_random(self):
        # low half of word 0, random() on word 1, then word 0's high half,
        # then the low half of word 2
        self.replay([("int", 4), ("random", 0), ("int", 4), ("int", 4)])

    def test_integers_of_one_draws_nothing(self):
        self.replay([("int", 1), ("random", 0), ("int", 1), ("int", 3), ("int", 1), ("int", 3)])

    def test_three_way_rejection(self):
        # a zero low half leaves leftover 0 < 2**32 % 3: rejected
        self.replay([("int", 3), ("random", 0)], [0xAAAAAAAA00000000, *self.WORDS[1:]])
        # both halves of word 0 rejected: word 1 decides
        self.replay([("int", 3), ("int", 3), ("random", 0)], [0, *self.WORDS[1:]])

    @given(st.lists(st.sampled_from([0, 1, 2, 3, 4, 5, 8, 1 << 31]), min_size=1, max_size=40))
    def test_real_streams(self, ops):
        """Any mix of draws, past the first words computed, on real streams."""
        seed, indices = 2**63 + 1, np.arange(6)
        streams = RowStreams(seed, indices, philox_words(seed, indices, 0, 1))
        gens = [O.round_rng(seed, int(i)) for i in indices]
        rows = np.arange(len(indices))
        for n in ops:
            if n == 0:
                got, want = streams.random(rows), [g.random() for g in gens]
            else:
                got, want = streams.integers(rows, n), [g.integers(0, n) for g in gens]
            assert got.tolist() == want


# ---------------------------------------------------------------------------
# differential: engine rounds against the scalar oracle


def oracle(config, n_rounds, seed, messages, cutoff=1):
    """Rounds one at a time on the scalar path, as run_batch specifies them,
    with the cavity modes of the dense states truncated at ``cutoff``."""
    out = []
    for i in range(n_rounds):
        rng = O.round_rng(seed, i)
        if rng.random() < config.p_check:
            out.append(O.run_check_round(config, rng))
        else:
            sent = messages[int(rng.integers(0, len(messages)))]
            out.append(O._encode_round(config, sent, rng, cutoff=cutoff))
    return out


def oracle_stats(outcomes):
    encode = [o for o in outcomes if o.mode == "encode"]
    checks = [o for o in outcomes if o.mode == "check" and o.check_conclusive]
    psi = [o for o in encode if o.sent in (Message.X, Message.IY)]
    confusion = [[0] * 5 for _ in range(4)]
    for o in encode:
        col = 4 if o.decoded is None else MESSAGES.index(o.decoded)
        confusion[MESSAGES.index(o.sent)][col] += 1
    return (
        confusion,
        len(outcomes) - len(encode),
        sum(o.check_passed for o in checks) / len(checks) if checks else None,
        sum(o.real_click for o in psi) / len(psi) if psi else None,
        sum(o.photon_survived for o in psi) / len(psi) if psi else None,
    )


def engine_rounds(config, n_rounds, seed, messages):
    """The engine's blocks of the batch, as ``run_batch`` cuts them: each
    round's (survival flag, registered click) in round order; then
    ``run_batch``'s round-log lines and its stats."""
    plan = P._plan(config)
    msg_ids = np.array([P._MSG_INDEX[m] for m in messages])
    got = []
    for streams in lockstep.row_blocks(seed, 0, n_rounds):
        r = lockstep.run_block(plan, streams, msg_ids)
        got += zip(r.survived.tolist(), r.jump_seen.any(axis=1).tolist())
    log = io.StringIO()
    stats = P.run_batch(dataclasses.replace(config, seed=seed), n_rounds, messages=messages,
                        log=log)
    return got, log.getvalue().splitlines(), stats


def assert_engine_matches(config, n_rounds, seed, messages, cutoff=1):
    """The engine's rounds agree with the oracle's at mode cutoff
    ``cutoff``; returns :func:`engine_rounds`."""
    got, log, stats = engine_rounds(config, n_rounds, seed, messages)
    want = oracle(config, n_rounds, seed, messages, cutoff)
    assert len(got) == n_rounds
    assert len(log) == n_rounds
    for i, expected in enumerate(want):
        O.assert_log_close(log[i], O.outcome_to_dict(i, expected), f"round {i}")
        assert got[i] == (expected.photon_survived, expected.real_click), f"round {i}"
    assert (
        stats.confusion, stats.n_check, stats.check_pass_rate,
        stats.psi_click_rate, stats.psi_survival_rate,
    ) == oracle_stats(want)
    return got, log, stats


def make_config(n_parties=3, k=0.2, ideal_pnr=False, detector=(1.0, 0.0),
                p_check=0.0, t_window=0.5, params=None):
    return P.RoundConfig(
        params=params or PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=k),
        t_window=t_window,
        n_receivers=n_parties - 1,
        p_check=p_check,
        detector=P.DetectorModel(*detector),
        ideal_pnr=ideal_pnr,
    )


SUBSETS = (MESSAGES, (Message.X,), (Message.I, Message.X, Message.Z))
DETECTORS = ((1.0, 0.0), (0.9, 0.05), (1.0, 0.05), (0.9, 0.0))
P_CHECKS = (0.0, 0.25, 1.0)
WINDOWS = (0.5, 6.0)
# The engine compiles every cavity at one photon.  The oracle's dense states
# are truncated at ``cutoff``: at 2 they hold levels the pipeline never
# fills, and the rounds must not change.
STRUCTURE = list(itertools.product((3, 4, 5), (1, 2), (0.0, 0.2), (False, True)))
# every structural combination twice, with the remaining knobs rotated so
# that each of their values meets each structural value
MATRIX = [
    (n_parties, cutoff, k, pnr, DETECTORS[(j + j // 4) % 4], P_CHECKS[j % 3],
     WINDOWS[j // 3 % 2], SUBSETS[j // 2 % 3])
    for i, (n_parties, cutoff, k, pnr) in enumerate(STRUCTURE)
    for j in (i, i + 13)
]


MATRIX_ARGS = "n_parties,cutoff,k,pnr,detector,p_check,t_window,messages"
MATRIX_IDS = [
    f"n{n}-cut{c}-k{k}-{'pnr' if pnr else 'clicks'}-eta{d[0]}-dc{d[1]}-pc{pc}-T{t}-m{len(ms)}"
    for n, c, k, pnr, d, pc, t, ms in MATRIX
]


class TestEngineEqualsOracle:
    @pytest.mark.parametrize(MATRIX_ARGS, MATRIX, ids=MATRIX_IDS)
    def test_matrix(self, n_parties, cutoff, k, pnr, detector, p_check, t_window, messages):
        config = make_config(n_parties, k, pnr, detector, p_check, t_window)
        assert_engine_matches(config, 400, 5, messages, cutoff)

    def test_matrix_pairs_every_value(self):
        columns = list(zip(*MATRIX))
        for structural, rotated in itertools.product(columns[:4], columns[4:]):
            assert set(zip(structural, rotated)) == set(
                itertools.product(set(structural), set(rotated))
            )
        for column, values in zip(columns[4:], (DETECTORS, P_CHECKS, WINDOWS, SUBSETS)):
            assert set(column) == set(values)

    def test_several_spans(self, monkeypatch):
        # several 2048-round blocks, the last one short; the seed also wraps
        # modulo 2**64
        config = make_config(detector=(0.9, 0.05), p_check=0.25, t_window=6.0)
        monkeypatch.setattr(P.lockstep, "BLOCK_ROWS", 2048)
        assert_engine_matches(config, 5000, -3, MESSAGES)

    @pytest.mark.parametrize("block_rows", [32, 700])
    def test_block_size_changes_nothing(self, monkeypatch, block_rows):
        # no row reads another row of its block: by default the whole
        # 5000-round batch is one block, and 32-row blocks or 700-row blocks
        # (the last one short) give the same bytes
        config = make_config(detector=(0.9, 0.05), p_check=0.25, t_window=6.0)
        assert P.lockstep.BLOCK_ROWS >= 5000
        default = engine_rounds(config, 5000, 21, MESSAGES)
        monkeypatch.setattr(P.lockstep, "BLOCK_ROWS", block_rows)
        got, log, stats = assert_engine_matches(config, 5000, 21, MESSAGES)
        assert log == default[1]
        assert got == default[0]
        assert stats == default[2]

    def test_wide_bit_codes_do_not_depend_on_the_block(self, monkeypatch):
        # tests/configs/many.json's 10 parties (256 bit codes, drawn in
        # closed form from two parity classes): blocks of 7 rows give the
        # bytes of one block in a logged lossy batch with check rounds, an
        # ideal-PNR batch and the photon attack
        config = dataclasses.replace(
            make_config(10, detector=(0.9, 0.05), p_check=0.25, t_window=6.0), seed=13)
        pnr = dataclasses.replace(config, ideal_pnr=True)
        photon = S.EveModel("intercept_resend_photon")

        def runs():
            log = io.StringIO()
            stats = P.run_batch(config, 600, log=log)
            return (stats, log.getvalue().splitlines(), P.run_batch(pnr, 600),
                    S.eavesdrop_experiment(photon, config, 600))

        default = runs()
        assert lockstep.BLOCK_ROWS >= 600
        # the draws reach most of the codes
        assert len({json.loads(line).get("receiver_bits") for line in default[1]}) > 150
        monkeypatch.setattr(P.lockstep, "BLOCK_ROWS", 7)
        assert runs() == default

    def test_starts_no_thread(self, monkeypatch):
        def start(self):
            raise AssertionError("a batch started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        config = dataclasses.replace(make_config(detector=(0.9, 0.05), p_check=0.25), seed=3)
        P.run_batch(config, 5000)
        P.run_sweep(config, [0.5, 1.0], 5000)

    def test_words_past_the_first_blocks(self, monkeypatch):
        # with one Philox block up front most rounds draw past it
        monkeypatch.setattr(P.lockstep, "_FIRST_WORDS", {"encode": 1, "check": 1})
        for k in (0.0, 0.2):
            config = make_config(k=k, detector=(0.9, 0.05), p_check=0.25, t_window=6.0)
            assert_engine_matches(config, 600, 8, MESSAGES)

    def test_no_trailing_empty_jump_column(self, monkeypatch):
        # the benchmark's batch config: the window records a pass only when
        # some row jumped in it, so every block's last jump column holds a jump
        config = make_config(detector=(0.9, 0.02), p_check=0.25, t_window=6.0)
        blocks, original = [], lockstep.run_block

        def run_block(*args):
            blocks.append(original(*args))
            return blocks[-1]

        monkeypatch.setattr(P.lockstep, "run_block", run_block)
        P.run_batch(config, 8000)
        assert len(blocks) == -(-8000 // lockstep.BLOCK_ROWS)
        for r in blocks:
            assert r.jump_sign.shape[1] > 0
            assert r.jump_sign[:, -1].any()

    @pytest.mark.parametrize("n_parties, n_rounds", [(3, 40000), (5, 40000), (10, 34000)])
    def test_blocks_fill_and_draw_their_bit_codes_at_once(self, monkeypatch, n_parties,
                                                          n_rounds):
        # the benchmark's batch layout, CI's wide and many layouts: blocks of
        # BLOCK_ROWS rounds over the whole range, the last short, whatever
        # the layout; a block draws all its encode rows' bit codes in one
        # call, from two parity-class weights a row
        config = make_config(n_parties, detector=(0.9, 0.02), p_check=0.25, t_window=6.0)
        blocks, run_block, sample_code = [], lockstep.run_block, lockstep.sample_code

        def recorded_block(plan, streams, msg_ids):
            blocks.append((len(streams), []))
            r = run_block(plan, streams, msg_ids)
            blocks[-1] += (int((~r.check).sum()),)
            return r

        def recorded_draw(streams, rows, weights, n_codes):
            assert weights.shape == (len(rows), 2) and n_codes == 2 ** (n_parties - 2)
            blocks[-1][1].append(len(rows))
            return sample_code(streams, rows, weights, n_codes)

        monkeypatch.setattr(P.lockstep, "run_block", recorded_block)
        monkeypatch.setattr(P.lockstep, "sample_code", recorded_draw)
        P.run_batch(config, n_rounds)
        full = lockstep.BLOCK_ROWS
        assert [size for size, _, _ in blocks] == (
            [full] * (n_rounds // full) + [n_rounds % full] * (n_rounds % full > 0))
        for _, draws, encode in blocks:
            assert draws == [encode]

    @settings(max_examples=30)
    @given(
        st.sampled_from([0.0]) | st.floats(0.01, 0.2),
        st.tuples(*[st.floats(0.5, 2.0)] * 3),
        st.floats(0.05, 10.0),
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 0.3)),
        st.floats(0.0, 1.0),
        st.integers(3, 5),
        st.integers(1, 2),
        st.booleans(),
        st.lists(st.sampled_from(MESSAGES), min_size=1, max_size=4, unique=True),
        st.integers(-(2**63), MASK64),
    )
    def test_random_configs(self, k, couplings, t_window, detector, p_check, n_parties,
                            cutoff, pnr, messages, seed):
        params = PhysicalParams(*couplings, k=k)
        config = make_config(n_parties, k, pnr, detector, p_check, t_window, params)
        assert_engine_matches(config, 150, seed, tuple(messages), cutoff)


class RecordedRow:
    """A one-row block of streams that records its row's draws: (kind,
    value), kind 0 for ``random()`` and n for ``integers(0, n)``, n > 1
    (``integers(0, 1)`` draws nothing)."""

    def __init__(self, streams: RowStreams):
        assert len(streams) == 1
        self.streams, self.draws = streams, []

    def __len__(self):
        return 1

    def random(self, rows):
        values = self.streams.random(rows)
        self.draws += [(0, v) for v in values.tolist()]
        return values

    def integers(self, rows, n):
        values = self.streams.integers(rows, n)
        self.draws += [(n, v) for v in values.tolist()] if n > 1 else []
        return values


class RecordedGenerator:
    """A numpy ``Generator`` that records the draws the oracle takes, as
    :class:`RecordedRow` records them."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.draws = rng, []

    def random(self):
        value = self.rng.random()
        self.draws.append((0, value))
        return value

    def integers(self, low, high):
        value = int(self.rng.integers(low, high))
        self.draws += [(high, value)] if high > 1 else []
        return value


def one_row(seed, i):
    """Round ``i`` of the batch with ``seed`` as a one-row block."""
    (streams,) = lockstep.row_blocks(seed, i, i + 1)
    return RecordedRow(streams)


def assert_same_position(row: RecordedRow, rng: RecordedGenerator, where):
    """The stream and the Generator give the same next draws: a buffered
    32-bit half, a fresh word's, then a whole word."""
    got = [row.integers(ROW, 5)[0], row.integers(ROW, 5)[0], row.random(ROW)[0]]
    assert got == [rng.integers(0, 5), rng.integers(0, 5), rng.random()], where


class TestOneRowEqualsOracle:
    """One engine row on its own stream against the oracle on the round's
    Generator: the same draws and decisions, and the stream left where the
    oracle leaves the Generator."""

    @pytest.mark.parametrize(MATRIX_ARGS, MATRIX, ids=MATRIX_IDS)
    def test_run_round(self, n_parties, cutoff, k, pnr, detector, p_check, t_window, messages):
        config = make_config(n_parties, k, pnr, detector, p_check, t_window)
        plan = P._plan(config)
        # "random", or each message of the subset, also given by name
        choices = ["random"] if len(messages) == 4 else [*messages, messages[0].value]
        for i in range(16):
            message = choices[i % len(choices)]
            if message == "random":
                sent = MESSAGES
            else:
                sent = (message if isinstance(message, Message) else Message.from_name(message),)
            row = one_row(6, i)
            r = lockstep.run_block(plan, row, np.array([P._MSG_INDEX[m] for m in sent]))
            rng, jumps = RecordedGenerator(O.round_rng(6, i)), []
            want = O.run_round(config, message, rng, cutoff, jumps)
            where = (i, message)
            assert row.draws == rng.draws, where
            verdicts = lockstep.check_verdicts(r.combo[r.check], r.outcome[r.check], n_parties)
            (line,) = P._log_lines(plan, r, i, *verdicts)  # one row, one chunk
            O.assert_log_close(line, O.outcome_to_dict(i, want), where)
            if want.mode == "encode" and not pnr:
                # the plan's start norms sum parity classes, the oracle's bit codes
                O.assert_window_row(r, 0, want.detection, want.photon_survived, jumps, where,
                                    first_exact=n_parties == 3)
            assert (bool(r.survived[0]), bool(r.jump_seen[0].any())) == (
                want.photon_survived, want.real_click), where
            assert_same_position(row, rng, where)

    @pytest.mark.parametrize(MATRIX_ARGS, MATRIX, ids=MATRIX_IDS)
    def test_simulate_window(self, n_parties, cutoff, k, pnr, detector, p_check, t_window,
                             messages):
        # the engine's window runs on the photon sectors of the oracle's
        # dense state at the matrix's cutoff
        config = make_config(n_parties, k, pnr, detector, p_check, t_window)
        for i in range(16):
            state = O.pipeline_state(config, MESSAGES[i % 4], cutoff)
            tables = lockstep.jump_tables(D.sectors(state)[0][None])
            row = one_row(7, i)
            r = lockstep.Rounds(1)
            lockstep.window(config, tables, row, ROW, ROW, r)
            rng = RecordedGenerator(O.round_rng(7, i))
            want, jumps = O.window_jumps(state, config, rng)
            assert row.draws == rng.draws, i
            O.assert_window_row(r, 0, want.record, want.photon_survived, jumps, i)
            assert_same_position(row, rng, i)


# ---------------------------------------------------------------------------
# the bit-code draw in closed form


def expanded_cum(weights, n_codes):
    """The cumulative weights of every (label, bit code), label-major and
    codes in code order, for parity-class weights ``weights[label, parity]``:
    each code weighs its parity's weight over the n_codes / 2 codes of that
    parity.  Summed in extended precision (the codes of each parity up to a
    code, times its weight), then rounded once to float64."""
    codes = np.arange(n_codes)
    ones = np.cumsum(lockstep.parity(codes)).astype(np.longdouble)
    zeros = codes + 1 - ones
    w = np.asarray(weights, dtype=np.longdouble)
    base = np.concatenate(([0.0], np.cumsum(w[:, 0] + w[:, 1])[:-1]))
    w = w / (n_codes // 2)
    return (base[:, None] + zeros * w[:, :1] + ones * w[:, 1:]).reshape(-1).astype(np.float64)


def near_a_boundary(cum, x):
    """Rows whose draw lies within 4 ulps of one of the cumulative weights."""
    return (np.abs(cum - x[:, None]) <= 4 * np.spacing(np.maximum(cum, x[:, None]))).any(axis=1)


CLASS_WEIGHT = st.sampled_from([0.0]) | st.floats(1e-12, 1.0)
UNIFORMS = st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40)


class TestClosedFormDraw:
    """A row draws its bit code among 2^(N-1) from two parity-class weights
    in closed form (``lockstep.pick_code``, ``lockstep.pick_label_code``):
    the code that ``lockstep.pick`` takes on the cumulative weights of all
    2^(N-1) codes, wherever the draw is not within 4 ulps of one of them."""

    @settings(max_examples=60)
    @given(st.tuples(CLASS_WEIGHT, CLASS_WEIGHT), st.integers(1, 12), UNIFORMS)
    def test_code_is_the_expanded_pick(self, weights, n_rotated, uniforms):
        assume(sum(weights) > 1e-30)
        n_codes = 2**n_rotated
        w = np.tile(weights, (len(uniforms), 1))
        x = np.array(uniforms) * (w[:, 0] + w[:, 1])  # the window's scaled draw
        cum = expanded_cum([weights], n_codes)
        far = ~near_a_boundary(cum, x)
        got = lockstep.pick_code(w, x, n_codes)
        assert got[far].tolist() == lockstep.pick(cum, x)[far].tolist()
        assert ((got >= 0) & (got < n_codes)).all()
        assert (np.array(weights)[lockstep.parity(got)] > 0.0).all()  # no code of weight 0

    @settings(max_examples=60)
    @given(st.lists(CLASS_WEIGHT, min_size=8, max_size=8), st.integers(1, 12), UNIFORMS)
    def test_label_and_code_are_the_expanded_pick(self, weights, n_rotated, uniforms):
        # the ideal-PNR draw: Bell weights of one message, whose total may
        # fall short of the draw (a lost round, label 4)
        n_codes = 2**n_rotated
        bell = np.array(weights).reshape(4, 2) / max(1.0, sum(weights))
        u = np.array(uniforms)
        label, code = lockstep.pick_label_code(
            np.tile(np.cumsum(bell.reshape(-1)), (len(u), 1)), np.tile(bell, (len(u), 1, 1)), u,
            n_codes)
        cum = expanded_cum(bell, n_codes)
        j = (cum <= u[:, None]).sum(axis=1)
        far = ~near_a_boundary(cum, u)
        assert label[far].tolist() == (j // n_codes)[far].tolist()
        kept = far & (label < 4)
        assert code[kept].tolist() == (j % n_codes)[kept].tolist()
        assert (bell[label[label < 4], lockstep.parity(code[label < 4])] > 0.0).all()

    @pytest.mark.parametrize("weights, n_codes, x", [
        ((0.9636708728449709, 0.0), 32, 0.6625237250809174),
        ((0.5256295231622541, 0.0), 128, 0.14783330338938394),
        ((0.0, 0.6415135895056033), 32, 0.48113519212920247),
    ])
    def test_a_code_of_weight_zero_is_never_drawn(self, weights, n_codes, x):
        # draws on the boundary between a pair's codes, where rounding the
        # boundary would take the code of weight 0 of the pair
        code = lockstep.pick_code(np.array([weights]), np.array([x]), n_codes)
        assert weights[int(lockstep.parity(code)[0])] > 0.0

    @pytest.mark.parametrize("n_rotated", [1, 5, 32])
    def test_empty_weights_draw_a_uniform_code(self, n_rotated):
        # numerically empty weights leave the receivers uncorrelated: the row
        # draws integers(0, 2^(N-1)), as the oracle's Generator does
        row = one_row(3, 7)
        code = lockstep.sample_code(row, ROW, np.zeros((1, 2)), 2**n_rotated)
        rng = RecordedGenerator(O.round_rng(3, 7))
        assert row.draws == [(2**n_rotated, int(code[0]))]
        assert rng.integers(0, 2**n_rotated) == code[0]
        assert_same_position(row, rng, n_rotated)


# ---------------------------------------------------------------------------
# compile caches


def clear_compile_caches():
    P._plan.cache_clear()


class TestCompileCaches:
    def test_seed_is_not_part_of_the_key(self):
        clear_compile_caches()
        base = make_config(detector=(0.9, 0.05), p_check=0.25, t_window=6.0)
        for seed in range(50):
            P.run_batch(dataclasses.replace(base, seed=seed), 20)
        assert P._plan.cache_info().currsize == 1

    def test_cache_is_bounded(self):
        assert P._plan.cache_info().maxsize is not None

    def test_seeded_lookup_returns_the_unseeded_plan(self):
        base = make_config(detector=(0.9, 0.05))
        seeded = dataclasses.replace(base, seed=12345)
        assert P._plan(seeded) is P._plan(base)
        assert P.build_decode_table(seeded) == P.build_decode_table(base)
        for m in MESSAGES:
            assert P.outcome_distribution(seeded, m) == P.outcome_distribution(base, m)


def signed_zero_amplitudes(rng, rows, dim):
    """Random complex rows with exact zeros and -0.0 real and imaginary parts."""
    z = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
    z[rng.random(z.shape) < 0.3] = 0.0
    z.real[rng.random(z.shape) < 0.2] = -0.0
    z.imag[rng.random(z.shape) < 0.2] = -0.0
    return z


class TestWindowArithmetic:
    """The detection window's arithmetic, byte for byte."""

    @pytest.mark.parametrize("n_parties", [2, 3, 4])
    def test_beamsplitter_equals_per_sign_oracle(self, n_parties):
        # the dense one-photon layout, read as (rows, atoms, n_A, n_B)
        info = D.layout_info(D.layout_for(n_parties))
        shape = (info.layout.dim // 4, 2, 2)
        psi = signed_zero_amplitudes(np.random.default_rng(10 * n_parties + 1), 6, 4 * shape[0])
        psi[0] = complex(-0.0, -0.0)
        before = psi.tobytes()
        plus, minus = beamsplitter(psi.reshape((6,) + shape))
        assert psi.tobytes() == before
        for row, p, m in zip(psi, plus, minus):
            assert p.tobytes() == O._beamsplitter_raw(info, row, +1).tobytes()
            assert m.tobytes() == O._beamsplitter_raw(info, row, -1).tobytes()
        empty = beamsplitter(psi[:0].reshape((0,) + shape))
        assert [a.shape for a in empty] == [(0,) + shape] * 2

    def test_complex_divide_by_real_is_reciprocal_multiply(self):
        # the window scales by 1/sqrt(2) and 1/sqrt(rate) as multiplies;
        # numpy divides complex by real that way (operands hold no -0.0)
        rng = np.random.default_rng(1)
        z = rng.standard_normal((512, 64)) + 1j * rng.standard_normal((512, 64))
        z[rng.random(z.shape) < 0.3] = 0.0
        z.real[rng.random(z.shape) < 0.1] = 0.0
        s = float(np.sqrt(2.0))
        assert (z / s).tobytes() == (z * (1.0 / s)).tobytes()
        rate = np.sqrt(rng.random(512) * 3.0 + 1e-300)
        assert (z / rate[:, None]).tobytes() == (z * (1.0 / rate)[:, None]).tobytes()


# ---------------------------------------------------------------------------
# the window's two np.exp decay factors reach no decision


class NudgedExp:
    """numpy, with ``exp`` ``ulps`` ulps off towards ``direction``."""

    def __init__(self, direction: float, ulps: int = 3):
        self.direction, self.ulps, self.calls = direction, ulps, 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x):
        self.calls += 1
        y = np.exp(x)
        for _ in range(self.ulps):
            y = np.nextafter(y, self.direction)
        return y


DECAY_DOC = {"params": {"g": 1.0, "Omega": 1.0, "Delta": 1.0, "k": 0.2},
             "round": {"p_check": 0.25, "t_window": 6.0},
             "detector": {"efficiency": 0.9, "dark_prob": 0.05}}
DECAY_COMMANDS = {
    "two": ["batch", "--config", "two.json", "--round-log", "--rounds", "20000"],
    "five": ["batch", "--config", "five.json", "--round-log", "--rounds", "20000"],
    "photon": ["security", "--config", "five.json", "--eve", "intercept-resend-photon",
               "--rounds", "5000"],
}


def decay_outputs(root) -> dict:
    """Runs ``DECAY_COMMANDS`` in directory ``root``, on ``DECAY_DOC`` at 2
    and at 5 receivers: the sha256 of every emitted file by relative path."""
    root.mkdir()
    for name, n_receivers in (("two", 2), ("five", 5)):
        doc = {**DECAY_DOC, "round": {**DECAY_DOC["round"], "n_receivers": n_receivers}}
        (root / f"{name}.json").write_text(json.dumps(doc))
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.chdir(root)
        for out, argv in DECAY_COMMANDS.items():
            assert cli.main([*argv, "--out", out]) == 0
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for out in DECAY_COMMANDS for path in sorted((root / out).iterdir())}


@pytest.fixture(scope="module")
def decay_reference(tmp_path_factory):
    return decay_outputs(tmp_path_factory.mktemp("decay") / "plain")


class TestDecayFactors:
    """The window scales its photon sectors by exp(-2knt) with ``np.exp``,
    whose SIMD kernels may round differently from libm's (lockstep
    docstring).  The factors reach no decision: one sector holds the weight
    that can jump, and the sectors that hold weight split it over the
    parity classes alike."""

    @pytest.mark.parametrize("n_parties", [3, 4, 6])
    @pytest.mark.parametrize("params", [(1.0, 1.0, 1.0, 0.05), (1.0, 1.0, 1.0, 0.2),
                                        (1.0, 1.0, 1.0, 1.3), (0.7, 2.3, 0.4, 0.3)])
    def test_one_sector_can_jump_and_sectors_share_the_parities_alike(self, n_parties,
                                                                      params):
        # every state the window reaches, from the plan's starts and the
        # photon attack's, after every jump history
        g, omega, delta, k = params
        plan = P._plan(make_config(n_parties, params=PhysicalParams(
            g=g, Omega=omega, Delta=delta, k=k)))
        psi_ids = np.array([P._MSG_INDEX[m] for m in (Message.X, Message.IY)])
        for tables in (plan.tables, lockstep.jump_tables(S._photon_starts(plan, psi_ids)[1])):
            bits = tables.bits.reshape(-1, lockstep.SECTORS, tables.bits.shape[-1])
            for norms, shares in zip(tables.norms.reshape(-1, lockstep.SECTORS), bits):
                held = norms > 0.0
                assert held[1:].sum() <= 1  # sector 0 cannot jump
                assert (shares[held] == shares[held][:1]).all()

    @pytest.mark.parametrize("direction", [np.inf, -np.inf])
    def test_factors_a_few_ulps_off_write_the_same_bytes(self, direction, decay_reference,
                                                         tmp_path, monkeypatch):
        # logged lossy batches with check rounds and dark counts at 2 and 5
        # receivers, and a photon attack, whose collapsed starts run the
        # window too
        nudged = NudgedExp(direction)
        monkeypatch.setattr(lockstep, "np", nudged)
        assert decay_outputs(tmp_path / "nudged") == decay_reference
        assert nudged.calls > 0

    def test_a_jump_time_one_ulp_off_moves_the_round_logs(self, decay_reference, tmp_path,
                                                          monkeypatch):
        # the same commands see an ulp where it sets a jump time:
        # _crossings' math.log one ulp up moves click times in both logs
        class NudgedLog:
            def __getattr__(self, name):
                return getattr(math, name)

            def log(self, x):
                return float(np.nextafter(math.log(x), np.inf))

        monkeypatch.setattr(lockstep, "math", NudgedLog())
        got = decay_outputs(tmp_path / "nudged")
        assert {path for path in got if got[path] != decay_reference[path]} == {
            "two/rounds.jsonl", "five/rounds.jsonl"}


# ---------------------------------------------------------------------------
# the detection window's compiled jump-history tables


def oracle_tables(info, amps):
    """V, W, F and G/W of every start in ``amps``, one history at a time:
    a chain of the oracle's per-sign beam splitter, then ``bincount``."""
    n_vec, n_codes = info.photon_numbers, len(info.bit_strings)
    size = max(int(n_vec.max()) + 1, 3)
    vectors, norms, branch, bits = [], [], [], []
    for psi in amps:
        v = [psi]
        for h in range(3):
            v += [O._beamsplitter_raw(info, v[h], +1), O._beamsplitter_raw(info, v[h], -1)]
        w = np.array([np.bincount(n_vec, weights=np.abs(x) ** 2, minlength=size) for x in v])
        g = np.array([
            np.bincount(n_vec * n_codes + info.bit_codes, weights=np.abs(x) ** 2,
                        minlength=size * n_codes).reshape(size, n_codes)
            for x in v
        ])
        f = np.zeros((7, 2, 3))
        for h in range(3):
            for c in range(2):
                for n in (1, 2):
                    if w[h, n] > 0.0:
                        f[h, c, n] = w[2 * h + 1 + c, n - 1] / w[h, n]
        per_unit = np.zeros((7, 3, n_codes))
        for h, n in itertools.product(range(7), range(3)):
            if w[h, n] > 0.0:
                per_unit[h, n] = g[h, n] / w[h, n]
        assert not w[:, 3:].any()
        vectors.append(v)
        norms.append(w[:, :3])
        branch.append(f)
        bits.append(per_unit)
    return np.array(vectors), np.array(norms), np.array(branch), np.array(bits)


def in_sectors(info, amps):
    """Dense amplitudes (rows) of layout ``info`` projected onto the photon
    sectors (``dense.sectors``): zero outside them."""
    amps = np.asarray(amps)
    out = np.zeros_like(amps)
    out[:, info.sector_indices] = amps[:, info.sector_indices]
    return out


def assert_tables_match(tables, starts, info, amps):
    """The tables of the photon-sector ``starts``, over the parity of the
    rotated receivers' bits, against the oracle chain on the dense states
    ``amps`` of layout ``info``, over every bit code.  The dense states hold
    nothing outside the sectors and project onto ``starts`` spread over the
    codes: a parity's amplitude is that of any of its codes (codes 0 and 1
    are one of each) times sqrt(codes / 2), its weights the sums of its
    codes'."""
    n_codes = len(info.bit_strings)
    parity, scale = lockstep.parity(np.arange(n_codes)), (n_codes / 2) ** 0.5
    assert np.abs(amps[:, info.sector_indices] * scale - starts[:, parity]).max() <= 1e-15
    want = oracle_tables(info, amps)
    want = (
        want[0][..., info.sector_indices][:, :, :2] * scale,  # V in the sector basis
        want[1], want[2],
        np.stack([want[3][..., parity == p].sum(axis=-1) for p in (0, 1)], axis=-1),
    )
    got = (lockstep.jump_vectors(starts), tables.norms, tables.branch, tables.bits)
    for name, g, w in zip(("V", "W", "F", "G/W"), got, want):
        assert g.shape == w.shape, name
        assert np.abs(g - w).max() <= 1e-15, name
    if n_codes == 2:  # the first pass reads the start's own sector norms, bit for bit
        assert tables.norms[:, 0].tobytes() == np.ascontiguousarray(want[1][:, 0]).tobytes()


class TestJumpTables:
    @pytest.mark.parametrize("n_parties", [3, 4, 5])
    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_plan_tables_equal_the_oracle_chain(self, n_parties, cutoff):
        # the oracle chain runs on the dense pipeline states at ``cutoff``,
        # projected onto the photon sectors: levels the pipeline never fills
        # change no entry of the plan's tables
        config = make_config(n_parties)
        plan = P._plan(config)
        states = [O.pipeline_state(config, m, cutoff) for m in MESSAGES]
        info = D.layout_info(states[0].layout)
        amps = in_sectors(info, [state.amplitudes for state in states])
        assert_tables_match(plan.tables, plan.sectors, info, amps)
        # the two channels together count the photons: F[+, n] + F[-, n] = n
        live = plan.tables.norms[:, :3] > 0.0
        photons = np.broadcast_to(np.arange(3.0), live.shape)
        total = plan.tables.branch[:, :3].sum(axis=2)
        assert np.abs(total[live] - photons[live]).max() <= 1e-12

    @pytest.mark.parametrize("n_parties", [3, 4, 5])
    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_photon_attack_starts(self, n_parties, cutoff):
        # Eve's measurement of cavity A on the dense pipeline states at
        # ``cutoff``: outcomes above one photon have weight 0, and the others
        # collapse onto the plan's starts, up to the projection
        config = make_config(n_parties)
        plan = P._plan(config)
        psi_ids = np.array([P._MSG_INDEX[m] for m in (Message.X, Message.IY)])
        weights, starts = S._photon_starts(plan, psi_ids)
        assert starts.shape == (2 * weights.shape[1],) + plan.sectors.shape[1:]
        wide_weights, amps = [], []
        for i in psi_ids.tolist():
            state = O.pipeline_state(config, MESSAGES[i], cutoff)
            w, collapse = D.site_measurement(state, state.layout.mode_sites[0])
            wide_weights.append(w)
            amps += [collapse(outcome).amplitudes for outcome in range(2)]
        wide_weights = np.array(wide_weights)
        assert wide_weights.shape == (2, cutoff + 1) and not wide_weights[:, 2:].any()
        assert np.abs(wide_weights[:, :2] - weights).max() <= 1e-15
        info = D.layout_info(D.layout_for(n_parties, cutoff))
        assert_tables_match(lockstep.jump_tables(starts), starts, info, in_sectors(info, amps))

    def test_window_of_mixed_photon_numbers(self):
        # weight on no, one and two photons at once, which no pipeline state
        # has: the decay before a jump then moves weight between sectors
        layout = D.layout_for(3)
        idx = D.layout_info(layout).sector_indices.reshape(-1)
        rng = np.random.default_rng(12)
        amps = np.zeros(layout.dim, dtype=complex)
        amps[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        state = StateVector(layout, amps / np.linalg.norm(amps))
        config = make_config(3, detector=(0.9, 0.05), t_window=3.0)
        two_jumps, i = 0, 0
        for r in O.engine_windows(state, config, 12, 300):
            for row in range(len(r.check)):
                want, jumps = O.window_jumps(state, config, O.round_rng(12, i))
                O.assert_window_row(r, row, want.record, want.photon_survived, jumps, i)
                two_jumps += len(jumps) == 2
                i += 1
        assert two_jumps > 0

    def test_window_counts_follow_the_outcome_law(self):
        # CI's wide layout: 4 receivers (dim 128).  The oracle no longer
        # pins the window bit for bit, so its (n+, n-, bit code) histogram
        # must follow the exact law the decode arrays come from, spread over
        # the 8 bit codes.
        config = make_config(5, detector=(0.9, 0.05), p_check=0.25, t_window=6.0)
        plan = P._plan(config)
        n_rounds = 20000
        shape = plan.outcomes.shape[1:3] + (8,)
        for m in range(len(MESSAGES)):
            counts = np.zeros(shape, dtype=np.int64)
            for streams in lockstep.row_blocks(31 + m, 0, n_rounds):
                rows = np.arange(len(streams))
                r = lockstep.Rounds(len(rows))
                start = np.full(len(rows), m)
                lockstep.window_rounds(plan, streams, rows, plan.tables, start, r)
                cell = np.ravel_multi_index((r.clicks[:, 0], r.clicks[:, 1], r.bits), shape)
                counts += np.bincount(cell, minlength=counts.size).reshape(shape)
            p = O.spread(plan.outcomes[m], config) / plan.outcomes[m].sum()
            sigma = np.sqrt(n_rounds * p * (1.0 - p))
            assert (np.abs(counts - n_rounds * p) <= 5.0 * sigma).all(), MESSAGES[m]
