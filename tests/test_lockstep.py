"""The lockstep round engine against the scalar per-round oracle.

``run_batch`` runs rounds as numpy arrays (``qdcsim.lockstep``) on
vectorized Philox streams (``qdcsim.streams``).  Each round must equal,
field for field, the RoundOutcome the scalar oracle (``scalar_oracle``)
builds from the round's own ``Generator``, and its round-log line must
equal the JSON of its RoundOutcome (``outcome_to_dict``).  ``run_round``
and ``simulate_window`` run one engine row on any ``Generator`` and must
equal the oracle's, draw for draw.  The oracle carries a dense state
through the detection window and the engine its compiled jump tables, so
jump times after the first and end-of-window amplitudes may differ by
``scalar_oracle.TIME_TOL``; every draw and decision is equal.
"""

import dataclasses
import itertools
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_oracle as O
from qdcsim import lockstep
from qdcsim import protocol as P
from qdcsim import security as S
from qdcsim.dynamics import PhysicalParams
from qdcsim.hilbert import MESSAGES, Message, StateVector
from qdcsim.lockstep import beamsplitter
from qdcsim.streams import _MULTIPLIERS, RowStreams, _mulhilo, philox_words

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
        assert P.round_rng(3, index).bit_generator.random_raw(4).tolist() == words[0].tolist()

    def test_later_blocks(self):
        words = philox_words(11, np.arange(4), 2, 2)
        for i in range(4):
            np.testing.assert_array_equal(words[i], reference_words(11, i, 16)[8:])

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
        gens = [P.round_rng(seed, int(i)) for i in indices]
        rows = np.arange(len(indices))
        for n in ops:
            if n == 0:
                got, want = streams.random(rows), [g.random() for g in gens]
            else:
                got, want = streams.integers(rows, n), [g.integers(0, n) for g in gens]
            assert got.tolist() == want


# ---------------------------------------------------------------------------
# differential: engine rounds against the scalar oracle


def oracle(config, n_rounds, seed, messages):
    """Rounds one at a time on the scalar path, as run_batch specifies them."""
    out = []
    for i in range(n_rounds):
        rng = P.round_rng(seed, i)
        if rng.random() < config.p_check:
            out.append(O.run_check_round(config, rng))
        else:
            sent = messages[int(rng.integers(0, len(messages)))]
            out.append(O._encode_round(config, sent, rng))
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
    """``run_batch``'s RoundOutcomes in round order, its round-log lines and
    its stats."""
    got, log = {}, []
    stats = P.run_batch(
        config, n_rounds, seed=seed, messages=messages,
        on_round=got.__setitem__, on_log=log.extend,
    )
    assert sorted(got) == list(range(n_rounds))
    return [got[i] for i in range(n_rounds)], log, stats


def assert_engine_matches(config, n_rounds, seed, messages):
    """The engine's rounds agree with the oracle's; returns
    :func:`engine_rounds`."""
    got, log, stats = engine_rounds(config, n_rounds, seed, messages)
    want = oracle(config, n_rounds, seed, messages)
    assert len(log) == n_rounds
    for i, expected in enumerate(want):
        O.assert_outcomes_close(got[i], expected, f"round {i}")
        assert log[i] == json.dumps(O.outcome_to_dict(i, got[i])), f"round {i}"
        O.assert_log_close(log[i], O.outcome_to_dict(i, expected), f"round {i}")
    assert (
        stats.confusion, stats.n_check, stats.check_pass_rate,
        stats.psi_click_rate, stats.psi_survival_rate,
    ) == oracle_stats(want)
    return got, log, stats


def make_config(n_parties=3, cutoff=1, k=0.2, ideal_pnr=False, detector=(1.0, 0.0),
                p_check=0.0, t_window=0.5, params=None):
    return P.RoundConfig(
        params=params or PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=k),
        t_window=t_window,
        n_receivers=n_parties - 1,
        p_check=p_check,
        detector=P.DetectorModel(*detector),
        ideal_pnr=ideal_pnr,
        cutoff=cutoff,
    )


SUBSETS = (MESSAGES, (Message.X,), (Message.I, Message.X, Message.Z))
DETECTORS = ((1.0, 0.0), (0.9, 0.05), (1.0, 0.05), (0.9, 0.0))
P_CHECKS = (0.0, 0.25, 1.0)
WINDOWS = (0.5, 6.0)
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
        config = make_config(n_parties, cutoff, k, pnr, detector, p_check, t_window)
        assert_engine_matches(config, 400, 5, messages)

    def test_matrix_pairs_every_value(self):
        columns = list(zip(*MATRIX))
        for structural, rotated in itertools.product(columns[:4], columns[4:]):
            assert set(zip(structural, rotated)) == set(
                itertools.product(set(structural), set(rotated))
            )
        for column, values in zip(columns[4:], (DETECTORS, P_CHECKS, WINDOWS, SUBSETS)):
            assert set(column) == set(values)

    def test_several_spans(self):
        # several 2048-round Philox spans, the last one short; the seed also
        # wraps modulo 2**64
        config = make_config(detector=(0.9, 0.05), p_check=0.25, t_window=6.0)
        assert_engine_matches(config, 5000, -3, MESSAGES)

    @pytest.mark.parametrize("block_rows", [32, 700])
    def test_block_size_changes_nothing(self, monkeypatch, block_rows):
        # no row reads another row of its block: the default runs one block
        # per 2048-round span, and 32-row blocks or 700-row blocks (which
        # split each span unevenly) give the same bytes
        config = make_config(detector=(0.9, 0.05), p_check=0.25, t_window=6.0)
        width = P._plan(config).row_width(checks=True)
        assert P.lockstep.BLOCK_AMPLITUDES // width >= P.lockstep.SPAN
        default = engine_rounds(config, 5000, 21, MESSAGES)
        monkeypatch.setattr(P.lockstep, "BLOCK_AMPLITUDES", block_rows * width)
        got, log, stats = assert_engine_matches(config, 5000, 21, MESSAGES)
        assert log == default[1]
        assert got == default[0]
        assert dataclasses.replace(stats, wall_time_s=0.0) == dataclasses.replace(
            default[2], wall_time_s=0.0
        )

    def test_starts_no_thread(self, monkeypatch):
        def start(self):
            raise AssertionError("a batch started a thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        config = make_config(detector=(0.9, 0.05), p_check=0.25)
        P.run_batch(config, 5000, seed=3)
        P.run_sweep(config, [0.5, 1.0], 5000, seed=3)

    def test_words_past_the_first_blocks(self, monkeypatch):
        # with one Philox block up front most rounds draw past it
        monkeypatch.setattr(P.lockstep, "_FIRST_WORDS", 1)
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
        P.run_batch(config, 8000, seed=0)
        assert len(blocks) == 4
        for r in blocks:
            assert r.jump_sign.shape[1] > 0
            assert r.jump_sign[:, -1].any()

    def test_never_runs_one_round_at_a_time(self, monkeypatch):
        def one_row(*args):
            raise AssertionError("run_batch ran a round as a one-row block")

        for name in ("run_round", "simulate_window", "_GeneratorRows"):
            monkeypatch.setattr(P, name, one_row)
        P.run_batch(make_config(detector=(0.9, 0.05), p_check=0.25), 500, seed=2)

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
        config = make_config(n_parties, cutoff, k, pnr, detector, p_check, t_window, params)
        assert_engine_matches(config, 150, seed, tuple(messages))


def generator_pairs(seed, i):
    """Two equal copies of a Philox round stream, then of a PCG64 generator."""
    yield P.round_rng(seed, i), P.round_rng(seed, i)
    yield np.random.default_rng([seed, i]), np.random.default_rng([seed, i])


def same_position(a, b):
    return repr(a.bit_generator.state) == repr(b.bit_generator.state)


class TestOneRowEqualsOracle:
    """``run_round`` and ``simulate_window`` run one engine row on the
    caller's Generator: equal results, and the Generator left where the
    oracle leaves it."""

    @pytest.mark.parametrize(MATRIX_ARGS, MATRIX, ids=MATRIX_IDS)
    def test_run_round(self, n_parties, cutoff, k, pnr, detector, p_check, t_window, messages):
        config = make_config(n_parties, cutoff, k, pnr, detector, p_check, t_window)
        # "random", or each message of the subset, also given by name
        choices = ["random"] if len(messages) == 4 else [*messages, messages[0].value]
        for i in range(16):
            message = choices[i % len(choices)]
            for got_rng, want_rng in generator_pairs(6, i):
                got = P.run_round(config, message, got_rng)
                O.assert_outcomes_close(got, O.run_round(config, message, want_rng), (i, message))
                assert same_position(got_rng, want_rng), (i, message)

    @pytest.mark.parametrize(MATRIX_ARGS, MATRIX, ids=MATRIX_IDS)
    def test_simulate_window(self, n_parties, cutoff, k, pnr, detector, p_check, t_window,
                             messages):
        config = make_config(n_parties, cutoff, k, pnr, detector, p_check, t_window)
        for i in range(16):
            state = P.pipeline_state(config, MESSAGES[i % 4])
            tables = lockstep.jump_tables(P._layout_info(state.layout), state.amplitudes[None])
            for (got_rng, want_rng), (row_rng, _) in zip(generator_pairs(7, i),
                                                         generator_pairs(7, i)):
                got = P.simulate_window(state, config, got_rng)
                want, jumps = O.window_jumps(state, config, want_rng)
                assert (got.jumped, got.photon_survived) == (want.jumped, want.photon_survived), i
                O.assert_records_close(got.record, want.record, jumps[0] if jumps else None, i)
                assert got.state.layout == want.state.layout
                assert np.abs(got.state.amplitudes - want.state.amplitudes).max() <= O.TIME_TOL, i
                assert same_position(got_rng, want_rng), i
                # the engine row's jumps: signs and registrations exact, the
                # first time exact, later times within the bound
                r = lockstep.Rounds.empty(1)
                lockstep.window(config, tables, P._GeneratorRows(row_rng), ROW, ROW, r)
                times, signs, seen = zip(*jumps) if jumps else ((), (), ())
                n = len(jumps)  # passes where no row jumped leave zero columns
                assert not r.jump_sign[0, n:].any() and not r.jump_seen[0, n:].any(), i
                assert r.jump_sign[0, :n].tolist() == list(signs), i
                assert r.jump_seen[0, :n].tolist() == list(seen), i
                assert r.jump_t[0, :min(n, 1)].tolist() == list(times[:1]), i
                assert np.all(np.abs(r.jump_t[0, :n] - times) <= O.TIME_TOL), i
                assert r.survived[0] == want.photon_survived, i


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

    def test_caches_are_bounded(self):
        for cache in (P._plan, P._layout_info, P._check_context):
            assert cache.cache_info().maxsize is not None

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
    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_beamsplitter_equals_per_sign_oracle(self, n_parties, cutoff):
        info = P._layout_info(P.layout_for(n_parties, cutoff))
        dim = info.layout.dim
        psi = signed_zero_amplitudes(np.random.default_rng(10 * n_parties + cutoff), 6, dim)
        psi[0] = complex(-0.0, -0.0)
        before = psi.tobytes()
        plus, minus = beamsplitter(info, psi)
        assert psi.tobytes() == before
        for row, p, m in zip(psi, plus, minus):
            assert p.tobytes() == O._beamsplitter_raw(info, row, +1).tobytes()
            assert m.tobytes() == O._beamsplitter_raw(info, row, -1).tobytes()
        empty = beamsplitter(info, psi[:0])
        assert [a.shape for a in empty] == [(0, dim), (0, dim)]

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


def assert_tables_match(tables, info, amps):
    want = oracle_tables(info, amps)
    got = (lockstep.jump_vectors(info, amps), tables.norms, tables.branch, tables.bits)
    for name, g, w in zip(("V", "W", "F", "G/W"), got, want):
        assert g.shape == w.shape, name
        assert np.abs(g - w).max() <= 1e-15, name
    # the first pass reads the start's own sector norms, bit for bit
    assert tables.norms[:, 0].tobytes() == np.ascontiguousarray(want[1][:, 0]).tobytes()


class TestJumpTables:
    @pytest.mark.parametrize("n_parties", [3, 4, 5])
    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_plan_tables_equal_the_oracle_chain(self, n_parties, cutoff):
        plan = P._plan(make_config(n_parties, cutoff))
        assert_tables_match(plan.tables, plan.info, plan.amps)
        # the two channels together count the photons: F[+, n] + F[-, n] = n
        live = plan.tables.norms[:, :3] > 0.0
        photons = np.broadcast_to(np.arange(3.0), live.shape)
        total = plan.tables.branch[:, :3].sum(axis=2)
        assert np.abs(total[live] - photons[live]).max() <= 1e-12

    @pytest.mark.parametrize("n_parties", [3, 4, 5])
    @pytest.mark.parametrize("cutoff", [1, 2])
    def test_photon_attack_starts(self, n_parties, cutoff):
        plan = P._plan(make_config(n_parties, cutoff))
        psi_ids = np.array([P._MSG_INDEX[m] for m in (Message.X, Message.IY)])
        weights, amps = S._photon_starts(plan, psi_ids)
        assert amps.shape == (2 * weights.shape[1], plan.info.layout.dim)
        assert_tables_match(lockstep.jump_tables(plan.info, amps), plan.info, amps)

    @pytest.mark.parametrize("n_parties", [3, 4, 5])
    def test_three_photons_raise_before_any_draw(self, n_parties):
        layout = P.layout_for(n_parties, 2)
        info = P._layout_info(layout)
        amps = np.zeros(layout.dim, dtype=complex)
        amps[np.flatnonzero(info.photon_numbers == 3)[0]] = 1.0
        amps[np.flatnonzero(info.photon_numbers == 1)[0]] = 1.0
        with pytest.raises(ValueError, match="at most two photons"):
            lockstep.jump_tables(info, amps[None] / np.sqrt(2.0))
        rng = P.round_rng(9, 0)
        with pytest.raises(ValueError, match="at most two photons"):
            P.simulate_window(StateVector(layout, amps / np.sqrt(2.0)),
                              make_config(n_parties, 2), rng)
        assert rng.random() == P.round_rng(9, 0).random()

    def test_window_of_mixed_photon_numbers(self):
        # weight on one and two photons at once, which no pipeline state
        # has: the decay before a jump then moves weight between sectors
        layout = P.layout_for(3, 2)
        info = P._layout_info(layout)
        rng = np.random.default_rng(12)
        amps = np.zeros(layout.dim, dtype=complex)
        for n in range(3):
            idx = np.flatnonzero(info.photon_numbers == n)
            amps[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        state = StateVector(layout, amps / np.linalg.norm(amps))
        config = make_config(3, 2, detector=(0.9, 0.05), t_window=3.0)
        two_jumps = 0
        for i in range(300):
            got = P.simulate_window(state, config, P.round_rng(12, i))
            want, jumps = O.window_jumps(state, config, P.round_rng(12, i))
            assert (got.jumped, got.photon_survived) == (want.jumped, want.photon_survived), i
            O.assert_records_close(got.record, want.record, jumps[0] if jumps else None, i)
            assert np.abs(got.state.amplitudes - want.state.amplitudes).max() <= O.TIME_TOL, i
            two_jumps += len(jumps) == 2
        assert two_jumps > 0

    def test_window_counts_follow_the_outcome_law(self):
        # CI's wide layout: 4 receivers at cutoff 2 (dim 288).  The oracle
        # no longer pins the window bit for bit, so its (n+, n-, bit code)
        # histogram must follow the exact law the decode arrays come from.
        config = make_config(5, 2, detector=(0.9, 0.05), p_check=0.25, t_window=6.0)
        plan = P._plan(config)
        n_rounds = 20000
        shape = plan.outcomes.shape[1:]
        for m in range(len(MESSAGES)):
            counts = np.zeros(shape, dtype=np.int64)
            for streams in lockstep.row_blocks(31 + m, 0, n_rounds, plan.row_width(False)):
                rows = np.arange(len(streams))
                r = lockstep.Rounds.empty(len(rows))
                start = np.full(len(rows), m)
                lockstep.window_rounds(plan, streams, rows, plan.tables, start, r)
                cell = np.ravel_multi_index((r.clicks[:, 0], r.clicks[:, 1], r.bits), shape)
                counts += np.bincount(cell, minlength=counts.size).reshape(shape)
            p = plan.outcomes[m] / plan.outcomes[m].sum()
            sigma = np.sqrt(n_rounds * p * (1.0 - p))
            assert (np.abs(counts - n_rounds * p) <= 5.0 * sigma).all(), MESSAGES[m]
