import dataclasses
import io
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import dense as D
import scalar_oracle as O
from dense import (
    StateVector, SystemLayout, atom_site, basis_state, map_to_cavities, mode_site, norm_sq,
    pauli_encode, prepare_ghz, receiver_rotation,
)
from qdcsim import lockstep
from qdcsim.dynamics import PhysicalParams, alpha_beta, transfer_time
from qdcsim.hilbert import Message, MESSAGES
from qdcsim import protocol as P
from qdcsim.protocol import (
    DetectorModel,
    RoundConfig,
    bell_weights,
    build_decode_table,
    run_batch,
    success_probability_formula,
)

PARAMS = PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=0.2)
PARAMS0 = PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=0.0)


def config(k=0.2, **kw):
    p = PARAMS if k == 0.2 else PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=k)
    defaults = dict(params=p, t_window=0.5)
    defaults.update(kw)
    return RoundConfig(**defaults)


def two_mode_layout(cutoff=1):
    return SystemLayout((mode_site(cutoff), mode_site(cutoff)))


def psi_state(sign):
    lay = two_mode_layout()
    amps = np.zeros(4, dtype=complex)
    amps[lay.index_of((0, 1))] = 1 / math.sqrt(2)
    amps[lay.index_of((1, 0))] = sign / math.sqrt(2)
    return StateVector(lay, amps)


class TestPrepareGhz:
    def test_three_parties(self):
        st = prepare_ghz(3)
        lay = st.layout
        assert abs(st.amplitudes[lay.index_of((1, 1, 1, 0, 0))] - 1 / math.sqrt(2)) < 1e-15
        assert abs(st.amplitudes[lay.index_of((0, 0, 0, 0, 0))] - 1 / math.sqrt(2)) < 1e-15
        assert abs(norm_sq(st) - 1) < 1e-15
        assert np.count_nonzero(st.amplitudes) == 2

    def test_two_and_four_parties(self):
        for n in (2, 4):
            st = prepare_ghz(n)
            nz = np.flatnonzero(np.abs(st.amplitudes) > 0)
            assert len(nz) == 2
            occs = [st.layout.occupations_of(int(i)) for i in nz]
            atomic = {occ[:n] for occ in occs}
            assert atomic == {(0,) * n, (1,) * n}

    def test_rejects_single_party(self):
        with pytest.raises(ValueError):
            prepare_ghz(1)


def rk4_map(state, cfg):
    """The transfer by fixed-step RK4 of the full no-jump generator, at step
    min(0.005 / max(delta, k), t / 400)."""
    p = cfg.params
    t = P.resolve_t_map(cfg)
    dt = min(0.005 / max(p.delta_eff, p.k), t / 400.0)
    mode_a, mode_b = state.layout.mode_sites
    return O.evolve_conditional(state, [(0, mode_a), (1, mode_b)], p, t, dt)


class TestMapToCavities:
    def amp(self, st, occ):
        return st.amplitudes[st.layout.index_of(occ)]

    @pytest.mark.parametrize("k", [0.0, 0.2, 0.9])
    @pytest.mark.parametrize("cutoff", [1, 2])
    @pytest.mark.parametrize("n_parties", [2, 3, 4])
    @pytest.mark.parametrize("message", MESSAGES, ids=lambda m: m.value)
    def test_matches_rk4_oracle(self, message, n_parties, cutoff, k):
        cfg = config(k=k)
        st = pauli_encode(prepare_ghz(n_parties, cutoff), 0, message)
        exact = map_to_cavities(st, cfg).amplitudes
        assert float(np.max(np.abs(exact - rk4_map(st, cfg).amplitudes))) <= 1e-9

    def test_identity_branch_state(self):
        # plain GHZ input: beta^2|11>|e> + |00>|g> over sqrt(2), atoms 1,2 ground
        cfg = config()
        beta = alpha_beta(PARAMS, transfer_time(PARAMS))[1]
        st = map_to_cavities(prepare_ghz(3), cfg)
        assert abs(self.amp(st, (0, 0, 1, 1, 1)) - beta**2 / math.sqrt(2)) < 1e-9
        assert abs(self.amp(st, (0, 0, 0, 0, 0)) - 1 / math.sqrt(2)) < 1e-9
        assert abs(norm_sq(st) - (beta**4 + 1) / 2) < 1e-10

    def test_x_branch_state(self):
        cfg = config()
        beta = alpha_beta(PARAMS, transfer_time(PARAMS))[1]
        st = map_to_cavities(pauli_encode(prepare_ghz(3), 0, Message.X), cfg)
        assert abs(self.amp(st, (0, 0, 1, 0, 1)) - beta / math.sqrt(2)) < 1e-9
        assert abs(self.amp(st, (0, 0, 0, 1, 0)) - beta / math.sqrt(2)) < 1e-9
        assert abs(norm_sq(st) - beta**2) < 1e-10

    def test_lossless_keeps_unit_norm(self):
        cfg = config(k=0.0)
        st = map_to_cavities(prepare_ghz(3), cfg)
        assert abs(norm_sq(st) - 1.0) < 1e-9

    def test_t_map_must_zero_alpha(self):
        with pytest.raises(ValueError, match="t_map"):
            config(t_map=1.0)

    def test_explicit_transfer_time_matches_default(self):
        explicit = config(t_map=transfer_time(PARAMS))
        np.testing.assert_array_equal(P._plan(explicit).sectors, P._plan(config()).sectors)

    def test_rejects_occupied_cavity(self):
        cfg = config()
        lay = prepare_ghz(3).layout
        with pytest.raises(ValueError):
            map_to_cavities(basis_state(lay, (0, 0, 0, 1, 0)), cfg)


class TestReceiverRotation:
    def test_excited(self):
        lay = SystemLayout((atom_site(),))
        out = receiver_rotation(basis_state(lay, (1,)), 0)
        np.testing.assert_allclose(out.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_ground(self):
        lay = SystemLayout((atom_site(),))
        out = receiver_rotation(basis_state(lay, (0,)), 0)
        np.testing.assert_allclose(out.amplitudes, [-1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_involution(self):
        m = P._ROTATION
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-15)

    def test_norm_preserved(self):
        st = prepare_ghz(3)
        out = receiver_rotation(st, 2)
        assert abs(norm_sq(out) - 1) < 1e-12


class TestBellWeights:
    def test_message_x(self):
        cfg = config()
        beta2 = P.pipeline_beta(cfg) ** 2
        w = bell_weights(cfg, Message.X)
        assert abs(w[("psi+", "e")] - beta2 / 2) < 1e-9
        assert abs(w[("psi-", "g")] - beta2 / 2) < 1e-9
        assert w[("psi-", "e")] < 1e-12 and w[("phi+", "e")] < 1e-12

    def test_message_iy(self):
        cfg = config()
        beta2 = P.pipeline_beta(cfg) ** 2
        w = bell_weights(cfg, Message.IY)
        assert abs(w[("psi-", "e")] - beta2 / 2) < 1e-9
        assert abs(w[("psi+", "g")] - beta2 / 2) < 1e-9

    def test_message_i_lossless(self):
        cfg = config(k=0.0)
        w = bell_weights(cfg, Message.I)
        assert abs(w[("phi+", "e")] - 0.5) < 1e-9
        assert abs(w[("phi-", "g")] - 0.5) < 1e-9

    def test_totals_match_norm(self):
        cfg = config()
        for m in MESSAGES:
            w = bell_weights(cfg, m)
            assert abs(sum(w.values()) - norm_sq(O.pipeline_state(cfg, m))) < 1e-10


class TestJumpApply:
    def test_minus_annihilates_psi_plus(self):
        out = O.jump_apply(psi_state(+1), -1, k=0.2)
        assert float(np.max(np.abs(out.amplitudes))) < 1e-15

    def test_plus_on_psi_plus(self):
        out = O.jump_apply(psi_state(+1), +1, k=0.2)
        expected = np.zeros(4, dtype=complex)
        expected[0] = math.sqrt(2 * 0.2)
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_plus_on_phi_plus_leaves_one_photon(self):
        lay = two_mode_layout()
        beta2 = 0.7
        amps = np.zeros(4, dtype=complex)
        amps[lay.index_of((1, 1))] = beta2 / math.sqrt(beta2**2 + 1)
        amps[lay.index_of((0, 0))] = 1 / math.sqrt(beta2**2 + 1)
        out = O.jump_apply(StateVector(lay, amps), +1, k=0.2)
        target = psi_state(+1).amplitudes
        overlap = np.vdot(target, out.amplitudes)
        assert abs(np.linalg.norm(out.amplitudes) - abs(overlap)) < 1e-12

    def test_rejects_cavities_before_atoms(self):
        lay = SystemLayout((mode_site(1), mode_site(1), atom_site()))
        with pytest.raises(ValueError, match="end with cavity A, then cavity B"):
            O.jump_apply(basis_state(lay, (1, 0, 0)), +1, k=0.2)

    def test_rate_normalization(self):
        # sum of squared jump norms = 2k <n_A + n_B>
        lay = two_mode_layout()
        rng = np.random.default_rng(3)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        st = StateVector(lay, amps / np.linalg.norm(amps))
        k = 0.31
        total = sum(norm_sq(O.jump_apply(st, s, k)) for s in (+1, -1))
        info = D.layout_info(lay)
        n_expect = float(np.sum(info.photon_numbers * np.abs(st.amplitudes) ** 2))
        assert abs(total - 2 * k * n_expect) < 1e-12


def click_lists(r: lockstep.Rounds) -> list[list]:
    """The [time, channel] detector events of every row of a window block,
    as the round log writes them."""
    return [json.loads(f"[{pairs}]") for pairs in P._log_clicks(r, np.arange(len(r.check)))]


class TestSimulateWindow:
    # row i of O.engine_windows(state, cfg, seed, n) is the window of state
    # on O.round_rng(seed, i)
    def test_ideal_extraction_single_click(self):
        cfg = config(k=0.0)
        for r in O.engine_windows(psi_state(+1), cfg, 1, 200):
            for clicks in click_lists(r):
                assert [ch for _, ch in clicks] == [P.CHANNEL_PLUS]

    def test_vacuum_never_clicks(self):
        cfg = config()
        lay = two_mode_layout()
        vac = basis_state(lay, (0, 0))
        for r in O.engine_windows(vac, cfg, 2, 100):
            assert click_lists(r) == [[]] * len(r.check)

    def test_click_frequency(self):
        cfg = config()  # k=0.2, window 0.5
        n = 20000
        clicks = sum(
            int(r.jump_seen.any(axis=1).sum()) for r in O.engine_windows(psi_state(+1), cfg, 3, n)
        )
        p_expected = 1 - math.exp(-2 * 0.2 * 0.5)
        sigma = math.sqrt(p_expected * (1 - p_expected) / n)
        assert abs(clicks / n - p_expected) < 3 * sigma

    def test_selection_rules(self):
        cfg = config()
        for sign, seed in ((+1, 4), (-1, 5)):
            clicks = 0
            for r in O.engine_windows(psi_state(sign), cfg, seed, 2000):
                assert not (r.jump_seen & (r.jump_sign == -sign)).any()
                clicks += int(r.jump_seen.sum())
            assert clicks > 0

    def test_survival_flag_probability(self):
        cfg = config()
        n = 20000
        survived = sum(int(r.survived.sum()) for r in O.engine_windows(psi_state(+1), cfg, 6, n))
        p_expected = math.exp(-2 * 0.2 * 0.5)
        sigma = math.sqrt(p_expected * (1 - p_expected) / n)
        assert abs(survived / n - p_expected) < 3 * sigma

    def test_dark_counts_present(self):
        cfg = config(detector=DetectorModel(efficiency=1.0, dark_prob=0.5))
        lay = two_mode_layout()
        vac = basis_state(lay, (0, 0))
        darks = 0
        for r in O.engine_windows(vac, cfg, 7, 2000):
            for clicks in click_lists(r):
                darks += len(clicks)
                assert all(ch in (P.DARK_PLUS, P.DARK_MINUS) for _, ch in clicks)
                assert all(0 <= t <= cfg.t_window for t, _ in clicks)
        assert abs(darks / 2000 - 1.0) < 0.1  # two detectors at p_dc = 0.5

    def test_runs_states_of_up_to_two_photons(self):
        lay = two_mode_layout()
        amps = np.full(lay.dim, 0.5, dtype=complex)
        cfg = config(t_window=3.0)
        two_clicks, i = 0, 0
        for r in O.engine_windows(StateVector(lay, amps), cfg, 10, 200):
            for row, clicks in enumerate(click_lists(r)):
                want, jumps = O.window_jumps(StateVector(lay, amps), cfg, O.round_rng(10, i))
                O.assert_window_row(r, row, want.record, want.photon_survived, jumps, i)
                two_clicks += len(clicks) == 2
                i += 1
        assert two_clicks > 0

    def test_events_ascending(self):
        cfg = config(detector=DetectorModel(dark_prob=0.4))
        st = O.pipeline_state(config(), Message.I)
        for r in O.engine_windows(st, cfg, 8, 500):
            for clicks in click_lists(r):
                times = [t for t, _ in clicks]
                assert times == sorted(times)


class TestDecodeTable:
    def test_base_case_entries(self):
        tab = build_decode_table(config())
        assert tab[("D+", "e")] is Message.X
        assert tab[("D-", "e")] is Message.IY
        assert tab[("D+", "g")] is Message.IY
        assert tab[("D-", "g")] is Message.X
        assert tab[("none", "e")] is None and tab[("none", "g")] is None

    def test_ideal_pnr_entries(self):
        tab = build_decode_table(config(k=0.0, ideal_pnr=True))
        assert tab[("phi+", "e")] is Message.I
        assert tab[("phi-", "e")] is Message.Z
        assert tab[("phi+", "g")] is Message.Z
        assert tab[("phi-", "g")] is Message.I

    def test_multiparty_conflict_free(self):
        tab = build_decode_table(config(k=0.0, n_receivers=3))
        psi_keys = [k for k in tab if k[0] in ("D+", "D-")]
        assert len(psi_keys) == 8
        assert all(tab[k] in (Message.X, Message.IY) for k in psi_keys)

    @pytest.mark.parametrize("n_receivers", [2, 4])
    def test_bits_that_are_no_receiver_string_raise(self, n_receivers):
        # a string of the wrong length, or with a letter other than g or e,
        # names no bit code
        cfg = config(n_receivers=n_receivers)
        good = "e" * (n_receivers - 1)
        assert P.decode(cfg, (1, 0), good) is Message.X
        # the bits are checked before the counts, which may lie outside the table
        for counts in ((1, 0), (9, 9), (-1, 0)):
            for bits in (good + "e", good[:-1], "x" + good[1:], good[:-1] + "E", "0" + good[1:]):
                with pytest.raises(ValueError):
                    P.decode(cfg, counts, bits)

    def test_counts_outside_the_table_abort(self):
        # negative counts included: as indices they would wrap onto cells
        # that decode, such as the single clicks
        outside = [(3, 3), (7, 7), (100, 1), (4, 0), (0, 4)]
        for n in range(1, 8):
            outside += [(-n, 0), (0, -n), (-n, 1), (1, -n), (-n, -n)]
        cfg = config(detector=DetectorModel(0.9, 0.05))
        for counts in outside:
            for bits in O.all_bit_strings(cfg):
                assert P.decode(cfg, counts, bits) is None, (counts, bits)


def round_log(cfg, n_rounds, seed, messages=None) -> list[dict]:
    """The parsed round-log lines of a batch."""
    log = io.StringIO()
    run_batch(dataclasses.replace(cfg, seed=seed), n_rounds, messages=messages, log=log)
    return [json.loads(line) for line in log.getvalue().splitlines()]


class TestRunRound:
    # a round is a one-round batch (``qdcsim run``), or a line of a batch's log
    def test_forced_check_branch(self):
        (out,) = round_log(config(p_check=1.0), 1, 1)
        assert out["mode"] == "check" and "sent" not in out

    def test_x_decodes_at_k0(self):
        stats = run_batch(config(k=0.0, seed=2), 300, messages=(Message.X,))
        assert stats.confusion[MESSAGES.index(Message.X)] == [0, 300, 0, 0, 0]

    def test_i_aborts_without_pnr(self):
        stats = run_batch(config(k=0.0, seed=3), 300, messages=(Message.I,))
        assert stats.confusion[MESSAGES.index(Message.I)] == [0, 0, 0, 0, 300]

    def test_nonabort_implies_real_click(self):
        cfg = config()  # p_dc = 0
        plan = P._plan(cfg)
        decodes = 0
        # row i is round i of the batch with seed 4
        for streams in lockstep.row_blocks(4, 0, 2000):
            r = lockstep.run_block(plan, streams, np.arange(len(MESSAGES)))
            decoded = ~r.check & (r.decoded != lockstep.ABORT)
            assert r.jump_seen.any(axis=1)[decoded].all()
            decodes += int(decoded.sum())
        assert decodes > 0

    def test_message_by_name(self):
        (out,) = round_log(config(k=0.0), 1, 5, (Message.from_name("iY"),))
        assert out["sent"] == "iY" and out["decoded"] == "iY"


class TestRunBatch:
    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            run_batch(config(seed=1), 0)

    def test_lossless_success_half(self):
        stats = run_batch(config(k=0.0, seed=9), 20000)
        sigma = math.sqrt(0.25 / 20000)
        assert abs(stats.success_rate - 0.5) < 3 * sigma
        # I and Z rows abort entirely; X and iY rows are exactly diagonal
        conf = np.array(stats.confusion)
        assert conf[0, 4] == conf[0].sum() and conf[3, 4] == conf[3].sum()
        assert conf[1, 1] == conf[1].sum() and conf[2, 2] == conf[2].sum()

    def test_survival_counter(self):
        cfg = config(seed=10)
        stats = run_batch(cfg, 20000, messages=(Message.X, Message.IY))
        expected = P.pipeline_beta(cfg) ** 2 * math.exp(-2 * 0.2 * 0.5)
        sigma = math.sqrt(expected * (1 - expected) / 20000)
        assert abs(stats.psi_survival_rate - expected) < 3 * sigma

    def test_determinism(self):
        cfg = config(detector=DetectorModel(dark_prob=0.01), seed=11)
        a = run_batch(cfg, 4000)
        b = run_batch(cfg, 4000)
        assert a.confusion == b.confusion
        assert a.psi_click_rate == b.psi_click_rate
        assert a.success_rate == b.success_rate

    def test_log_lines_follow_their_state(self):
        # 6000 10-party check rounds hold hundreds of distinct (bases,
        # passed) pairs and 600 encode rounds over a hundred receiver bit
        # strings: every line carries its own state
        cfg = config(n_receivers=9, p_check=1.0, t_window=6.0, seed=12)
        log = io.StringIO()
        stats = run_batch(cfg, 6000, log=log)
        run_batch(dataclasses.replace(cfg, p_check=0.0), 600, log=log)
        lines = [json.loads(line) for line in log.getvalue().splitlines()]
        assert stats.n_check == len(lines) - 600 == 6000
        checks = [d for d in lines if d["mode"] == "check"]
        assert len({(d["check_bases"], d["check_passed"]) for d in checks}) > 200
        encodes = [d for d in lines if d["mode"] == "encode"]
        assert len({d["receiver_bits"] for d in encodes}) > 100
        for d in checks:  # honest rounds: conclusive with an even number of y bases, and passed
            assert d["check_conclusive"] == (d["check_bases"].count("y") % 2 == 0)
            assert d["check_passed"]

    @pytest.mark.parametrize("cfg", [
        config(p_check=0.25, t_window=6.0, detector=DetectorModel(0.9, 0.05), seed=3),
        config(n_receivers=9, p_check=0.25, t_window=6.0, detector=DetectorModel(0.9, 0.05)),
        config(n_receivers=3, p_check=0.25, ideal_pnr=True, seed=5),
    ], ids=["two-receivers", "ten-parties", "ideal-pnr"])
    def test_log_lines_are_json_dumps(self, cfg):
        # the templates write what json.dumps writes of the line's dict
        log = io.StringIO()
        run_batch(cfg, 3000, log=log)
        modes = set()
        for line in log.getvalue().splitlines():
            d = json.loads(line)
            assert line == json.dumps(d)
            modes.add((d["mode"], "bell_label" in d, bool(d.get("clicks"))))
        assert ("check", False, False) in modes
        assert ("encode", cfg.ideal_pnr, not cfg.ideal_pnr) in modes

    def test_logged_batch_leaves_the_plan_unchanged(self):
        # a plan holds its config and read-only tables, nothing a batch fills
        cfg = config(n_receivers=3, p_check=0.25, t_window=6.0, detector=DetectorModel(0.9, 0.05))
        plan = P._plan(cfg)
        arrays = [f for f in plan if isinstance(f, np.ndarray)] + list(plan.tables)
        assert len(arrays) == len(plan) - 2 + len(plan.tables)  # all but config and tables
        before = [a.copy() for a in arrays]
        run_batch(cfg, 3000, log=io.StringIO())
        assert P._plan(cfg) is plan and plan.config == cfg
        assert not any(a.flags.writeable for a in arrays)
        assert all(np.array_equal(a, b) for a, b in zip(before, arrays))

    def test_check_rounds_counted(self):
        stats = run_batch(config(p_check=0.5, seed=12), 4000)
        assert stats.n_check + stats.n_encode == 4000
        assert 0.4 < stats.n_check / 4000 < 0.6
        assert stats.check_pass_rate == 1.0


class TestMultiparty:
    def test_lossless_decode_error_free(self):
        cfg = config(k=0.0, n_receivers=3, seed=13)
        stats = run_batch(cfg, 5000, messages=(Message.X, Message.IY))
        assert stats.success_rate == 1.0


class TestParityStructure:
    """Each further receiver's atom is rotated into a product state, so a
    pipeline amplitude depends on the receivers' bit code only through its
    parity (the GHZ secret-sharing structure of Hillery, Buzek & Berthiaume,
    PRA 59, 1829 (1999)).  The dense reference, code by code, is constant on
    each parity class and equals the plan's parity table spread over the
    class, for every table the plan compiles over that axis."""

    @staticmethod
    def assert_parity_classes(per_code, table, cfg, amplitudes=False):
        # the bit codes on the last axis of per_code, the parity on table's;
        # within 1e-12 relative, and 1e-12 of the largest entry, as the phi
        # basis leaves rounding residues of 1e-34 where weights cancel
        parity = lockstep.parity(np.arange(2 ** (cfg.n_receivers - 1)))
        want = O.spread(table, cfg, amplitudes=amplitudes)
        tol = dict(rtol=1e-12, atol=1e-12 * np.abs(want).max())
        for p in (0, 1):
            members = per_code[..., parity == p]
            np.testing.assert_allclose(
                members, np.broadcast_to(members[..., :1], members.shape), **tol)
        np.testing.assert_allclose(per_code, want, **tol)

    @pytest.mark.parametrize("n_receivers", [3, 5, 8])
    def test_dense_reference_is_the_parity_table_spread(self, n_receivers):
        cfg = config(n_receivers=n_receivers, t_window=6.0, detector=DetectorModel(0.9, 0.05))
        plan = P._plan(cfg)
        strings = O.all_bit_strings(cfg)
        dense = np.array([D.sectors(O.pipeline_state(cfg, m))[0] for m in MESSAGES])
        self.assert_parity_classes(np.moveaxis(np.abs(dense), 1, -1),
                                   np.moveaxis(np.abs(plan.sectors), 1, -1), cfg, amplitudes=True)
        tables = lockstep.jump_tables(dense)
        self.assert_parity_classes(tables.bits, plan.tables.bits, cfg)
        np.testing.assert_allclose(tables.norms, plan.tables.norms, rtol=1e-12, atol=0.0)
        for i, m in enumerate(MESSAGES):
            bell = O.bell_weights(cfg, m)
            self.assert_parity_classes(
                np.array([[bell[(label, bits)] for bits in strings] for label in P.BELL_LABELS]),
                plan.bell[i], cfg)
            law = np.zeros((4, 4, len(strings)))
            for ((a, b), bits), p in O.outcome_distribution(cfg, m).items():
                law[a, b, strings.index(bits)] = p
            self.assert_parity_classes(law, plan.outcomes[i], cfg)


class TestTruncationRobustness:
    """Each cavity only ever holds the one photon its atom emits, so configs
    compile the photon sectors n_A, n_B <= 1 alone; the dense pipeline built
    step by step on modes of any cutoff shows that nothing is cut off."""

    @pytest.mark.parametrize("k", [0.0, 0.2])
    @pytest.mark.parametrize("n_parties", [3, 4, 5])
    @pytest.mark.parametrize("cutoff", [1, 2, 3])
    def test_no_weight_above_one_photon_per_mode(self, cutoff, n_parties, k):
        # the plan's sectors, spread over the bit codes, are the dense state
        # projected onto both mapped atoms in |g> and one photon per cavity
        # at most: value for value at 2 receivers, where the parity is the
        # bit code; the projection drops only the alpha(t*)^2 residual on
        # excited atoms
        cfg = config(k=k, n_receivers=n_parties - 1)
        for i, m in enumerate(MESSAGES):
            state = O.pipeline_state(cfg, m, cutoff)
            occ = state.layout.occupations[:, list(state.layout.mode_sites)]
            above = (occ >= 2).any(axis=1)
            assert above.any() == (cutoff > 1) and not state.amplitudes[above].any(), m
            kept, dropped = D.sectors(state)
            spread = O.spread(P._plan(cfg).sectors[i], cfg, axis=0, amplitudes=True)
            if n_parties == 3:
                assert np.array_equal(kept, spread), m
            assert np.abs(kept - spread).max() <= 1e-15, m
            assert dropped <= P._SUPPORT_TOL, m

    def test_cutoff_two_reproduces_default(self):
        # the plan's Bell weights, from the pipeline built at cutoff 2
        cfg = config()
        for i, m in enumerate(MESSAGES):
            norm = float(np.sum(np.abs(P._plan(cfg).sectors[i]) ** 2))
            assert abs(norm - norm_sq(O.pipeline_state(cfg, m, 2))) < 1e-10
            w1 = bell_weights(cfg, m)
            w2 = O.bell_weights(cfg, m, 2)
            for key, val in w1.items():
                assert abs(w2[key] - val) < 1e-9

    def test_cutoff_two_batch_statistics(self):
        # the windows of the psi states built at cutoff 2 record the clicks
        # of the default's, and at k = 0 every one of them decodes
        cfg = config(k=0.0)
        for m in (Message.X, Message.IY):
            default, wide = (
                list(O.engine_windows(state, cfg, 21, 3000))
                for state in (O.pipeline_state(cfg, m), O.pipeline_state(cfg, m, 2))
            )
            for r1, r2 in zip(default, wide, strict=True):
                for name in ("clicks", "jump_t", "jump_sign", "jump_seen", "survived"):
                    assert getattr(r1, name).tobytes() == getattr(r2, name).tobytes(), name
        stats = run_batch(dataclasses.replace(cfg, seed=21), 3000,
                          messages=(Message.X, Message.IY))
        assert stats.success_rate == 1.0


class TestIdealPnr:
    def test_all_messages_decode_at_k0(self):
        cfg = config(k=0.0, ideal_pnr=True, seed=14)
        stats = run_batch(cfg, 8000)
        assert stats.success_rate == 1.0


class TestSuccessFormula:
    def test_lossless_survival(self):
        assert success_probability_formula(config(k=0.0), "survival") == 1.0

    def test_reference_survival(self):
        # at t_map = t*, |beta| = e^{-k t*/2}, so the value is e^{-k t*} e^{-2kT}
        cfg = config()
        t_star = transfer_time(PARAMS)
        expected = math.exp(-0.2 * t_star) * math.exp(-2 * 0.2 * 0.5)
        assert abs(success_probability_formula(cfg, "survival") - expected) < 1e-12
        assert abs(expected - 0.58516) < 1e-4

    def test_reference_integrated(self):
        cfg = config()
        t_star = transfer_time(PARAMS)
        expected = math.exp(-0.2 * t_star) * (1 - math.exp(-2 * 0.2 * 0.5))
        assert abs(success_probability_formula(cfg, "integrated") - expected) < 1e-12
        assert abs(expected - 0.12956) < 1e-4

    def test_sweep_rows(self):
        cfg = config(seed=15)
        rows = P.run_sweep(cfg, [0.2, 0.5], 2000)
        assert [r["t_window"] for r in rows] == [0.2, 0.5]
        for r in rows:
            assert (
                abs(r["mc_estimate"] - r["formula_integrated"]) < 3 * r["mc_stderr"] + 1e-9
            )

    @pytest.mark.parametrize("field,knob", [("ideal_pnr", True), ("p_check", 1.0)])
    def test_sweep_rejects_configs_without_click_rate(self, field, knob):
        with pytest.raises(ValueError, match=field):
            P.run_sweep(config(**{field: knob}, seed=1), [0.5], 100)

    @pytest.mark.parametrize("field,knob", [("ideal_pnr", True), ("p_check", 1.0)])
    def test_sweep_names_the_field_before_compiling(self, field, knob, no_compile):
        with pytest.raises(P.ConfigError, match=f"^round.{field}: "):
            P.run_sweep(config(**{field: knob}), [0.5], 100)

    def test_sweep_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            P.run_sweep(config(seed=1), [], 100)


class TestOutcomeDistribution:
    def test_sums_to_one(self):
        for cfg in (config(), config(k=0.0), config(detector=DetectorModel(0.8, 0.02))):
            for m in MESSAGES:
                dist = P.outcome_distribution(cfg, m)
                assert abs(sum(dist.values()) - 1.0) < 1e-12

    def test_matches_monte_carlo(self):
        cfg = config(detector=DetectorModel(efficiency=0.9, dark_prob=0.05))
        dist = P.outcome_distribution(cfg, Message.X)
        n = 20000
        counts = {}
        plan = P._plan(cfg)
        strings = O.all_bit_strings(cfg)
        # row i is the encode round of X on O.round_rng(16, i)
        for streams in lockstep.row_blocks(16, 0, n):
            rows = np.arange(len(streams))
            r = lockstep.Rounds(len(rows))
            sent = np.full(len(rows), MESSAGES.index(Message.X))
            lockstep.encode_rounds(plan, streams, rows, sent, r)
            for n_plus, n_minus, code in zip(*r.clicks.T.tolist(), r.bits.tolist()):
                key = ((n_plus, n_minus), strings[code])
                counts[key] = counts.get(key, 0) + 1
        for key, p in dist.items():
            if p < 5e-4:
                continue
            freq = counts.get(key, 0) / n
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) < 4 * sigma, (key, freq, p)


class TestConfigValidation:
    def test_bad_probability(self):
        with pytest.raises(ValueError):
            config(p_check=1.5)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            config(t_window=0.0)

    def test_bad_convention(self):
        with pytest.raises(ValueError, match="convention"):
            success_probability_formula(config(), "both")

    @pytest.mark.parametrize("k, t_map, field", [
        (1.9999999, None, "params.k = 1.9999999"),  # t* = 4967
        (0.2, 1e300, "t_map = 1e+300"),
    ])
    def test_vanishing_beta_named(self, k, t_map, field):
        with pytest.raises(ValueError, match=f"{re.escape(field)} leaves beta"):
            config(k=k, t_map=t_map)

    def test_bad_receivers(self):
        with pytest.raises(ValueError):
            config(n_receivers=1)

    @pytest.mark.parametrize("p_check", [0.0, 0.25])
    def test_receiver_cap_boundaries(self, p_check):
        # a round draws its bit code from 2^(N-1) codes, and the streams
        # draw integers below 2^32 at most: N = 33 receivers, with check
        # rounds or without
        assert P.MAX_RECEIVERS == 33
        config(n_receivers=33, p_check=p_check)
        with pytest.raises(ValueError, match=r"n_receivers = 34 is above 33: .* at most 2\^32"):
            config(n_receivers=34, p_check=p_check)

    def test_compile_peak_does_not_grow_with_the_receivers(self):
        # every table has a parity axis of length 2: a compile at 33
        # receivers holds what one at 2 does
        def peak(n_receivers):
            cfg = config(n_receivers=n_receivers, p_check=0.25)
            tracemalloc.start()
            try:
                P._compile_plan.__wrapped__(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # warm-up: first-call allocations of numpy and the interpreter
        assert peak(33) <= peak(2) + (4 << 10)

    def test_bit_string_outputs_past_their_bound_raise_before_allocating(self):
        # bell_weights and outcome_distribution list all 2^(N-1) bit
        # strings: from 18 receivers they name the field instead
        cfg = config(n_receivers=P.BIT_STRING_RECEIVERS + 1)
        for output in (P.bell_weights, P.outcome_distribution):
            tracemalloc.start()
            try:
                with pytest.raises(P.ConfigError, match=r"^round\.n_receivers: .* 2\^17 "):
                    output(cfg, Message.X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
