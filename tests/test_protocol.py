import math

import numpy as np
import pytest

import scalar_oracle as O
from qdcsim import lockstep
from qdcsim.dynamics import PhysicalParams, alpha_beta, transfer_time
from qdcsim.hilbert import (
    Message,
    MESSAGES,
    StateVector,
    SystemLayout,
    atom_site,
    basis_state,
    mode_site,
    norm_sq,
    pauli_encode,
)
from qdcsim import protocol as P
from qdcsim.protocol import (
    DetectorModel,
    RoundConfig,
    UnexpectedPhotonSupport,
    bell_weights,
    build_decode_table,
    map_to_cavities,
    prepare_ghz,
    receiver_rotation,
    run_batch,
    run_round,
    simulate_window,
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
        cfg = config(k=k, cutoff=cutoff)
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
        from qdcsim.hilbert import pauli_encode

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
        for m in MESSAGES:
            np.testing.assert_array_equal(
                P.pipeline_state(explicit, m).amplitudes, P.pipeline_state(config(), m).amplitudes
            )

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
        w = bell_weights(P.pipeline_state(cfg, Message.X), cfg)
        assert abs(w[("psi+", "e")] - beta2 / 2) < 1e-9
        assert abs(w[("psi-", "g")] - beta2 / 2) < 1e-9
        assert w[("psi-", "e")] < 1e-12 and w[("phi+", "e")] < 1e-12

    def test_message_iy(self):
        cfg = config()
        beta2 = P.pipeline_beta(cfg) ** 2
        w = bell_weights(P.pipeline_state(cfg, Message.IY), cfg)
        assert abs(w[("psi-", "e")] - beta2 / 2) < 1e-9
        assert abs(w[("psi+", "g")] - beta2 / 2) < 1e-9

    def test_message_i_lossless(self):
        cfg = config(k=0.0)
        w = bell_weights(P.pipeline_state(cfg, Message.I), cfg)
        assert abs(w[("phi+", "e")] - 0.5) < 1e-9
        assert abs(w[("phi-", "g")] - 0.5) < 1e-9

    def test_totals_match_norm(self):
        cfg = config()
        for m in MESSAGES:
            st = P.pipeline_state(cfg, m)
            w = bell_weights(st, cfg)
            assert abs(sum(w.values()) - norm_sq(st)) < 1e-10

    def test_excited_mapped_atom_rejected(self):
        cfg = config()
        with pytest.raises(ValueError, match="retain excitation"):
            bell_weights(basis_state(P.layout_for(3), (1, 0, 0, 0, 0)), cfg)

    def test_unexpected_photon_support(self):
        cfg = config(cutoff=2)
        lay = P.layout_for(3, cutoff=2)
        with pytest.raises(UnexpectedPhotonSupport):
            bell_weights(basis_state(lay, (0, 0, 0, 2, 0)), cfg)


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
        info = P._layout_info(lay)
        n_expect = float(np.sum(info.photon_numbers * np.abs(st.amplitudes) ** 2))
        assert abs(total - 2 * k * n_expect) < 1e-12


class TestSimulateWindow:
    def test_ideal_extraction_single_click(self):
        cfg = config(k=0.0)
        for i in range(200):
            res = simulate_window(psi_state(+1), cfg, P.round_rng(1, i))
            real = [ev for ev in res.record.events if ev[1] == P.CHANNEL_PLUS]
            assert len(res.record.events) == 1 and len(real) == 1

    def test_vacuum_never_clicks(self):
        cfg = config()
        lay = two_mode_layout()
        vac = basis_state(lay, (0, 0))
        for i in range(100):
            res = simulate_window(vac, cfg, P.round_rng(2, i))
            assert res.record.events == ()

    def test_click_frequency(self):
        cfg = config()  # k=0.2, window 0.5
        n = 20000
        # row i is simulate_window(psi_state(+1), cfg, P.round_rng(3, i))
        clicks = sum(
            int(r.jump_seen.any(axis=1).sum()) for r in O.engine_windows(psi_state(+1), cfg, 3, n)
        )
        p_expected = 1 - math.exp(-2 * 0.2 * 0.5)
        sigma = math.sqrt(p_expected * (1 - p_expected) / n)
        assert abs(clicks / n - p_expected) < 3 * sigma

    def test_selection_rules(self):
        cfg = config()
        # row i is simulate_window(psi_state(sign), cfg, P.round_rng(seed, i))
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
        for i in range(2000):
            res = simulate_window(vac, cfg, P.round_rng(7, i))
            darks += len(res.record.events)
            assert all(ch in (P.DARK_PLUS, P.DARK_MINUS) for _, ch in res.record.events)
            assert all(0 <= t <= cfg.t_window for t, _ in res.record.events)
        assert abs(darks / 2000 - 1.0) < 0.1  # two detectors at p_dc = 0.5

    def test_rejects_three_photons_before_drawing(self):
        lay = two_mode_layout(2)
        rng = P.round_rng(9, 0)
        for occupation in ((2, 1), (1, 2), (2, 2)):
            amps = basis_state(lay, occupation).amplitudes + basis_state(lay, (1, 0)).amplitudes
            with pytest.raises(ValueError, match="at most two photons"):
                simulate_window(StateVector(lay, amps / math.sqrt(2)), config(), rng)
        assert rng.random() == P.round_rng(9, 0).random()

    def test_runs_states_of_up_to_two_photons(self):
        lay = two_mode_layout(2)
        amps = np.zeros(lay.dim, dtype=complex)
        for occupation in ((0, 0), (0, 2), (1, 1), (2, 0)):
            amps[lay.index_of(occupation)] = 0.5
        cfg = config(t_window=3.0)
        two_clicks = 0
        for i in range(200):
            res = simulate_window(StateVector(lay, amps), cfg, P.round_rng(10, i))
            want, jumps = O.window_jumps(StateVector(lay, amps), cfg, P.round_rng(10, i))
            assert res.photon_survived == want.photon_survived
            O.assert_records_close(res.record, want.record, jumps[0] if jumps else None, i)
            assert np.abs(res.state.amplitudes - want.state.amplitudes).max() <= O.TIME_TOL
            two_clicks += len(res.record.events) == 2
        assert two_clicks > 0

    def test_events_ascending(self):
        cfg = config(detector=DetectorModel(dark_prob=0.4))
        st = P.pipeline_state(config(), Message.I)
        for i in range(500):
            res = simulate_window(st, cfg, P.round_rng(8, i))
            times = [t for t, _ in res.record.events]
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

    def test_counts_outside_the_table_abort(self):
        # negative counts included: as indices they would wrap onto cells
        # that decode, such as the single clicks
        outside = [(3, 3), (7, 7), (100, 1), (4, 0), (0, 4)]
        for n in range(1, 8):
            outside += [(-n, 0), (0, -n), (-n, 1), (1, -n), (-n, -n)]
        for cutoff in (1, 2):
            cfg = config(cutoff=cutoff, detector=DetectorModel(0.9, 0.05))
            for counts in outside:
                for bits in O.all_bit_strings(cfg):
                    assert P.decode(cfg, counts, bits) is None, (cutoff, counts, bits)


class TestRunRound:
    def test_forced_check_branch(self):
        out = run_round(config(p_check=1.0), "random", P.round_rng(1, 0))
        assert out.mode == "check" and out.sent is None

    def test_x_decodes_at_k0(self):
        cfg = config(k=0.0)
        for i in range(300):
            out = run_round(cfg, Message.X, P.round_rng(2, i))
            assert out.decoded is Message.X

    def test_i_aborts_without_pnr(self):
        cfg = config(k=0.0)
        for i in range(300):
            out = run_round(cfg, Message.I, P.round_rng(3, i))
            assert out.decoded is None

    def test_nonabort_implies_real_click(self):
        cfg = config()  # p_dc = 0
        plan = P._plan(cfg)
        decodes = 0
        # row i is run_round(cfg, "random", P.round_rng(4, i))
        for streams in lockstep.row_blocks(4, 0, 2000, plan.row_width(checks=True)):
            r = lockstep.run_block(plan, streams, np.arange(len(MESSAGES)))
            decoded = ~r.check & (r.decoded != lockstep.ABORT)
            assert r.jump_seen.any(axis=1)[decoded].all()
            decodes += int(decoded.sum())
        assert decodes > 0

    def test_message_by_name(self):
        out = run_round(config(k=0.0), "iY", P.round_rng(5, 0))
        assert out.sent is Message.IY


class TestRunBatch:
    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            run_batch(config(), 0, seed=1)

    def test_lossless_success_half(self):
        stats = run_batch(config(k=0.0), 20000, seed=9)
        sigma = math.sqrt(0.25 / 20000)
        assert abs(stats.success_rate - 0.5) < 3 * sigma
        # I and Z rows abort entirely; X and iY rows are exactly diagonal
        conf = np.array(stats.confusion)
        assert conf[0, 4] == conf[0].sum() and conf[3, 4] == conf[3].sum()
        assert conf[1, 1] == conf[1].sum() and conf[2, 2] == conf[2].sum()

    def test_survival_counter(self):
        cfg = config()
        stats = run_batch(cfg, 20000, seed=10, messages=(Message.X, Message.IY))
        expected = P.pipeline_beta(cfg) ** 2 * math.exp(-2 * 0.2 * 0.5)
        sigma = math.sqrt(expected * (1 - expected) / 20000)
        assert abs(stats.psi_survival_rate - expected) < 3 * sigma

    def test_determinism(self):
        cfg = config(detector=DetectorModel(dark_prob=0.01))
        a = run_batch(cfg, 4000, seed=11)
        b = run_batch(cfg, 4000, seed=11)
        assert a.confusion == b.confusion
        assert a.psi_click_rate == b.psi_click_rate
        assert a.success_rate == b.success_rate

    def test_check_rounds_counted(self):
        stats = run_batch(config(p_check=0.5), 4000, seed=12)
        assert stats.n_check + stats.n_encode == 4000
        assert 0.4 < stats.n_check / 4000 < 0.6
        assert stats.check_pass_rate == 1.0


class TestMultiparty:
    def test_lossless_decode_error_free(self):
        cfg = config(k=0.0, n_receivers=3)
        stats = run_batch(cfg, 5000, seed=13, messages=(Message.X, Message.IY))
        assert stats.success_rate == 1.0


class TestTruncationRobustness:
    def test_cutoff_two_reproduces_default(self):
        # the protocol never populates n >= 2, so a larger cutoff must not
        # change the deterministic pipeline
        cfg1, cfg2 = config(), config(cutoff=2)
        for m in MESSAGES:
            st1, st2 = P.pipeline_state(cfg1, m), P.pipeline_state(cfg2, m)
            assert abs(norm_sq(st1) - norm_sq(st2)) < 1e-10
            w1 = bell_weights(st1, cfg1)
            w2 = bell_weights(st2, cfg2)
            for key, val in w1.items():
                assert abs(w2[key] - val) < 1e-9

    def test_cutoff_two_batch_statistics(self):
        stats = run_batch(config(k=0.0, cutoff=2), 3000, seed=21,
                          messages=(Message.X, Message.IY))
        assert stats.success_rate == 1.0


class TestIdealPnr:
    def test_all_messages_decode_at_k0(self):
        cfg = config(k=0.0, ideal_pnr=True)
        stats = run_batch(cfg, 8000, seed=14)
        assert stats.success_rate == 1.0


class TestSuccessFormula:
    def test_lossless_survival(self):
        assert success_probability_formula(config(k=0.0)) == 1.0

    def test_reference_survival(self):
        # at t_map = t*, |beta| = e^{-k t*/2}, so the value is e^{-k t*} e^{-2kT}
        cfg = config()
        t_star = transfer_time(PARAMS)
        expected = math.exp(-0.2 * t_star) * math.exp(-2 * 0.2 * 0.5)
        assert abs(success_probability_formula(cfg) - expected) < 1e-12
        assert abs(expected - 0.58516) < 1e-4

    def test_reference_integrated(self):
        cfg = config(success_convention="integrated")
        t_star = transfer_time(PARAMS)
        expected = math.exp(-0.2 * t_star) * (1 - math.exp(-2 * 0.2 * 0.5))
        assert abs(success_probability_formula(cfg) - expected) < 1e-12
        assert abs(expected - 0.12956) < 1e-4

    def test_sweep_rows(self):
        cfg = config()
        rows = P.run_sweep(cfg, [0.2, 0.5], 2000, seed=15)
        assert [r["t_window"] for r in rows] == [0.2, 0.5]
        for r in rows:
            assert (
                abs(r["mc_estimate"] - r["formula_integrated"]) < 3 * r["mc_stderr"] + 1e-9
            )

    @pytest.mark.parametrize("field,knob", [("ideal_pnr", True), ("p_check", 1.0)])
    def test_sweep_rejects_configs_without_click_rate(self, field, knob):
        with pytest.raises(ValueError, match=field):
            P.run_sweep(config(**{field: knob}), [0.5], 100, seed=1)

    def test_sweep_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            P.run_sweep(config(), [], 100, seed=1)


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
        strings = plan.info.bit_strings
        # row i is the encode round of X on P.round_rng(16, i)
        for streams in lockstep.row_blocks(16, 0, n, plan.row_width(checks=False)):
            rows = np.arange(len(streams))
            r = lockstep.Rounds.empty(len(rows))
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
        with pytest.raises(ValueError):
            config(success_convention="both")

    def test_bad_receivers(self):
        with pytest.raises(ValueError):
            config(n_receivers=1)
