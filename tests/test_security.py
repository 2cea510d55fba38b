import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import dense as D
import scalar_oracle as O
from qdcsim.dynamics import PhysicalParams
from qdcsim.hilbert import Message, MESSAGES
from qdcsim import lockstep
from qdcsim import protocol as P
from qdcsim import security as S
from qdcsim import streams
from qdcsim.security import EveModel, ViewSpec, exact_eve_detection_rate, optimal_guess_rate


def config(k=0.0, **kw):
    p = PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=k)
    defaults = dict(params=p, t_window=0.5)
    defaults.update(kw)
    return P.RoundConfig(**defaults)


BOB = ViewSpec(sees_clicks=True)
CHARLIE = ViewSpec(sees_clicks=False, sees_bits=(2,))
COLLAB = ViewSpec(sees_clicks=True, sees_bits=(2,))


class TestExactPosterior:
    """The posterior of a view's cell of the law: the uniform prior cancels,
    so it is the cell normalised over the messages."""

    def test_click_only(self):
        law = S._view_law(BOB, config(), MESSAGES)
        post = dict(zip(MESSAGES, law[:, 1, 0, 0] / law[:, 1, 0, 0].sum()))
        assert abs(post[Message.X] - 0.5) < 1e-12
        assert abs(post[Message.IY] - 0.5) < 1e-12
        assert post[Message.I] < 1e-12 and post[Message.Z] < 1e-12

    def test_bit_only_uniform(self):
        law = S._view_law(CHARLIE, config(), MESSAGES)  # an e bit: odd parity
        for p in law[:, 0, 0, 1] / law[:, 0, 0, 1].sum():
            assert abs(p - 0.25) < 1e-12

    def test_click_and_bit_pins_message(self):
        law = S._view_law(COLLAB, config(), MESSAGES)
        post = law[:, 1, 0, 1] / law[:, 1, 0, 1].sum()
        assert abs(post[MESSAGES.index(Message.X)] - 1.0) < 1e-12

    def test_marginalization_recovers_prior(self):
        # P(cell, m) under the uniform prior, summed over every cell the
        # view can see, is the prior
        cfg = config()
        for view in (BOB, CHARLIE, COLLAB):
            law = S._view_law(view, cfg, MESSAGES)
            for m in range(len(MESSAGES)):
                assert abs(law[m].sum() / len(MESSAGES) - 0.25) < 1e-12


class TestOptimalRates:
    def test_reference_values(self):
        cfg = config()
        assert abs(optimal_guess_rate(BOB, cfg, given_click=True) - 0.5) < 1e-12
        assert abs(optimal_guess_rate(CHARLIE, cfg) - 0.25) < 1e-12

    def test_monotone_in_view(self):
        cfg = config()
        views = {
            (False, ()): ViewSpec(False, ()),
            (True, ()): ViewSpec(True, ()),
            (False, (2,)): ViewSpec(False, (2,)),
            (True, (2,)): ViewSpec(True, (2,)),
        }
        rates = {key: optimal_guess_rate(v, cfg) for key, v in views.items()}
        for (c1, b1), r1 in rates.items():
            for (c2, b2), r2 in rates.items():
                if (not c1 or c2) and set(b1) <= set(b2) and (c2, set(b2)) != (c1, set(b1)):
                    if c1 <= c2 and set(b1) <= set(b2):
                        assert r1 <= r2 + 1e-12

    @pytest.mark.parametrize("n_receivers", [2, 3])
    def test_a_site_seen_twice_is_seen_once(self, n_receivers):
        cfg = config(k=0.2, n_receivers=n_receivers)
        sites = tuple(range(2, n_receivers + 1))
        once, twice = ViewSpec(True, sites), ViewSpec(True, sites + sites[:1])
        assert twice == once
        assert optimal_guess_rate(twice, cfg) == optimal_guess_rate(once, cfg)
        np.testing.assert_array_equal(S._view_law(twice, cfg, MESSAGES),
                                      S._view_law(once, cfg, MESSAGES))

    def test_views_of_few_bits_run_at_the_receiver_cap(self):
        cfg = config(k=0.2, n_receivers=P.MAX_RECEIVERS)
        views = S.standard_views(cfg)
        for name in ("bob_alone", "charlie_alone"):
            law = S._view_law(views[name], cfg, MESSAGES)
            for m in range(len(MESSAGES)):
                assert math.isclose(law[m].sum(), 1.0)
            assert 0.25 <= optimal_guess_rate(views[name], cfg) <= 1.0

    @pytest.mark.parametrize("site", [0, 1, 3])
    def test_a_view_sees_only_rotated_receiver_atoms(self, site):
        # at 3 parties the rotated receiver is site 2 alone: sites 0 and 1
        # hold the mapped atoms, and site 3 is not a party
        with pytest.raises(ValueError, match=rf"^site {site} is not a rotated receiver atom"):
            optimal_guess_rate(ViewSpec(True, (site,)), config())

    def test_condition_on_click_requires_visibility(self):
        with pytest.raises(ValueError):
            optimal_guess_rate(CHARLIE, config(), given_click=True)


class TestCheatExperiments:
    """The one-view guessing game, ``_guessing_games([view], ...)``: its
    counters (hits, rounds with a click, hits among them) as rates."""

    def test_bob_given_click(self):
        cfg = config(seed=1)
        _, clicked, hits = S._guessing_games([BOB], cfg, MESSAGES)(cfg.seed, (0, 20000))[0]
        rate, stderr = S._rate(hits, clicked)
        assert abs(rate - 0.5) < 3 * stderr

    def test_bob_psi_messages(self):
        cfg = config(seed=2)
        _, clicked, hits = S._guessing_games([BOB], cfg, (Message.X, Message.IY))(
            cfg.seed, (0, 20000))[0]
        rate, stderr = S._rate(hits, clicked)
        assert abs(rate - 0.5) < 3 * stderr

    def test_charlie_alone(self):
        cfg = config(seed=3)
        hits = S._guessing_games([CHARLIE], cfg, MESSAGES)(cfg.seed, (0, 20000))[0, 0]
        rate, stderr = S._rate(hits, 20000)
        assert abs(rate - 0.25) < 3 * stderr

    def test_collaboration_psi_exact(self):
        cfg = config(seed=4)
        _, clicked, hits = S._guessing_games([COLLAB], cfg, (Message.X, Message.IY))(
            cfg.seed, (0, 5000))[0]
        assert clicked > 0 and hits == clicked

    def test_matches_optimal_with_loss(self):
        cfg = config(k=0.2, seed=5)
        hits = S._guessing_games([COLLAB], cfg, MESSAGES)(cfg.seed, (0, 30000))[0, 0]
        rate, stderr = S._rate(hits, 30000)
        assert abs(rate - optimal_guess_rate(COLLAB, cfg)) < 3 * stderr

    @pytest.mark.parametrize("n_receivers", [2, 5])
    def test_three_way_ties_draw_as_a_unique_loop(self, n_receivers):
        # the golden corpus's games tie 2 or 4 messages, never 3, a bound
        # that is not a power of 2; the reference draws the ties in
        # np.unique's order of sizes.  Of 3 messages, Charlie alone ties
        # all 3 and the collaboration 1 or 2
        subset, n_rounds = (Message.I, Message.X, Message.Z), 3000
        cfg = config(k=0.2, t_window=2.0, n_receivers=n_receivers,
                     detector=P.DetectorModel(0.9, 0.05))
        plan, msg_ids = P._plan(cfg), np.array([P._MSG_INDEX[m] for m in subset])
        sizes = set()
        for name, seed in itertools.product(("charlie_alone", "collaboration"), range(5)):
            view = S.standard_views(cfg)[name]
            n_tied, tied = S._guess_tables(view, cfg, plan, subset)
            counts = np.zeros(3, dtype=np.int64)
            for streams in lockstep.row_blocks(seed, 0, n_rounds):
                rows = np.arange(len(streams))
                r = lockstep.Rounds(len(rows))
                sent = msg_ids[streams.integers(rows, len(subset))]
                streams.random(rows)  # the check-branch draw
                lockstep.encode_rounds(plan, streams, rows, sent, r)
                obs = (r.clicks[:, 0], r.clicks[:, 1], lockstep.parity(r.bits))
                n = n_tied[obs]
                choice = np.zeros(len(rows), dtype=np.int64)
                for size in np.unique(n[n > 1]).tolist():
                    ties = rows[n == size]
                    choice[ties] = streams.integers(ties, size)
                    sizes.add(size)
                hit, clicked = tied[obs + (choice,)] == sent, r.clicks.sum(axis=1) > 0
                counts += [hit.sum(), clicked.sum(), (hit & clicked).sum()]
            got = S._guessing_games([view], cfg, subset)(seed, (0, n_rounds))[0]
            assert got.tolist() == counts.tolist(), (name, seed)
        assert sizes == {2, 3}


def enumerated_detection_rate(eve: EveModel, n_parties: int) -> float:
    """The reference ``exact_eve_detection_rate``'s closed form is tested
    against: the violating share of the conclusive checks over all 2^n basis
    combinations, each equally likely, as are Eve's two outcomes.  A state
    allows a set of outcomes, all equally likely (``lockstep.check_law``),
    on which the outcome parity is fixed where its rules cover every party,
    and otherwise even and odd alike; so every term is 0, 1/2 or 1."""
    state = S._eve_state(eve, n_parties)
    everyone = (1 << n_parties) - 1
    combo = np.arange(everyone + 1)
    _, ghz_mask, expected = lockstep.check_law(combo, n_parties)
    combo, expected = combo[ghz_mask > 0], expected[ghz_mask > 0]  # the conclusive ones
    outcomes = (0,) if eve.strategy == "none" else (0, 1)  # Eve's
    violated = 0.0
    for outcome in outcomes:
        fixed, mask, parity = lockstep.check_law(combo, n_parties, sign=outcome, **state)
        whole = parity ^ (outcome * (fixed > 0))  # all bits' parity, where the rules fix it
        violated += np.where(mask == everyone & ~fixed, whole != expected, 0.5).sum()
    return float(violated / (len(outcomes) * len(combo)))


class TestEavesdropping:
    """The compiled attacks, ``_attack``: their counters (conclusive rounds,
    violations), and the detection rate they give."""

    def test_no_eve_never_detected(self):
        cfg = config(seed=6)
        conclusive, violations = S._attack(EveModel("none"), cfg)(cfg.seed, (0, 20000))
        assert conclusive > 0 and violations == 0
        assert S._rate(violations, conclusive)[0] == 0.0

    def test_conclusive_fraction(self):
        cfg = config(seed=7)
        conclusive, _ = S._attack(EveModel("none"), cfg)(cfg.seed, (0, 20000))
        assert abs(conclusive / 20000 - 0.5) < 3 * math.sqrt(0.25 / 20000)

    def test_z_intercept_half(self):
        eve, cfg = EveModel("intercept_resend_atom", basis="z", target=0), config(seed=8)
        assert exact_eve_detection_rate(eve) == 0.5
        conclusive, violations = S._attack(eve, cfg)(cfg.seed, (0, 20000))
        rate, stderr = S._rate(violations, conclusive)
        assert abs(rate - 0.5) < 3 * stderr

    def test_x_intercept_quarter(self):
        eve, cfg = EveModel("intercept_resend_atom", basis="x", target=0), config(seed=9)
        assert exact_eve_detection_rate(eve) == 0.25
        conclusive, violations = S._attack(eve, cfg)(cfg.seed, (0, 20000))
        rate, stderr = S._rate(violations, conclusive)
        assert abs(rate - 0.25) < 3 * stderr

    @pytest.mark.parametrize("n_parties", range(2, 11))
    def test_exact_rate_independent_of_target(self, n_parties):
        # the closed form is the enumerated rate
        for basis, rate in (("z", 0.5), ("x", 0.25)):
            for target in range(n_parties):
                eve = EveModel("intercept_resend_atom", basis=basis, target=target)
                assert exact_eve_detection_rate(eve, n_parties) == rate
                assert enumerated_detection_rate(eve, n_parties) == rate
        assert exact_eve_detection_rate(EveModel("none"), n_parties) == 0.0
        assert enumerated_detection_rate(EveModel("none"), n_parties) == 0.0

    @pytest.mark.parametrize("basis, rate", [("z", 0.5), ("x", 0.25)])
    def test_exact_rate_at_any_width(self, basis, rate):
        # 34 parties, one past the receiver cap: 2^34 basis combinations
        # would take 128 GiB as int64
        eve = EveModel("intercept_resend_atom", basis=basis, target=33)
        tracemalloc.start()
        try:
            got = exact_eve_detection_rate(eve, 34)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == rate and peak < 64 << 10

    def test_all_attacks_detectable(self):
        for eve in (
            EveModel("intercept_resend_atom", basis="z", target=0),
            EveModel("intercept_resend_atom", basis="x", target=1),
            EveModel("intercept_resend_photon"),
        ):
            cfg = config(k=0.2, seed=10)
            conclusive, violations = S._attack(eve, cfg)(cfg.seed, (0, 10000))
            assert conclusive > 0 and S._rate(violations, conclusive)[0] > 0.05

    def test_photon_attack_needs_click_decoding(self):
        with pytest.raises(ValueError, match="ideal_pnr"):
            S._attack(EveModel("intercept_resend_photon"), config(ideal_pnr=True))

    def test_photon_attack_is_a_tampered_encode_round(self):
        # the attack's rounds are encode rounds with the photon number of
        # cavity A measured before the window
        cfg = config(k=0.2, t_window=6.0, detector=P.DetectorModel(0.9, 0.02), seed=5)
        mode_a = D.layout_for(cfg.n_parties).mode_sites[0]
        conclusive = violations = 0
        for i in range(300):
            rng = O.round_rng(5, i)
            sent = (Message.X, Message.IY)[int(rng.integers(0, 2))]
            state = O.pipeline_state(cfg, sent)
            _, state = O.measure_site(state, mode_a, rng)
            window = O.simulate_window(state, cfg, rng)
            bits = O.sample_receiver_bits(window.state, rng)
            decoded = P.decode(cfg, window.record.counts(), bits)
            if decoded is not None:
                conclusive += 1
                violations += int(decoded != sent)
        got = S._attack(EveModel("intercept_resend_photon"), cfg)(cfg.seed, (0, 300))
        assert got.tolist() == [conclusive, violations]
        assert violations > 0

    def test_photon_exact_rate_unavailable(self):
        with pytest.raises(ValueError):
            exact_eve_detection_rate(EveModel("intercept_resend_photon"))

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            EveModel("replay")
        with pytest.raises(ValueError):
            EveModel("intercept_resend_atom", basis="q")
        # a basis on a strategy that takes none would name the summary's
        # strategy "none_z"
        for strategy, basis in (("none", "z"), ("intercept_resend_photon", "x")):
            with pytest.raises(ValueError, match=rf"^basis = '{basis}': strategy '{strategy}'"):
                EveModel(strategy, basis=basis)


class TestConfigErrors:
    """An attack the config cannot run raises ConfigError naming the field,
    and an atom attack's target outside the parties ValueError naming it,
    before anything compiles."""

    @pytest.mark.parametrize("eve, cfg, field", [
        (EveModel("intercept_resend_photon"), config(ideal_pnr=True), "round.ideal_pnr"),
    ], ids=["photon-pnr"])
    def test_named_before_compiling(self, eve, cfg, field, no_compile):
        with pytest.raises(P.ConfigError, match=field):
            S.security_summary(cfg, 10, eve)
        with pytest.raises(P.ConfigError, match=field):
            S._attack(eve, cfg)

    @pytest.mark.parametrize("eve", [EveModel("intercept_resend_atom", basis="z"),
                                     EveModel("intercept_resend_photon")])
    def test_runs_up_to_the_receiver_cap(self, eve):
        # the guess tables, like the plan, have a parity axis of length 2:
        # the summary runs at 33 receivers, the most a config takes, and 34
        # are rejected before anything compiles, naming the field
        out = S.security_summary(config(n_receivers=P.MAX_RECEIVERS), 10, eve)
        assert 0.0 <= out["charlie_alone"] <= 1.0
        with pytest.raises(ValueError, match=r"^n_receivers = 34 is above 33"):
            S.security_summary(config(n_receivers=P.MAX_RECEIVERS + 1), 10, eve)

    def test_summary_peak_does_not_grow_with_the_receivers(self):
        # the plan's compile and the three games' guess tables, built after
        # it, hold at 33 receivers what they hold at 3
        def peak(n_receivers):
            cfg = config(k=0.2, n_receivers=n_receivers, detector=P.DetectorModel(0.9, 0.02))
            P._plan.cache_clear()
            tracemalloc.start()
            try:
                S.security_summary(cfg, 50, EveModel("intercept_resend_atom", basis="z"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(3)  # warm-up: first-call allocations of numpy and the interpreter
        assert peak(33) <= peak(3) + (16 << 10)

    @pytest.mark.parametrize("basis", ["z", "x"])
    @pytest.mark.parametrize("target", [3, -1, 40])
    def test_target_outside_the_parties(self, basis, target, no_compile):
        # at 3 parties: as an outcome bit it would shift onto no party or
        # the wrong one
        eve = EveModel("intercept_resend_atom", basis=basis, target=target)
        named = rf"target = {target} is not a party: .* one of 0 \.\. 2$"
        with pytest.raises(ValueError, match=named):
            S.security_summary(config(), 10, eve)
        with pytest.raises(ValueError, match=named):
            S._attack(eve, config())
        with pytest.raises(ValueError, match=named):
            exact_eve_detection_rate(eve, 3)


def boundary_draws(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Draws u at every outcome boundary j / size, one ulp either side of
    it, and the largest draw below 1, with the index j of the allowed
    outcome each must pick."""
    j = np.arange(size)
    u = j / size
    draws = np.concatenate((u, np.nextafter(u, 1.0), np.nextafter(u[1:], 0.0),
                            [np.nextafter(1.0, 0.0)]))
    return draws, np.concatenate((j, j, j[:-1], [size - 1]))


class TestParityCheckLaws:
    """The closed-form check rounds (``lockstep.check_law``) against one
    dense kron matrix per basis combination (the oracle's reference)."""

    @staticmethod
    def assert_samples(law, n_parties, **state):
        # every allowed outcome equally likely, and draw u picks the
        # floor(u |S|)-th allowed outcome, at the boundaries too
        for combo in range(2**n_parties):
            allowed = np.flatnonzero(law[combo] > 1e-12)
            assert np.abs(law[combo, allowed] - 1.0 / len(allowed)).max() <= 1e-15
            assert np.abs(np.delete(law[combo], allowed)).max(initial=0.0) <= 1e-15
            draws, picks = boundary_draws(len(allowed))
            got = lockstep.check_outcomes(np.full(len(draws), combo), draws, n_parties, **state)
            assert got.tolist() == allowed[picks].tolist()

    @pytest.mark.parametrize("n_parties", [2, 3, 4, 5, 6])
    def test_ghz_rounds_follow_the_parity(self, n_parties):
        self.assert_samples(O.dense_combo_laws(O.ghz_amplitudes(n_parties), n_parties),
                            n_parties)
        outcomes = np.arange(2**n_parties)
        for combo in range(2**n_parties):
            expected = O.ghz_expected_parity(O.combo_bases(n_parties, combo))
            conclusive, passed = lockstep.check_verdicts(
                np.full(len(outcomes), combo), outcomes, n_parties)
            assert conclusive.tolist() == [expected is not None] * len(outcomes)
            assert passed.tolist() == [
                expected is None or O.outcome_parity(outcome) == expected for outcome in outcomes
            ]

    @pytest.mark.parametrize("n_parties", [2, 3, 4, 5, 6])
    def test_attacked_rounds(self, n_parties):
        # each of Eve's outcomes has probability 1/2 (the draw u >= 0.5 picks
        # outcome 1), and the parties sample the state she leaves
        ghz = D.StateVector(D.SystemLayout((D.atom_site(),) * n_parties),
                            O.ghz_amplitudes(n_parties))
        for basis in ("z", "x"):
            for target in range(n_parties):
                eve = EveModel("intercept_resend_atom", basis=basis, target=target)
                probs, collapse = O.atom_measurement(ghz, target, basis)
                assert np.abs(np.asarray(probs) - 0.5).max() <= 1e-15
                state = S._eve_state(eve, n_parties)
                for outcome in (0, 1):
                    law = O.dense_combo_laws(collapse(outcome).amplitudes, n_parties)
                    self.assert_samples(law, n_parties, sign=outcome, **state)

    def test_ten_parties_run_in_little_memory(self):
        # no 2^n x 2^n check table: a 1000-round atom-x attack and a
        # 1000-round batch with check rounds at 10 parties hold under 2 MiB
        cfg = config(k=0.2, n_receivers=9, p_check=0.25, seed=2)
        P._plan(cfg)  # the plan compiles as at any other width
        eve = EveModel("intercept_resend_atom", basis="x", target=4)
        tracemalloc.start()
        try:
            conclusive, _ = S._attack(eve, cfg)(cfg.seed, (0, 1000))
            stats = P.run_batch(cfg, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert conclusive > 400 and stats.n_check > 200
        assert stats.check_pass_rate == 1.0

    def test_memory_does_not_grow_with_the_receivers(self):
        # every table has a parity axis of length 2 and a row draws its bit
        # code in closed form, so the peak of a compile, a 2000-round lossy
        # batch with check rounds and a 500-round security summary at 20
        # receivers (2^19 bit codes) lies within 1 MiB of the same at 3.  A
        # (rows, bit codes) array of the batch's encode rows would take
        # 1500 x 2^19 x 8 bytes, about 6 GB.
        def peak(n_receivers):
            cfg = config(k=0.2, t_window=6.0, n_receivers=n_receivers, p_check=0.25, seed=2,
                         detector=P.DetectorModel(0.9, 0.05))
            P._plan.cache_clear()
            tracemalloc.start()
            try:
                P._plan(cfg)
                stats = P.run_batch(cfg, 2000)
                S.security_summary(cfg, 500, EveModel("intercept_resend_atom", basis="z"))
                return tracemalloc.get_traced_memory()[1], stats
            finally:
                tracemalloc.stop()

        narrow = peak(3)[0]
        wide, stats = peak(20)
        assert wide <= narrow + (1 << 20)
        assert stats.n_check > 400 and stats.n_encode > 1400


class TestSummary:
    def test_rates(self):
        assert S._rate(0, 0) == (None, None)
        assert S._rate(3, 3) == (1.0, 0.0)
        assert S._rate(1, 4) == (0.25, math.sqrt(0.25 * 0.75 / 4))

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError, match="n_rounds must be >= 1"):
            S.security_summary(config(seed=1), 0, EveModel("none"))

    def test_games_given_a_click_are_null_without_clicks(self):
        # a blind detector registers no click, so the games given a click
        # count no rounds
        out = S.security_summary(config(detector=P.DetectorModel(0.0, 0.0), seed=12), 400,
                                 EveModel("none"))
        for key in ("bob_alone", "bob_alone_stderr", "collaboration", "collaboration_stderr"):
            assert out[key] is None, key
        assert out["charlie_alone"] is not None and out["eve_detection_rate"] == 0.0

    def test_summary_fields(self):
        eve = EveModel("intercept_resend_atom", basis="z")
        out = S.security_summary(config(seed=11), 4000, eve)
        assert set(out) >= {
            "bob_alone",
            "charlie_alone",
            "collaboration",
            "composite_bob",
            "eve_detection_rate",
        }
        assert abs(out["composite_bob"] - (1.0 - out["charlie_alone"])) < 1e-12


# ---------------------------------------------------------------------------
# differential: the lockstep experiments against the scalar per-round path


def oracle_guess(posterior, rng):
    best = max(posterior.values())
    tied = [m for m in posterior if posterior[m] >= best * (1.0 - 1e-12)]
    if len(tied) == 1:
        return tied[0]
    return tied[int(rng.integers(0, len(tied)))]


def oracle_cheat(cheater, config, n_rounds, seed, messages=MESSAGES, cutoff=1):
    """The guessing game one scalar round at a time on round_rng streams,
    with the cavity modes of the dense states truncated at ``cutoff``: (hits,
    rounds with a click, hits among them)."""
    positions = {site: pos for pos, site in enumerate(range(2, config.n_parties))}

    def project(counts, bits):
        # what the cheater sees of a round
        return (counts if cheater.sees_clicks else None,
                tuple(bits[positions[site]] for site in cheater.sees_bits))

    joint = {}
    for m in messages:
        for (counts, bits), p in O.outcome_distribution(config, m, cutoff).items():
            joint.setdefault(project(counts, bits), dict.fromkeys(messages, 0.0))[m] += (
                p / len(messages)
            )
    posteriors = {
        obs: {m: p / max(sum(per.values()), 1e-300) for m, p in per.items()}
        for obs, per in joint.items()
    }
    cfg = dataclasses.replace(config, p_check=0.0)
    msgs = tuple(messages)
    hits_all = hits_click = n_click = 0
    for i in range(n_rounds):
        rng = O.round_rng(seed, i)
        sent = msgs[int(rng.integers(0, len(msgs)))]
        out = O.run_round(cfg, sent, rng, cutoff)
        counts = out.detection.counts()
        posterior = posteriors.get(project(counts, out.receiver_bits))
        if posterior is None:
            posterior = {m: 1.0 / len(msgs) for m in msgs}
        hit = int(oracle_guess(posterior, rng) == sent)
        hits_all += hit
        if sum(counts) > 0:
            n_click += 1
            hits_click += hit
    return hits_all, n_click, hits_click


def oracle_eve(eve, config, n_rounds, seed, cutoff=1):
    """The eavesdrop experiment one scalar round at a time: tampered check
    rounds for atom attacks, tampered encode rounds (cavity modes truncated
    at ``cutoff``) for the photon attack.  Returns (conclusive rounds,
    violations)."""
    conclusive = violations = 0
    if eve.strategy == "intercept_resend_photon":
        cfg = dataclasses.replace(config, p_check=0.0)

        def tamper(state, rng):
            return O.measure_site(state, state.layout.mode_sites[0], rng)[1]

        for i in range(n_rounds):
            rng = O.round_rng(seed, i)
            sent = (Message.X, Message.IY)[int(rng.integers(0, 2))]
            decoded = O._encode_round(cfg, sent, rng, tamper=tamper, cutoff=cutoff).decoded
            if decoded is not None:
                conclusive += 1
                violations += int(decoded != sent)
    else:
        tamper = None
        if eve.strategy != "none":
            def tamper(state, rng):
                return O.measure_atom(state, eve.target, rng, eve.basis)[1]

        for i in range(n_rounds):
            out = O.run_check_round(config, O.round_rng(seed, i), tamper=tamper)
            if out.check_conclusive:
                conclusive += 1
                violations += int(not out.check_passed)
    return conclusive, violations


DETECTION = ("pnr", (1.0, 0.0), (1.0, 0.05), (0.9, 0.0), (0.9, 0.05))
# n_parties, the oracle's mode cutoff (the engine's is one photon), k, detection
DIFF_MATRIX = list(itertools.product((3, 4), (1, 2), (0.0, 0.2), DETECTION))


def diff_config(n_parties, k, detection):
    pnr = detection == "pnr"
    eta, p_dc = (1.0, 0.0) if pnr else detection
    return config(
        k=k, t_window=2.0, n_receivers=n_parties - 1, ideal_pnr=pnr,
        detector=P.DetectorModel(eta, p_dc),
    )


class TestLockstepEqualsScalar:
    """Every compiled pass counts what its scalar per-round oracle counts."""

    @pytest.mark.parametrize(
        "n_parties,cutoff,k,detection", DIFF_MATRIX,
        ids=[f"n{n}-cut{c}-k{k}-{d if d == 'pnr' else 'eta%s-dc%s' % d}"
             for n, c, k, d in DIFF_MATRIX],
    )
    def test_matrix(self, n_parties, cutoff, k, detection):
        cfg = diff_config(n_parties, k, detection)
        seed, n_rounds = -7, 150
        views = S.standard_views(cfg)
        receivers = views["collaboration"].sees_bits
        # blind for N+1 = 3, one non-Charlie receiver for N+1 = 4
        views["custom"] = ViewSpec(sees_clicks=False, sees_bits=receivers[1:])
        for name, view in views.items():
            got = S._guessing_games([view], cfg, MESSAGES)(seed, (0, n_rounds))[0]
            assert tuple(got.tolist()) == oracle_cheat(
                view, cfg, n_rounds, seed, cutoff=cutoff
            ), name
        subset = (Message.I, Message.X, Message.Z)
        got = S._guessing_games([views["collaboration"]], cfg, subset)(seed, (0, n_rounds))[0]
        assert tuple(got.tolist()) == (
            oracle_cheat(views["collaboration"], cfg, n_rounds, seed, subset, cutoff)
        )
        eves = [
            EveModel("none"),
            EveModel("intercept_resend_atom", basis="z", target=0),
            EveModel("intercept_resend_atom", basis="x", target=n_parties - 1),
        ]
        if not cfg.ideal_pnr:
            eves.append(EveModel("intercept_resend_photon"))
        for eve in eves:
            assert tuple(S._attack(eve, cfg)(seed, (0, n_rounds)).tolist()) == oracle_eve(
                eve, cfg, n_rounds, seed, cutoff
            ), eve

    def test_matrix_covers_the_values(self):
        columns = [set(c) for c in zip(*DIFF_MATRIX)]
        assert columns == [{3, 4}, {1, 2}, {0.0, 0.2}, set(DETECTION)]
        assert len(DIFF_MATRIX) == 2 * 2 * 2 * 5

    def test_across_blocks_and_spans(self):
        # more rounds than one block and than one span of precomputed words
        cfg = dataclasses.replace(diff_config(3, 0.2, (0.9, 0.05)), seed=3)
        bob = S.standard_views(cfg)["bob_alone"]
        got = S._guessing_games([bob], cfg, MESSAGES)(cfg.seed, (0, 2600))[0]
        assert tuple(got.tolist()) == oracle_cheat(bob, cfg, 2600, 3)
        eve = EveModel("intercept_resend_atom", basis="x", target=1)
        got = S._attack(eve, cfg)(cfg.seed, (0, 2600))
        assert tuple(got.tolist()) == oracle_eve(eve, cfg, 2600, 3)

    @pytest.mark.parametrize("eve", [
        EveModel("intercept_resend_atom", basis="z", target=0), EveModel("intercept_resend_photon"),
    ], ids=["atom-z", "photon"])
    def test_summary_equals_the_oracles(self, eve, monkeypatch, many_cpus, forks):
        # the three games on seeds s, s+1, s+2 and the eavesdropper on s+3,
        # in one process and in three (ranges of 866, 867 and 867 rounds),
        # each range over several blocks
        cfg = diff_config(3, 0.2, (0.9, 0.05))
        seed, n_rounds = 9, 2600
        views = S.standard_views(cfg)
        (_, bob_clicked, bob_hits), (charlie_hits, _, _), (_, collab_clicked, collab_hits) = (
            oracle_cheat(views[name], cfg, n_rounds, seed + g)
            for g, name in enumerate(("bob_alone", "charlie_alone", "collaboration"))
        )
        conclusive, violations = oracle_eve(eve, cfg, n_rounds, seed + 3)
        want = dict(zip(
            ("bob_alone", "bob_alone_stderr", "charlie_alone", "charlie_alone_stderr",
             "collaboration", "collaboration_stderr", "eve_detection_rate",
             "eve_detection_stderr"),
            S._rate(bob_hits, bob_clicked) + S._rate(charlie_hits, n_rounds)
            + S._rate(collab_hits, collab_clicked) + S._rate(violations, conclusive)))
        want["composite_bob"] = 1.0 - want["charlie_alone"]
        want["eve_conclusive_rounds"] = conclusive
        monkeypatch.setattr(P.lockstep, "BLOCK_ROWS", 1 << 10)
        monkeypatch.setattr(P.lockstep, "FORK_ROWS", 0)  # three processes however short
        assert n_rounds // 3 > (1 << 10) // 3
        for workers, processes in ((1, 1), (3, 3)):
            got = S.security_summary(dataclasses.replace(cfg, seed=seed), n_rounds, eve,
                                     workers=workers)
            assert len(forks) == processes - 1
            forks.clear()
            assert {key: got[key] for key in want} == want

    def test_check_rows_extend_past_their_first_block(self, monkeypatch):
        # at 10 parties an atom-attack check row draws 1 + 5 + 1 = 7 words:
        # one Philox block up front, then the stream extends
        cfg = config(n_receivers=9, seed=4)
        eve = EveModel("intercept_resend_atom", basis="x", target=9)
        calls, philox_words = [], P.lockstep.philox_words

        def recorded(seed, indices, first_block, n_blocks):
            calls.append((first_block, n_blocks))
            return philox_words(seed, indices, first_block, n_blocks)

        monkeypatch.setattr(P.lockstep, "philox_words", recorded)  # the first blocks
        monkeypatch.setattr(streams, "philox_words", recorded)  # the extensions
        monkeypatch.setattr(P.lockstep, "BLOCK_ROWS", 128)
        got = tuple(S._attack(eve, cfg)(cfg.seed, (0, 200)).tolist())
        assert calls == [(0, 1), (1, 1)] * 2  # blocks of 128 and 72 rounds
        assert got == oracle_eve(eve, cfg, 200, 4)
        monkeypatch.setattr(P.lockstep, "_FIRST_WORDS", {"encode": 4, "check": 4})
        calls.clear()
        assert tuple(S._attack(eve, cfg)(cfg.seed, (0, 200)).tolist()) == got
        assert calls == [(0, 4)] * 2

    def test_summary_does_not_depend_on_block_size(self, monkeypatch):
        # no row reads another row of its block
        cfg = dataclasses.replace(diff_config(4, 0.2, (0.9, 0.05)), seed=5)
        eves = (EveModel("intercept_resend_atom", basis="z", target=0),
                EveModel("intercept_resend_photon"))
        default = [S.security_summary(cfg, 2600, eve=eve) for eve in eves]
        monkeypatch.setattr(P.lockstep, "BLOCK_ROWS", 1 << 7)
        assert [S.security_summary(cfg, 2600, eve=eve) for eve in eves] == default

