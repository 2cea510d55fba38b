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
from qdcsim.security import (
    EveModel,
    InconsistentObservation,
    Observation,
    ViewSpec,
    cheat_experiment,
    eavesdrop_experiment,
    exact_eve_detection_rate,
    exact_posterior,
    optimal_guess_rate,
)


def config(k=0.0, **kw):
    p = PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=k)
    defaults = dict(params=p, t_window=0.5)
    defaults.update(kw)
    return P.RoundConfig(**defaults)


BOB = ViewSpec(sees_clicks=True)
CHARLIE = ViewSpec(sees_clicks=False, sees_bits=(2,))
COLLAB = ViewSpec(sees_clicks=True, sees_bits=(2,))


class TestExactPosterior:
    def test_click_only(self):
        post = exact_posterior(BOB, Observation(clicks=(1, 0)), config())
        assert abs(post[Message.X] - 0.5) < 1e-12
        assert abs(post[Message.IY] - 0.5) < 1e-12
        assert post[Message.I] < 1e-12 and post[Message.Z] < 1e-12

    def test_bit_only_uniform(self):
        post = exact_posterior(CHARLIE, Observation(bits=((2, "e"),)), config())
        for m in MESSAGES:
            assert abs(post[m] - 0.25) < 1e-12

    def test_click_and_bit_pins_message(self):
        post = exact_posterior(COLLAB, Observation(clicks=(1, 0), bits=((2, "e"),)), config())
        assert abs(post[Message.X] - 1.0) < 1e-12

    def test_marginalization_recovers_prior(self):
        # P(observation, m) under the uniform prior, summed over every
        # observation the view can make, is the prior
        cfg = config()
        for view in (BOB, CHARLIE, COLLAB):
            law = S._view_law(view, cfg, MESSAGES)[0]
            clicks = list(np.ndindex(law.shape[1:3])) if view.sees_clicks else [None]
            strings = itertools.product("ge", repeat=len(view.sees_bits))
            joint = [
                S.observation_likelihoods(Observation(c, tuple(zip(view.sees_bits, bits))), cfg)
                for c, bits in itertools.product(clicks, strings)
            ]
            for m in MESSAGES:
                assert abs(sum(likes[m] for likes in joint) / len(MESSAGES) - 0.25) < 1e-12

    @pytest.mark.parametrize("bits", [((2, "ge"),), ((2, "x"),), ((2, "E"), (3, "g"))])
    def test_letters_other_than_g_or_e_have_no_likelihood(self, bits):
        likes = S.observation_likelihoods(Observation(clicks=(1, 0), bits=bits),
                                          config(k=0.2, n_receivers=3))
        assert set(likes.values()) == {0.0}

    @pytest.mark.parametrize("bits", [((2, "e"), (2, "e")), ((2, "e"), (2, "g"))])
    def test_site_listed_twice_rejected(self, bits):
        # counted twice, one e bit would read as even parity
        with pytest.raises(ValueError, match="receiver site 2 is listed twice"):
            Observation(clicks=(1, 0), bits=bits)

    def test_inconsistent_observation(self):
        with pytest.raises(InconsistentObservation):
            exact_posterior(BOB, Observation(clicks=(7, 7)), config())

    def test_view_mismatch_rejected(self):
        with pytest.raises(ValueError):
            exact_posterior(BOB, Observation(clicks=None), config())
        with pytest.raises(ValueError):
            exact_posterior(CHARLIE, Observation(bits=((1, "e"),)), config())


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
        (law_twice, size_twice), (law_once, size_once) = (
            S._view_law(view, cfg, MESSAGES) for view in (twice, once))
        np.testing.assert_array_equal(law_twice, law_once)
        assert size_twice == size_once

    def test_views_of_few_bits_run_at_the_receiver_cap(self):
        cfg = config(k=0.2, n_receivers=P.MAX_RECEIVERS)
        views = S.standard_views(cfg)
        for name in ("bob_alone", "charlie_alone"):
            law = S._view_law(views[name], cfg, MESSAGES)[0]
            for m in range(len(MESSAGES)):
                assert math.isclose(law[m].sum(), 1.0)
            assert 0.25 <= optimal_guess_rate(views[name], cfg) <= 1.0

    def test_condition_on_click_requires_visibility(self):
        with pytest.raises(ValueError):
            optimal_guess_rate(CHARLIE, config(), given_click=True)


class TestCheatExperiments:
    def test_bob_given_click(self):
        res = cheat_experiment(BOB, config(seed=1), 20000)
        assert abs(res.rate_given_click - 0.5) < 3 * res.stderr_given_click

    def test_bob_psi_messages(self):
        res = cheat_experiment(BOB, config(seed=2), 20000, messages=(Message.X, Message.IY))
        assert abs(res.rate_given_click - 0.5) < 3 * res.stderr_given_click

    def test_charlie_alone(self):
        res = cheat_experiment(CHARLIE, config(seed=3), 20000)
        assert abs(res.rate_all - 0.25) < 3 * res.stderr_all

    def test_collaboration_psi_exact(self):
        res = cheat_experiment(COLLAB, config(seed=4), 5000, messages=(Message.X, Message.IY))
        assert res.rate_given_click == 1.0

    def test_matches_optimal_with_loss(self):
        cfg = config(k=0.2, seed=5)
        res = cheat_experiment(COLLAB, cfg, 30000)
        exact = optimal_guess_rate(COLLAB, cfg)
        assert abs(res.rate_all - exact) < 3 * res.stderr_all

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            cheat_experiment(BOB, config(seed=1), 0)


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
    def test_no_eve_never_detected(self):
        res = eavesdrop_experiment(EveModel("none"), config(seed=6), 20000)
        assert res.violations == 0 and res.detection_rate == 0.0

    def test_conclusive_fraction(self):
        res = eavesdrop_experiment(EveModel("none"), config(seed=7), 20000)
        frac = res.conclusive_rounds / res.n_rounds
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / 20000)

    def test_z_intercept_half(self):
        eve = EveModel("intercept_resend_atom", basis="z", target=0)
        assert exact_eve_detection_rate(eve) == 0.5
        res = eavesdrop_experiment(eve, config(seed=8), 20000)
        assert abs(res.detection_rate - 0.5) < 3 * res.stderr

    def test_x_intercept_quarter(self):
        eve = EveModel("intercept_resend_atom", basis="x", target=0)
        assert exact_eve_detection_rate(eve) == 0.25
        res = eavesdrop_experiment(eve, config(seed=9), 20000)
        assert abs(res.detection_rate - 0.25) < 3 * res.stderr

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
            res = eavesdrop_experiment(eve, config(k=0.2, seed=10), 10000)
            assert res.detection_rate is not None and res.detection_rate > 0.05

    def test_photon_attack_needs_click_decoding(self):
        with pytest.raises(ValueError, match="ideal_pnr"):
            eavesdrop_experiment(
                EveModel("intercept_resend_photon"), config(ideal_pnr=True, seed=0), 10
            )

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
        res = eavesdrop_experiment(EveModel("intercept_resend_photon"), cfg, 300)
        assert (res.conclusive_rounds, res.violations) == (conclusive, violations)
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
            eavesdrop_experiment(eve, cfg, 10)

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
            eavesdrop_experiment(eve, config(), 10)
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
            attacked = eavesdrop_experiment(eve, cfg, 1000)
            stats = P.run_batch(cfg, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert attacked.conclusive_rounds > 400 and stats.n_check > 200
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
    with the cavity modes of the dense states truncated at ``cutoff``."""
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
    rate_all = hits_all / n_rounds
    rate_click = hits_click / n_click if n_click else None
    return S.CheatResult(
        n_rounds=n_rounds,
        n_clicked=n_click,
        rate_all=rate_all,
        rate_given_click=rate_click,
        stderr_all=math.sqrt(max(rate_all * (1 - rate_all), 0.0) / n_rounds),
        stderr_given_click=(
            math.sqrt(max(rate_click * (1 - rate_click), 0.0) / n_click) if n_click else None
        ),
    )


def oracle_eve(eve, config, n_rounds, seed, cutoff=1):
    """The eavesdrop experiment one scalar round at a time: tampered check
    rounds for atom attacks, tampered encode rounds (cavity modes truncated
    at ``cutoff``) for the photon attack."""
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
    rate = violations / conclusive if conclusive else None
    stderr = math.sqrt(max(rate * (1 - rate), 0.0) / conclusive) if conclusive else None
    return S.EveResult(n_rounds, conclusive, violations, rate, stderr)


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
    """Every experiment equals its scalar per-round oracle exactly."""

    @pytest.mark.parametrize(
        "n_parties,cutoff,k,detection", DIFF_MATRIX,
        ids=[f"n{n}-cut{c}-k{k}-{d if d == 'pnr' else 'eta%s-dc%s' % d}"
             for n, c, k, d in DIFF_MATRIX],
    )
    def test_matrix(self, n_parties, cutoff, k, detection):
        cfg = diff_config(n_parties, k, detection)
        seed, n_rounds = -7, 150
        seeded = dataclasses.replace(cfg, seed=seed)
        views = S.standard_views(cfg)
        receivers = views["collaboration"].sees_bits
        # blind for N+1 = 3, one non-Charlie receiver for N+1 = 4
        views["custom"] = ViewSpec(sees_clicks=False, sees_bits=receivers[1:])
        for name, view in views.items():
            assert cheat_experiment(view, seeded, n_rounds) == oracle_cheat(
                view, cfg, n_rounds, seed, cutoff=cutoff
            ), name
        subset = (Message.I, Message.X, Message.Z)
        assert cheat_experiment(views["collaboration"], seeded, n_rounds, subset) == (
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
            assert eavesdrop_experiment(eve, seeded, n_rounds) == oracle_eve(
                eve, cfg, n_rounds, seed, cutoff
            ), eve

    def test_matrix_covers_the_values(self):
        columns = [set(c) for c in zip(*DIFF_MATRIX)]
        assert columns == [{3, 4}, {1, 2}, {0.0, 0.2}, set(DETECTION)]
        assert len(DIFF_MATRIX) == 2 * 2 * 2 * 5

    def test_across_blocks_and_spans(self):
        # more rounds than one block and than one span of precomputed words
        cfg = dataclasses.replace(diff_config(3, 0.2, (0.9, 0.05)), seed=3)
        views = S.standard_views(cfg)
        assert cheat_experiment(views["bob_alone"], cfg, 2600) == oracle_cheat(
            views["bob_alone"], cfg, 2600, 3
        )
        eve = EveModel("intercept_resend_atom", basis="x", target=1)
        assert eavesdrop_experiment(eve, cfg, 2600) == oracle_eve(eve, cfg, 2600, 3)

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
        bob, charlie, collab = (
            oracle_cheat(views[name], cfg, n_rounds, seed + g)
            for g, name in enumerate(("bob_alone", "charlie_alone", "collaboration"))
        )
        eve_result = oracle_eve(eve, cfg, n_rounds, seed + 3)
        want = {
            "bob_alone": bob.rate_given_click,
            "bob_alone_stderr": bob.stderr_given_click,
            "charlie_alone": charlie.rate_all,
            "charlie_alone_stderr": charlie.stderr_all,
            "collaboration": collab.rate_given_click,
            "collaboration_stderr": collab.stderr_given_click,
            "composite_bob": 1.0 - charlie.rate_all,
            "eve_detection_rate": eve_result.detection_rate,
            "eve_detection_stderr": eve_result.stderr,
            "eve_conclusive_rounds": eve_result.conclusive_rounds,
        }
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
        got = eavesdrop_experiment(eve, cfg, 200)
        assert calls == [(0, 1), (1, 1)] * 2  # blocks of 128 and 72 rounds
        assert got == oracle_eve(eve, cfg, 200, 4)
        monkeypatch.setattr(P.lockstep, "_FIRST_WORDS", {"encode": 4, "check": 4})
        calls.clear()
        assert eavesdrop_experiment(eve, cfg, 200) == got
        assert calls == [(0, 4)] * 2

    def test_summary_does_not_depend_on_block_size(self, monkeypatch):
        # no row reads another row of its block
        cfg = dataclasses.replace(diff_config(4, 0.2, (0.9, 0.05)), seed=5)
        eves = (EveModel("intercept_resend_atom", basis="z", target=0),
                EveModel("intercept_resend_photon"))
        default = [S.security_summary(cfg, 2600, eve=eve) for eve in eves]
        monkeypatch.setattr(P.lockstep, "BLOCK_ROWS", 1 << 7)
        assert [S.security_summary(cfg, 2600, eve=eve) for eve in eves] == default

