import math

import pytest

from qdcsim.dynamics import PhysicalParams
from qdcsim.hilbert import Message, MESSAGES, measure_site
from qdcsim import protocol as P
from qdcsim import security as S
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
        for view in (BOB, CHARLIE, COLLAB):
            joint = S.view_distribution(view, config())
            for m in MESSAGES:
                total = sum(per[m] for per in joint.values())
                assert abs(total - 0.25) < 1e-12

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

    def test_condition_on_click_requires_visibility(self):
        with pytest.raises(ValueError):
            optimal_guess_rate(CHARLIE, config(), given_click=True)


class TestCheatExperiments:
    def test_bob_given_click(self):
        res = cheat_experiment(BOB, config(), 20000, seed=1)
        assert abs(res.rate_given_click - 0.5) < 3 * res.stderr_given_click

    def test_bob_psi_messages(self):
        res = cheat_experiment(BOB, config(), 20000, seed=2, messages=(Message.X, Message.IY))
        assert abs(res.rate_given_click - 0.5) < 3 * res.stderr_given_click

    def test_charlie_alone(self):
        res = cheat_experiment(CHARLIE, config(), 20000, seed=3)
        assert abs(res.rate_all - 0.25) < 3 * res.stderr_all

    def test_collaboration_psi_exact(self):
        res = cheat_experiment(
            COLLAB, config(), 5000, seed=4, messages=(Message.X, Message.IY)
        )
        assert res.rate_given_click == 1.0

    def test_matches_optimal_with_loss(self):
        cfg = config(k=0.2)
        res = cheat_experiment(COLLAB, cfg, 30000, seed=5)
        exact = optimal_guess_rate(COLLAB, cfg)
        assert abs(res.rate_all - exact) < 3 * res.stderr_all

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            cheat_experiment(BOB, config(), 0, seed=1)


class TestEavesdropping:
    def test_no_eve_never_detected(self):
        res = eavesdrop_experiment(EveModel("none"), config(), 20000, seed=6)
        assert res.violations == 0 and res.detection_rate == 0.0

    def test_conclusive_fraction(self):
        res = eavesdrop_experiment(EveModel("none"), config(), 20000, seed=7)
        frac = res.conclusive_rounds / res.n_rounds
        assert abs(frac - 0.5) < 3 * math.sqrt(0.25 / 20000)

    def test_z_intercept_half(self):
        eve = EveModel("intercept_resend_atom", basis="z", target=0)
        assert abs(exact_eve_detection_rate(eve) - 0.5) < 1e-12
        res = eavesdrop_experiment(eve, config(), 20000, seed=8)
        assert abs(res.detection_rate - 0.5) < 3 * res.stderr

    def test_x_intercept_quarter(self):
        eve = EveModel("intercept_resend_atom", basis="x", target=0)
        assert abs(exact_eve_detection_rate(eve) - 0.25) < 1e-12
        res = eavesdrop_experiment(eve, config(), 20000, seed=9)
        assert abs(res.detection_rate - 0.25) < 3 * res.stderr

    @pytest.mark.parametrize("n_parties", [2, 3, 4])
    def test_exact_rate_independent_of_target(self, n_parties):
        for basis, rate in (("z", 0.5), ("x", 0.25)):
            for target in range(n_parties):
                eve = EveModel("intercept_resend_atom", basis=basis, target=target)
                assert abs(exact_eve_detection_rate(eve, n_parties) - rate) < 1e-12
        assert exact_eve_detection_rate(EveModel("none"), n_parties) == 0.0

    def test_all_attacks_detectable(self):
        for eve in (
            EveModel("intercept_resend_atom", basis="z", target=0),
            EveModel("intercept_resend_atom", basis="x", target=1),
            EveModel("intercept_resend_photon"),
        ):
            res = eavesdrop_experiment(eve, config(k=0.2), 10000, seed=10)
            assert res.detection_rate is not None and res.detection_rate > 0.05

    def test_photon_attack_needs_click_decoding(self):
        with pytest.raises(ValueError, match="ideal_pnr"):
            eavesdrop_experiment(
                EveModel("intercept_resend_photon"), config(ideal_pnr=True), 10, seed=0
            )

    def test_photon_attack_is_a_tampered_encode_round(self):
        # the attack's rounds are the scalar encode rounds with the photon
        # number of cavity A measured before the window
        cfg = config(k=0.2, t_window=6.0, detector=P.DetectorModel(0.9, 0.02))
        mode_a = P.layout_for(cfg.n_parties, cfg.cutoff).mode_sites[0]
        conclusive = violations = 0
        for i in range(300):
            rng = P.round_rng(5, i)
            sent = (Message.X, Message.IY)[int(rng.integers(0, 2))]
            state = P.pipeline_state(cfg, sent)
            _, state = measure_site(state, mode_a, rng)
            window = P.simulate_window(state, cfg, rng)
            bits = P.sample_receiver_bits(window.state, rng)
            decoded = P.decode(cfg, window.record.counts(), bits)
            if decoded is not None:
                conclusive += 1
                violations += int(decoded != sent)
        res = eavesdrop_experiment(EveModel("intercept_resend_photon"), cfg, 300, seed=5)
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


class TestSummary:
    def test_summary_fields(self):
        out = S.security_summary(config(), 4000, seed=11)
        assert set(out) >= {
            "bob_alone",
            "charlie_alone",
            "collaboration",
            "composite_bob",
            "eve_detection_rate",
        }
        assert abs(out["composite_bob"] - (1.0 - out["charlie_alone"])) < 1e-12
