"""Property tests of the analytic outcome model over random configs: its
normalisation, the decode rules compiled from it, and the Monte-Carlo
guessing games that must converge to its optimal rates."""

import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

import scalar_oracle as O
from qdcsim import lockstep
from qdcsim import protocol as P
from qdcsim import security as S
from qdcsim.dynamics import PhysicalParams
from qdcsim.hilbert import MESSAGES, Message

configs = st.builds(
    lambda k, eta, p_dc, t_window, n_receivers: P.RoundConfig(
        params=PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=k),
        detector=P.DetectorModel(efficiency=eta, dark_prob=p_dc),
        t_window=t_window,
        n_receivers=n_receivers,
    ),
    k=st.sampled_from([0.0]) | st.floats(1e-3, 1.9),  # underdamped: k < 2 delta = 2
    eta=st.floats(0.0, 1.0),
    p_dc=st.floats(0.0, 0.5),
    t_window=st.floats(0.01, 20.0),
    n_receivers=st.sampled_from([2, 3]),
)


@settings(max_examples=25)
@given(configs)
def test_outcome_distribution_sums_to_one(config):
    for m in MESSAGES:
        dist = P.outcome_distribution(config, m)
        assert all(p >= 0.0 for p in dist.values())
        assert abs(math.fsum(dist.values()) - 1.0) <= 1e-12, m


@settings(max_examples=25)
@given(configs)
@example(  # exp(-2kT) underflows: no photon survives the window
    P.RoundConfig(params=PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=1.5), t_window=1e4,
                  detector=P.DetectorModel(efficiency=0.5, dark_prob=0.5)),
)
def test_outcome_law_equals_the_key_by_key_reference(config):
    # bit-equal at 2 receivers, where the plan's parity axis is the bit code;
    # from 3 on the plan sums parity classes where the reference sums codes,
    # which rounds differently, within 1e-15 of the unit mass (a lossless
    # window's transfer deficit, 0 up to rounding, included)
    for m in MESSAGES:
        want = {key: p for key, p in O.outcome_distribution(config, m).items() if p > 0.0}
        got = P.outcome_distribution(config, m)
        if config.n_receivers == 2:
            assert got == want, m
        else:
            assert max(abs(got.get(key, 0.0) - want.get(key, 0.0))
                       for key in got.keys() | want.keys()) <= 1e-15, m


@settings(max_examples=25)
@given(configs)
def test_ml_fallback_decodes_only_possible_keys(config):
    plan = P._plan(config)
    n_plus, n_minus, code = np.nonzero(plan.decoded != lockstep.ABORT)
    multi = n_plus + n_minus > 1
    decoded = plan.decoded[n_plus, n_minus, code][multi]
    assert (plan.outcomes[decoded, n_plus[multi], n_minus[multi], code[multi]] > 0.0).all()


def clear_compile_caches():
    P._plan.cache_clear()


@settings(max_examples=15)
@given(configs, st.booleans(), st.integers(-(2**63), 2**64 - 1), st.integers(-(2**63), 2**64 - 1))
def test_decode_table_does_not_depend_on_the_seed(config, pnr, seed_a, seed_b):
    built = []
    for seed in (seed_a, seed_b):
        clear_compile_caches()
        cfg = dataclasses.replace(config, ideal_pnr=pnr, seed=seed)
        plan = P._plan(cfg)
        decoded = plan.pnr_decoded if pnr else plan.decoded
        built.append((P.build_decode_table(cfg), decoded))
    (table_a, decoded_a), (table_b, decoded_b) = built
    assert table_a == table_b
    assert decoded_a.tolist() == decoded_b.tolist()


@settings(max_examples=25)
@given(
    configs,
    st.sampled_from(["bob_alone", "charlie_alone", "collaboration"]),
    st.sampled_from([MESSAGES, (Message.X, Message.IY), (Message.I, Message.X, Message.Z)]),
    st.integers(-(2**63), 2**64 - 1),
)
def test_cheat_rate_agrees_with_the_optimal_rate(config, view_name, messages, seed):
    # click decoding only: the posteriors come from the click model
    view = S.standard_views(config)[view_name]
    n = 3000
    rate = S.cheat_experiment(view, dataclasses.replace(config, seed=seed), n, messages).rate_all
    exact = S.optimal_guess_rate(view, config, messages)
    assert abs(rate - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / n) + 1e-12


def _model_gap(config, k, t_window):
    """Worst outcome-probability gap over all messages between the model at
    decay k and the k = 0 (ideal-extraction) model, at one window."""
    at = lambda kk: dataclasses.replace(  # noqa: E731
        config, params=PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=kk), t_window=t_window
    )
    gap = 0.0
    for m in MESSAGES:
        decayed, ideal = P.outcome_distribution(at(k), m), P.outcome_distribution(at(0.0), m)
        gap = max(gap, max(abs(decayed.get(key, 0.0) - ideal.get(key, 0.0))
                           for key in decayed.keys() | ideal.keys()))
    return gap


@settings(max_examples=10)
@given(configs, st.floats(20.0, 200.0))
@example(  # the benchmark batch detector: gaps 7.4e-3, 7.5e-5, 7.5e-7
    P.RoundConfig(params=PhysicalParams(g=1.0, Omega=1.0, Delta=1.0), t_window=6.0,
                  detector=P.DetectorModel(efficiency=0.9, dark_prob=0.02)),
    50.0,
)
def test_small_k_converges_to_the_ideal_extraction_limit(config, k_window):
    # k = 0 is the k -> 0 limit with k * t_window held large, where every
    # photon leaves within the window; the gap is O(k), through beta(t*)
    gaps = [_model_gap(config, k, k_window / k) for k in (1e-2, 1e-4, 1e-6)]
    assert gaps[0] >= 50.0 * gaps[1] and gaps[1] >= 50.0 * gaps[2], gaps
    assert gaps[2] < 1e-5, gaps
