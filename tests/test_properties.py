"""Property tests of the analytic outcome model over random configs."""

import math

from hypothesis import given, settings, strategies as st

from qdcsim import protocol as P
from qdcsim.dynamics import PhysicalParams
from qdcsim.hilbert import MESSAGES

configs = st.builds(
    lambda k, eta, p_dc, t_window, n_receivers, cutoff: P.RoundConfig(
        params=PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=k),
        detector=P.DetectorModel(efficiency=eta, dark_prob=p_dc),
        t_window=t_window,
        n_receivers=n_receivers,
        cutoff=cutoff,
    ),
    k=st.sampled_from([0.0]) | st.floats(1e-3, 1.9),  # underdamped: k < 2 delta = 2
    eta=st.floats(0.0, 1.0),
    p_dc=st.floats(0.0, 0.5),
    t_window=st.floats(0.01, 20.0),
    n_receivers=st.sampled_from([2, 3]),
    cutoff=st.sampled_from([1, 2]),
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
def test_ml_fallback_decodes_only_possible_keys(config):
    dists = {m: P.outcome_distribution(config, m) for m in MESSAGES}
    for key, decoded in P._ml_lookup(config).items():
        if decoded is not None:
            assert dists[decoded].get(key, 0.0) > 0.0, key
