"""The public export list of ``qdcsim``."""

import qdcsim


def test_every_export_resolves():
    assert len(set(qdcsim.__all__)) == len(qdcsim.__all__)
    for name in qdcsim.__all__:
        assert getattr(qdcsim, name) is not None, name


def test_rk4_propagator_is_not_exported():
    # the transfer runs in closed form; the RK4 integrator is a test oracle
    assert "evolve_conditional" not in qdcsim.__all__
    assert not hasattr(qdcsim.dynamics, "evolve_conditional")
