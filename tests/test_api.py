"""The public export list of ``qdcsim`` and the kinds of its records."""

import qdcsim


def test_every_export_resolves():
    assert len(set(qdcsim.__all__)) == len(qdcsim.__all__)
    for name in qdcsim.__all__:
        assert getattr(qdcsim, name) is not None, name


def test_rk4_propagator_is_not_exported():
    # the transfer runs in closed form; the RK4 integrator is a test oracle
    assert "evolve_conditional" not in qdcsim.__all__
    assert not hasattr(qdcsim.dynamics, "evolve_conditional")


def test_one_row_generator_path_is_gone():
    # every round runs in the block engine: a one-round batch is `qdcsim run`
    from qdcsim import lockstep, protocol

    for name in ("run_round", "simulate_window", "RoundOutcome", "DetectionRecord",
                 "WindowResult", "round_rng"):
        assert name not in qdcsim.__all__, name
        assert not hasattr(protocol, name), name
    for name in ("_GeneratorRows", "_round_outcomes", "_records"):
        assert not hasattr(protocol, name), name
    assert not hasattr(lockstep.JumpTables, "state")


def test_dense_state_space_is_a_test_oracle():
    # plans compile in the photon-sector basis; the dense tensor-product
    # layer and the pipeline built on it are the reference under tests/
    from qdcsim import hilbert, protocol

    gone = {
        hilbert: ("SiteSpec", "StateVector", "SystemLayout", "basis_state", "pauli_encode",
                  "apply_site_operator", "site_measurement"),
        protocol: ("map_to_cavities", "prepare_ghz", "receiver_rotation", "layout_for",
                   "pipeline_state", "_layout_info", "_sectors", "UnexpectedPhotonSupport"),
    }
    for module, names in gone.items():
        for name in names:
            assert name not in qdcsim.__all__ and not hasattr(module, name), name


def test_only_the_config_schema_and_security_inputs_are_dataclasses():
    # the CLI reflects over the config schema and the security inputs check
    # what a caller passes; every other record is a NamedTuple or a plain
    # class, as a dataclass's generated methods cost start-up time
    import dataclasses
    import importlib
    import pkgutil

    found = set()
    for info in pkgutil.iter_modules(qdcsim.__path__):
        module = importlib.import_module(f"qdcsim.{info.name}")
        found |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == module.__name__}
    assert found == {
        "dynamics.PhysicalParams", "protocol.DetectorModel", "protocol.RoundConfig",
        "feasibility.HardwareConstants",
        "security.ViewSpec", "security.Observation", "security.EveModel",
    }
    assert "wall_time_s" not in qdcsim.protocol.BatchStats._fields
