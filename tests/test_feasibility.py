import math

import pytest

from qdcsim.dynamics import PhysicalParams
from qdcsim import feasibility as F
from qdcsim import protocol as P


class TestRegimeReport:
    def test_quoted_constant_set_passes(self):
        rows = F.regime_report(F.paper_params())
        by_name = {r.name: r for r in rows}
        assert by_name["Omega*g/Delta^2"].value == pytest.approx(0.01, abs=1e-15)
        assert by_name["Omega*g/Delta^2"].passed
        assert by_name["Delta/gamma"].value == pytest.approx(3.0e6, rel=1e-9)
        assert by_name["Delta/gamma"].passed
        assert by_name["Omega_k/k"].value == pytest.approx(6000.0, rel=1e-4)
        assert by_name["Omega_k/k"].passed

    def test_degraded_detuning_fails(self):
        p = PhysicalParams(g=10e6, Omega=10e6, Delta=1e6, k=333.33, gamma=33.3)
        rows = {r.name: r for r in F.regime_report(p)}
        assert not rows["Omega*g/Delta^2"].passed

    def test_degraded_cavity_fails(self):
        # k large enough that Omega_k/k drops below the >> threshold
        p = PhysicalParams(g=10e6, Omega=10e6, Delta=100e6, k=1.5e5, gamma=33.3)
        rows = {r.name: r for r in F.regime_report(p)}
        assert not rows["Omega_k/k"].passed

    def test_degraded_radiative_time_fails(self):
        p = PhysicalParams(g=10e6, Omega=10e6, Delta=100e6, k=333.33, gamma=1e7)
        rows = {r.name: r for r in F.regime_report(p)}
        assert not rows["Delta/gamma"].passed

    def test_zero_gamma_passes_vacuously(self):
        p = PhysicalParams(g=10e6, Omega=10e6, Delta=100e6, k=333.33, gamma=0.0)
        rows = {r.name: r for r in F.regime_report(p)}
        assert rows["Delta/gamma"].passed and math.isinf(rows["Delta/gamma"].value)


class TestTimescaleReport:
    def test_quoted_durations(self):
        rep = F.timescale_report(F.paper_params())
        by_name = {r.name: r for r in rep.rows}
        assert by_name["t1+t2 < T_d"].total == pytest.approx(1.5e-4, rel=1e-12)
        assert all(r.passed for r in rep.rows)

    def test_transfer_time_recomputed_and_flagged(self):
        rep = F.timescale_report(F.paper_params())
        # tan(W t/2) = -W/k root at the quoted couplings is ~pi/Omega_k
        assert rep.computed_transfer_time == pytest.approx(math.pi / 2e6, rel=1e-3)
        assert rep.t1_discrepancy_flagged

    def test_consistent_constants_not_flagged(self):
        p = F.paper_params()
        c = F.HardwareConstants(t1=F.timescale_report(p).computed_transfer_time)
        assert not F.timescale_report(p, c).t1_discrepancy_flagged

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            F.HardwareConstants(t_d=0.0)
        with pytest.raises(ValueError, match="t1 \\+ t2 = inf must be finite"):
            F.HardwareConstants(t1=1e308, t2=1e308)
        with pytest.raises(ValueError, match="gamma must be finite"):
            F.paper_params(F.HardwareConstants(t_r=5e-324))


class TestDarkCountSweep:
    def test_fidelity_drop_band(self):
        params = PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=0.2)
        cfg = P.RoundConfig(params=params, t_window=0.5, seed=2)
        rows, in_band = F.dark_count_fidelity_sweep(
            cfg, dark_probs=(0.0, 0.01, 0.05), n_rounds=4000
        )
        assert rows[0].fidelity == 1.0  # no dark counts, no wrong decodes
        drops = [r.fidelity_drop for r in rows]
        assert drops == sorted(drops)  # more darks, more corruption
        for p_dc in in_band:
            row = next(r for r in rows if r.dark_prob == p_dc)
            assert 0.05 <= row.fidelity_drop <= 0.10


class TestRendering:
    def test_text_report(self):
        text = F.report_text(F.paper_params())
        assert "regime checks:" in text and "pass" in text
        assert "WARNING" in text  # t1 gap flagged

    def test_json_report(self):
        doc = F.report_json(F.paper_params())
        assert doc["t1_discrepancy_flagged"] is True
        assert all(row["passed"] for row in doc["regime"])
        assert all(row["passed"] for row in doc["timescales"])
