import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_oracle as O

from dense import SystemLayout, atom_site, basis_state, mode_site, norm_sq
from qdcsim.dynamics import PhysicalParams, alpha_beta, transfer_time


def params(delta=1.0, k=0.2):
    # g = Omega = 1, Delta = 1/delta gives delta_eff = delta exactly
    return PhysicalParams(g=1.0, Omega=1.0, Delta=1.0 / delta, k=k)


def pair_layout(cutoff=1):
    return SystemLayout((atom_site(), mode_site(cutoff)))


def rk4_pair_oracle(delta, k, t, n_steps=8000):
    """Independent two-amplitude integrator of d(c_e)/dt = delta*c_g,
    d(c_g)/dt = -delta*c_e - k*c_g from (1, 0)."""
    ce, cg = 1.0, 0.0
    h = t / n_steps

    def f(a, b):
        return delta * b, -delta * a - k * b

    for _ in range(n_steps):
        k1a, k1b = f(ce, cg)
        k2a, k2b = f(ce + 0.5 * h * k1a, cg + 0.5 * h * k1b)
        k3a, k3b = f(ce + 0.5 * h * k2a, cg + 0.5 * h * k2b)
        k4a, k4b = f(ce + h * k3a, cg + h * k3b)
        ce += (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        cg += (h / 6.0) * (k1b + 2 * k2b + 2 * k3b + k4b)
    return ce, cg


class TestParams:
    def test_derived_quantities(self):
        p = PhysicalParams(g=2.0, Omega=3.0, Delta=4.0, k=0.5)
        assert p.delta_eff == 1.5
        assert abs(p.omega_k - math.sqrt(9 - 0.25)) < 1e-15

    def test_rejects_overdamped(self):
        with pytest.raises(ValueError):
            PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PhysicalParams(g=0.0, Omega=1.0, Delta=1.0)
        with pytest.raises(ValueError):
            PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=-0.1)

    def test_rejects_infinite_gamma(self):
        # the feasibility report writes gamma; inf is not standard JSON
        with pytest.raises(ValueError, match="gamma must be finite"):
            PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, gamma=math.inf)

    @pytest.mark.parametrize("g, omega, delta, k", [
        (1e300, 1.0, 1.0, 0.2),  # delta^2 overflows
        (1e200, 1e200, 1.0, 0.2),  # delta itself overflows
        (1.0, 1.0, 1e-300, 0.0),
        (1e-300, 1.0, 1.0, 0.0),  # 4 delta^2 underflows to 0: Omega_k = 0
    ])
    def test_rejects_rates_out_of_range(self, g, omega, delta, k):
        with pytest.raises(ValueError, match="Omega_k = sqrt"):
            PhysicalParams(g=g, Omega=omega, Delta=delta, k=k)

    @pytest.mark.parametrize("g, k", [(1e150, 0.2), (5e-155, 0.0)])
    def test_extreme_rates_in_range(self, g, k):
        p = PhysicalParams(g=g, Omega=1.0, Delta=1.0, k=k)
        assert 0.0 < transfer_time(p) < math.inf


class TestHamiltonianApply:
    def test_dark_state(self):
        p = params()
        out = O.effective_hamiltonian_apply(basis_state(pair_layout(), (0, 0)), 0, 1, p)
        np.testing.assert_array_equal(out.amplitudes, np.zeros(4))

    def test_excited_atom_vacuum(self):
        p = params()
        out = O.effective_hamiltonian_apply(basis_state(pair_layout(), (1, 0)), 0, 1, p)
        expected = np.zeros(4, dtype=complex)
        expected[pair_layout().index_of((0, 1))] = -1j * p.delta_eff
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_ground_atom_one_photon(self):
        p = params()
        lay = pair_layout()
        out = O.effective_hamiltonian_apply(basis_state(lay, (0, 1)), 0, 1, p)
        expected = np.zeros(4, dtype=complex)
        expected[lay.index_of((1, 0))] = 1j * p.delta_eff
        expected[lay.index_of((0, 1))] = -1j * p.k
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)

    def test_truncation_overflow(self):
        p = params()
        with pytest.raises(O.TruncationOverflow):
            O.effective_hamiltonian_apply(basis_state(pair_layout(), (1, 1)), 0, 1, p)


class TestAlphaBeta:
    def test_identity_at_zero(self):
        assert alpha_beta(params(), 0.0) == (1.0, 0.0)

    def test_lossless_full_transfer(self):
        p = params(delta=1.0, k=0.0)
        a, b = alpha_beta(p, math.pi / 2)
        assert abs(a) < 1e-15 and abs(b + 1.0) < 1e-15

    def test_against_ode_oracle(self):
        a, b = alpha_beta(params(1.0, 0.2), 1.0)
        oa, ob = rk4_pair_oracle(1.0, 0.2, 1.0)
        assert abs(a - oa) < 1e-10 and abs(b - ob) < 1e-10
        # frozen from the oracle
        assert abs(a - 0.568972) < 1e-5
        assert abs(b + 0.762758) < 1e-5

    def test_oracle_grid(self):
        for delta in (0.5, 1.0, 2.0):
            for k in (0.0, 0.1, 0.5):
                p = params(delta, k)
                for t in np.linspace(0.1, 4 * math.pi / p.omega_k, 7):
                    a, b = alpha_beta(p, t)
                    oa, ob = rk4_pair_oracle(delta, k, float(t), n_steps=4000)
                    assert abs(a - oa) < 1e-8 and abs(b - ob) < 1e-8

    def test_probability_conservation_lossless(self):
        p = params(1.3, 0.0)
        for t in np.linspace(0.0, 10.0, 23):
            a, b = alpha_beta(p, float(t))
            assert abs(a * a + b * b - 1.0) < 1e-10


class TestEvolveConditional:
    def test_dark_state_fixed(self):
        p = params()
        st = basis_state(pair_layout(), (0, 0))
        out = O.evolve_conditional(st, [(0, 1)], p, 2.0)
        np.testing.assert_allclose(out.amplitudes, st.amplitudes, atol=1e-14)

    def test_matches_alpha_beta(self):
        p = params(1.0, 0.2)
        lay = pair_layout()
        out = O.evolve_conditional(basis_state(lay, (1, 0)), [(0, 1)], p, 1.0)
        a, b = alpha_beta(p, 1.0)
        assert abs(out.amplitudes[lay.index_of((1, 0))] - a) < 1e-9
        assert abs(out.amplitudes[lay.index_of((0, 1))] - b) < 1e-9

    def test_norm_decay_law(self):
        # d(norm^2)/dt = -2k <n> along the no-jump trajectory
        p = params(1.0, 0.3)
        lay = pair_layout()
        st = basis_state(lay, (1, 0))
        dt = 1e-4
        state = O.evolve_conditional(st, [(0, 1)], p, 0.7)
        plus = O.evolve_conditional(state, [(0, 1)], p, dt, dt=dt / 200)
        minus_base = O.evolve_conditional(st, [(0, 1)], p, 0.7 - dt)
        photon = abs(state.amplitudes[lay.index_of((0, 1))]) ** 2
        lhs = (norm_sq(plus) - norm_sq(minus_base)) / (2 * dt)
        assert abs(lhs + 2 * p.k * photon) < 1e-6

    def test_disjoint_pairs_factorize(self):
        p = params(1.0, 0.2)
        lay = SystemLayout((atom_site(), atom_site(), mode_site(1), mode_site(1)))
        st = basis_state(lay, (1, 1, 0, 0))
        both = O.evolve_conditional(st, [(0, 2), (1, 3)], p, 1.2)
        seq = O.evolve_conditional(
            O.evolve_conditional(st, [(0, 2)], p, 1.2), [(1, 3)], p, 1.2
        )
        np.testing.assert_allclose(both.amplitudes, seq.amplitudes, atol=1e-8)

    def test_rejects_coarse_dt(self):
        p = params()
        with pytest.raises(ValueError):
            O.evolve_conditional(basis_state(pair_layout(), (1, 0)), [(0, 1)], p, 1.0, dt=0.5)


class TestTrajectoryDump:
    def test_time_column_prepended(self):
        p = params()
        st = basis_state(pair_layout(), (1, 0))
        evolved = O.evolve_conditional(st, [(0, 1)], p, 0.5)
        text = O.dump_trajectory([(0.0, st), (0.5, evolved)])
        lines = text.splitlines()
        assert lines[0] == "0.0\t2\t1,0\t1.0\t0.0"
        assert all(len(line.split("\t")) == 5 for line in lines)


class TestTransferTime:
    def test_lossless_limit(self):
        p = params(1.0, 0.0)
        assert abs(transfer_time(p) - math.pi / 2) < 1e-12

    def test_reference_root(self):
        p = params(1.0, 0.2)
        t_star = transfer_time(p)
        assert abs(t_star - 1.67938) < 1e-5
        closed = 2 * (math.pi - math.atan(p.omega_k / p.k)) / p.omega_k
        assert abs(t_star - closed) < 1e-12
        assert abs(alpha_beta(p, t_star)[0]) < 1e-10

    def test_near_critical(self):
        p = params(1.0, 1.9)
        t_star = transfer_time(p)
        a, b = alpha_beta(p, t_star)
        assert t_star > 0 and abs(a) < 1e-10
        assert abs(abs(b) - math.exp(-0.5 * p.k * t_star)) < 1e-10

    @settings(max_examples=200)
    @given(st.floats(-3.0, 3.0), st.just(0.0) | st.floats(0.0, 0.99))
    def test_closed_form_is_the_first_zero(self, log_delta, damping):
        # k = damping * 2 delta: from no loss to near critical damping
        delta = 10.0 ** log_delta
        p = params(delta, damping * 2.0 * delta)
        t_star = transfer_time(p)
        grid = np.linspace(0.0, t_star * (1.0 - 1e-9), 1001)[1:]
        assert all(alpha_beta(p, t)[0] > 0.0 for t in grid)
        assert alpha_beta(p, t_star * (1.0 + 1e-6))[0] < 0.0
        reference = O.bisect_transfer_time(p)
        assert abs(t_star - reference) <= 4 * math.ulp(reference)

    def test_random_underdamped_sets(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            delta = 10 ** rng.uniform(-0.7, 0.7)
            k = rng.uniform(0.0, 1.9 * delta)
            p = params(delta, k)
            t_star = transfer_time(p)
            a, b = alpha_beta(p, t_star)
            assert abs(a) < 1e-10
            assert abs(abs(b) - math.exp(-0.5 * k * t_star)) < 1e-10
