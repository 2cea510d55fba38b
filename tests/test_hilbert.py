import math

import numpy as np
import pytest

import scalar_oracle as O
from dense import (
    DimensionMismatch,
    NotAnAtomSite,
    OutOfRangeOccupation,
    StateVector,
    SystemLayout,
    apply_site_operator,
    atom_site,
    basis_state,
    mode_site,
    norm_sq,
    pauli_encode,
    site_view,
)
from qdcsim.hilbert import Message


def layout_atoms_modes(n_atoms, n_modes=0, cutoff=1):
    return SystemLayout(tuple([atom_site()] * n_atoms + [mode_site(cutoff)] * n_modes))


def ghz3():
    lay = layout_atoms_modes(3)
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1 / math.sqrt(2)
    return StateVector(lay, amps)


class TestLayout:
    def test_dimension_examples(self):
        assert layout_atoms_modes(3, 2, 1).dim == 32
        assert layout_atoms_modes(1).dim == 2
        assert layout_atoms_modes(4, 2, 2).dim == 144

    def test_indexing_convention(self):
        lay = SystemLayout((atom_site(), mode_site(1)))
        assert lay.index_of((1, 1)) == 3  # e carries the larger stride
        lay3 = layout_atoms_modes(3)
        assert lay3.index_of((1, 1, 1)) == 7

    def test_roundtrip_exhaustive(self):
        for lay in [
            layout_atoms_modes(3, 2, 1),
            layout_atoms_modes(2, 2, 2),
            layout_atoms_modes(1, 1, 3),
        ]:
            for idx in range(lay.dim):
                assert lay.index_of(lay.occupations_of(idx)) == idx

    def test_occupation_table_matches_occupations_of(self):
        lay = layout_atoms_modes(2, 2, 2)
        table = lay.occupations
        assert table.shape == (lay.dim, 4)
        assert not table.flags.writeable
        for idx in range(lay.dim):
            assert tuple(table[idx]) == lay.occupations_of(idx)

    def test_out_of_range(self):
        lay = layout_atoms_modes(1, 1, 1)
        with pytest.raises(OutOfRangeOccupation):
            basis_state(lay, (2, 0))
        with pytest.raises(OutOfRangeOccupation):
            basis_state(lay, (0, 2))

    def test_mode_cutoff_validation(self):
        with pytest.raises(ValueError):
            mode_site(0)


class TestBasisState:
    def test_single_atom_ground(self):
        st = basis_state(layout_atoms_modes(1), (0,))
        assert st.amplitudes[0] == 1.0 and norm_sq(st) == 1.0

    def test_atom_mode_index(self):
        st = basis_state(SystemLayout((atom_site(), mode_site(1))), (1, 1))
        assert st.amplitudes[3] == 1.0

    def test_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            basis_state(layout_atoms_modes(2), (0,))


class TestSiteOperators:
    def test_identity_leaves_state(self):
        st = ghz3()
        out = apply_site_operator(st, 1, np.eye(2))
        np.testing.assert_array_equal(out.amplitudes, st.amplitudes)

    def test_value_semantics(self):
        st = ghz3()
        before = st.amplitudes.copy()
        pauli_encode(st, 0, Message.X)
        np.testing.assert_array_equal(st.amplitudes, before)

    def test_annihilation_on_one_photon(self):
        lay = SystemLayout((mode_site(1),))
        st = O.apply_annihilation(basis_state(lay, (1,)), 0)
        np.testing.assert_allclose(st.amplitudes, [1.0, 0.0])

    def test_creation_overflow(self):
        # the truncated a^dag drops the top level; the weight it drops is
        # what the oracle's overflow check reports
        lay = SystemLayout((atom_site(), mode_site(1)))
        amps = np.array([0.6, 0.0, 0.0, 0.8j])  # 0.6|g,0> + 0.8i|e,1>
        st = apply_site_operator(StateVector(lay, amps), 1, O.creation_matrix(2))
        np.testing.assert_allclose(st.amplitudes, [0.0, 0.6, 0.0, 0.0])
        assert abs(O._overflow_weight(StateVector(lay, amps), 0, 1) - 0.64) < 1e-15

    def test_creation_within_cutoff(self):
        lay = SystemLayout((mode_site(2),))
        st = apply_site_operator(basis_state(lay, (1,)), 0, O.creation_matrix(3))
        np.testing.assert_allclose(st.amplitudes, [0.0, 0.0, math.sqrt(2)])

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_truncated_commutator(self, dim):
        # [a, a^dag] = 1 below the cutoff and 1 - dim on the top level
        a, ad = O.annihilation_matrix(dim), O.creation_matrix(dim)
        want = np.diag([1.0] * (dim - 1) + [1.0 - dim])
        np.testing.assert_allclose(a @ ad - ad @ a, want, atol=1e-14)

    def test_dimension_mismatch(self):
        st = ghz3()
        with pytest.raises(DimensionMismatch):
            apply_site_operator(st, 0, np.eye(3))
        with pytest.raises(DimensionMismatch):
            apply_site_operator(st, 9, np.eye(2))

    def test_site_view_axis_is_the_site(self):
        lay = layout_atoms_modes(2, 1, 2)
        st = basis_state(lay, (1, 0, 2))
        for site, occ in enumerate((1, 0, 2)):
            view = site_view(st, site)
            assert view.shape[1] == lay.dims[site]
            assert np.sum(np.abs(view[:, occ, :]) ** 2) == 1.0
        with pytest.raises(DimensionMismatch):
            site_view(st, 3)

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(7)
        lay = layout_atoms_modes(2, 1, 2)
        amps = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
        amps /= np.linalg.norm(amps)
        st = StateVector(lay, amps)
        theta = 0.37
        u = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        out = apply_site_operator(st, 0, u)
        assert abs(norm_sq(out) - 1.0) < 1e-12

    def test_disjoint_sites_commute(self):
        rng = np.random.default_rng(11)
        lay = layout_atoms_modes(2, 2, 1)
        amps = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
        st = StateVector(lay, amps / np.linalg.norm(amps))
        m1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ab = apply_site_operator(apply_site_operator(st, 0, m1), 3, m2)
        ba = apply_site_operator(apply_site_operator(st, 3, m2), 0, m1)
        np.testing.assert_allclose(ab.amplitudes, ba.amplitudes, atol=1e-12)


class TestPauliEncoding:
    def amp(self, st, occ):
        return st.amplitudes[st.layout.index_of(occ)]

    def test_identity_on_ghz(self):
        out = pauli_encode(ghz3(), 0, Message.I)
        assert abs(self.amp(out, (1, 1, 1)) - 1 / math.sqrt(2)) < 1e-15
        assert abs(self.amp(out, (0, 0, 0)) - 1 / math.sqrt(2)) < 1e-15

    def test_x_on_ghz(self):
        out = pauli_encode(ghz3(), 0, Message.X)
        assert abs(self.amp(out, (0, 1, 1)) - 1 / math.sqrt(2)) < 1e-15
        assert abs(self.amp(out, (1, 0, 0)) - 1 / math.sqrt(2)) < 1e-15

    def test_iy_on_ghz(self):
        out = pauli_encode(ghz3(), 0, Message.IY)
        assert abs(self.amp(out, (0, 1, 1)) - 1 / math.sqrt(2)) < 1e-15
        assert abs(self.amp(out, (1, 0, 0)) + 1 / math.sqrt(2)) < 1e-15

    def test_z_on_ghz(self):
        out = pauli_encode(ghz3(), 0, Message.Z)
        assert abs(self.amp(out, (1, 1, 1)) - 1 / math.sqrt(2)) < 1e-15
        assert abs(self.amp(out, (0, 0, 0)) + 1 / math.sqrt(2)) < 1e-15

    def test_involutions_exact(self):
        st = ghz3()
        for m in (Message.X, Message.Z):
            twice = pauli_encode(pauli_encode(st, 0, m), 0, m)
            np.testing.assert_array_equal(twice.amplitudes, st.amplitudes)
        twice = pauli_encode(pauli_encode(st, 0, Message.IY), 0, Message.IY)
        np.testing.assert_array_equal(twice.amplitudes, -st.amplitudes)

    def test_not_an_atom(self):
        lay = SystemLayout((atom_site(), mode_site(1)))
        with pytest.raises(NotAnAtomSite):
            pauli_encode(basis_state(lay, (0, 0)), 1, Message.X)


class TestInnerProduct:
    def test_basis_state_normalized(self):
        assert norm_sq(basis_state(layout_atoms_modes(2), (0, 1))) == 1.0

    def test_ghz_normalized(self):
        assert abs(norm_sq(ghz3()) - 1.0) < 1e-15

    def test_orthogonal_bell_like(self):
        lay = SystemLayout((mode_site(1), mode_site(1)))
        plus = StateVector(lay, np.array([0, 1, 1, 0]) / math.sqrt(2))
        minus = StateVector(lay, np.array([0, 1, -1, 0]) / math.sqrt(2))
        assert abs(np.vdot(plus.amplitudes, minus.amplitudes)) < 1e-15

    def test_layout_mismatch(self):
        # a state's amplitudes do not fit another layout
        with pytest.raises(DimensionMismatch):
            StateVector(layout_atoms_modes(1), ghz3().amplitudes)


class TestStateVector:
    def test_rejects_nan(self):
        lay = layout_atoms_modes(1)
        with pytest.raises(ValueError):
            StateVector(lay, np.array([np.nan, 0.0]))


class TestDump:
    def test_format_and_floor(self):
        lay = SystemLayout((atom_site(), mode_site(1)))
        amps = np.zeros(4, dtype=complex)
        amps[0] = 0.5
        amps[3] = -0.5j
        amps[1] = 1e-15  # below the dump floor
        text = O.dump_state(StateVector(lay, amps))
        lines = text.splitlines()
        assert lines == ["0\t0,0\t0.5\t0.0", "3\t1,1\t-0.0\t-0.5"]


class TestMeasureSite:
    class FixedDraw:
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    def test_outcome_follows_cumulative_weight(self):
        # subnormalized mode state with weights 0.1, 0.2, 0.1 on |0>, |1>, |2>
        lay = layout_atoms_modes(0, 1, 2)
        st = StateVector(lay, np.sqrt([0.1, 0.2, 0.1]).astype(complex))
        for u, expected in ((0.0, 0), (0.24, 0), (0.26, 1), (0.74, 1), (0.76, 2), (0.999, 2)):
            outcome, collapsed = O.measure_site(st, 0, self.FixedDraw(u))
            assert outcome == expected
            np.testing.assert_allclose(collapsed.amplitudes, np.eye(3)[expected], atol=1e-15)

    def test_collapses_only_the_measured_site(self):
        st = ghz3()
        outcome, collapsed = O.measure_site(st, 1, np.random.default_rng(3))
        assert abs(norm_sq(collapsed) - 1.0) < 1e-15
        assert abs(collapsed.amplitudes[7 * outcome]) == 1.0
