"""The dense state space, the reference of the closed-form pipeline: a
tensor product of two-level atoms (basis ``[g, e]``, ``g=0``) and cavity
modes truncated at ``c`` photons (basis ``|0>..|c>``), indexed row-major
with site 0 most significant; single-site operators and measurements; and
the protocol's pipeline built on it step by step at any mode cutoff
(:func:`pipeline_state`).  :func:`sectors` reads a dense state in the
photon-sector basis of the compiled plan (``protocol._pipeline_sectors``).

Every operation returns a new ``StateVector``.  Subnormalized vectors are
legal: a conditional no-jump branch's squared norm is the probability of
its conditioning event.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from qdcsim.dynamics import alpha_beta
from qdcsim.hilbert import Message
from qdcsim.protocol import RoundConfig, resolve_t_map

G, E = 0, 1  # atom basis labels


class HilbertError(Exception):
    """Base class for state-space errors."""


class OutOfRangeOccupation(HilbertError):
    pass


class DimensionMismatch(HilbertError):
    pass


class NotAnAtomSite(HilbertError):
    pass


class SiteKind(enum.Enum):
    ATOM = "atom"
    CAVITY_MODE = "cavity_mode"


@dataclass(frozen=True)
class SiteSpec:
    """One tensor factor: a two-level atom or a photon-number-truncated mode."""

    kind: SiteKind
    cutoff: int = 1

    def __post_init__(self):
        if self.kind is SiteKind.CAVITY_MODE and self.cutoff < 1:
            raise ValueError("cavity mode cutoff must be >= 1")

    @property
    def dim(self) -> int:
        return 2 if self.kind is SiteKind.ATOM else self.cutoff + 1


def atom_site() -> SiteSpec:
    return SiteSpec(SiteKind.ATOM)


def mode_site(cutoff: int = 1) -> SiteSpec:
    return SiteSpec(SiteKind.CAVITY_MODE, cutoff)


@dataclass(frozen=True)
class SystemLayout:
    """Ordered list of sites.

    Protocol layouts put atom sites first in party order (Alice = site 0,
    Bob = site 1, further receivers next), then cavity A, then cavity B.
    """

    sites: tuple[SiteSpec, ...]

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.sites)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        """Site j's stride: the product of the dims of the sites after it."""
        return tuple(math.prod(self.dims[j + 1:]) for j in range(len(self.dims)))

    @cached_property
    def dim(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64))

    @cached_property
    def atom_sites(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sites) if s.kind is SiteKind.ATOM)

    @cached_property
    def mode_sites(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sites) if s.kind is SiteKind.CAVITY_MODE)

    @cached_property
    def occupations(self) -> np.ndarray:
        """Read-only (dim x sites) table; row ``index`` is ``occupations_of(index)``."""
        index = np.arange(self.dim, dtype=np.int64)[:, None]
        table = index // np.array(self.strides) % np.array(self.dims)
        table.flags.writeable = False
        return table

    def index_of(self, occupations: Sequence[int]) -> int:
        if len(occupations) != len(self.sites):
            raise DimensionMismatch(
                f"expected {len(self.sites)} occupations, got {len(occupations)}"
            )
        idx = 0
        for occ, d, stride in zip(occupations, self.dims, self.strides):
            if not 0 <= occ < d:
                raise OutOfRangeOccupation(f"occupation {occ} out of range for dim {d}")
            idx += occ * stride
        return idx

    def occupations_of(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.dim:
            raise OutOfRangeOccupation(f"index {index} out of range for dim {self.dim}")
        return tuple(index // stride % d for stride, d in zip(self.strides, self.dims))

    def site_kind(self, site: int) -> SiteKind:
        return self.sites[site].kind


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector over a layout's basis.

    Amplitudes must be finite.  The constructor does not bound the norm,
    so that operator images like ``H|psi>`` remain representable.
    """

    layout: SystemLayout
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.layout.dim,):
            raise DimensionMismatch(
                f"amplitude vector of length {amps.shape} does not match layout dim {self.layout.dim}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)


def basis_state(layout: SystemLayout, occupations: Sequence[int]) -> StateVector:
    """Unit vector on one occupation tuple."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index_of(occupations)] = 1.0
    return StateVector(layout, amps)


def norm_sq(state: StateVector) -> float:
    return float(np.real(np.vdot(state.amplitudes, state.amplitudes)))


def site_view(state: StateVector, site: int) -> np.ndarray:
    """The amplitudes as a (left, site dim, right) array, so that axis 1
    runs over the occupations of ``site``."""
    layout = state.layout
    if not 0 <= site < len(layout.dims):
        raise DimensionMismatch(f"site {site} out of range")
    right = layout.strides[site]
    d = layout.dims[site]
    return state.amplitudes.reshape(layout.dim // (d * right), d, right)


def apply_site_operator(state: StateVector, site: int, matrix: np.ndarray) -> StateVector:
    """Apply a single-site operator: ``(I x ... x M x ... x I)|state>``."""
    a = site_view(state, site)
    m = np.asarray(matrix, dtype=np.complex128)
    d = a.shape[1]
    if m.shape != (d, d):
        raise DimensionMismatch(f"matrix shape {m.shape} does not match site dim {d}")
    out = np.einsum("ij,ljr->lir", m, a)
    return StateVector(state.layout, out.reshape(-1))


def site_measurement(
    state: StateVector, site: int
) -> tuple[np.ndarray, Callable[[int], StateVector]]:
    """A computational-basis measurement of one site, undrawn: the outcome
    weights and the map from an outcome to the collapsed renormalized state."""
    a = site_view(state, site)
    probs = np.sum(np.abs(a) ** 2, axis=(0, 2))

    def collapse(outcome: int) -> StateVector:
        collapsed = np.zeros_like(a)
        collapsed[:, outcome, :] = a[:, outcome, :] / math.sqrt(probs[outcome])
        return StateVector(state.layout, collapsed.reshape(-1))

    return probs, collapse


# Encoding matrices in the [g, e] basis. X swaps g<->e; Z flips the sign
# of g; iY is the composition flip-then-sign, fixed so that applying it to
# the GHZ state yields (|gee>-|egg>)/sqrt(2) with a leading plus sign.
_PAULI = {
    Message.I: np.eye(2, dtype=np.complex128),
    Message.X: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    Message.Z: np.array([[-1, 0], [0, 1]], dtype=np.complex128),
    Message.IY: np.array([[0, 1], [-1, 0]], dtype=np.complex128),
}


def pauli_encode(state: StateVector, atom_site: int, message: Message) -> StateVector:
    """Apply the 2-bit encoding operation to one atom."""
    if state.layout.site_kind(atom_site) is not SiteKind.ATOM:
        raise NotAnAtomSite(f"site {atom_site} is not an atom")
    return apply_site_operator(state, atom_site, _PAULI[message])


# ---------------------------------------------------------------------------
# the protocol's pipeline on the dense layout


def layout_for(n_parties: int, cutoff: int = 1) -> SystemLayout:
    """Atoms in party order (Alice, Bob, further receivers), then cavities A, B."""
    sites = tuple([atom_site()] * n_parties) + (mode_site(cutoff), mode_site(cutoff))
    return SystemLayout(sites)


def prepare_ghz(n_parties: int, cutoff: int = 1) -> StateVector:
    """(|e..e> + |g..g>)/sqrt(2) on the atoms, cavities in vacuum."""
    if n_parties < 2:
        raise ValueError("n_parties must be >= 2")
    layout = layout_for(n_parties, cutoff)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index_of((E,) * n_parties + (0, 0))] = 1.0 / math.sqrt(2.0)
    amps[layout.index_of((G,) * n_parties + (0, 0))] = 1.0 / math.sqrt(2.0)
    return StateVector(layout, amps)


def map_to_cavities(state: StateVector, config: RoundConfig) -> StateVector:
    """Simultaneous conditional evolution of (Alice atom, cavity A) and
    (Bob atom, cavity B) for ``t_map``, in closed form.

    With the cavity in vacuum each pair evolves as |g,0> -> |g,0> (dark)
    and |e,0> -> alpha|e,0> + beta|g,1>, with (alpha, beta) from
    :func:`alpha_beta`.  At ``t_map = t*`` alpha vanishes, so both mapped
    atoms end in |g>, disentangled from the (A, B, remaining receivers)
    subsystem.
    """
    layout = state.layout
    mode_a, mode_b = layout.mode_sites[0], layout.mode_sites[1]
    for m in (mode_a, mode_b):
        if np.sum(np.abs(site_view(state, m)[:, 1:, :]) ** 2) > 1e-12:
            raise ValueError("cavities must start in vacuum")
    alpha, beta = alpha_beta(config.params, resolve_t_map(config))
    occ = layout.occupations
    amps = state.amplitudes.copy()
    for atom, mode in ((0, mode_a), (1, mode_b)):
        excited = np.flatnonzero((occ[:, atom] == E) & (occ[:, mode] == 0))
        emitted = excited - layout.strides[atom] + layout.strides[mode]
        amps[emitted] += beta * amps[excited]
        amps[excited] *= alpha
    return StateVector(layout, amps)


_ROTATION = np.array([[-1, 1], [1, 1]], dtype=np.complex128) / math.sqrt(2.0)
# |e> -> (|e>+|g>)/sqrt2, |g> -> (|e>-|g>)/sqrt2; involution (R^2 = I).


def receiver_rotation(state: StateVector, atom_index: int) -> StateVector:
    """Classical-field pulse rotating one receiver atom before readout."""
    if state.layout.site_kind(atom_index) is not SiteKind.ATOM:
        raise NotAnAtomSite(f"site {atom_index} is not an atom")
    return apply_site_operator(state, atom_index, _ROTATION)


def rotated_receiver_sites(layout: SystemLayout) -> tuple[int, ...]:
    """All receivers except the flying-qubit holder (Bob, atom 1)."""
    return tuple(i for i in layout.atom_sites if i >= 2)


@lru_cache(maxsize=None)
def pipeline_state(config: RoundConfig, message: Message, cutoff: int = 1) -> StateVector:
    """The state entering the detection window for ``message``, on cavity
    modes truncated at ``cutoff`` photons, built step by step.  A larger
    cutoff only adds mode levels that the pipeline never fills."""
    state = pauli_encode(prepare_ghz(config.n_parties, cutoff), 0, message)
    state = map_to_cavities(state, config)
    for site in rotated_receiver_sites(state.layout):
        state = receiver_rotation(state, site)
    state.amplitudes.flags.writeable = False  # one copy serves every caller
    return state


@dataclass(frozen=True)
class LayoutInfo:
    layout: SystemLayout
    photon_numbers: np.ndarray  # total photons per basis index
    bit_codes: np.ndarray  # packed rotated-receiver bits per basis index
    bit_strings: tuple[str, ...]  # code -> "eg..." string
    mode_a: int
    mode_b: int
    receiver_sites: tuple[int, ...]
    # the basis index of each (bit code, n_A, n_B) with every other atom in
    # |g> and at most one photon per cavity: the plan's photon-sector basis
    sector_indices: np.ndarray


@lru_cache(maxsize=None)
def layout_info(layout: SystemLayout) -> LayoutInfo:
    n_sites = len(layout.sites)
    if layout.mode_sites != (n_sites - 2, n_sites - 1):
        raise ValueError("protocol layouts end with cavity A, then cavity B")
    receivers = rotated_receiver_sites(layout)
    mode_a, mode_b = layout.mode_sites
    occ = layout.occupations
    m = len(receivers)
    n = occ[:, list(layout.mode_sites)].sum(axis=1)
    # receiver bits packed first-receiver-most-significant
    codes = occ[:, list(receivers)] @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))
    strings = tuple(
        "".join("e" if (code >> (m - 1 - j)) & 1 else "g" for j in range(m))
        for code in range(2**m)
    )
    fixed = [i for i in layout.atom_sites if i not in receivers]
    kept = (occ[:, fixed] == G).all(axis=1) & (occ[:, [mode_a, mode_b]] <= 1).all(axis=1)
    # the kept indices ascend code-major: receivers sit before the cavities
    sector_indices = np.flatnonzero(kept).reshape(-1, 2, 2)
    for table in (n, codes, sector_indices):
        table.flags.writeable = False
    return LayoutInfo(layout, n, codes, strings, mode_a, mode_b, receivers, sector_indices)


def sectors(state: StateVector) -> tuple[np.ndarray, float]:
    """The state projected onto the plan's photon-sector basis, as amplitudes
    ``[bit code, n_A, n_B]``, and the weight the projection drops."""
    kept = layout_info(state.layout).sector_indices
    outside = np.ones(state.layout.dim, dtype=bool)
    outside[kept] = False
    return state.amplitudes[kept], float(np.sum(np.abs(state.amplitudes[outside]) ** 2))
