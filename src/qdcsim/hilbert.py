"""Tensor-product state space over two-level atoms and truncated cavity modes.

Conventions (normative for all file output):

* Atom basis order is ``[g, e]`` with ``g=0``, ``e=1``.
* A cavity mode with cutoff ``c`` has basis ``|0>..|c>`` (dimension ``c+1``).
* Basis indexing is row-major with site 0 most significant::

      index = sum_j occ_j * prod_{l>j} dim_l

* States carry value semantics: every operation returns a new
  ``StateVector``; inputs are never mutated.

Subnormalized vectors (squared norm < 1) are legal and represent
conditional no-jump branches; their squared norm is the probability of
the conditioning event.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

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
        if self.kind is SiteKind.ATOM:
            return 2
        return self.cutoff + 1


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

    def __post_init__(self):
        if not self.sites:
            raise ValueError("layout must contain at least one site")

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.sites)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        # suffix products: stride of site j is prod of dims of sites > j
        out = [1] * len(self.dims)
        for j in range(len(self.dims) - 2, -1, -1):
            out[j] = out[j + 1] * self.dims[j + 1]
        return tuple(out)

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
        occ = []
        for stride, d in zip(self.strides, self.dims):
            q, index = divmod(index, stride)
            occ.append(q)
        return tuple(occ)

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


class Message(enum.Enum):
    """Two-classical-bit payload and its encoding operation on Alice's atom."""

    I = "I"
    X = "X"
    IY = "iY"
    Z = "Z"

    @property
    def bits(self) -> tuple[int, int]:
        return _MESSAGE_BITS[self]

    @classmethod
    def from_bits(cls, bits: tuple[int, int]) -> "Message":
        return _BITS_MESSAGE[bits]

    @classmethod
    def from_name(cls, name: str) -> "Message":
        for m in cls:
            if m.value == name:
                return m
        raise ValueError(f"unknown message {name!r}; expected one of I, X, iY, Z")


_MESSAGE_BITS = {Message.I: (0, 0), Message.X: (0, 1), Message.IY: (1, 0), Message.Z: (1, 1)}
_BITS_MESSAGE = {v: k for k, v in _MESSAGE_BITS.items()}

MESSAGES = (Message.I, Message.X, Message.IY, Message.Z)

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
