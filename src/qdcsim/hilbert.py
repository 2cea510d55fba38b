"""The two-bit messages Alice encodes on her GHZ atom.

The state space itself lives in closed form where it is used: the pipeline
states as photon-sector amplitudes (``protocol``), the check rounds as the
outcome sets the GHZ state allows (``lockstep.check_law``).
"""

from __future__ import annotations

import enum


class Message(enum.Enum):
    """Two-classical-bit payload, named by its encoding operation on Alice's atom."""

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
