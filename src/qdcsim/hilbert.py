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

    @classmethod
    def from_name(cls, name: str) -> "Message":
        for m in cls:
            if m.value == name:
                return m
        raise ValueError(f"unknown message {name!r}; expected one of I, X, iY, Z")


MESSAGES = (Message.I, Message.X, Message.IY, Message.Z)
