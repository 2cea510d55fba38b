"""Desk-scale simulator of a cavity-decay quantum dense coding protocol.

Subpackages:

* :mod:`qdcsim.hilbert` -- the two-bit messages
* :mod:`qdcsim.dynamics` -- closed-form conditional atom-cavity evolution
* :mod:`qdcsim.protocol` -- encode/transfer/detect pipeline and batches
* :mod:`qdcsim.security` -- posteriors, cheat games, eavesdropper checks
* :mod:`qdcsim.feasibility` -- hardware-regime arithmetic
* :mod:`qdcsim.cli` -- command-line front end
"""

from .dynamics import PhysicalParams, alpha_beta, transfer_time
from .hilbert import Message, MESSAGES
from .protocol import (
    DetectorModel,
    RoundConfig,
    bell_weights,
    build_decode_table,
    run_batch,
    success_probability_formula,
)

__all__ = [
    "PhysicalParams",
    "alpha_beta",
    "transfer_time",
    "Message",
    "MESSAGES",
    "DetectorModel",
    "RoundConfig",
    "bell_weights",
    "build_decode_table",
    "run_batch",
    "success_probability_formula",
]

__version__ = "0.1.0"
