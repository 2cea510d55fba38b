"""Quantitative security analysis.

* exact values: the law of what a partial view sees (who sees the
  detectors, who sees which receiver atoms), the compiled outcome-law array
  summed over what the view does not see, and the best guess rate it
  allows.  The law holds the receivers' bits by their parity alone (the GHZ
  secret-sharing structure of Hillery, Buzek & Berthiaume, PRA 59, 1829
  (1999)): a view that hides any rotated receiver's bit learns nothing from
  the bits it sees.  The intercept-resend atom attacks' parity-check
  detection rates are closed forms;
* Monte Carlo: compiled lockstep passes that count, per range of rounds,
  the guessing games' hits (:func:`_guessing_games`) and an eavesdropper's
  violations of the GHZ x/y parity check of protocol step 2 or of the
  decoded message (:func:`_attack`).  :func:`security_summary` runs them
  and turns the counters into rates.

Guessing games use uniform message priors and maximum-posterior guessing;
ties are broken uniformly at random among the tied messages (enumerated in
fixed message order, so the random stream is reproducible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lockstep, protocol
from .hilbert import Message, MESSAGES
from .protocol import RoundConfig


@dataclass(frozen=True)
class ViewSpec:
    """Who knows what: detector outcomes and/or a subset of receiver atoms."""

    sees_clicks: bool
    sees_bits: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sees_bits", tuple(sorted(set(self.sees_bits))))


@dataclass(frozen=True)
class EveModel:
    """Intercept-resend attack models.

    ``intercept_resend_atom`` measures one GHZ atom (z or x basis) during
    distribution and forwards the collapsed state; it is caught by the
    parity check.  ``intercept_resend_photon`` measures cavity A's photon
    number before the window, destroying psi+- coherence; it is caught by
    decode-statistic anomalies in encode rounds.
    """

    strategy: str = "none"
    basis: str | None = None
    target: int = 0

    def __post_init__(self):
        if self.strategy not in ("none", "intercept_resend_atom", "intercept_resend_photon"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "intercept_resend_atom" and self.basis not in ("z", "x"):
            raise ValueError("atom intercept-resend requires basis 'z' or 'x'")
        if self.strategy != "intercept_resend_atom" and self.basis is not None:
            raise ValueError(f"basis = {self.basis!r}: strategy {self.strategy!r} takes no basis")


# ---------------------------------------------------------------------------
# exact values


def _view_law(view: ViewSpec, config: RoundConfig, messages: Sequence[Message]) -> np.ndarray:
    """P(what the view sees | message) for each of ``messages``: the plan's
    outcome law summed over what the view does not see, a fresh array.
    Axes: message, n+, n-, parity of the rotated receivers' (sites 2 ..)
    bits, each of length 1 where hidden.  A view that hides any of the bits
    learns nothing from those it sees, which are uniform, so it does not see
    the parity."""
    for site in view.sees_bits:
        if not 2 <= site < config.n_parties:
            raise ValueError(f"site {site} is not a rotated receiver atom")
    outcomes = protocol._plan(config).outcomes
    law = outcomes[[protocol._MSG_INDEX[m] for m in messages]]
    hidden = () if len(view.sees_bits) == config.n_receivers - 1 else (3,)
    if not view.sees_clicks:
        hidden += (1, 2)
    return law.sum(axis=hidden, keepdims=True)


def optimal_guess_rate(
    view: ViewSpec, config: RoundConfig,
    messages: Sequence[Message] = MESSAGES, given_click: bool = False,
) -> float:
    """Best achievable guess rate for the view (maximum-posterior strategy),
    optionally conditioned on at least one observable click."""
    if given_click and not view.sees_clicks:
        raise ValueError("cannot condition on clicks for a view that cannot see them")
    law = _view_law(view, config, messages)
    if given_click:
        law[:, 0, 0] = 0.0
    total = float(law.sum())
    return float(law.max(axis=0).sum()) / total if total > 0 else 0.0


# ---------------------------------------------------------------------------
# Monte-Carlo guessing game and eavesdropping, on the lockstep engine
#
# Each experiment runs round i on the Philox stream (seed, i), in blocks of
# rounds as numpy arrays (qdcsim.lockstep).  A row reads the draws of the
# round the experiment describes (an encode round, a tampered check round, a
# tampered encode round), in the same order, from tables compiled once per
# call with the expressions that round evaluates, so it reproduces that
# round, computed on its own, bit for bit.  An experiment compiles to a
# function of (seed, round range) that returns integer counters, so any
# split of the rounds into ranges adds up to the same counters.


def _guess_tables(cheater: ViewSpec, config: RoundConfig, plan,
                  messages: tuple[Message, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The maximum-posterior guess as dense tables over the observable
    (n+, n-, parity of the receiver bits): how many messages tie, and their
    message indices in ``messages`` order.  An observation the model does
    not hold (an unmodeled fluke outcome) ties every message: a blind
    guess."""
    law = _view_law(cheater, config, messages)
    ties = law >= law.max(axis=0) * (1.0 - 1e-12)
    ties = np.broadcast_to(ties, (len(messages),) + plan.outcomes.shape[1:])
    n_tied = ties.sum(axis=0)
    ids = np.array([protocol._MSG_INDEX[m] for m in messages])
    order = np.argsort(~ties, axis=0, kind="stable")  # tied messages first
    slot = np.arange(len(messages)).reshape((-1, 1, 1, 1))
    tied = np.where(slot < n_tied, ids[order], 0)
    return n_tied, np.moveaxis(tied, 0, -1)


def _guessing_games(views: Sequence[ViewSpec], config: RoundConfig,
                    messages: Sequence[Message]):
    """The guessing games of ``views`` as one lockstep pass: honest encode
    rounds, each cheater guessing from its partial view via maximum
    posterior.  Returns the function of (seed, round range) that counts,
    per game, (hits, rounds with a click, hits among them); game g runs on
    the streams of seed + g.

    Round draws: the message, a round's check-branch draw (the first draw
    of ``lockstep.run_block``; the game runs at p_check = 0), the encode
    round, then the choice among tied messages where more than one ties."""
    plan, msgs, games = protocol._plan(config), tuple(messages), len(views)
    msg_ids = np.array([protocol._MSG_INDEX[m] for m in msgs])
    tables = [_guess_tables(view, config, plan, msgs) for view in views]
    n_tied, tied = np.stack([n for n, _ in tables]), np.stack([t for _, t in tables])

    def run(seed: int, bounds: tuple[int, int]) -> np.ndarray:
        counts = np.zeros((games, 3), dtype=np.int64)
        for streams in lockstep.row_blocks(seed, *bounds, games=games):
            rows = np.arange(len(streams))
            r = lockstep.Rounds(len(rows))
            sent = msg_ids[streams.integers(rows, len(msgs))]
            streams.random(rows)  # the check-branch draw
            lockstep.encode_rounds(plan, streams, rows, sent, r)
            obs = (rows // (len(rows) // games), r.clicks[:, 0], r.clicks[:, 1],
                   lockstep.parity(r.bits))
            n = n_tied[obs]
            choice = np.zeros(len(rows), dtype=np.int64)
            # not np.unique: in numpy 2.4 it imports numpy.ma (README, start-up)
            for size in range(2, len(msgs) + 1):
                ties = rows[n == size]
                if len(ties):
                    choice[ties] = streams.integers(ties, size)
            hit = tied[obs + (choice,)] == sent
            clicked = r.clicks.sum(axis=1) > 0
            counts += np.stack((hit, clicked, hit & clicked), axis=1).reshape(
                games, -1, 3).sum(axis=1)
        return counts

    return run


def _eve_state(eve: EveModel, n_parties: int) -> dict:
    """The state Eve's atom measurement leaves for the check round, as
    :func:`qdcsim.lockstep.check_law`'s keywords but for her outcome,
    ``sign``: nothing without an attack, a product state after z, after x
    the target's outcome bit.  A target that is not a party raises
    ValueError."""
    if eve.strategy == "none":
        return {}
    if not 0 <= eve.target < n_parties:
        raise ValueError(
            f"target = {eve.target!r} is not a party: an atom attack at {n_parties} parties "
            f"targets one of 0 .. {n_parties - 1}"
        )
    if eve.basis == "z":
        return {"entangled": False}
    return {"eve_bit": 1 << (n_parties - 1 - eve.target)}


def _atom_attack(eve: EveModel, config: RoundConfig):
    """Parity-check rounds with Eve's atom measurement as the tamper: the
    function of (seed, round range) that counts (conclusive rounds,
    violations).

    Round draws: Eve's outcome (none without an attack), each of hers
    equally likely, then the check round (``lockstep.check_rounds``)."""
    n, state = config.n_parties, _eve_state(eve, config.n_parties)

    def run(seed: int, bounds: tuple[int, int]) -> np.ndarray:
        counts = np.zeros(2, dtype=np.int64)
        for streams in lockstep.row_blocks(seed, *bounds, kind="check"):
            rows = np.arange(len(streams))
            outcome = 0
            if eve.strategy != "none":
                outcome = (streams.random(rows) >= 0.5).astype(np.int64)
            combo, parties = lockstep.check_rounds(streams, rows, n, sign=outcome, **state)
            conclusive, passed = lockstep.check_verdicts(combo, parties, n)
            counts += [conclusive.sum(), (conclusive & ~passed).sum()]
        return counts

    return run


def _photon_starts(plan, psi_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eve's photon-number measurement of cavity A on the pipeline states of
    the messages ``psi_ids``: the outcome weights (one row per message), and
    the collapsed, renormalized state of each (message, outcome n_A),
    message-major.  An outcome of weight 0 is never drawn, and gets an
    empty state."""
    sectors = plan.sectors[psi_ids]
    weights = np.sum(np.abs(sectors) ** 2, axis=(1, 3))
    starts = np.zeros((len(psi_ids), 2) + sectors.shape[1:], dtype=np.complex128)
    for i, n_a in zip(*np.nonzero(weights > 0.0)):
        starts[i, n_a, :, n_a] = sectors[i, :, n_a] / math.sqrt(weights[i, n_a])
    return weights, starts.reshape((-1,) + sectors.shape[1:])


def _photon_attack(config: RoundConfig):
    """Encode rounds of psi+ or psi- with cavity A's photon number measured
    before the window (a tampered encode round): the function of (seed,
    round range) that counts (conclusive rounds, wrong decodes).

    Round draws: the message, Eve's outcome, the window.  Each round starts
    from the collapsed state of its (message, outcome) (:func:`_photon_starts`)."""
    plan = protocol._plan(config)
    psi_ids = np.array([protocol._MSG_INDEX[m] for m in (Message.X, Message.IY)])
    weights, starts = _photon_starts(plan, psi_ids)
    cum = np.array([np.cumsum(w) for w in weights])
    total = np.array([w.sum() for w in weights])
    tables = lockstep.jump_tables(starts)

    def run(seed: int, bounds: tuple[int, int]) -> np.ndarray:
        counts = np.zeros(2, dtype=np.int64)
        for streams in lockstep.row_blocks(seed, *bounds):
            rows = np.arange(len(streams))
            r = lockstep.Rounds(len(rows))
            which = streams.integers(rows, 2)
            outcome = lockstep.pick(cum[which], streams.random(rows) * total[which])
            start = which * weights.shape[1] + outcome
            lockstep.window_rounds(plan, streams, rows, tables, start, r)
            decided = r.decoded != lockstep.ABORT
            counts += [decided.sum(), (decided & (r.decoded != psi_ids[which])).sum()]
        return counts

    return run


def _attack(eve: EveModel, config: RoundConfig):
    """The compiled eavesdrop experiment of ``eve``: a function of (seed,
    round range) that counts (conclusive rounds, violations).  A config the
    attack cannot run raises ConfigError before anything compiles: the
    photon attack needs click decoding.  An atom attack's target that is not
    a party raises ValueError."""
    if eve.strategy == "intercept_resend_photon":
        if config.ideal_pnr:
            raise protocol.ConfigError(
                "round.ideal_pnr, security.eve: the intercept-resend-photon attack needs click "
                "decoding; the ideal-PNR oracle decode never reads the tampered state"
            )
        return _photon_attack(config)
    return _atom_attack(eve, config)


def exact_eve_detection_rate(eve: EveModel, n_parties: int = 3) -> float:
    """Exact parity-check detection rate for atom attacks: the violating
    share of the conclusive checks (the GHZ parity check of Hillery, Buzek &
    Berthiaume, PRA 59, 1829 (1999)).  By ``lockstep.check_law``: after a z
    measurement every outcome is allowed, so a conclusive check fails half
    the time; after an x measurement, a conclusive check fails half the
    time when the target measured y and never when it measured x; and the
    target measures y in half of the conclusive basis combinations.  So the
    rate is 0 without an attack, 1/2 after z and 1/4 after x, at any width
    and target."""
    if eve.strategy == "intercept_resend_photon":
        raise ValueError("photon attack detection is estimated by Monte Carlo only")
    _eve_state(eve, n_parties)  # a target that is not a party raises
    if eve.strategy == "none":
        return 0.0
    return 0.5 if eve.basis == "z" else 0.25


# ---------------------------------------------------------------------------
# summary used by the CLI


def standard_views(config: RoundConfig) -> dict[str, ViewSpec]:
    receivers = tuple(range(2, config.n_parties))
    return {
        "bob_alone": ViewSpec(sees_clicks=True, sees_bits=()),
        "charlie_alone": ViewSpec(sees_clicks=False, sees_bits=receivers[:1]),
        "collaboration": ViewSpec(sees_clicks=True, sees_bits=receivers),
    }


_GAMES = ("bob_alone", "charlie_alone", "collaboration")  # on seeds seed + 0, 1, 2


def _rate(hits: int, n: int) -> tuple[float | None, float | None]:
    """The share ``hits / n`` and its binomial standard error; (None, None)
    where ``n`` is 0."""
    if not n:
        return None, None
    rate = hits / n
    return rate, math.sqrt(max(rate * (1 - rate), 0.0) / n)


def security_summary(config: RoundConfig, n_rounds: int, eve: EveModel, workers: int = 1) -> dict:
    """Headline rates: Bob alone (given a click), Charlie alone, full
    collaboration (given a click), the derived composite 1 - charlie_alone,
    and eavesdropper detection for ``eve``'s attack, on seed + 3, with seed
    ``config.seed``.  A config the attack cannot run raises ConfigError
    before anything compiles.

    Like :func:`qdcsim.protocol.run_batch`, the rounds are split into
    near-equal contiguous ranges, one per process
    (:func:`qdcsim.lockstep.map_ranges`, counting 4 rows per round); each
    range runs the three guessing games as one lockstep pass, then the
    eavesdropper's rounds.  The counters are integer sums, so the rates do
    not depend on ``workers``."""
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    attack = _attack(eve, config)  # it checks the config; compiled once, before any fork
    views = standard_views(config)
    games = _guessing_games([views[name] for name in _GAMES], config, MESSAGES)
    parts = lockstep.map_ranges(
        lambda bounds: (games(config.seed, bounds), attack(config.seed + len(_GAMES), bounds)),
        n_rounds, len(_GAMES) + 1, workers,
    )
    # per game (hits, rounds with a click, hits among them); the attack's
    # (conclusive rounds, violations)
    (_, bob_clicked, bob_hits), (charlie_hits, _, _), (_, collab_clicked, collab_hits) = sum(
        counts for counts, _ in parts).tolist()
    conclusive, violations = sum(counts for _, counts in parts).tolist()
    bob, bob_stderr = _rate(bob_hits, bob_clicked)
    charlie, charlie_stderr = _rate(charlie_hits, n_rounds)
    collab, collab_stderr = _rate(collab_hits, collab_clicked)
    detection, detection_stderr = _rate(violations, conclusive)
    return {
        "bob_alone": bob,
        "bob_alone_stderr": bob_stderr,
        "charlie_alone": charlie,
        "charlie_alone_stderr": charlie_stderr,
        "collaboration": collab,
        "collaboration_stderr": collab_stderr,
        "composite_bob": 1.0 - charlie,
        "eve_strategy": eve.strategy + (f"_{eve.basis}" if eve.basis else ""),
        "eve_detection_rate": detection,
        "eve_detection_stderr": detection_stderr,
        "eve_conclusive_rounds": conclusive,
    }
