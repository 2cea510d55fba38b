"""Quantitative security analysis.

Three layers:

* exact Bayesian posteriors over the four messages for partial views
  (who sees the detectors, who sees which receiver atoms): the compiled
  outcome-law array summed over what a view does not see -- no sampling;
* Monte-Carlo guessing games ("cheat experiments") whose empirical rates
  must converge to the posterior-optimal rates;
* the GHZ x/y parity check of protocol step 2, with intercept-resend
  eavesdropper models and both exact and Monte-Carlo detection rates.

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
from .hilbert import (
    HilbertError, Message, MESSAGES, StateVector, apply_site_operator, site_measurement,
)
from .protocol import RoundConfig


class InconsistentObservation(HilbertError):
    """Observation has zero likelihood under every message."""


@dataclass(frozen=True)
class ViewSpec:
    """Who knows what: detector outcomes and/or a subset of receiver atoms."""

    sees_clicks: bool
    sees_bits: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sees_bits", tuple(sorted(self.sees_bits)))


@dataclass(frozen=True)
class Observation:
    """Concrete coordinates for a view: click counts (n_plus, n_minus) if
    visible, and (receiver site, bit) pairs for visible atoms."""

    clicks: tuple[int, int] | None = None
    bits: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(sorted(self.bits)))


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


@dataclass
class CheatResult:
    n_rounds: int
    n_clicked: int
    rate_all: float
    rate_given_click: float | None
    stderr_all: float
    stderr_given_click: float | None


@dataclass
class EveResult:
    n_rounds: int
    conclusive_rounds: int
    violations: int
    detection_rate: float | None
    stderr: float | None


# ---------------------------------------------------------------------------
# exact posteriors


def _site_positions(config: RoundConfig) -> dict[int, int]:
    layout = protocol.layout_for(config.n_parties, config.cutoff)
    return {site: pos for pos, site in enumerate(protocol.rotated_receiver_sites(layout))}


def _view_law(view: ViewSpec, config: RoundConfig,
              messages: Sequence[Message]) -> np.ndarray:
    """P(observation | message) for each of ``messages``: the plan's outcome
    law summed over what the view does not see.  Axes: message, n+, n-, then
    one per rotated receiver (0 = g, 1 = e); a hidden axis keeps length 1."""
    positions = _site_positions(config)
    for site in view.sees_bits:
        if site not in positions:
            raise ValueError(f"site {site} is not a rotated receiver atom")
    outcomes = protocol._plan(config).outcomes
    law = outcomes[[protocol._MSG_INDEX[m] for m in messages]]
    law = law.reshape(law.shape[:3] + (2,) * len(positions))
    hidden = tuple(3 + pos for site, pos in positions.items() if site not in view.sees_bits)
    if not view.sees_clicks:
        hidden += (1, 2)
    return law.sum(axis=hidden, keepdims=True)


def observation_likelihoods(
    obs: Observation, config: RoundConfig,
    messages: Sequence[Message] = MESSAGES,
) -> dict[Message, float]:
    """P(observation | message), marginalized over unobserved coordinates."""
    view = ViewSpec(sees_clicks=obs.clicks is not None, sees_bits=[site for site, _ in obs.bits])
    law = _view_law(view, config, messages)
    positions = _site_positions(config)
    cell = [0] * (law.ndim - 1)
    if obs.clicks is not None:
        cell[:2] = obs.clicks
    for site, bit in obs.bits:
        cell[2 + positions[site]] = {"g": 0, "e": 1}.get(bit, -1)
    if not all(0 <= i < n for i, n in zip(cell, law.shape[1:])):
        return dict.fromkeys(messages, 0.0)
    return dict(zip(messages, law[(slice(None), *cell)].tolist()))


def exact_posterior(
    view: ViewSpec, observed: Observation, config: RoundConfig,
    messages: Sequence[Message] = MESSAGES,
) -> dict[Message, float]:
    """Uniform-prior posterior over messages given a view's observation."""
    if view.sees_clicks != (observed.clicks is not None):
        raise ValueError("observation does not match the view's click visibility")
    seen = {site for site, _ in observed.bits}
    if seen != set(view.sees_bits):
        raise ValueError("observation does not match the view's visible atoms")
    likes = observation_likelihoods(observed, config, messages)
    total = sum(likes.values())
    if total <= 1e-300:
        raise InconsistentObservation(f"observation {observed} impossible for all messages")
    return {m: likes[m] / total for m in messages}


def view_distribution(
    view: ViewSpec, config: RoundConfig, messages: Sequence[Message] = MESSAGES,
) -> dict[Observation, dict[Message, float]]:
    """Joint P(observation, message) under a uniform prior on ``messages``,
    over the observations some message can produce."""
    law = _view_law(view, config, messages) * (1.0 / len(messages))
    positions = _site_positions(config)
    joint = {}
    for cell in np.argwhere((law > 0.0).any(axis=0)).tolist():
        obs = Observation(
            clicks=tuple(cell[:2]) if view.sees_clicks else None,
            bits=tuple((site, "ge"[cell[2 + positions[site]]]) for site in view.sees_bits),
        )
        joint[obs] = dict(zip(messages, law[(slice(None), *cell)].tolist()))
    return joint


def optimal_guess_rate(
    view: ViewSpec, config: RoundConfig,
    messages: Sequence[Message] = MESSAGES, given_click: bool = False,
) -> float:
    """Best achievable guess rate for the view (maximum-posterior strategy),
    optionally conditioned on at least one observable click."""
    if given_click and not view.sees_clicks:
        raise ValueError("cannot condition on clicks for a view that cannot see them")
    law = _view_law(view, config, messages)  # a fresh array
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
# round, computed on its own, bit for bit.


def _guess_tables(cheater: ViewSpec, config: RoundConfig, plan,
                  messages: tuple[Message, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The maximum-posterior guess as dense tables over the observable
    (n+, n-, receiver bit code): how many messages tie, and their message
    indices in ``messages`` order.  An observation the model does not hold
    (an unmodeled fluke outcome) ties every message: a blind guess."""
    law = _view_law(cheater, config, messages)
    ties = law >= law.max(axis=0) * (1.0 - 1e-12)
    shape = (len(messages),) + plan.outcomes.shape[1:3] + (2,) * (ties.ndim - 3)
    ties = np.broadcast_to(ties, shape).reshape((len(messages),) + plan.outcomes.shape[1:])
    n_tied = ties.sum(axis=0)
    ids = np.array([protocol._MSG_INDEX[m] for m in messages])
    order = np.argsort(~ties, axis=0, kind="stable")  # tied messages first
    slot = np.arange(len(messages)).reshape((-1, 1, 1, 1))
    tied = np.where(slot < n_tied, ids[order], 0)
    return n_tied, np.moveaxis(tied, 0, -1)


def cheat_experiment(
    cheater: ViewSpec,
    config: RoundConfig,
    n_rounds: int,
    seed: int,
    messages: Sequence[Message] = MESSAGES,
) -> CheatResult:
    """Guessing game: honest encode rounds, the cheater guesses from its
    partial view via maximum posterior.

    Round draws: the message, ``run_round``'s check-branch draw (the game
    runs at p_check = 0), the encode round, then the choice among tied
    messages where more than one ties."""
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    plan = protocol._plan(config)
    msgs = tuple(messages)
    msg_ids = np.array([protocol._MSG_INDEX[m] for m in msgs])
    n_tied, tied = _guess_tables(cheater, config, plan, msgs)
    hits_all = hits_click = n_click = 0
    for streams in lockstep.row_blocks(seed, 0, n_rounds, plan.row_width(checks=False)):
        rows = np.arange(len(streams))
        r = lockstep.Rounds.empty(len(rows))
        sent = msg_ids[streams.integers(rows, len(msgs))]
        streams.random(rows)  # run_round's check-branch draw
        lockstep.encode_rounds(plan, streams, rows, sent, r)
        obs = (r.clicks[:, 0], r.clicks[:, 1], r.bits)
        n = n_tied[obs]
        choice = np.zeros(len(rows), dtype=np.int64)
        for size in np.unique(n[n > 1]).tolist():
            ties = rows[n == size]
            choice[ties] = streams.integers(ties, size)
        hit = tied[obs + (choice,)] == sent
        clicked = r.clicks.sum(axis=1) > 0
        hits_all += int(hit.sum())
        n_click += int(clicked.sum())
        hits_click += int((hit & clicked).sum())
    rate_all = hits_all / n_rounds
    result_click = hits_click / n_click if n_click else None
    return CheatResult(
        n_rounds=n_rounds,
        n_clicked=n_click,
        rate_all=rate_all,
        rate_given_click=result_click,
        stderr_all=math.sqrt(max(rate_all * (1 - rate_all), 0.0) / n_rounds),
        stderr_given_click=(
            math.sqrt(max(result_click * (1 - result_click), 0.0) / n_click)
            if n_click else None
        ),
    )


def _collapses(weights: np.ndarray, collapse, dim: int) -> list[np.ndarray]:
    """The collapsed amplitudes of every outcome of a measurement; an
    outcome of weight 0 is never drawn, and gets an empty state."""
    return [
        collapse(o).amplitudes if w > 0.0 else np.zeros(dim, dtype=np.complex128)
        for o, w in enumerate(weights.tolist())
    ]


def _eve_branches(eve: EveModel, n_parties: int) -> np.ndarray:
    """The GHZ state after Eve's atom measurement, one row per outcome of
    hers, unnormalized: each row's squared norm is in proportion to the
    outcome's probability.  The state has unit amplitudes and the
    projectors entries 0 and +-1, so every amplitude is exact."""
    layout = protocol._check_context(n_parties).layout
    ghz = np.zeros(layout.dim, dtype=np.complex128)
    ghz[0] = ghz[-1] = 1.0
    if eve.strategy == "none":
        return ghz[None]
    bras = np.eye(2) if eve.basis == "z" else protocol._XY_BRAS[0]  # rows are bras
    state = StateVector(layout, ghz)
    return np.array([
        apply_site_operator(state, eve.target, np.outer(bra.conj(), bra)).amplitudes
        for bra in bras
    ])


def _atom_attack(eve: EveModel, config: RoundConfig, n_rounds: int, seed: int):
    """Parity-check rounds with Eve's atom measurement as the tamper:
    (conclusive rounds, violations).

    Round draws: Eve's outcome (none without an attack), the basis combo,
    the parties' outcome, each from the laws of :func:`_eve_branches`."""
    ctx = protocol._check_context(config.n_parties)
    if eve.strategy == "none":
        weights, cum, total = None, ctx.cum[None], ctx.total[None]
    else:
        branches = _eve_branches(eve, config.n_parties)
        weights = (np.abs(branches) ** 2).sum(axis=1)
        laws = np.array([protocol.combo_laws(b, config.n_parties) for b in branches])
        cum, total = np.cumsum(laws, axis=2), laws.sum(axis=2)
    conclusive = violations = 0
    for streams in lockstep.row_blocks(seed, 0, n_rounds, ctx.layout.dim):
        rows = np.arange(len(streams))
        branch = np.zeros(len(rows), dtype=np.int64)
        if weights is not None:
            branch = lockstep.pick(np.cumsum(weights), streams.random(rows) * weights.sum())
        combo, outcome = lockstep.check_rounds(
            streams, rows, config.n_parties, cum, total, branch
        )
        decided = ctx.conclusive[combo]
        conclusive += int(decided.sum())
        violations += int((decided & ~ctx.passed[combo, outcome]).sum())
    return conclusive, violations


def _photon_starts(plan, psi_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eve's photon-number measurement of cavity A on the pipeline states of
    the messages ``psi_ids``: the outcome weights (one row per message), and
    the collapsed state of each (message, outcome), message-major."""
    layout = plan.info.layout
    measured = [
        site_measurement(StateVector(layout, plan.amps[i]), layout.mode_sites[0])
        for i in psi_ids.tolist()
    ]
    weights = np.array([w for w, _ in measured])
    amps = np.array([a for w, collapse in measured for a in _collapses(w, collapse, layout.dim)])
    return weights, amps


def _photon_attack(config: RoundConfig, n_rounds: int, seed: int):
    """Encode rounds of psi+ or psi- with cavity A's photon number measured
    before the window (a tampered encode round): (conclusive rounds,
    wrong decodes).

    Round draws: the message, Eve's outcome, the window.  Each round starts
    from the collapsed state of its (message, outcome), built by
    ``site_measurement``."""
    if config.ideal_pnr:
        raise ValueError("ideal_pnr: the oracle decode never reads the tampered state")
    plan = protocol._plan(config)
    psi_ids = np.array([protocol._MSG_INDEX[m] for m in (Message.X, Message.IY)])
    weights, amps = _photon_starts(plan, psi_ids)
    cum = np.array([np.cumsum(w) for w in weights])
    total = np.array([w.sum() for w in weights])
    tables = lockstep.jump_tables(plan.info, amps)
    conclusive = violations = 0
    for streams in lockstep.row_blocks(seed, 0, n_rounds, tables.width):
        rows = np.arange(len(streams))
        r = lockstep.Rounds.empty(len(rows))
        which = streams.integers(rows, 2)
        outcome = lockstep.pick(cum[which], streams.random(rows) * total[which])
        start = which * weights.shape[1] + outcome
        lockstep.window_rounds(plan, streams, rows, tables, start, r)
        decided = r.decoded != lockstep.ABORT
        conclusive += int(decided.sum())
        violations += int((decided & (r.decoded != psi_ids[which])).sum())
    return conclusive, violations


def eavesdrop_experiment(
    eve: EveModel, config: RoundConfig, n_check_rounds: int, seed: int
) -> EveResult:
    """Detection statistics against one eavesdropper model.

    Atom attacks are probed by GHZ parity-check rounds; the photon attack by
    encode rounds with known messages, where a wrong (non-abort) decode
    counts as a violation.  The photon attack needs click decoding, so an
    ``ideal_pnr`` config raises ValueError.
    """
    if n_check_rounds < 1:
        raise ValueError("n_check_rounds must be >= 1")
    if eve.strategy == "intercept_resend_photon":
        conclusive, violations = _photon_attack(config, n_check_rounds, seed)
    else:
        conclusive, violations = _atom_attack(eve, config, n_check_rounds, seed)
    rate = violations / conclusive if conclusive else None
    stderr = (
        math.sqrt(max(rate * (1 - rate), 0.0) / conclusive) if conclusive else None
    )
    return EveResult(n_check_rounds, conclusive, violations, rate, stderr)


def exact_eve_detection_rate(eve: EveModel, n_parties: int = 3) -> float:
    """Exact parity-check detection rate for atom attacks: the violating
    share of the post-attack outcome law over the conclusive basis
    combinations, which are all equally likely.  Every term is a dyadic
    rational, so the rate is exact."""
    if eve.strategy == "intercept_resend_photon":
        raise ValueError("photon attack detection is estimated by Monte Carlo only")
    ctx = protocol._check_context(n_parties)
    law = sum(protocol.combo_laws(b, n_parties) for b in _eve_branches(eve, n_parties))
    law = law[ctx.conclusive]
    return float(law[~ctx.passed[ctx.conclusive]].sum() / law.sum())


# ---------------------------------------------------------------------------
# summary used by the CLI


def standard_views(config: RoundConfig) -> dict[str, ViewSpec]:
    layout = protocol.layout_for(config.n_parties, config.cutoff)
    receivers = protocol.rotated_receiver_sites(layout)
    return {
        "bob_alone": ViewSpec(sees_clicks=True, sees_bits=()),
        "charlie_alone": ViewSpec(sees_clicks=False, sees_bits=receivers[:1]),
        "collaboration": ViewSpec(sees_clicks=True, sees_bits=receivers),
    }


def security_summary(
    config: RoundConfig, n_rounds: int, seed: int, eve: EveModel | None = None,
    workers: int = 1,
) -> dict:
    """Headline rates: Bob alone (given a click), Charlie alone, full
    collaboration (given a click), the derived composite 1 - charlie_alone,
    and eavesdropper detection for the chosen attack.  With ``workers`` > 1
    the four experiments are shared by forked processes
    (:func:`qdcsim.lockstep.fork_map`), with the same rates."""
    views = standard_views(config)
    eve = eve if eve is not None else EveModel("intercept_resend_atom", basis="z", target=0)
    experiments = [
        lambda: cheat_experiment(views["bob_alone"], config, n_rounds, seed),
        lambda: cheat_experiment(views["charlie_alone"], config, n_rounds, seed + 1),
        lambda: cheat_experiment(views["collaboration"], config, n_rounds, seed + 2),
        lambda: eavesdrop_experiment(eve, config, n_rounds, seed + 3),
    ]
    workers = lockstep.worker_count(workers, len(experiments), len(experiments) * n_rounds)
    if workers > 1:
        protocol._plan(config)  # compiled once, before the fork
    bob, charlie, collab, eve_result = lockstep.fork_map(lambda run: run(), experiments, workers)
    return {
        "bob_alone": bob.rate_given_click,
        "bob_alone_stderr": bob.stderr_given_click,
        "charlie_alone": charlie.rate_all,
        "charlie_alone_stderr": charlie.stderr_all,
        "collaboration": collab.rate_given_click,
        "collaboration_stderr": collab.stderr_given_click,
        "composite_bob": 1.0 - charlie.rate_all,
        "eve_strategy": eve.strategy + (f"_{eve.basis}" if eve.basis else ""),
        "eve_detection_rate": eve_result.detection_rate,
        "eve_detection_stderr": eve_result.stderr,
        "eve_conclusive_rounds": eve_result.conclusive_rounds,
    }
