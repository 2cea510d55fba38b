"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on the terminal (bypassing capture) after
its assertions; a failure surfaces through pytest as usual.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from dense import (
    StateVector, SystemLayout, layout_for, mode_site, pauli_encode, prepare_ghz,
    receiver_rotation, rotated_receiver_sites, sectors,
)
from scalar_oracle import engine_windows, evolve_conditional
from qdcsim import cli
from qdcsim import feasibility as F
from qdcsim import protocol as P
from qdcsim import security as S
from qdcsim.dynamics import PhysicalParams, alpha_beta, transfer_time
from qdcsim.hilbert import Message, MESSAGES

PARAMS = PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=0.2)
PARAMS0 = PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=0.0)


def report(capsys, line):
    with capsys.disabled():
        print(f"[acceptance] {line}", flush=True)


def make_params(delta, k):
    return PhysicalParams(g=1.0, Omega=1.0, Delta=1.0 / delta, k=k)


def rk4_pair_oracle(delta, k, t, n_steps=6000):
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


def psi_state(sign):
    lay = SystemLayout((mode_site(1), mode_site(1)))
    amps = np.zeros(4, dtype=complex)
    amps[lay.index_of((0, 1))] = 1 / math.sqrt(2)
    amps[lay.index_of((1, 0))] = sign / math.sqrt(2)
    return StateVector(lay, amps)


def test_c01_dynamics_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for delta in (0.5, 1.0, 2.0):
        for k in (0.0, 0.1, 0.5):
            p = make_params(delta, k)
            for t in np.linspace(0.05, 4 * math.pi / p.omega_k, 20):
                a, b = alpha_beta(p, float(t))
                oa, ob = rk4_pair_oracle(delta, k, float(t))
                worst = max(worst, abs(a - oa), abs(b - ob))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 5.0
    report(capsys, f"criterion 1 (dynamics oracle, max err {worst:.2e}, {elapsed:.2f}s): PASS")


def test_c02_transfer_time_identity(capsys):
    rng = np.random.default_rng(20240817)
    worst_alpha = worst_beta = 0.0
    for _ in range(50):
        delta = 10 ** rng.uniform(-0.7, 0.7)
        k = rng.uniform(0.0, 1.9 * delta)
        p = make_params(delta, k)
        t_star = transfer_time(p)
        a, b = alpha_beta(p, t_star)
        worst_alpha = max(worst_alpha, abs(a))
        worst_beta = max(worst_beta, abs(abs(b) - math.exp(-0.5 * k * t_star)))
    assert worst_alpha <= 1e-10
    assert worst_beta <= 1e-10
    report(
        capsys,
        f"criterion 2 (transfer-time identity, |alpha| {worst_alpha:.1e}, "
        f"beta gap {worst_beta:.1e}): PASS",
    )


def _analytic_pipeline(config):
    """Post-rotation states built directly from the branch structure,
    independent of the propagator."""
    beta = alpha_beta(config.params, transfer_time(config.params))[1]
    lay = layout_for(3)
    g, e = 0, 1
    states = {}

    def build(entries):
        amps = np.zeros(lay.dim, dtype=complex)
        for (charlie, n_a, n_b), val in entries.items():
            amps[lay.index_of((g, g, charlie, n_a, n_b))] = val
        return StateVector(lay, amps)

    r2 = math.sqrt(2.0)
    states[Message.X] = build({
        (e, 0, 1): beta / 2, (e, 1, 0): beta / 2,
        (g, 0, 1): beta / 2, (g, 1, 0): -beta / 2,
    })
    states[Message.IY] = build({
        (e, 0, 1): beta / 2, (e, 1, 0): -beta / 2,
        (g, 0, 1): beta / 2, (g, 1, 0): beta / 2,
    })
    states[Message.I] = build({
        (e, 1, 1): beta**2 / 2, (g, 1, 1): beta**2 / 2,
        (e, 0, 0): 0.5, (g, 0, 0): -0.5,
    })
    states[Message.Z] = build({
        (e, 1, 1): beta**2 / 2, (g, 1, 1): beta**2 / 2,
        (e, 0, 0): -0.5, (g, 0, 0): 0.5,
    })
    return beta, states


def _rk4_pipeline(config, message):
    """The pipeline with the transfer integrated by fixed-step RK4 of the
    full no-jump generator instead of the closed-form map."""
    state = pauli_encode(prepare_ghz(config.n_parties), 0, message)
    t = P.resolve_t_map(config)
    dt = min(0.005 / max(config.params.delta_eff, config.params.k), t / 400.0)
    mode_a, mode_b = state.layout.mode_sites
    state = evolve_conditional(state, [(0, mode_a), (1, mode_b)], config.params, t, dt)
    for site in rotated_receiver_sites(state.layout):
        state = receiver_rotation(state, site)
    return state


def test_c03_state_pipeline_reproduction(capsys):
    config = P.RoundConfig(params=PARAMS, t_window=0.5)
    beta, analytic = _analytic_pipeline(config)
    worst = 0.0
    for message, expected in analytic.items():
        # the plan's photon sectors against both dense states, projected
        simulated = P._plan(config).sectors[P._MSG_INDEX[message]]
        for reference in (expected, _rk4_pipeline(config, message)):
            kept, dropped = sectors(reference)
            worst = max(worst, float(np.max(np.abs(simulated - kept))), math.sqrt(dropped))
        norm = float(np.sum(np.abs(simulated) ** 2))
        target = beta**2 if message in (Message.X, Message.IY) else (beta**4 + 1) / 2
        assert abs(norm - target) < 1e-8
    assert worst <= 1e-8
    report(
        capsys,
        f"criterion 3 (pipeline vs analytic and RK4 amplitudes, max err {worst:.2e}): PASS",
    )


def test_c04_detection_statistics(capsys):
    k, window = 0.2, 2.0
    config = P.RoundConfig(params=PARAMS, t_window=window)
    n = 100_000

    # row i of each engine block is the window on the stream of round i, seed 404;
    # with no dark counts, every event is a registered jump
    clicks = 0
    click_times = []
    bad_plus = 0
    for r in engine_windows(psi_state(+1), config, 404, n):
        real = r.jump_seen.any(axis=1)
        clicks += int(real.sum())
        click_times += r.jump_t[real, r.jump_seen[real].argmax(axis=1)].tolist()
        bad_plus += int((r.jump_seen & (r.jump_sign < 0)).sum())
    p_exp = 1 - math.exp(-2 * k * window)
    sigma = math.sqrt(p_exp * (1 - p_exp) / n)
    assert abs(clicks / n - p_exp) < 3 * sigma
    assert bad_plus == 0

    def cdf(t):
        return (1 - np.exp(-2 * k * np.asarray(t))) / (1 - math.exp(-2 * k * window))

    ks = scipy.stats.kstest(click_times, cdf)
    assert ks.pvalue > 0.01

    bad_minus = sum(
        int((r.jump_seen & (r.jump_sign > 0)).sum())
        for r in engine_windows(psi_state(-1), config, 405, n)
    )
    assert bad_minus == 0
    report(
        capsys,
        f"criterion 4 (click law {clicks / n:.4f} vs {p_exp:.4f}, KS p={ks.pvalue:.3f}, "
        f"selection violations 0): PASS",
    )


def test_c05_success_formula_sweep(capsys):
    config = P.RoundConfig(params=PARAMS, t_window=0.5, seed=505)
    grid = [round(0.1 * j, 1) for j in range(1, 11)]
    rows = P.run_sweep(config, grid, 20_000)
    t_star = transfer_time(PARAMS)
    beta = alpha_beta(PARAMS, t_star)[1]
    for row in rows:
        analytic = beta * beta * math.exp(-2 * PARAMS.k * row["t_window"])
        assert abs(row["formula_survival"] - analytic) <= 1e-15
        assert abs(row["mc_estimate"] - row["formula_integrated"]) < 3 * row["mc_stderr"]
        # the two conventions genuinely differ over this grid: document the gap
        assert row["formula_survival"] > row["formula_integrated"]
    report(capsys, f"criterion 5 (survival column exact, MC matches integrated, {len(rows)} rows): PASS")


def test_c06_decode_correctness(capsys):
    config = P.RoundConfig(params=PARAMS0, t_window=0.5)
    stats = P.run_batch(dataclasses.replace(config, seed=606), 100_000,
                        messages=(Message.X, Message.IY))
    assert stats.success_rate == 1.0 and stats.abort_rate == 0.0

    for message in (Message.I, Message.Z):
        aborts = P.run_batch(dataclasses.replace(config, seed=607), 20_000, messages=(message,))
        assert aborts.abort_rate == 1.0

    pnr = dataclasses.replace(config, ideal_pnr=True)
    full = P.run_batch(dataclasses.replace(pnr, seed=608), 20_000)
    assert full.success_rate == 1.0
    report(capsys, "criterion 6 (psi decode error-free, phi aborts, PNR decodes all four): PASS")


def test_c07_security_numbers(capsys):
    config = P.RoundConfig(params=PARAMS0, t_window=0.5)
    views = S.standard_views(config)

    # analytic posteriors, before any sampling: a view's cell of the law,
    # normalised over the messages (the prior is uniform)
    x, iy = MESSAGES.index(Message.X), MESSAGES.index(Message.IY)
    law = S._view_law(views["bob_alone"], config, MESSAGES)
    post = law[:, 1, 0, 0] / law[:, 1, 0, 0].sum()  # one D+ click
    assert abs(post[x] - 0.5) < 1e-12 and abs(post[iy] - 0.5) < 1e-12
    assert np.delete(post, [x, iy]).max() < 1e-12
    law = S._view_law(views["charlie_alone"], config, MESSAGES)
    post = law[:, 0, 0, 1] / law[:, 0, 0, 1].sum()  # Charlie's atom in e
    assert np.abs(post - 0.25).max() < 1e-12
    law = S._view_law(views["collaboration"], config, MESSAGES)
    post = law[:, 1, 0, 1] / law[:, 1, 0, 1].sum()  # both
    assert abs(post[x] - 1.0) < 1e-12

    # the guessing games' counters: (hits, rounds with a click, hits among them)
    n = 100_000
    _, clicked, hits = S._guessing_games([views["bob_alone"]], config, MESSAGES)(707, (0, n))[0]
    bob, bob_stderr = S._rate(hits, clicked)
    assert abs(bob - 0.5) < 3 * bob_stderr
    hits = S._guessing_games([views["charlie_alone"]], config, MESSAGES)(708, (0, n))[0, 0]
    charlie, charlie_stderr = S._rate(hits, n)
    assert abs(charlie - 0.25) < 3 * charlie_stderr
    composite = 1.0 - charlie
    assert abs(composite - 0.75) < 3 * charlie_stderr
    report(
        capsys,
        f"criterion 7 (bob|click {bob:.4f}, charlie {charlie:.4f}, "
        f"composite {composite:.4f}): PASS",
    )


def test_c08_eavesdropper_detection(capsys):
    config = P.RoundConfig(params=PARAMS0, t_window=0.5)
    # the attacks' counters: (conclusive rounds, violations)
    n = 100_000
    conclusive, violations = S._attack(S.EveModel("none"), config)(808, (0, n))
    assert conclusive > 0 and violations == 0

    eve = S.EveModel("intercept_resend_atom", basis="z", target=0)
    exact = S.exact_eve_detection_rate(eve)
    assert abs(exact - 0.5) < 1e-12
    conclusive, violations = S._attack(eve, config)(809, (0, n))
    detection, stderr = S._rate(violations, conclusive)
    assert abs(detection - exact) < 3 * stderr
    report(
        capsys,
        f"criterion 8 (no-Eve 0, z-attack {detection:.4f} vs exact 0.5): PASS",
    )


def test_c09_feasibility_arithmetic(capsys):
    params = F.paper_params()
    rows = {r.name: r for r in F.regime_report(params)}
    assert rows["Omega*g/Delta^2"].value == pytest.approx(0.01, abs=1e-15)
    assert rows["Omega*g/Delta^2"].passed
    assert rows["Delta/gamma"].value > 1e5 and rows["Delta/gamma"].passed
    assert rows["Omega_k/k"].value > 1e3 and rows["Omega_k/k"].passed

    times = F.timescale_report(params)
    totals = {r.name: r for r in times.rows}
    assert totals["t1+t2 < t_d"].total == pytest.approx(1.5e-4, rel=1e-12)
    assert totals["t1+t2 < t_d"].passed and totals["t1+t2 < T_d"].passed
    assert times.t1_discrepancy_flagged
    report(capsys, "criterion 9 (feasibility ratios and timescales exact, t1 gap flagged): PASS")


def test_c10_multiparty(capsys):
    config = P.RoundConfig(params=PARAMS0, t_window=0.5, n_receivers=3, seed=1010)
    table = P.build_decode_table(config)
    psi_keys = [key for key in table if key[0] in (P.CHANNEL_PLUS, P.CHANNEL_MINUS)]
    assert len(psi_keys) == 8
    assert all(table[key] in (Message.X, Message.IY) for key in psi_keys)

    stats = P.run_batch(config, 10_000, messages=(Message.X, Message.IY))
    assert stats.success_rate == 1.0
    report(capsys, "criterion 10 (3-receiver table conflict-free, decoding error-free): PASS")


def test_c11_determinism(capsys, tmp_path):
    doc = {
        "params": {"g": 1.0, "Omega": 1.0, "Delta": 1.0, "k": 0.2, "gamma": 0.0},
        "round": {"t_window": 0.5, "seed": 99, "p_check": 0.1},
        "detector": {"efficiency": 0.9, "dark_prob": 0.02},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    outputs = []
    for name, threads in (("a1", "1"), ("b8", "8"), ("c1", "1")):
        dest = tmp_path / name
        code = cli.main(
            ["batch", "--config", str(cfg_path), "--rounds", "3000",
             "--threads", threads, "--out", str(dest), "--round-log"]
        )
        assert code == 0
        outputs.append(
            (dest / "batch_summary.json").read_bytes()
            + (dest / "rounds.jsonl").read_bytes()
        )
    assert outputs[0] == outputs[1] == outputs[2]
    report(capsys, "criterion 11 (byte-identical reruns at 1 and 8 threads): PASS")
