"""Output checks for one repetition, run after timing and outside any trace.

Every check is one attempt; ``fail_frac`` is failed checks over attempted.
Monte-Carlo rates are compared with the simulator's exact model within
``Z_LIMIT`` standard errors.  The error is floored at one count in the
sample, so a cell the model puts near zero tolerates a few stray rounds.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

Z_LIMIT = 5.0


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def within(self, name: str, observed: float, expected: float, n: int,
               stderr: float | None = None) -> None:
        if stderr is None:
            stderr = math.sqrt(max(expected * (1.0 - expected), 0.0) / n)
        sigma = max(stderr, 1.0 / n)
        self.add(name, abs(observed - expected) <= Z_LIMIT * sigma,
                 f"{observed!r} vs exact {expected!r}, sigma {sigma:.3g}")

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def file_digests(out_dir: Path, names) -> dict[str, str | None]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        if (out_dir / name).is_file() else None
        for name in names
    }


def check_command(checks: Checks, tag: str, exit_codes: list[int], out_dir: Path,
                  outputs) -> None:
    """Every run exited 0; the manifest lists exactly the expected files."""
    checks.add(f"{tag}.exit_code", not any(exit_codes), f"exit codes {exit_codes}")
    manifest = out_dir / "manifest.json"
    files = json.loads(manifest.read_text()).get("files") if manifest.is_file() else None
    checks.add(f"{tag}.manifest", files == list(outputs), f"manifest files {files}")


def check_batch(checks: Checks, out_dir: Path, cfg, rounds: int) -> None:
    from qdcsim import protocol
    from qdcsim.hilbert import Message

    log = out_dir / "rounds.jsonl"
    lines = log.read_bytes().count(b"\n") if log.is_file() else -1
    checks.add("batch.round_log_lines", lines == rounds, f"{lines} lines for {rounds} rounds")

    summary = json.loads((out_dir / "batch_summary.json").read_text())
    n_check = summary["n_check"]
    checks.within("batch.check_fraction", n_check / rounds, cfg.p_check, rounds)
    checks.add("batch.check_pass_rate", summary["check_pass_rate"] == 1.0,
               f"honest check pass rate {summary['check_pass_rate']}")

    cols = summary["confusion_cols"]
    for row_name, row in zip(summary["confusion_rows"], summary["confusion"]):
        sent = Message.from_name(row_name)
        dist = protocol.outcome_distribution(cfg, sent)
        mass = sum(dist.values())
        checks.add(f"batch.model_mass.{row_name}", abs(mass - 1.0) < 1e-9, f"mass {mass!r}")
        exact = dict.fromkeys(cols, 0.0)
        for (counts, bits), p in dist.items():
            decoded = protocol.decode(cfg, counts, bits)
            exact["abort" if decoded is None else decoded.value] += p / mass
        n = sum(row)
        for col, count in zip(cols, row):
            checks.within(f"batch.decode.{row_name}->{col}", count / n, exact[col], n)
        # The model check above shares decode() with the simulator, so it
        # cannot see a wrong decode rule.  A single click identifies psi+-,
        # so X and iY decode right far more often than wrongly (about 45:1
        # with this detector); 4:1 leaves room for sampling noise.
        if sent in (Message.X, Message.IY):
            right = row[cols.index(row_name)]
            wrong = sum(row[:-1]) - right
            checks.add(f"batch.decodes_right.{row_name}", right >= 4 * wrong,
                       f"{right} right vs {wrong} wrong decodes")


def check_sweep(checks: Checks, out_dir: Path, grid, rounds_per_point: int) -> None:
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    got = [float(r[header.index("t_window")]) for r in rows]
    checks.add("sweep.grid", got == [float(t) for t in grid], f"t_window column {got}")
    for r in rows:
        t = r[header.index("t_window")]
        checks.within(f"sweep.mc_vs_integrated.t{t}", float(r[header.index("mc_estimate")]),
                      float(r[header.index("formula_integrated")]), rounds_per_point)


def check_security(checks: Checks, out_dir: Path, cfg, rounds: int) -> None:
    from qdcsim import security

    report = json.loads((out_dir / "security.json").read_text())["security"]
    views = security.standard_views(cfg)
    for key, given_click in (("bob_alone", True), ("charlie_alone", False),
                             ("collaboration", True)):
        exact = security.optimal_guess_rate(views[key], cfg, given_click=given_click)
        checks.within(f"security.{key}", report[key], exact, rounds,
                      stderr=report[f"{key}_stderr"])
    eve = security.EveModel("intercept_resend_atom", basis="z")
    exact = security.exact_eve_detection_rate(eve, cfg.n_parties)
    checks.within("security.eve_detection_rate", report["eve_detection_rate"], exact,
                  report["eve_conclusive_rounds"], stderr=report["eve_detection_stderr"])
