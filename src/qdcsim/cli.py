"""Configuration-driven command-line front end.

One JSON config document with sections {params, round, detector, security,
feasibility, sweep}; subcommands run / batch / sweep / security /
feasibility / decode-table.  All randomness flows from the single manifest
seed; float values serialize via Python's shortest round-trip repr, so
re-running a manifest reproduces identical bytes.  Wall-clock timing is
reported on stdout only, never in emitted files.

Exit codes: 0 success, 2 configuration error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import feasibility as feas
from . import protocol, security
from .dynamics import PhysicalParams
from .hilbert import Message
from .protocol import DetectorModel, RoundConfig


class ConfigError(Exception):
    pass


DEFAULT_CONFIG: dict = {
    "params": {"g": 1.0, "Omega": 1.0, "Delta": 1.0, "k": 0.2, "gamma": 0.0},
    "round": {
        "n_receivers": 2,
        "p_check": 0.0,
        "t_map": None,
        "t_window": 0.5,
        "success_convention": "survival",
        "ideal_pnr": False,
        "cutoff": 1,
        "seed": 0,
    },
    "detector": {"efficiency": 1.0, "dark_prob": 0.0},
    "security": {"rounds": 20000},
    "sweep": {"t_windows": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], "rounds": 5000},
    "feasibility": {},
}


def _get(doc: dict, section: str, field: str, required: bool = False, default=None):
    sec = doc.get(section)
    if sec is None:
        if required:
            raise ConfigError(f"{section}.{field}: section '{section}' is missing")
        return default
    if field not in sec:
        if required:
            raise ConfigError(f"{section}.{field}: required field is missing")
        return default
    return sec[field]


def _get_int(doc: dict, section: str, field: str, default: int) -> int:
    try:
        return int(_get(doc, section, field, default=default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.{field}: {exc}") from exc


def build_round_config(doc: dict, args: argparse.Namespace | None = None) -> RoundConfig:
    try:
        params = PhysicalParams(
            g=float(_get(doc, "params", "g", required=True)),
            Omega=float(_get(doc, "params", "Omega", required=True)),
            Delta=float(_get(doc, "params", "Delta", required=True)),
            k=float(_get(doc, "params", "k", default=0.0)),
            gamma=float(_get(doc, "params", "gamma", default=0.0)),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"params: {exc}") from exc

    try:
        detector = DetectorModel(
            efficiency=float(_get(doc, "detector", "efficiency", default=1.0)),
            dark_prob=float(_get(doc, "detector", "dark_prob", default=0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"detector: {exc}") from exc

    t_map = _get(doc, "round", "t_map", default=None)
    try:
        config = RoundConfig(
            params=params,
            t_window=float(_get(doc, "round", "t_window", required=True)),
            n_receivers=int(_get(doc, "round", "n_receivers", default=2)),
            p_check=float(_get(doc, "round", "p_check", default=0.0)),
            t_map=None if t_map is None else float(t_map),
            detector=detector,
            success_convention=str(
                _get(doc, "round", "success_convention", default="survival")
            ),
            ideal_pnr=bool(_get(doc, "round", "ideal_pnr", default=False)),
            cutoff=int(_get(doc, "round", "cutoff", default=1)),
            seed=int(_get(doc, "round", "seed", default=0)),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"round: {exc}") from exc

    if args is not None:
        overrides = {}
        if getattr(args, "p_check", None) is not None:
            overrides["p_check"] = args.p_check
        if getattr(args, "convention", None) is not None:
            overrides["success_convention"] = args.convention
        if getattr(args, "seed", None) is not None:
            overrides["seed"] = args.seed
        if getattr(args, "ideal_pnr", False):
            overrides["ideal_pnr"] = True
        if overrides:
            try:
                config = dataclasses.replace(config, **overrides)
            except ValueError as exc:
                raise ConfigError(f"round: {exc}") from exc
    return config


def config_to_dict(config: RoundConfig) -> dict:
    """Round-trippable echo of a RoundConfig (parses back equivalent)."""
    return {
        "params": {
            "g": config.params.g,
            "Omega": config.params.Omega,
            "Delta": config.params.Delta,
            "k": config.params.k,
            "gamma": config.params.gamma,
        },
        "round": {
            "n_receivers": config.n_receivers,
            "p_check": config.p_check,
            "t_map": config.t_map,
            "t_window": config.t_window,
            "success_convention": config.success_convention,
            "ideal_pnr": config.ideal_pnr,
            "cutoff": config.cutoff,
            "seed": config.seed,
        },
        "detector": {
            "efficiency": config.detector.efficiency,
            "dark_prob": config.detector.dark_prob,
        },
    }


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}") from exc


# ---------------------------------------------------------------------------
# serialization helpers


def _message_name(m: Message | None) -> str:
    return "abort" if m is None else m.value


def outcome_to_dict(index: int, out: protocol.RoundOutcome) -> dict:
    d: dict = {"round": index, "mode": out.mode}
    if out.mode == "encode":
        d["sent"] = _message_name(out.sent)
        d["clicks"] = [[t, ch] for t, ch in out.detection.events] if out.detection else []
        d["receiver_bits"] = out.receiver_bits
        d["decoded"] = _message_name(out.decoded)
        if out.bell_label is not None:
            d["bell_label"] = out.bell_label
    else:
        d["check_bases"] = out.check_bases
        d["check_conclusive"] = out.check_conclusive
        d["check_passed"] = out.check_passed
    return d


def batch_summary(config: RoundConfig, stats: protocol.BatchStats,
                  include_wall_time: bool) -> dict:
    d = {
        "config": config_to_dict(config),
        "n_rounds": stats.n_rounds,
        "n_encode": stats.n_encode,
        "n_check": stats.n_check,
        "success_rate": stats.success_rate,
        "abort_rate": stats.abort_rate,
        "confusion": stats.confusion,
        "confusion_rows": ["I", "X", "iY", "Z"],
        "confusion_cols": ["I", "X", "iY", "Z", "abort"],
        "check_pass_rate": stats.check_pass_rate,
        "psi_click_rate": stats.psi_click_rate,
        "psi_survival_rate": stats.psi_survival_rate,
    }
    if include_wall_time:
        d["wall_time_s"] = stats.wall_time_s
    return d


def sweep_csv(rows: list[dict]) -> str:
    lines = ["t_window,formula_survival,formula_integrated,mc_estimate,mc_stderr"]
    for r in rows:
        lines.append(
            f"{r['t_window']!r},{r['formula_survival']!r},{r['formula_integrated']!r},"
            f"{r['mc_estimate']!r},{r['mc_stderr']!r}"
        )
    return "\n".join(lines) + "\n"


class _Emitter:
    """Writes deterministic files under --out and records them in a manifest."""

    def __init__(self, out_dir: str | None, subcommand: str, config_path: str | None,
                 seed_override: int | None):
        self.out_dir = Path(out_dir) if out_dir else None
        self.manifest = {
            "subcommand": subcommand,
            "config": config_path,
            "out_dir": out_dir,
            "seed_override": seed_override,
            "files": [],
        }

    def emit(self, name: str, content: str):
        if self.out_dir is None:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / name).write_text(content)
        self.manifest["files"].append(name)

    def finish(self):
        if self.out_dir is None:
            return
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(self.manifest, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _parse_eve(name: str) -> security.EveModel:
    table = {
        "none": security.EveModel("none"),
        "intercept-resend-atom-z": security.EveModel("intercept_resend_atom", basis="z"),
        "intercept-resend-atom-x": security.EveModel("intercept_resend_atom", basis="x"),
        "intercept-resend-photon": security.EveModel("intercept_resend_photon"),
    }
    if name not in table:
        raise ConfigError(f"security.eve: unknown eavesdropper model {name!r}")
    return table[name]


def cmd_run(args) -> int:
    doc = load_config(args.config)
    config = build_round_config(doc, args)
    rng = protocol.round_rng(config.seed, 0)
    out = protocol.run_round(config, args.message, rng)
    line = json.dumps(outcome_to_dict(0, out))
    print(line)
    emitter = _Emitter(args.out, "run", args.config, args.seed)
    emitter.emit("round.json", line + "\n")
    emitter.finish()
    return 0


def cmd_batch(args) -> int:
    doc = load_config(args.config)
    config = build_round_config(doc, args)
    n_rounds = args.rounds if args.rounds is not None else _get_int(
        doc, "security", "rounds", default=20000
    )
    if n_rounds < 1:
        raise ConfigError("rounds: must be >= 1")
    messages = None if args.message == "random" else (Message.from_name(args.message),)
    log_lines: list[str] = []
    on_round = None
    if args.round_log:
        on_round = lambda i, out: log_lines.append(json.dumps(outcome_to_dict(i, out)))
    stats = protocol.run_batch(
        config, n_rounds, seed=config.seed, threads=args.threads,
        messages=messages, on_round=on_round,
    )
    print(json.dumps(batch_summary(config, stats, include_wall_time=True)))
    emitter = _Emitter(args.out, "batch", args.config, args.seed)
    emitter.emit(
        "batch_summary.json",
        json.dumps(batch_summary(config, stats, include_wall_time=False)) + "\n",
    )
    if args.round_log:
        emitter.emit("rounds.jsonl", "\n".join(log_lines) + "\n")
    emitter.finish()
    return 0


def cmd_sweep(args) -> int:
    doc = load_config(args.config)
    config = build_round_config(doc, args)
    grid = _get(doc, "sweep", "t_windows", default=DEFAULT_CONFIG["sweep"]["t_windows"])
    n_rounds = args.rounds if args.rounds is not None else _get_int(
        doc, "sweep", "rounds", default=5000
    )
    if not isinstance(grid, list) or not grid or not all(
        isinstance(x, (int, float)) and x > 0 for x in grid
    ):
        raise ConfigError("sweep.t_windows: must be a nonempty list of positive times")
    if n_rounds < 1:
        raise ConfigError("sweep.rounds: must be >= 1")
    rows = protocol.run_sweep(config, grid, n_rounds, seed=config.seed, threads=args.threads)
    csv_text = sweep_csv(rows)
    sys.stdout.write(csv_text)
    emitter = _Emitter(args.out, "sweep", args.config, args.seed)
    emitter.emit("sweep.csv", csv_text)
    emitter.finish()
    return 0


def cmd_security(args) -> int:
    doc = load_config(args.config)
    config = build_round_config(doc, args)
    n_rounds = args.rounds if args.rounds is not None else _get_int(
        doc, "security", "rounds", default=20000
    )
    if n_rounds < 1:
        raise ConfigError("security.rounds: must be >= 1")
    eve_name = args.eve or _get(doc, "security", "eve", default="intercept-resend-atom-z")
    eve = _parse_eve(eve_name)
    summary = {
        "config": config_to_dict(config),
        "n_rounds": n_rounds,
        "security": security.security_summary(config, n_rounds, config.seed, eve),
    }
    line = json.dumps(summary)
    print(line)
    emitter = _Emitter(args.out, "security", args.config, args.seed)
    emitter.emit("security.json", line + "\n")
    emitter.finish()
    return 0


def cmd_feasibility(args) -> int:
    doc = load_config(args.config)
    constants_doc = _get(doc, "feasibility", "constants", default=None)
    try:
        constants = (
            feas.HardwareConstants(**constants_doc)
            if constants_doc
            else feas.HardwareConstants()
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"feasibility.constants: {exc}") from exc
    if args.paper_constants or "params" not in doc:
        params = feas.paper_params(constants)
    else:
        params = build_round_config(doc, args).params
    text = feas.report_text(params, constants)
    payload = json.dumps(feas.report_json(params, constants))
    print(text)
    print(payload)
    emitter = _Emitter(args.out, "feasibility", args.config, args.seed)
    emitter.emit("feasibility.json", payload + "\n")
    emitter.finish()
    return 0


def cmd_decode_table(args) -> int:
    doc = load_config(args.config)
    config = build_round_config(doc, args)
    table = protocol.build_decode_table(config)
    entries = [
        {"key": list(key), "message": _message_name(msg)}
        for key, msg in sorted(table.items())
    ]
    line = json.dumps({"ideal_pnr": config.ideal_pnr, "table": entries})
    print(line)
    emitter = _Emitter(args.out, "decode-table", args.config, args.seed)
    emitter.emit("decode_table.json", line + "\n")
    emitter.finish()
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdcsim",
        description="cavity-decay quantum dense coding simulator",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1, help="worker threads (>= 1)")
        p.add_argument(
            "--rounds", type=int, default=None,
            help="rounds to run; batch and security default to security.rounds, "
            "sweep to sweep.rounds",
        )
        p.add_argument("--message", default="random", choices=["I", "X", "iY", "Z", "random"])
        p.add_argument("--convention", default=None, choices=["survival", "integrated"])
        p.add_argument("--p-check", dest="p_check", type=float, default=None)
        p.add_argument("--ideal-pnr", dest="ideal_pnr", action="store_true")
        p.add_argument("--eve", default=None)
        p.add_argument("--paper-constants", dest="paper_constants", action="store_true")
        p.add_argument("--round-log", dest="round_log", action="store_true")

    for name, fn in [
        ("run", cmd_run),
        ("batch", cmd_batch),
        ("sweep", cmd_sweep),
        ("security", cmd_security),
        ("feasibility", cmd_feasibility),
        ("decode-table", cmd_decode_table),
    ]:
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ConfigError("threads: must be >= 1")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
