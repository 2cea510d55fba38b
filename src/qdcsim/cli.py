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
import functools
import json
import sys
import typing
from pathlib import Path

from . import protocol, security
from .dynamics import PhysicalParams
from .hilbert import Message
from .protocol import RoundConfig


class ConfigError(Exception):
    pass


# Only what the dataclasses leave open: every other default is the field's
# own default in PhysicalParams, RoundConfig or DetectorModel.
DEFAULT_CONFIG: dict = {
    "params": {"g": 1.0, "Omega": 1.0, "Delta": 1.0, "k": 0.2},
    "round": {"t_window": 0.5},
    "security": {"rounds": 20000, "eve": "intercept-resend-atom-z"},
    "sweep": {"t_windows": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], "rounds": 5000},
}


def _section(doc: dict, name: str) -> dict | None:
    """Section ``name``, None if absent; a dotted name is a nested section."""
    sec, path = doc, []
    for part in name.split("."):
        path.append(part)
        sec = sec.get(part)
        if sec is None:
            return None
        if not isinstance(sec, dict):
            raise ConfigError(f"{'.'.join(path)}: expected an object, got {sec!r}")
    return sec


def _setting(doc: dict, section: str, field: str):
    """A value outside the round config's sections, else its default."""
    return (_section(doc, section) or {}).get(field, DEFAULT_CONFIG.get(section, {}).get(field))


def _get_int(doc: dict, section: str, field: str) -> int:
    return _coerce(f"{section}.{field}", int, _setting(doc, section, field))


def _rounds(args, doc: dict, section: str) -> int:
    """The round count: ``--rounds``, else ``<section>.rounds``; an error
    names whichever of the two set it."""
    if args.rounds is not None:
        source, n_rounds = "--rounds", args.rounds
    else:
        source, n_rounds = f"{section}.rounds", _get_int(doc, section, "rounds")
    if n_rounds < 1:
        raise ConfigError(f"{source}: must be >= 1")
    return n_rounds


def _coerce(key: str, tp, value):
    """``value`` as JSON type ``tp``: bool takes booleans only, int integral
    numbers, float finite numbers (booleans are not numbers), ``X | None``
    null or an X; anything else is a ConfigError naming ``key``."""
    options = typing.get_args(tp) or (tp,)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if (value is None and type(None) in options) or (bool in options and isinstance(value, bool)):
        return value
    if int in options and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if float in options and number and abs(value) <= sys.float_info.max:
        return float(value)
    if str in options and isinstance(value, str):
        return value
    raise ConfigError(f"{key}: expected {getattr(tp, '__name__', tp)}, got {value!r}")


@functools.cache  # one entry per config dataclass; type hints are slow to resolve
def _field_types(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _build(doc: dict, section: str, cls, overrides: dict | None = None):
    """``cls`` from config section ``section``, ``overrides`` taking
    precedence; a field whose type is a dataclass is built from the section
    named after the field."""
    sec = _section(doc, section)
    types = _field_types(cls)
    for name in sec or {}:
        if name not in types or dataclasses.is_dataclass(types[name]):
            raise ConfigError(f"{section}.{name}: unknown field")
    kwargs = dict(overrides or {})
    for f in dataclasses.fields(cls):
        key, tp = f"{section}.{f.name}", types[f.name]
        if dataclasses.is_dataclass(tp):
            kwargs[f.name] = _build(doc, f.name, tp)
        elif f.name in (sec or {}):
            kwargs.setdefault(f.name, _coerce(key, tp, sec[f.name]))
        elif f.default is f.default_factory is dataclasses.MISSING:
            if sec is None:
                raise ConfigError(f"{key}: section '{section}' is missing")
            raise ConfigError(f"{key}: required field is missing")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


# the CLI flags that override a round field, each under the field's name
_OVERRIDES = ("p_check", "seed", "ideal_pnr")


def build_round_config(doc: dict, args: argparse.Namespace | None = None) -> RoundConfig:
    """The round config of ``doc``, with the CLI's overrides.  Seeds must lie
    in [0, 2**64): the library reduces a seed mod 2**64, so another seed
    would alias one of these."""
    overrides = {f: getattr(args, f) for f in _OVERRIDES if getattr(args, f, None) is not None}
    config = _build(doc, "round", RoundConfig, overrides)
    if not 0 <= config.seed < 2**64:
        source = "--seed" if "seed" in overrides else "round.seed"
        raise ConfigError(f"{source}: must lie in [0, 2**64), got {config.seed}")
    return config


def config_to_dict(config: RoundConfig) -> dict:
    """Round-trippable echo of a RoundConfig (parses back equal), in field
    order: the params section, the plain fields as section round, then the
    detector section."""
    out: dict = {}
    for name, tp in _field_types(RoundConfig).items():
        value = getattr(config, name)
        if dataclasses.is_dataclass(tp):
            out[name] = dataclasses.asdict(value)
        else:
            out.setdefault("round", {})[name] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    return doc


# ---------------------------------------------------------------------------
# serialization helpers


def _message_name(m: Message | None) -> str:
    return "abort" if m is None else m.value


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
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"security.eve: unknown eavesdropper model {name!r}")
    return table[name]


def _messages(args) -> tuple[Message, ...] | None:
    return None if args.message == "random" else (Message.from_name(args.message),)


def cmd_run(args) -> int:
    """Round 0 of the config's seed: a one-round batch."""
    doc = load_config(args.config)
    config = build_round_config(doc, args)
    log: list[str] = []
    protocol.run_batch(config, 1, messages=_messages(args), on_log=log.extend)
    line = log[0]
    print(line)
    emitter = _Emitter(args.out, "run", args.config, args.seed)
    emitter.emit("round.json", line + "\n")
    emitter.finish()
    return 0


def cmd_batch(args) -> int:
    doc = load_config(args.config)
    config = build_round_config(doc, args)
    n_rounds = _rounds(args, doc, "security")
    log: list[str] = []
    stats = protocol.run_batch(
        config, n_rounds, seed=config.seed, messages=_messages(args),
        on_log=log.extend if args.round_log else None, workers=args.threads,
    )
    print(json.dumps(batch_summary(config, stats, include_wall_time=True)))
    emitter = _Emitter(args.out, "batch", args.config, args.seed)
    emitter.emit(
        "batch_summary.json",
        json.dumps(batch_summary(config, stats, include_wall_time=False)) + "\n",
    )
    if args.round_log:
        emitter.emit("rounds.jsonl", "\n".join(log) + "\n")
    emitter.finish()
    return 0


def cmd_sweep(args) -> int:
    doc = load_config(args.config)
    config = build_round_config(doc, args)
    grid = _setting(doc, "sweep", "t_windows")
    n_rounds = _rounds(args, doc, "sweep")
    if isinstance(grid, list):
        grid = [_coerce(f"sweep.t_windows[{i}]", float, x) for i, x in enumerate(grid)]
    if not isinstance(grid, list) or not grid or not all(x > 0 for x in grid):
        raise ConfigError("sweep.t_windows: must be a nonempty list of positive times")
    if reason := protocol._no_click_rate(config):
        raise ConfigError(f"round.{reason}")
    rows = protocol.run_sweep(config, grid, n_rounds, seed=config.seed, workers=args.threads)
    csv_text = sweep_csv(rows)
    sys.stdout.write(csv_text)
    emitter = _Emitter(args.out, "sweep", args.config, args.seed)
    emitter.emit("sweep.csv", csv_text)
    emitter.finish()
    return 0


def cmd_security(args) -> int:
    doc = load_config(args.config)
    config = build_round_config(doc, args)
    n_rounds = _rounds(args, doc, "security")
    eve_name = args.eve or _setting(doc, "security", "eve")
    eve = _parse_eve(eve_name)
    photon = eve.strategy == "intercept_resend_photon"
    if config.ideal_pnr and photon:
        raise ConfigError(
            f"round.ideal_pnr, security.eve: the {eve_name} attack needs click decoding; "
            "the ideal-PNR oracle decode never reads the tampered state"
        )
    try:
        protocol.check_size(config.n_receivers, checks=not photon)  # atom attacks: check rounds
    except ValueError as exc:
        raise ConfigError(f"round: {exc}") from exc
    summary = {
        "config": config_to_dict(config),
        "n_rounds": n_rounds,
        "security": security.security_summary(config, n_rounds, config.seed, eve,
                                              workers=args.threads),
    }
    line = json.dumps(summary)
    print(line)
    emitter = _Emitter(args.out, "security", args.config, args.seed)
    emitter.emit("security.json", line + "\n")
    emitter.finish()
    return 0


def cmd_feasibility(args) -> int:
    from . import feasibility as feas  # only this command reads it: keeps start-up short

    doc = load_config(args.config)
    constants = _build(doc, "feasibility.constants", feas.HardwareConstants)
    if args.paper_constants or "params" not in doc:
        params = feas.paper_params(constants)
    else:
        params = _build(doc, "params", PhysicalParams)
    text = feas.report_text(params, constants)
    payload = json.dumps(feas.report_json(params, constants))
    print(text)
    print(payload)
    emitter = _Emitter(args.out, "feasibility", args.config, None)
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
    emitter = _Emitter(args.out, "decode-table", args.config, None)
    emitter.emit("decode_table.json", line + "\n")
    emitter.finish()
    return 0


# ---------------------------------------------------------------------------


@functools.cache  # one parser per process: building it costs about 1.6 ms
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, shared by every :func:`main` call (parsing
    leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="qdcsim",
        description="cavity-decay quantum dense coding simulator",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    parsers = {}
    for name, fn in [
        ("run", cmd_run),
        ("batch", cmd_batch),
        ("sweep", cmd_sweep),
        ("security", cmd_security),
        ("feasibility", cmd_feasibility),
        ("decode-table", cmd_decode_table),
    ]:
        p = parsers[name] = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(func=fn)
    # the rest only where the subcommand reads them, so argparse rejects a
    # flag that would be ignored
    for name in ("run", "batch", "sweep", "security"):
        parsers[name].add_argument("--seed", type=int, default=None, help="seed override")
    for name in ("run", "batch", "sweep"):
        parsers[name].add_argument("--p-check", dest="p_check", type=float, default=None)
    for name in ("run", "batch", "sweep", "security", "decode-table"):
        parsers[name].add_argument("--ideal-pnr", dest="ideal_pnr", action="store_true",
                                   default=None)
    for name, default in [("batch", "security.rounds"), ("sweep", "sweep.rounds"),
                          ("security", "security.rounds")]:
        parsers[name].add_argument("--rounds", type=int, default=None,
                                   help=f"rounds to run (default {default})")
        parsers[name].add_argument("--threads", type=int, default=1,
                                   help="worker processes, at most one per CPU (default 1)")
    for name in ("run", "batch"):
        parsers[name].add_argument("--message", default="random",
                                   choices=["I", "X", "iY", "Z", "random"])
    parsers["batch"].add_argument("--round-log", dest="round_log", action="store_true")
    parsers["security"].add_argument("--eve", default=None)
    parsers["feasibility"].add_argument("--paper-constants", dest="paper_constants",
                                        action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
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
