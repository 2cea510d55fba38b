"""Configuration-driven command-line front end.

One JSON config document with sections {params, round, detector, security,
feasibility, sweep}; subcommands run / batch / sweep / security /
feasibility / decode-table.  Each subcommand is a function of (arguments,
config document, ``--out``) that returns its stdout text and its files by
name; :func:`main` alone loads the document and writes stdout, the files
and ``manifest.json``.  Every file is written under a temporary name
inside ``--out`` (``batch`` streams ``rounds.jsonl`` there as its rounds
run), and :func:`emit` renames them all, ``manifest.json`` last, once every
one is written; a command that fails leaves no file, no temporary file and
no ``--out`` directory that it made.  All randomness flows from the round
config's seed; float values serialize via Python's shortest round-trip
repr, so the same command line on the same config document reproduces
identical bytes.  A manifest is not enough to re-run: it records the
config's path and ``--seed``, not the document's contents or the other
options.  Wall-clock timing is reported on stdout only, never in emitted
files.

Exit codes: 0 success, 2 configuration error (:class:`ConfigError`, which
the library raises too), 3 internal invariant violation.  A non-finite
number in an output is one: the writers reject it, so no file holds it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib
import io
import json
import math
import os
import sys
import time
import typing
from pathlib import Path

from . import protocol
from .dynamics import PhysicalParams
from .hilbert import Message
from .protocol import ConfigError, RoundConfig

if typing.TYPE_CHECKING:  # annotations only: the security command imports it
    from . import security


# Only what the dataclasses leave open: every other default is the field's
# own default in PhysicalParams, RoundConfig or DetectorModel.
DEFAULT_CONFIG: dict = {
    "params": {"g": 1.0, "Omega": 1.0, "Delta": 1.0, "k": 0.2},
    "round": {"t_window": 0.5},
    "security": {"rounds": 20000, "eve": "intercept-resend-atom-z"},
    "sweep": {"t_windows": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], "rounds": 5000},
}
# every section's field names: listed, or a config dataclass's less those
# built from a section of their own; qdcsim.feasibility's is imported only
# for a document that holds its section
_FIELDS = {
    "params": PhysicalParams, "round": RoundConfig, "detector": protocol.DetectorModel,
    "security": tuple(DEFAULT_CONFIG["security"]), "sweep": tuple(DEFAULT_CONFIG["sweep"]),
    "feasibility": ("constants",),
    "feasibility.constants":
        lambda: importlib.import_module(".feasibility", __package__).HardwareConstants,
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
    names whichever of the two set it.  Round indices are int64 and key the
    streams, so a count must lie below 2**63."""
    if args.rounds is not None:
        source, n_rounds = "--rounds", args.rounds
    else:
        source, n_rounds = f"{section}.rounds", _get_int(doc, section, "rounds")
    if n_rounds < 1:
        raise ConfigError(f"{source}: must be >= 1")
    if n_rounds >= 2**63:
        raise ConfigError(f"{source}: must be below 2**63")
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
    for name in doc:
        if name not in _FIELDS or "." in name:
            raise ConfigError(f"{name}: unknown section")
    for name, fields in _FIELDS.items():
        sec = _section(doc, name)
        if sec is not None and not isinstance(fields, tuple):
            cls = fields if isinstance(fields, type) else fields()
            fields = [f for f, tp in _field_types(cls).items() if not dataclasses.is_dataclass(tp)]
        for field in sec or {}:
            if field not in fields:
                raise ConfigError(f"{name}.{field}: unknown field")
    return doc


# ---------------------------------------------------------------------------
# serialization helpers


def batch_summary(config: RoundConfig, stats: protocol.BatchStats) -> dict:
    return {
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


def sweep_csv(rows: list[dict]) -> str:
    """The sweep rows as CSV; a non-finite value raises ValueError, as
    ``json.dumps(..., allow_nan=False)`` does for the JSON files."""
    columns = ("t_window", "formula_survival", "formula_integrated", "mc_estimate", "mc_stderr")
    lines = [",".join(columns)]
    for r in rows:
        if not all(math.isfinite(r[c]) for c in columns):
            raise ValueError(f"sweep row {r} holds a non-finite value")
        lines.append(",".join(repr(r[c]) for c in columns))
    return "\n".join(lines) + "\n"


class _OutDir:
    """The ``--out`` directory of one command.  Every file is written under a
    temporary name inside it (:meth:`open`) and renamed by :func:`emit`;
    :meth:`discard` removes the temporary files left, and the directories
    that :meth:`open` made unless :func:`emit` finished."""

    def __init__(self, path: str):
        self.path = Path(path)
        self.made: list[Path] = []  # directories made here, outermost first
        self.staged: dict[str, tuple[Path, typing.TextIO]] = {}  # name -> temporary file

    def open(self, name: str) -> typing.TextIO:
        """A new text file that :func:`emit` renames to ``name``."""
        if not self.path.is_dir():
            missing = [p for p in (self.path, *self.path.parents) if not p.exists()]
            self.path.mkdir(parents=True)
            self.made = missing[::-1]
        temp = self.path / f".{name}.{os.urandom(6).hex()}.tmp"
        stream = open(temp, "x", encoding="utf-8")  # a new file, with the umask's mode
        self.staged[name] = temp, stream
        return stream

    def discard(self) -> None:
        for temp, stream in self.staged.values():
            stream.close()
            temp.unlink(missing_ok=True)
        self.staged.clear()
        for path in reversed(self.made):
            with contextlib.suppress(OSError):
                path.rmdir()


def emit(out: _OutDir, manifest: dict, files: dict[str, str | typing.TextIO]) -> None:
    """Writes ``files`` under ``out``: each text under a temporary name
    (a stream is one already, from ``out.open``), then ``manifest.json``,
    ``manifest`` with the files' names in order; then renames them all in
    that order, the manifest last."""
    for name, content in files.items():
        if isinstance(content, str):
            out.open(name).write(content)
    manifest = {**manifest, "files": list(files)}
    out.open("manifest.json").write(json.dumps(manifest, indent=2, allow_nan=False) + "\n")
    for name in [*files, "manifest.json"]:
        temp, stream = out.staged.pop(name)
        stream.close()
        temp.replace(out.path / name)
    out.made = []


# ---------------------------------------------------------------------------
# subcommands: each takes (arguments, config document, --out or None) and
# returns (stdout text, {file name: text, or a stream from out.open})


def _parse_eve(name: str) -> security.EveModel:
    from . import security

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


def cmd_run(args, doc: dict, out: _OutDir | None) -> tuple[str, dict]:
    """Round 0 of the config's seed: a one-round batch."""
    config = build_round_config(doc, args)
    log = io.StringIO()
    protocol.run_batch(config, 1, messages=_messages(args), log=log)
    line = log.getvalue()
    return line, {"round.json": line}


def cmd_batch(args, doc: dict, out: _OutDir | None) -> tuple[str, dict]:
    config = build_round_config(doc, args)
    n_rounds = _rounds(args, doc, "security")
    # only a file holds the log, streamed to it as the rounds run
    log = out.open("rounds.jsonl") if args.round_log and out is not None else None
    t0 = time.perf_counter()
    stats = protocol.run_batch(config, n_rounds, messages=_messages(args), log=log,
                               workers=args.threads, spool=None if log is None else out.path)
    wall = time.perf_counter() - t0
    summary = batch_summary(config, stats)
    files = {"batch_summary.json": json.dumps(summary, allow_nan=False) + "\n"}
    if log is not None:
        files["rounds.jsonl"] = log
    stdout = json.dumps({**summary, "wall_time_s": wall}, allow_nan=False)
    return stdout + "\n", files


def cmd_sweep(args, doc: dict, out: _OutDir | None) -> tuple[str, dict]:
    config = build_round_config(doc, args)
    grid = _setting(doc, "sweep", "t_windows")
    n_rounds = _rounds(args, doc, "sweep")
    if isinstance(grid, list):
        grid = [_coerce(f"sweep.t_windows[{i}]", float, x) for i, x in enumerate(grid)]
    if not isinstance(grid, list) or not grid or not all(x > 0 for x in grid):
        raise ConfigError("sweep.t_windows: must be a nonempty list of positive times")
    csv_text = sweep_csv(protocol.run_sweep(config, grid, n_rounds, workers=args.threads))
    return csv_text, {"sweep.csv": csv_text}


def cmd_security(args, doc: dict, out: _OutDir | None) -> tuple[str, dict]:
    from . import security  # only this command reads it: keeps start-up short

    config = build_round_config(doc, args)
    n_rounds = _rounds(args, doc, "security")
    eve = _parse_eve(args.eve or _setting(doc, "security", "eve"))
    line = json.dumps({
        "config": config_to_dict(config),
        "n_rounds": n_rounds,
        "security": security.security_summary(config, n_rounds, eve, workers=args.threads),
    }, allow_nan=False) + "\n"
    return line, {"security.json": line}


def cmd_feasibility(args, doc: dict, out: _OutDir | None) -> tuple[str, dict]:
    from . import feasibility as feas  # only this command reads it: keeps start-up short

    constants = _build(doc, "feasibility.constants", feas.HardwareConstants)
    if args.paper_constants or "params" not in doc:
        try:
            params = feas.paper_params(constants)
        except ValueError as exc:  # gamma = 1/t_r is infinite, or k = 1/t_d overdamps
            name = "t_r" if 1.0 / constants.t_r > sys.float_info.max else "t_d"
            raise ConfigError(f"feasibility.constants.{name}: {exc}") from exc
    else:
        params = _build(doc, "params", PhysicalParams)
    payload = json.dumps(feas.report_json(params, constants), allow_nan=False) + "\n"
    return feas.report_text(params, constants) + "\n" + payload, {"feasibility.json": payload}


def cmd_decode_table(args, doc: dict, out: _OutDir | None) -> tuple[str, dict]:
    config = build_round_config(doc, args)
    entries = [
        {"key": list(key), "message": "abort" if msg is None else msg.value}
        for key, msg in sorted(protocol.build_decode_table(config).items())
    ]
    line = json.dumps({"ideal_pnr": config.ideal_pnr, "table": entries}, allow_nan=False) + "\n"
    return line, {"decode_table.json": line}


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
    """Runs one subcommand: writes its stdout, then, with ``--out``, its files
    and ``manifest.json``; returns the exit code."""
    args = build_parser().parse_args(argv)
    out = _OutDir(args.out) if args.out else None
    try:
        if getattr(args, "threads", 1) < 1:
            raise ConfigError("--threads: must be >= 1")
        stdout, files = args.func(args, load_config(args.config), out)
        sys.stdout.write(stdout)
        if out is not None:
            emit(out, {"subcommand": args.subcommand, "config": args.config,
                       "out_dir": args.out, "seed_override": getattr(args, "seed", None)},
                 files)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        if out is not None:
            out.discard()


if __name__ == "__main__":
    sys.exit(main())
