import argparse
import contextlib
import copy
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import scalar_oracle as O
from qdcsim import cli, lockstep
from qdcsim import protocol as P
from qdcsim.dynamics import PhysicalParams
from qdcsim.cli import ConfigError, build_round_config, config_to_dict, load_config


BASE_DOC = {
    "params": {"g": 1.0, "Omega": 1.0, "Delta": 1.0, "k": 0.2, "gamma": 0.0},
    "round": {"t_window": 0.5, "seed": 42},
    "detector": {"efficiency": 1.0, "dark_prob": 0.0},
    "sweep": {"t_windows": [0.2, 0.5], "rounds": 1500},
    "security": {"rounds": 1500},
}


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "base.json"
    p.write_text(json.dumps(BASE_DOC))
    return str(p)


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParserOncePerProcess:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_write_what_fresh_processes_write(self, tmp_path, monkeypatch,
                                                                    capsys):
        monkeypatch.chdir(tmp_path)
        Path("base.json").write_text(json.dumps(BASE_DOC))
        commands = [["batch", "--rounds", "300", "--round-log", "--out", "batch"],
                    ["security", "--rounds", "200", "--out", "security"]]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        for argv in commands:
            subprocess.run([sys.executable, "-m", "qdcsim.cli", *argv, "--config", "base.json"],
                           env=env, check=True, capture_output=True)
        fresh = {str(p): p.read_bytes() for p in sorted(Path().glob("*/*"))}
        for argv in commands:
            shutil.rmtree(argv[-1])
        for argv in commands:
            assert cli.main([*argv, "--config", "base.json"]) == 0
            with pytest.raises(SystemExit) as usage_error:  # still exits 2 on a shared parser
                cli.main([argv[0], "--no-such-flag"])
            assert usage_error.value.code == 2
        capsys.readouterr()
        assert {str(p): p.read_bytes() for p in sorted(Path().glob("*/*"))} == fresh
        assert len(fresh) == 5  # batch_summary, rounds.jsonl, security.json, 2 manifests


# Runs cli.main in a fresh interpreter (this one has imported every module)
# and prints as its last line its exit code, the qdcsim modules loaded, and
# the numpy modules the command loaded beyond those that importing qdcsim.cli
# loaded; security and feasibility must load in their own commands alone.
LOADED_MODULES = """\
import json, sys
from qdcsim import cli
before = set(sys.modules)
code = cli.main(sys.argv[1:])
after = set(sys.modules)
print(json.dumps([code, sorted(m for m in after if m.startswith("qdcsim.")),
                  sorted(m for m in after - before if m.split(".")[0] == "numpy")]))
"""

# each command line, with the modules of those two it must load
COMMAND_IMPORTS = [
    ("run", ["run"], set()),
    ("batch", ["batch", "--round-log", "--rounds", "20"], set()),
    ("sweep", ["sweep", "--rounds", "20"], set()),
    ("decode-table", ["decode-table"], set()),
    ("feasibility", ["feasibility"], {"qdcsim.feasibility"}),
    ("security", ["security", "--rounds", "20"], {"qdcsim.security"}),
    ("security-photon", ["security", "--eve", "intercept-resend-photon", "--rounds", "20"],
     {"qdcsim.security"}),
    ("security-none", ["security", "--eve", "none", "--rounds", "20"], {"qdcsim.security"}),
]


def loaded_modules(argv, cwd) -> tuple[set, set]:
    """Which of security and feasibility ``qdcsim ARGV`` loads, run in a
    fresh interpreter in ``cwd``, and which numpy modules it loads that
    ``import qdcsim.cli`` had not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                          cwd=cwd, env=env, check=True, capture_output=True, text=True)
    code, modules, numpy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return {"qdcsim.security", "qdcsim.feasibility"} & set(modules), set(numpy_modules)


@pytest.mark.parametrize("argv, loaded", [pytest.param(*c[1:], id=c[0]) for c in COMMAND_IMPORTS])
def test_command_imports_only_its_modules(argv, loaded, tmp_path):
    # and no numpy module past those `import qdcsim.cli` loaded: the bare
    # np.unique of numpy 2.4 imports numpy.ma, about 10 ms and 0.7 MB
    # (README, start-up)
    modules, numpy_modules = loaded_modules([*argv, "--out", "out"], tmp_path)
    assert modules == loaded
    assert numpy_modules == set()


@pytest.mark.parametrize("constants, loaded", [
    (None, set()), ({"t1": 1e-4}, {"qdcsim.feasibility"}),
])
def test_constants_section_alone_loads_feasibility(constants, loaded, tmp_path):
    # load_config reads HardwareConstants' field names only for a document
    # that sets them
    doc = dict(BASE_DOC, **({"feasibility": {"constants": constants}} if constants else {}))
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    modules, numpy_modules = loaded_modules(["batch", "--rounds", "20", "--config", "doc.json"],
                                            tmp_path)
    assert (modules, numpy_modules) == (loaded, set())


class TestConfigParsing:
    def test_roundtrip(self, config_path):
        cfg = build_round_config(load_config(config_path))
        cfg2 = build_round_config(config_to_dict(cfg))
        assert cfg2 == cfg

    def test_missing_field_named(self):
        doc = {"params": {"g": 1.0, "Omega": 1.0}, "round": {"t_window": 0.5}}
        with pytest.raises(ConfigError, match="params.Delta"):
            build_round_config(doc)

    def test_missing_window_named(self):
        doc = {"params": {"g": 1.0, "Omega": 1.0, "Delta": 1.0}}
        with pytest.raises(ConfigError, match="round.t_window"):
            build_round_config(doc)

    def test_invalid_value_reported(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["detector"]["efficiency"] = 1.5
        with pytest.raises(ConfigError, match="detector"):
            build_round_config(doc)

    def test_t_map_off_a_zero_of_alpha_named(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["round"]["t_map"] = 1.0
        with pytest.raises(ConfigError, match="t_map"):
            build_round_config(doc)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_roundtrip_every_field(self):
        # all 13 fields off their defaults
        params = {"g": 1.5, "Omega": 0.8, "Delta": 1.2, "k": 0.3, "gamma": 0.01}
        doc = {
            "params": params,
            "round": {
                "n_receivers": 3, "p_check": 0.25,
                "t_map": P.transfer_time(PhysicalParams(**params)), "t_window": 2.5,
                "ideal_pnr": True, "seed": 2**64 - 11,
            },
            "detector": {"efficiency": 0.85, "dark_prob": 0.03},
        }
        cfg = build_round_config(doc)
        echo = config_to_dict(cfg)
        default = P.RoundConfig(params=PhysicalParams(g=1.0, Omega=1.0, Delta=1.0), t_window=0.5)
        for section, fields in config_to_dict(default).items():
            for name, value in fields.items():
                assert echo[section][name] != value, f"{section}.{name}"
        assert list(echo) == ["params", "round", "detector"]
        assert list(echo["round"]) == [
            "n_receivers", "p_check", "t_map", "t_window", "ideal_pnr", "seed",
        ]
        assert build_round_config(json.loads(json.dumps(echo))) == cfg

    @pytest.mark.parametrize("section, field, value", [
        ("round", "ideal_pnr", "false"),
        ("round", "n_receivers", 2.7),
        ("round", "cutoff", 1.9),  # not a field: every cavity holds one photon at most
        ("params", "k", True),
        ("round", "p_chek", 0.5),
        ("detector", "eficiency", 0.5),
    ])
    def test_malformed_field_exits_2(self, section, field, value, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc[section][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["run", "--config", str(path)], capsys)
        assert code == 2
        assert f"config error: {section}.{field}:" in err

    @pytest.mark.parametrize("text, named", [
        ("[1]", "config:"),
        ('{"round": [1]}', "round:"),
        ('{"params": {"g": 1, "Omega": 1, "Delta": 1}, "round": {"t_window": NaN}}',
         "round.t_window:"),
    ])
    def test_malformed_document_exits_2(self, text, named, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, _, err = run_cli(["run", "--config", str(path)], capsys)
        assert code == 2
        assert f"config error: {named}" in err

    @pytest.mark.parametrize("command", [
        ["run"], ["batch"], ["sweep"], ["security"], ["feasibility"],
        ["feasibility", "--paper-constants"], ["decode-table"],
    ], ids=" ".join)
    @pytest.mark.parametrize("section, value, named", [
        ("batch", {"rounds": 5}, "batch: unknown section"),
        ("sweep", {"t_window": [1.0]}, "sweep.t_window: unknown field"),
        ("security", {"roundz": 7}, "security.roundz: unknown field"),
        ("feasibility", {"constantz": {}}, "feasibility.constantz: unknown field"),
        ("feasibility", {"constants": {"t_dd": 1.0}}, "feasibility.constants.t_dd: unknown field"),
        ("round", {"t_window": 0.5, "p_chek": 0.1}, "round.p_chek: unknown field"),
        ("detector", {"efficency": 0.9}, "detector.efficency: unknown field"),
        ("params", {**BASE_DOC["params"], "kk": 0.2}, "params.kk: unknown field"),
    ])
    def test_unknown_key_exits_2(self, command, section, value, named, tmp_path, capsys):
        # a misspelt key would otherwise run on the defaults without a word;
        # each command reads some sections only, but checks every section's names
        doc = json.loads(json.dumps(BASE_DOC))
        doc[section] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([*command, "--config", str(path), "--out", str(tmp_path / "out")],
                                 capsys)
        assert code == 2 and out == "" and not (tmp_path / "out").exists()
        assert f"config error: {named}" in err

    def test_integral_float_reads_as_int(self):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["round"]["n_receivers"] = 3.0
        assert build_round_config(doc).n_receivers == 3

    def test_round_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            P.RoundConfig(PhysicalParams(g=1.0, Omega=1.0, Delta=1.0), 0.5)


class TestRunCommand:
    def test_single_round_json(self, config_path, capsys):
        code, out, _ = run_cli(
            ["run", "--config", config_path, "--message", "X", "--seed", "7"], capsys
        )
        assert code == 0
        doc = json.loads(out.strip())
        assert doc["mode"] == "encode" and doc["sent"] == "X"
        assert set(doc) >= {"clicks", "receiver_bits", "decoded"}

    def test_forced_check(self, config_path, capsys):
        code, out, _ = run_cli(
            ["run", "--config", config_path, "--p-check", "1.0"], capsys
        )
        assert code == 0
        assert json.loads(out.strip())["mode"] == "check"

    @pytest.mark.parametrize("message", ["X", "random"])
    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_round_json_is_the_oracle_round(self, message, seed, tmp_path, capsys):
        # round.json is round 0 of the seed's streams, as the scalar oracle
        # computes it one draw at a time
        doc = json.loads(json.dumps(BASE_DOC))
        doc["detector"] = {"efficiency": 0.9, "dark_prob": 0.3}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        argv = ["run", "--config", str(path), "--message", message, "--seed", str(seed),
                "--p-check", "0.3", "--out", str(tmp_path / "out")]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        config = build_round_config(doc, cli.build_parser().parse_args(argv))
        want = O.run_round(config, message, O.round_rng(seed, 0))
        assert out == json.dumps(O.outcome_to_dict(0, want)) + "\n"
        assert (tmp_path / "out" / "round.json").read_text() == out

    def test_bad_t_map_exit_code(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["round"]["t_map"] = 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run_cli(["run", "--config", str(bad)], capsys)
        assert code == 2
        assert "t_map" in err

    @pytest.mark.parametrize("command", ["run", "batch", "security", "decode-table"])
    @pytest.mark.parametrize("section, field, value, named", [
        ("params", "k", 1.9999999, "round: params.k = 1.9999999 leaves beta"),  # t* = 4967
        ("round", "t_map", 1e300, "round: t_map = 1e+300 leaves beta"),
    ])
    def test_vanishing_beta_exits_2(self, command, section, field, value, named, tmp_path,
                                    capsys):
        # beta(t_map) = 0 would divide the phi basis by zero when the plan
        # compiles: the config is rejected first, with the field named
        doc = json.loads(json.dumps(BASE_DOC))
        doc[section][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 2 and out == ""
        assert f"config error: {named}" in err

    @pytest.mark.parametrize("command", ["batch", "security", "decode-table"])
    @pytest.mark.parametrize("section, field, value, named", [
        ("params", "g", 1e300, "params: g = 1e+300, Omega = 1.0, Delta = 1.0 give"),
        ("params", "Omega", 1e300, "params: g = 1.0, Omega = 1e+300, Delta = 1.0 give"),
        ("params", "Delta", 1e-300, "params: g = 1.0, Omega = 1.0, Delta = 1e-300 give"),
        ("round", "n_receivers", 34, "round: n_receivers = 34 is above 33"),
    ])
    def test_oversized_document_exits_2_before_compiling(self, command, section, field, value,
                                                         named, tmp_path, capsys, monkeypatch):
        # Omega_k = sqrt(4 delta^2 - k^2) would overflow, or the receivers'
        # bit codes outrun the streams' draw: rejected before any state exists
        def compile_state(*args, **kwargs):
            raise AssertionError("a rejected config compiled a state")

        monkeypatch.setattr(P, "_pipeline_sectors", compile_state)
        doc = json.loads(json.dumps(BASE_DOC))
        doc[section][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 2 and out == ""
        assert f"config error: {named}" in err

    def test_check_rounds_run_as_wide_as_the_plan(self, tmp_path, capsys):
        # neither check rounds nor the parity-compiled plan hold a table that
        # grows with the receivers, so every config the streams admit runs:
        # 33 receivers run an atom attack and a logged batch with check
        # rounds, and 34 exit 2 with check rounds or without
        doc = json.loads(json.dumps(BASE_DOC))
        doc["round"]["n_receivers"] = 33
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        for argv in (["security", "--rounds", "20"],
                     ["batch", "--p-check", "0.25", "--round-log", "--rounds", "50",
                      "--out", str(tmp_path / "out")]):
            code, out, err = run_cli([*argv, "--config", str(path)], capsys)
            assert code == 0 and err == ""
        doc["round"]["n_receivers"] = 34
        path.write_text(json.dumps(doc))
        for argv in (["security"], ["batch", "--p-check", "0.25"], ["batch", "--p-check", "0"]):
            code, out, err = run_cli([*argv, "--config", str(path)], capsys)
            assert code == 2 and out == ""
            assert "config error: round: n_receivers = 34 is above 33" in err

    def test_decode_table_past_its_bound_exit_2(self, tmp_path, capsys, no_compile):
        # a decode table lists every bit string, 3 x 2^(N-1) keys: it keeps
        # its bound of 17 receivers, where security and batch run on
        doc = json.loads(json.dumps(BASE_DOC))
        doc["round"]["n_receivers"] = 18
        path = tmp_path / "eighteen.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["decode-table", "--config", str(path), "--out",
                                  str(tmp_path / "out")], capsys)
        assert code == 2 and out == "" and not (tmp_path / "out").exists()
        assert "config error: round.n_receivers: a decode table lists all 2^17" in err

    @pytest.mark.parametrize("command", ["batch", "security"])
    @pytest.mark.parametrize("seed", [2**64, 2**70, -1])
    def test_seed_outside_64_bits_exits_2(self, command, seed, tmp_path, capsys):
        # the streams reduce a seed mod 2**64, so it would alias silently
        doc = json.loads(json.dumps(BASE_DOC))
        doc["round"]["seed"] = seed
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli([command, "--config", str(path), "--rounds", "10"], capsys)
        assert code == 2 and out == ""
        assert f"config error: round.seed: must lie in [0, 2**64), got {seed}" in err
        code, out, err = run_cli([command, f"--seed={seed}", "--rounds", "10"], capsys)
        assert code == 2 and out == ""
        assert f"config error: --seed: must lie in [0, 2**64), got {seed}" in err

    def test_largest_seed_runs(self, config_path, capsys):
        code, out, _ = run_cli(["batch", "--config", config_path, "--rounds", "10",
                                f"--seed={2**64 - 1}"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["round"]["seed"] == 2**64 - 1

    def test_internal_value_error_exits_3(self, config_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("invariant broken")

        monkeypatch.setattr(cli.protocol, "run_batch", broken)
        code, _, err = run_cli(["run", "--config", config_path], capsys)
        assert code == 3
        assert "internal error: ValueError" in err

    def test_missing_field_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"params": {"g": 1.0, "Omega": 1.0}, "round": {"t_window": 0.5}}))
        code, _, err = run_cli(["run", "--config", str(bad)], capsys)
        assert code == 2
        assert "params.Delta" in err


class TestBatchCommand:
    def test_summary_and_files(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(
            ["batch", "--config", config_path, "--rounds", "800",
             "--out", str(out_dir), "--round-log"],
            capsys,
        )
        assert code == 0
        summary = json.loads(out.strip())
        assert summary["n_rounds"] == 800
        on_disk = json.loads((out_dir / "batch_summary.json").read_text())
        # deterministic file contents; stdout adds the wall time as its last key
        assert summary == {**on_disk, "wall_time_s": summary["wall_time_s"]}
        assert list(summary) == [*on_disk, "wall_time_s"]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert "batch_summary.json" in manifest["files"]
        assert "rounds.jsonl" in manifest["files"]
        lines = (out_dir / "rounds.jsonl").read_text().splitlines()
        assert len(lines) == 800

    def test_byte_identical_across_threads(self, config_path, tmp_path, capsys):
        d1, d8 = tmp_path / "t1", tmp_path / "t8"
        for threads, dest in (("1", d1), ("8", d8)):
            code, _, _ = run_cli(
                ["batch", "--config", config_path, "--rounds", "600",
                 "--threads", threads, "--out", str(dest), "--round-log"],
                capsys,
            )
            assert code == 0
        assert (d1 / "batch_summary.json").read_bytes() == (d8 / "batch_summary.json").read_bytes()
        assert (d1 / "rounds.jsonl").read_bytes() == (d8 / "rounds.jsonl").read_bytes()

    def test_round_log_without_out_builds_no_line(self, config_path, capsys, monkeypatch):
        # no file would hold the log, so no line is built; stdout is unchanged
        argv = ["batch", "--config", config_path, "--rounds", "500", "--p-check", "0.25"]
        plain = json.loads(run_cli(argv, capsys)[1])

        def no_line(*args):
            raise AssertionError("a round-log line was built")

        monkeypatch.setattr(P, "_log_lines", no_line)
        code, out, err = run_cli([*argv, "--round-log"], capsys)
        assert code == 0 and err == ""
        logged = json.loads(out)
        assert {**logged, "wall_time_s": 0} == {**plain, "wall_time_s": 0}

    def test_config_echo_reparses(self, config_path, capsys):
        code, out, _ = run_cli(["batch", "--config", config_path, "--rounds", "50"], capsys)
        assert code == 0
        echo = json.loads(out.strip())["config"]
        cfg = build_round_config(echo)
        assert cfg == build_round_config(load_config(config_path))

    def test_rejects_bad_rounds(self, config_path, capsys):
        code, _, _ = run_cli(["batch", "--config", config_path, "--rounds", "0"], capsys)
        assert code == 2

    def test_rejects_fewer_than_one_thread(self, config_path, capsys):
        for threads in ("0", "-3"):
            argv = ["batch", "--config", config_path, "--rounds", "10", "--threads", threads]
            code, _, err = run_cli(argv, capsys)
            assert code == 2
            assert names_a_flag(err, argv), err
            assert "config error: --threads: must be >= 1" in err

    def test_default_rounds_are_security_rounds(self, tmp_path, capsys):
        # batch has no round-count key of its own: without --rounds it runs
        # security.rounds rounds
        doc = json.loads(json.dumps(BASE_DOC))
        doc["security"]["rounds"] = 37
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["batch", "--config", str(path)], capsys)
        assert code == 0
        assert json.loads(out.strip())["n_rounds"] == 37


@pytest.mark.parametrize("argv", [
    ["batch", "--eve", "none"],
    ["batch", "--paper-constants"],
    ["sweep", "--round-log"],
    ["security", "--round-log"],
    ["feasibility", "--round-log"],
    ["run", "--round-log"],
    ["decode-table", "--round-log"],
    ["run", "--eve", "none"],
    ["sweep", "--eve", "none"],
    ["feasibility", "--eve", "none"],
    ["decode-table", "--eve", "none"],
    ["run", "--paper-constants"],
    ["sweep", "--paper-constants"],
    ["security", "--paper-constants"],
    ["decode-table", "--paper-constants"],
    ["run", "--rounds", "10"],
    ["feasibility", "--rounds", "10"],
    ["decode-table", "--rounds", "10"],
    ["sweep", "--message", "Z"],
    ["security", "--message", "Z"],
    ["feasibility", "--message", "Z"],
    ["decode-table", "--message", "Z"],
    ["run", "--threads", "2"],
    ["feasibility", "--threads", "2"],
    ["decode-table", "--threads", "2"],
    *[[name, "--convention", "survival"]
      for name in ("run", "batch", "sweep", "security", "feasibility", "decode-table")],
    ["feasibility", "--seed", "3"],
    ["decode-table", "--seed", "3"],
    ["security", "--p-check", "0.5"],
    ["feasibility", "--p-check", "0.5"],
    ["decode-table", "--p-check", "0.5"],
    ["feasibility", "--ideal-pnr"],
], ids=" ".join)
def test_ignored_flag_rejected(argv, config_path, capsys):
    # a flag the subcommand would ignore is a usage error, not a silent no-op
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--config", config_path])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# every (subcommand, flag) pair the parser accepts besides --out and --threads,
# which change no emitted byte by design (the manifest records --out), with
# a value for each flag that differs from the baseline command's
FLAG_VALUES = {
    "--config": ["--config", "other.json"],
    "--seed": ["--seed", "3"],
    "--p-check": ["--p-check", "1"],
    "--ideal-pnr": ["--ideal-pnr"],
    "--rounds": ["--rounds", "60"],
    "--message": ["--message", "I"],
    "--round-log": ["--round-log"],
    "--eve": ["--eve", "intercept-resend-photon"],
    "--paper-constants": ["--paper-constants"],
}
ACCEPTED = {
    "run": ("--config", "--seed", "--p-check", "--ideal-pnr", "--message"),
    "batch": ("--config", "--seed", "--p-check", "--ideal-pnr", "--rounds", "--message",
              "--round-log"),
    "sweep": ("--config", "--seed", "--p-check", "--ideal-pnr", "--rounds"),
    "security": ("--config", "--seed", "--ideal-pnr", "--rounds", "--eve"),
    "feasibility": ("--config", "--paper-constants"),
    "decode-table": ("--config", "--ideal-pnr"),
}


def test_parser_accepts_only_these_flags():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    accepted = {
        name: {flag for a in p._actions for flag in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert accepted == {
        name: {*flags, "--out", *(["--threads"] if "--rounds" in flags else [])}
        for name, flags in ACCEPTED.items()
    }
    assert sum(len(flags) for flags in accepted.values()) == 35


@pytest.fixture(scope="module")
def flag_outputs(tmp_path_factory):
    """Runs ``[subcommand, --config base.json, *flags]`` in a scratch
    directory: its exit code and emitted files, manifest.json left out and
    the config echo taken out of batch_summary.json and security.json."""
    root = tmp_path_factory.mktemp("flags")
    doc = json.loads(json.dumps(BASE_DOC))
    doc["security"]["rounds"] = doc["sweep"]["rounds"] = 100
    doc["round"]["seed"] = 7  # round 0 keeps its photons, which --ideal-pnr labels
    (root / "base.json").write_text(json.dumps(doc))
    doc["params"]["k"], doc["round"]["n_receivers"] = 0.5, 3
    (root / "other.json").write_text(json.dumps(doc))
    runs = iter(range(1 << 30))

    def run(command, *flags):
        out = root / f"out{next(runs)}"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "--config", str(root / "base.json"), *flags,
                             "--out", str(out)])
        files = {}
        for path in sorted(out.glob("*")):
            text = path.read_text()
            if path.name in ("batch_summary.json", "security.json"):
                text = json.dumps({k: v for k, v in json.loads(text).items() if k != "config"})
            files[path.name] = text
        files.pop("manifest.json", None)
        return code, files

    return functools.lru_cache(maxsize=None)(lambda command, *flags: run(command, *flags)), root


@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id=f"{command} {flag}")
    for command, flags in ACCEPTED.items() for flag in flags
])
def test_every_flag_changes_an_output(command, flag, flag_outputs, monkeypatch):
    run, root = flag_outputs
    monkeypatch.chdir(root)  # --config names other.json by a relative path
    assert run(command, *FLAG_VALUES[flag]) != run(command)


# batch has no round-count key of its own: it reads security.rounds
@pytest.mark.parametrize("command, section", [
    ("batch", "security"), ("sweep", "sweep"), ("security", "security"),
])
class TestRoundCountSource:
    def test_flag_named(self, command, section, config_path, capsys):
        code, _, err = run_cli([command, "--config", config_path, "--rounds", "0"], capsys)
        assert code == 2
        assert "--rounds: must be >= 1" in err
        assert f"{section}.rounds" not in err

    def test_config_key_named(self, command, section, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc[section]["rounds"] = 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 2
        assert f"{section}.rounds: must be >= 1" in err
        assert "--rounds" not in err

    # round indices are int64: a larger count ran until killed
    @pytest.mark.parametrize("value", [2**63, 10**30])
    def test_flag_from_2_63_named(self, command, section, value, config_path, capsys):
        code, _, err = run_cli([command, "--config", config_path, "--rounds", str(value)],
                               capsys)
        assert code == 2
        assert "config error: --rounds: must be below 2**63" in err

    @pytest.mark.parametrize("value", [2**63, 1e300])
    def test_config_key_from_2_63_named(self, command, section, value, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc[section]["rounds"] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli([command, "--config", str(path)], capsys)
        assert code == 2
        assert f"config error: {section}.rounds: must be below 2**63" in err

    def test_largest_count_accepted(self, command, section):
        doc = {section: {"rounds": 2**63 - 1}}
        for rounds in (2**63 - 1, None):
            args = argparse.Namespace(rounds=rounds)
            assert cli._rounds(args, doc, section) == 2**63 - 1


class TestGoldenDigest:
    """Pins the per-round Philox stream contract: any change to how rounds
    draw their randomness (a numpy upgrade included) changes these bytes."""

    DOC = {
        "params": {"g": 1.0, "Omega": 1.0, "Delta": 1.0, "k": 0.2, "gamma": 0.0},
        "round": {"t_window": 6.0, "p_check": 0.25, "seed": 17},
        "detector": {"efficiency": 0.9, "dark_prob": 0.05},
    }
    DIGESTS = {
        "batch_summary.json": "369f11d680bc3758d1735e57ac5f8fd6cb65d2c2dcf7b4748b64432549004779",
        "rounds.jsonl": "2c1ce85f8abb93020930b4c3539996108b4fe36da83b96c4c03db232d94dce93",
    }

    def test_batch_bytes(self, tmp_path, capsys):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(self.DOC))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            ["batch", "--config", str(path), "--rounds", "300", "--round-log",
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        for name, digest in self.DIGESTS.items():
            assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == digest, name

    # taken from the scalar per-round security experiments, before they
    # moved to the lockstep engine
    SECURITY_DIGEST = "53d63c286da5b859a2b9e404901f2928374ec1ce5c0a7e7bb31772cb4bcd9702"

    def test_security_bytes(self, tmp_path, capsys):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(self.DOC))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            ["security", "--config", str(path), "--rounds", "300",
             "--eve", "intercept-resend-atom-z", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        digest = hashlib.sha256((out_dir / "security.json").read_bytes()).hexdigest()
        assert digest == self.SECURITY_DIGEST

    # the decode layer, taken while the decode tables were still built from
    # per-message outcome dicts
    DECODE_TABLE_DIGESTS = {
        False: "8f31959ba15022ec3d52faa7cb46daf1585f865e267b7932f413054f7c17d7b0",
        True: "c6f8f0020433616ba58b44a88782aa703280ca6d778f458e9675361326d72455",
    }
    DECODE_DIGEST = "239ef6456bb76930a986b4bf861277fabee733ad31e6000bf959b329fb1357c2"

    @pytest.mark.parametrize("ideal_pnr", [False, True])
    def test_decode_table_bytes(self, ideal_pnr, tmp_path, capsys):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(self.DOC))
        out_dir = tmp_path / "out"
        flags = ["--ideal-pnr"] if ideal_pnr else []
        code, _, _ = run_cli(
            ["decode-table", "--config", str(path), *flags, "--out", str(out_dir)], capsys
        )
        assert code == 0
        digest = hashlib.sha256((out_dir / "decode_table.json").read_bytes()).hexdigest()
        assert digest == self.DECODE_TABLE_DIGESTS[ideal_pnr]

    # the float bits of every outcome probability on the same grid; re-pinned
    # when plans compiled the receivers' bits by parity, whose class sums
    # move the 3-receiver values by up to 5.3e-16 relative (was 8223c43d...)
    OUTCOME_DIGEST = "05d225149ad84ae06636c74370b29ea911fc1c14b6bacb9f934744f4174ef6ef"

    @staticmethod
    def decode_grid():
        # dark-count rates that add ties.  The digests were taken when configs
        # still set a mode cutoff, at 1 and 2: the names keep it, and each
        # config, now compiled at one photon, answers for both.
        for p_dc in (0.0, 0.05, 0.5):
            for cutoff in (1, 2):
                for n in (2, 3):
                    yield f"{p_dc} {cutoff} {n}", P.RoundConfig(
                        params=PhysicalParams(g=1.0, Omega=1.0, Delta=1.0, k=0.2),
                        t_window=6.0, n_receivers=n, detector=P.DetectorModel(0.9, p_dc),
                    )

    def test_decode_answers(self):
        # every click count up to 3 per detector and every bit string
        digest = hashlib.sha256()
        for name, cfg in self.decode_grid():
            for a in range(4):
                for b in range(4):
                    for bits in O.all_bit_strings(cfg):
                        m = P.decode(cfg, (a, b), bits)
                        answer = m.value if m else "abort"
                        digest.update(f"{name} {a} {b} {bits} {answer}\n".encode())
        assert digest.hexdigest() == self.DECODE_DIGEST

    def test_outcome_probabilities(self):
        digest = hashlib.sha256()
        for name, cfg in self.decode_grid():
            for m in P.MESSAGES:
                for (counts, bits), p in sorted(P.outcome_distribution(cfg, m).items()):
                    digest.update(f"{name} {m.value} {counts} {bits} {p.hex()}\n".encode())
        assert digest.hexdigest() == self.OUTCOME_DIGEST


class TestSweepCommand:
    def test_csv_and_agreement(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "sw"
        code, out, _ = run_cli(
            ["sweep", "--config", config_path, "--out", str(out_dir)], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t_window,formula_survival,formula_integrated,mc_estimate,mc_stderr"
        assert len(lines) == 3
        for line in lines[1:]:
            t_w, f_surv, f_int, mc, se = map(float, line.split(","))
            assert abs(mc - f_int) < 3 * se + 1e-9
        assert (out_dir / "sweep.csv").read_text() == out

    def test_identical_seed_identical_csv(self, config_path, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            dest = tmp_path / name
            code, _, _ = run_cli(
                ["sweep", "--config", config_path, "--out", str(dest), "--seed", "5"],
                capsys,
            )
            assert code == 0
            outs.append((dest / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_bad_rounds_named(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["sweep"]["rounds"] = "many"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["sweep", "--config", str(path)], capsys)
        assert code == 2
        assert "sweep.rounds" in err

    def test_bad_grid(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["sweep"]["t_windows"] = []
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        code, _, _ = run_cli(["sweep", "--config", str(p)], capsys)
        assert code == 2

    @pytest.mark.parametrize("flags,field", [
        (["--ideal-pnr"], "round.ideal_pnr"),
        (["--p-check", "1"], "round.p_check"),
    ])
    def test_config_without_click_rate_named(self, flags, field, config_path, tmp_path,
                                             capsys):
        # ideal-PNR rounds record no clicks, and p_check = 1 runs no encode
        # round: either would write an estimate of 0 beside the formulas
        out_dir = tmp_path / "sw"
        code, out, err = run_cli(
            ["sweep", "--config", config_path, "--out", str(out_dir), *flags], capsys
        )
        assert code == 2
        assert field in err and out == ""
        assert not out_dir.exists()

    def test_grid_past_the_cap_named_before_any_plan(self, tmp_path, capsys):
        # a sweep compiles every window's plan before its first round, about
        # 7.3 KB each: one window past the cap exits 2 having compiled none
        doc = json.loads(json.dumps(BASE_DOC))
        doc["sweep"]["t_windows"] = [0.5 + i / 4096 for i in range(P.MAX_SWEEP_WINDOWS + 1)]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        out_dir = tmp_path / "sw"
        tracemalloc.start()
        try:
            code, out, err = run_cli(["sweep", "--config", str(p), "--out", str(out_dir)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and out == "" and not out_dir.exists()
        assert err.startswith("config error: sweep.t_windows: 1025 windows")
        assert peak < 1 << 20

    def test_grid_at_the_cap_runs(self):
        grid = [0.5 + i / 4096 for i in range(P.MAX_SWEEP_WINDOWS)]
        rows = P.run_sweep(build_round_config(BASE_DOC), grid, 1)
        assert [row["t_window"] for row in rows] == grid

    def test_boolean_window_named(self, tmp_path, capsys):
        # a boolean is not a time, though Python counts True as 1
        doc = json.loads(json.dumps(BASE_DOC))
        doc["sweep"]["t_windows"] = [True, 1]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        code, out, err = run_cli(["sweep", "--config", str(p)], capsys)
        assert code == 2
        assert "sweep.t_windows[0]" in err and out == ""


class TestSecurityCommand:
    def test_report(self, config_path, capsys):
        code, out, _ = run_cli(
            ["security", "--config", config_path, "--rounds", "1500", "--seed", "1"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.strip())
        sec = doc["security"]
        assert set(sec) >= {"bob_alone", "charlie_alone", "collaboration",
                            "composite_bob", "eve_detection_rate"}
        assert abs(sec["composite_bob"] - (1 - sec["charlie_alone"])) < 1e-12

    def test_eve_flag(self, config_path, capsys):
        code, out, _ = run_cli(
            ["security", "--config", config_path, "--rounds", "1000",
             "--eve", "intercept-resend-atom-z"],
            capsys,
        )
        assert code == 0
        sec = json.loads(out.strip())["security"]
        assert sec["eve_strategy"] == "intercept_resend_atom_z"
        assert abs(sec["eve_detection_rate"] - 0.5) < 0.1

    def test_bad_rounds_named(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["security"]["rounds"] = "many"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["security", "--config", str(path)], capsys)
        assert code == 2
        assert "security.rounds" in err

    def test_photon_attack_with_ideal_pnr_rejected(self, config_path, capsys):
        code, _, err = run_cli(
            ["security", "--config", config_path, "--rounds", "50", "--ideal-pnr",
             "--eve", "intercept-resend-photon"],
            capsys,
        )
        assert code == 2
        assert "round.ideal_pnr" in err and "security.eve" in err

    def test_eve_must_be_a_name(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["security"]["eve"] = ["intercept-resend-photon"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(["security", "--config", str(path), "--rounds", "10"], capsys)
        assert code == 2
        assert "security.eve" in err

    def test_unknown_eve(self, config_path, capsys):
        code, _, _ = run_cli(
            ["security", "--config", config_path, "--eve", "teleport"], capsys
        )
        assert code == 2


class TestFeasibilityCommand:
    def test_paper_constants(self, capsys):
        code, out, _ = run_cli(["feasibility", "--paper-constants"], capsys)
        assert code == 0
        json_line = out.strip().splitlines()[-1]
        doc = json.loads(json_line)
        assert all(r["passed"] for r in doc["regime"])
        assert doc["t1_discrepancy_flagged"] is True

    def test_with_config_params(self, config_path, capsys):
        code, out, _ = run_cli(["feasibility", "--config", config_path], capsys)
        assert code == 0

    @pytest.mark.parametrize("round_section", [None, {"t_window": 0.5, "n_receivers": 1}])
    def test_reads_only_params(self, round_section, config_path, tmp_path, capsys):
        # the report reads the params section alone: a config without a
        # round section, or with one a batch would reject, reports the same
        _, want, _ = run_cli(["feasibility", "--config", config_path], capsys)
        doc = {"params": BASE_DOC["params"]}
        if round_section is not None:
            doc["round"] = round_section
        path = tmp_path / "params.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["feasibility", "--config", str(path)], capsys)
        assert code == 0, err
        assert out == want
        assert json.loads(out.splitlines()[-1])["params"]["k"] == BASE_DOC["params"]["k"]

    @pytest.mark.parametrize("constants,field", [
        ({"Q": True}, "feasibility.constants.Q"),
        ({"Qfactor": 1e8}, "feasibility.constants.Qfactor"),
        ([1e8], "feasibility.constants"),
    ])
    def test_bad_constants_named(self, tmp_path, capsys, constants, field):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["feasibility"] = {"constants": constants}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        code, _, err = run_cli(["feasibility", "--config", str(p)], capsys)
        assert code == 2
        assert f"config error: {field}" in err

    @pytest.mark.parametrize("constants, named", [
        ({"t_r": 5e-324}, "feasibility.constants.t_r: gamma must be finite"),
        ({"t1": 1e308, "t2": 1e308}, "feasibility.constants: t1 + t2 = inf must be finite"),
        ({"t_d": 5e-324}, "feasibility.constants.t_d: underdamped regime required"),
        ({"t_r": 5e-324, "t_d": 5e-324}, "feasibility.constants.t_r: gamma must be finite"),
    ])
    def test_infinite_report_value_named(self, constants, named, tmp_path, capsys):
        # gamma = 1/t_r and t1 + t2 overflowed to inf, which feasibility.json
        # carried as the non-standard token Infinity
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"feasibility": {"constants": constants}}))
        out = tmp_path / "out"
        code, _, err = run_cli(["feasibility", "--config", str(p), "--out", str(out)], capsys)
        assert code == 2
        assert f"config error: {named}" in err
        assert not out.exists()

    def test_constants_read_by_type(self, tmp_path, capsys):
        doc = json.loads(json.dumps(BASE_DOC))
        doc["feasibility"] = {"constants": {"Q": 200000000, "t_r": 0.02}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run_cli(["feasibility", "--config", str(p)], capsys)
        assert code == 0
        constants = json.loads(out.strip().splitlines()[-1])["constants"]
        assert constants["Q"] == 2e8 and type(constants["Q"]) is float
        assert constants["t_r"] == 0.02 and constants["t_d"] == 3.0e-3


class TestDecodeTableCommand:
    def test_table_output(self, config_path, capsys):
        code, out, _ = run_cli(["decode-table", "--config", config_path], capsys)
        assert code == 0
        doc = json.loads(out.strip())
        entries = {tuple(e["key"]): e["message"] for e in doc["table"]}
        assert entries[("D+", "e")] == "X"
        assert entries[("D-", "e")] == "iY"
        assert entries[("none", "e")] == "abort"


# ---------------------------------------------------------------------------
# whole config documents: every one runs (exit 0) or names a field (exit 2)

EDGES = st.sampled_from([0, 5e-324, 1e300, -1, -1e300, 2**64, math.inf, -math.inf, math.nan,
                         "1", [], [1.0], {}, True, False, None])

# every field a document may hold, each with values that run
DOCUMENT = {
    "params": {"g": [1.0, 0.5], "Omega": [1.0, 2.0], "Delta": [1.0, 1.5], "k": [0.2, 0.0],
               "gamma": [0.0, 0.01]},
    "round": {"n_receivers": [2, 3, 4], "p_check": [0.0, 0.25, 1.0], "t_map": [None],
              "t_window": [0.5, 6.0], "ideal_pnr": [False, True], "seed": [0, 7, 2**64 - 1]},
    "detector": {"efficiency": [1.0, 0.9], "dark_prob": [0.0, 0.02]},
    "security": {"eve": ["intercept-resend-atom-z", "intercept-resend-atom-x",
                         "intercept-resend-photon", "none"], "rounds": [10]},
    "sweep": {"t_windows": [[0.5], [0.2, 1.0]], "rounds": [10]},
    "feasibility": {"constants": [{}, {"t_d": 3e-3, "Q": 1e8}]},
}
FIELD_PATHS = [(section,) for section in DOCUMENT] + [
    (section, field) for section, fields in DOCUMENT.items() for field in fields
] + [("feasibility", "constants", name) for name in ("t_r", "Q", "t_d", "T_d", "t1", "t2")]
FIELD_NAMES = {section: set(fields) for section, fields in DOCUMENT.items()}
FIELD_NAMES["params"] = {f.name for f in dataclasses.fields(PhysicalParams)}
FIELD_NAMES["round"] = {f.name for f in dataclasses.fields(P.RoundConfig)}
FIELD_NAMES["detector"] = {f.name for f in dataclasses.fields(P.DetectorModel)}
# a magnitude log-uniform over the positive floats, subnormals included, or an exact zero
MAGNITUDES = st.just(0.0) | st.floats(-324.0, 308.25).map(lambda e: 10.0**e)
# the couplings drawn jointly, so that configs moving g, Omega and Delta together run
COUPLINGS = st.fixed_dictionaries({name: MAGNITUDES for name in ("g", "Omega", "Delta", "k")})


@st.composite
def documents(draw):
    """A document of values that run, or with couplings drawn jointly from
    ``COUPLINGS``, with up to three fields (or whole sections) set to an
    edge value or left out."""
    doc = copy.deepcopy({
        section: {field: draw(st.sampled_from(values)) for field, values in fields.items()}
        for section, fields in DOCUMENT.items()
    })
    if draw(st.booleans()):
        doc["params"].update(draw(COUPLINGS))
    for path in draw(st.lists(st.sampled_from(FIELD_PATHS), max_size=3, unique=True)):
        *parents, key = path
        sec = doc
        for part in parents:
            sec = sec.get(part) if isinstance(sec, dict) else None
        if not isinstance(sec, dict):
            continue
        if draw(st.booleans()):
            sec.pop(key, None)
        elif path == ("sweep", "t_windows"):
            sec[key] = copy.deepcopy(draw(EDGES | st.lists(EDGES, min_size=1, max_size=2)))
        else:
            sec[key] = copy.deepcopy(draw(EDGES))
    return doc


def names_a_field(err: str) -> bool:
    """The error starts with ``section.field``, or with ``section:`` and
    names one of the section's fields (or the section is not an object)."""
    m = re.match(r"config error: (\w+)((?:\.\w+)+)?(\[\d+\])?[:,] (.*)", err)
    if m is None or m.group(1) not in FIELD_NAMES:
        return False
    section, dotted, _, rest = m.groups()
    words = set(re.findall(r"\w+", rest))
    return bool(dotted) or bool(words & FIELD_NAMES[section]) or rest.startswith("expected an")


def names_a_flag(err: str, argv: list[str]) -> bool:
    """The error starts with a flag of ``argv``, or is argparse's usage error
    naming one."""
    m = re.search(r"(?:^config error:|error: argument) (--[\w-]+)", err, re.MULTILINE)
    return m is not None and m.group(1) in {a.split("=")[0] for a in argv}


# the values drawn for each flag besides --config, --rounds and --threads;
# a flag without values is a switch
FLAG_VALUES_DRAWN = {
    "--seed": [-1, 2**64, 2**64 - 1],
    "--p-check": ["nan", "inf", "-0.0", "1.5", "5e-324"],
    "--message": ["I", "X", "iY", "Z", "random"],
    "--eve": [*DOCUMENT["security"]["eve"], "bogus"],
    "--ideal-pnr": [], "--round-log": [], "--paper-constants": [],
}
FLAG_ROUNDS = st.sampled_from([*range(1, 21), 10**30])
SECTION_ROUNDS = st.sampled_from([*range(1, 21), 0, 1e300, 2**64, "10"])


@st.composite
def invocations(draw):
    """A document and a command line: a subcommand with up to three of the
    flags it takes.  The round count is ``--rounds`` or, without it,
    ``<section>.rounds``, so that no command runs more than 20 rounds."""
    doc = draw(documents())
    command = draw(st.sampled_from(list(ACCEPTED)))
    argv = [command]
    flags = st.sampled_from([f for f in ACCEPTED[command] if f in FLAG_VALUES_DRAWN])
    for flag in draw(st.lists(flags, max_size=3, unique=True)):
        values = FLAG_VALUES_DRAWN[flag]
        argv.append(f"{flag}={draw(st.sampled_from(values))}" if values else flag)
    if "--rounds" in ACCEPTED[command]:
        argv.append("--threads=1")
        if draw(st.booleans()):
            argv.append(f"--rounds={draw(FLAG_ROUNDS)}")
        else:
            section = "sweep" if command == "sweep" else "security"
            if doc.get(section) is None:
                doc[section] = {}
            if isinstance(doc[section], dict):
                doc[section]["rounds"] = draw(SECTION_ROUNDS)
    return doc, argv


def _reject_constant(token):
    raise ValueError(f"non-standard JSON: {token}")


def load_strict(path: Path) -> list:
    """The values of an emitted JSON file, or of each line of a .jsonl file;
    NaN and Infinity, which json.dumps writes but JSON lacks, raise."""
    text = path.read_text()
    lines = text.splitlines() if path.suffix == ".jsonl" else [text]
    return [json.loads(line, parse_constant=_reject_constant) for line in lines]


RUNS = {"params": {"g": 1.0, "Omega": 1.0, "Delta": 1.0}, "round": {"t_window": 0.5}}


@settings(max_examples=400)
@given(invocations())
# without params, the report reads the paper's couplings with k = 1/t_d, which
# a tiny t_d leaves overdamped (it exited 3)
@example(({"feasibility": {"constants": {"t_d": 5e-324}}}, ["feasibility"]))
@example(({"feasibility": {"constants": {"t_d": 1e-7}}}, ["feasibility"]))
# gamma = 1/t_r and t1 + t2 overflowed: feasibility.json held Infinity
@example(({"feasibility": {"constants": {"t_r": 5e-324}}}, ["feasibility"]))
@example(({"feasibility": {"constants": {"t1": 1e308, "t2": 1e308}}}, ["feasibility"]))
# round counts from 2**63 ran until killed
@example(({**RUNS, "security": {"rounds": 1e300}}, ["batch", "--threads=1"]))
@example(({**RUNS, "sweep": {"rounds": 1e300}}, ["sweep", "--threads=1"]))
@example((RUNS, ["batch", "--threads=1", f"--rounds={10**30}"]))
def test_every_document_runs_or_names_a_field(tmp_path_factory, invocation):
    doc, argv = invocation
    root = tmp_path_factory.mktemp("fuzz")
    (root / "doc.json").write_text(json.dumps(doc))
    out = root / "out"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main([*argv, "--config", str(root / "doc.json"), "--out", str(out)])
        except SystemExit as exc:  # argparse rejects a flag's value
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2), err
    if code == 2:
        assert names_a_field(err) or names_a_flag(err, argv), err
        assert not out.exists()
    for path in [*out.glob("*.json"), *out.glob("*.jsonl")]:
        load_strict(path)


def test_golden_corpus_is_standard_json(tmp_path, monkeypatch):
    # the golden corpus's commands, their files parsed as strictly
    from test_golden_corpus import COMMANDS, CONFIGS

    for config in CONFIGS.glob("*.json"):
        shutil.copy(config, tmp_path)
    monkeypatch.chdir(tmp_path)
    for out, argv in COMMANDS.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*argv, "--out", out]) == 0
        for path in [*Path(out).glob("*.json"), *Path(out).glob("*.jsonl")]:
            load_strict(path)


COUPLED_COMMANDS = (["feasibility"], ["run"], ["batch", "--rounds", "3"],
                    ["sweep", "--rounds", "3"], ["security", "--rounds", "3"], ["decode-table"])


@settings(max_examples=200)
@given(COUPLINGS)
# Omega*g/Delta^2 overflowed (OverflowError) or underflowed to 0/0 (ZeroDivisionError)
@example({"g": 1e154, "Omega": 1e154, "Delta": 1e200, "k": 0.0})
@example({"g": 1e-150, "Omega": 1e-150, "Delta": 1e-200, "k": 0.0})
@example({"g": 1e-25, "Omega": 1e-25, "Delta": 1e-200, "k": 0.0})  # the ratio is infinite
def test_couplings_drawn_together_run_or_name_params(tmp_path_factory, params):
    root = tmp_path_factory.mktemp("couplings")
    (root / "doc.json").write_text(json.dumps({"params": params, "round": {"t_window": 0.5}}))
    for argv in COUPLED_COMMANDS:
        out = root / argv[0]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([*argv, "--config", str(root / "doc.json"), "--out", str(out)])
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert "params" in err.getvalue() and not out.exists(), (argv, err.getvalue())
        for path in out.glob("*.json"):
            load_strict(path)


@pytest.mark.parametrize("argv, target, fake", [
    (["batch", "--rounds", "10"], "qdcsim.protocol.run_batch",
     lambda *a, run=P.run_batch, **kw: run(*a, **kw)._replace(success_rate=math.nan)),
    (["sweep", "--rounds", "10"], "qdcsim.protocol.success_probability_formula",
     lambda *args: math.nan),
    (["security", "--rounds", "10"], "qdcsim.security.security_summary",
     lambda *args, **kwargs: {"bob_alone": math.nan}),
    (["feasibility"], "qdcsim.feasibility.transfer_time", lambda params: math.nan),
], ids=["batch", "sweep", "security", "feasibility"])
def test_non_finite_output_exits_3_writing_nothing(argv, target, fake, tmp_path, capsys,
                                                    monkeypatch):
    # a value that slips past validation: the writers reject it, where a
    # file would hold NaN, which only a lax parser reads
    monkeypatch.setattr(target, fake)
    code, out, err = run_cli([*argv, "--out", str(tmp_path / "out")], capsys)
    assert code == 3 and out == "" and "internal error: ValueError" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads, n_rounds", [(1, 40_000), (2, 70_000)],
                         ids=["in-process", "forked"])
def test_failure_mid_log_exits_3_leaving_nothing(threads, n_rounds, tmp_path, capsys,
                                                 monkeypatch, many_cpus):
    # the second block of each range raises after the first has streamed
    # its log lines: no file, no temporary file and no --out directory stay
    run_block, blocks = lockstep.run_block, []

    def second_fails(*args):
        blocks.append(1)
        if len(blocks) == 2:
            raise ValueError("second block")
        return run_block(*args)

    monkeypatch.setattr(lockstep, "run_block", second_fails)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "spool"))
    (tmp_path / "spool").mkdir()
    out = tmp_path / "made" / "out"
    code, out_text, err = run_cli(["batch", "--round-log", "--rounds", str(n_rounds),
                                   "--threads", str(threads), "--out", str(out)], capsys)
    assert n_rounds > threads * lockstep.BLOCK_ROWS
    assert code == 3 and out_text == "" and "internal error: ValueError: second block" in err
    assert [p.name for p in tmp_path.iterdir()] == ["spool"]
    assert not list((tmp_path / "spool").iterdir())


def test_forked_log_parts_stay_inside_out(tmp_path, capsys, monkeypatch, many_cpus):
    # a forked range's log file lies in a dot-directory inside --out, on the
    # output's filesystem, and is gone with it once the log is appended
    copied, copy = [], shutil.copyfileobj

    def recorded(source, target):
        copied.append(Path(source.name))
        return copy(source, target)

    monkeypatch.setattr(shutil, "copyfileobj", recorded)
    out = tmp_path / "out"
    code, _, err = run_cli(["batch", "--round-log", "--rounds", "12000", "--threads", "2",
                            "--out", str(out)], capsys)
    assert code == 0, err
    (part,) = copied
    assert part.parent.parent == out and part.parent.name.startswith(".")
    assert sorted(p.name for p in out.iterdir()) == [
        "batch_summary.json", "manifest.json", "rounds.jsonl"]


SIGNED = MAGNITUDES | MAGNITUDES.map(lambda x: -x)
PHYSICAL_FIELDS = {"gamma": "params", "t_window": "round", "t_map": "round",
                   "efficiency": "detector", "dark_prob": "detector"}


def all_finite(value) -> bool:
    """Every number in a nest of dicts, lists, tuples and arrays is finite."""
    if isinstance(value, dict):
        return all(map(all_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(all_finite, value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, float):
        return math.isfinite(value)
    return True


@settings(max_examples=200)
@given(st.fixed_dictionaries({**{name: SIGNED for name in PHYSICAL_FIELDS},
                              "t_map": st.none() | SIGNED}))
# accepted, at the ends of the float range: exp(-2k t) underflows to 0 or stays 1
@example({"gamma": 1.7e308, "t_window": 1.7e308, "t_map": None, "efficiency": 5e-324,
          "dark_prob": math.nextafter(1.0, 0.0)})
@example({"gamma": 5e-324, "t_window": 5e-324, "t_map": None, "efficiency": 1.0,
          "dark_prob": 5e-324})
def test_physical_fields_drawn_together_run_or_name_a_field(fields):
    # a config that the validator accepts compiles, runs a round and reports
    # with finite numbers only; any other names the field it rejects
    from qdcsim import feasibility

    doc = {section: {} for section in ("params", "round", "detector")}
    doc["params"].update(g=1.0, Omega=1.0, Delta=1.0, k=0.2)
    for name, value in fields.items():
        doc[PHYSICAL_FIELDS[name]][name] = value
    try:
        config = build_round_config(doc)
    except ConfigError as exc:
        assert names_a_field(f"config error: {exc}"), exc
        assert any(name in str(exc) for name in PHYSICAL_FIELDS), exc
        return
    plan = P._plan(config)
    stats = P.run_batch(config, 1, log=io.StringIO())
    assert all_finite(plan[1:-1])
    assert all_finite(stats)
    assert all_finite(feasibility.report_json(config.params))
    assert all_finite([P.success_probability_formula(config, c)
                       for c in ("survival", "integrated")])
