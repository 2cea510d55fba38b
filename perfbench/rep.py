"""One repetition of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/rep.py --workload batch --seed 0 --nproc 2 [--setup-only] [--trace]

Run from a directory holding the workload's ``config.json``; outputs go to
``out_1t`` and ``out_mt`` beside it.  The repetition

1. times set-up: importing ``qdcsim.cli``, then compiling the base config
   with ``protocol.run_batch(cfg, 1)`` (``--setup-only`` stops here);
2. times the workload's CLI command through ``qdcsim.cli.main`` at
   ``--threads 1`` (warm for the base config), then again at
   ``--threads nproc``, alternating, ``Workload.repeat_1t`` and
   ``Workload.repeat_mt`` times;
3. reads the peak RSS, then checks the outputs (untimed, untraced).

With ``--trace`` the pair runs once; the set-up and the 1-thread command
run under the span tracer and the ``--threads nproc`` command under a second tracer that only
times batches and their chunks, for the thread-busy ratio.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import (  # noqa: E402
    Checks, check_batch, check_command, check_security, check_sweep, file_digests,
)
from tracer import Tracer  # noqa: E402
from workloads import SWEEP_GRID, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

# (span, module, attribute path) for every traced callable.
SPANS = [
    ("cli.main", "qdcsim.cli", "main"),
    ("cli.outcome_to_dict", "qdcsim.cli", "outcome_to_dict"),
    ("cli.emit", "qdcsim.cli", "_Emitter.emit"),
    ("protocol.run_sweep", "qdcsim.protocol", "run_sweep"),
    ("protocol.run_batch", "qdcsim.protocol", "run_batch"),
    ("protocol._run_chunk", "qdcsim.protocol", "_run_chunk"),
    ("protocol.stream_reset", "qdcsim.protocol", "_RoundStreams.rng"),
    ("protocol.run_round", "qdcsim.protocol", "run_round"),
    ("protocol._encode_round", "qdcsim.protocol", "_encode_round"),
    ("protocol.run_check_round", "qdcsim.protocol", "run_check_round"),
    ("protocol._window_raw", "qdcsim.protocol", "_window_raw"),
    ("protocol._sample_bits_raw", "qdcsim.protocol", "_sample_bits_raw"),
    ("protocol.decode", "qdcsim.protocol", "decode"),
    ("protocol.pipeline_state", "qdcsim.protocol", "pipeline_state"),
    ("protocol.build_decode_table", "qdcsim.protocol", "build_decode_table"),
    ("protocol._ml_lookup", "qdcsim.protocol", "_ml_lookup"),
    ("protocol._layout_info", "qdcsim.protocol", "_layout_info"),
    ("protocol.outcome_distribution", "qdcsim.protocol", "outcome_distribution"),
    ("dynamics.evolve_conditional", "qdcsim.dynamics", "evolve_conditional"),
    ("dynamics.transfer_time", "qdcsim.dynamics", "transfer_time"),
    ("hilbert.apply_site_operator", "qdcsim.hilbert", "apply_site_operator"),
    ("hilbert.pauli_encode", "qdcsim.hilbert", "pauli_encode"),
    ("security.view_distribution", "qdcsim.security", "view_distribution"),
    ("security.cheat_experiment", "qdcsim.security", "cheat_experiment"),
    ("security.eavesdrop_experiment", "qdcsim.security", "eavesdrop_experiment"),
]
# The compile half runs once per config; the per-round half once per round.
COMPILE_HALF = (
    "protocol.pipeline_state", "protocol.build_decode_table", "protocol._ml_lookup",
    "protocol._layout_info", "protocol.outcome_distribution",
    "dynamics.evolve_conditional", "dynamics.transfer_time",
)
ROUND_HALF = (
    "protocol.run_batch", "protocol._run_chunk", "protocol.stream_reset",
    "protocol.run_round", "protocol._encode_round", "protocol.run_check_round",
    "protocol._window_raw", "protocol._sample_bits_raw", "protocol.decode",
)
CHUNK_SPAN = [s for s in SPANS if s[0] == "protocol._run_chunk"]
BATCH_SPAN = [s for s in SPANS if s[0] == "protocol.run_batch"]


def _state_key(args, kwargs) -> str:
    """Identity of the physical input of one evolution: state amplitudes,
    pairs, parameters and times."""
    h = hashlib.sha1()
    for value in (*args, *sorted(kwargs.items())):
        amps = getattr(value, "amplitudes", None)
        h.update(amps.tobytes() if amps is not None else repr(value).encode())
        h.update(b"|")
    return h.hexdigest()


def layer_metrics(tracer: Tracer, busy_cpu: Tracer, busy_wall: Tracer, nproc: int,
                  distinct: set, emitted: list) -> dict:
    stats = tracer.stats()
    out = {}
    for span, _, _ in SPANS:
        calls, total, self_s = stats.get(span, (0, 0.0, 0.0))
        out[f"{span}.calls"] = (calls, "count")
        out[f"{span}.self_s"] = (self_s, "s")
        out[f"{span}.total_s"] = (total, "s")
    out["protocol.compile.self_s"] = (sum(stats.get(s, (0, 0, 0))[2] for s in COMPILE_HALF), "s")
    out["protocol.round.self_s"] = (sum(stats.get(s, (0, 0, 0))[2] for s in ROUND_HALF), "s")
    evolutions = stats.get("dynamics.evolve_conditional", (0, 0, 0))[0]
    # No evolution at all wastes none: report 1.
    out["protocol.pipeline_state.useful_ratio"] = (
        len(distinct) / evolutions if evolutions else 1.0, "ratio")
    # CPU time inside chunks over the threads' wall time: a chunk waiting
    # for the interpreter lock accrues no CPU time.
    chunk_s = busy_cpu.stats().get("protocol._run_chunk", (0, 0.0, 0.0))[1]
    batch_s = busy_wall.stats().get("protocol.run_batch", (0, 0.0, 0.0))[1]
    out["protocol.run_batch.thread_busy_ratio"] = (
        chunk_s / (nproc * batch_s) if batch_s else 0.0, "ratio")
    out["cli.emit.bytes"] = (sum(emitted), "B")
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--nproc", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    import numpy
    import qdcsim
    from qdcsim import cli, protocol

    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"qdcsim imported from {cli.__file__}, not from {src}")

    tracer, busy_cpu, busy_wall = Tracer(), Tracer(clock=time.thread_time), Tracer()
    distinct: set[str] = set()
    emitted: list[int] = []
    if args.trace:
        tracer.install(SPANS, hooks={
            "dynamics.evolve_conditional": lambda a, k: distinct.add(_state_key(a, k)),
            "cli.emit": lambda a, k: emitted.append(len(a[2] if len(a) > 2 else k["content"])),
        })
    doc = json.loads(Path("config.json").read_text())
    cfg = qdcsim.RoundConfig(
        params=qdcsim.PhysicalParams(**doc["params"]),
        detector=qdcsim.DetectorModel(**doc["detector"]),
        seed=args.seed,
        **doc["round"],
    )
    compile_base = lambda: protocol.run_batch(cfg, 1)  # noqa: E731
    (tracer.wrap("setup", compile_base) if args.trace else compile_base)()
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    def argv(out: str, threads: int) -> list[str]:
        return [*wl.argv, "--rounds", str(wl.rounds_flag), "--config", "config.json",
                "--seed", str(args.seed), "--out", out, "--threads", str(threads)]

    walls, walls_mt, rcs_1t, rcs_mt = [], [], [], []
    repeat_1t, repeat_mt = (1, 1) if args.trace else (wl.repeat_1t, wl.repeat_mt)
    for i in range(max(repeat_1t, repeat_mt)):
        if i < repeat_1t:
            t0 = time.perf_counter()
            rcs_1t.append(cli.main(argv("out_1t", 1)))
            walls.append(time.perf_counter() - t0)
        if args.trace:
            tracer.uninstall()
            busy_cpu.install(CHUNK_SPAN)
            busy_wall.install(BATCH_SPAN)
        if i < repeat_mt:
            t0 = time.perf_counter()
            rcs_mt.append(cli.main(argv("out_mt", args.nproc)))
            walls_mt.append(time.perf_counter() - t0)
        busy_cpu.uninstall()
        busy_wall.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = Checks()
    out_1t, out_mt = Path("out_1t"), Path("out_mt")
    check_command(checks, "threads1", rcs_1t, out_1t, wl.outputs)
    check_command(checks, f"threads{args.nproc}", rcs_mt, out_mt, wl.outputs)
    digests = file_digests(out_1t, wl.outputs)
    checks.add("outputs_identical_across_threads", digests == file_digests(out_mt, wl.outputs),
               "1-thread and nproc-thread outputs differ")
    try:
        if args.workload == "batch":
            check_batch(checks, out_1t, cfg, wl.rounds)
        elif args.workload == "sweep":
            check_sweep(checks, out_1t, SWEEP_GRID, wl.rounds_flag)
        else:
            check_security(checks, out_1t, cfg, wl.rounds_flag)
    except (OSError, KeyError, ValueError, IndexError) as exc:  # missing or malformed output
        checks.add(f"{args.workload}.outputs_readable", False, repr(exc))

    result = {
        "setup_s": setup_s,
        "wall_s": walls,
        "wall_mt_s": walls_mt,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(checks.results),
        "failed_checks": checks.failed,
        "digests": digests,
        "numpy": numpy.__version__,
    }
    if args.trace:
        self_sum, root_s = tracer.self_sum_and_roots()
        result["self_sum_s"], result["root_s"] = self_sum, root_s
        result["absent_spans"] = tracer.absent + busy_cpu.absent + busy_wall.absent
        result["layers"] = layer_metrics(tracer, busy_cpu, busy_wall, args.nproc,
                                         distinct, emitted)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
