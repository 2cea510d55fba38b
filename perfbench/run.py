"""qdcsim benchmark: end-to-end metrics per workload, or a traced per-layer split.

    python3 perfbench/run.py --workload batch|sweep|security --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and the
simulator is imported from its ``src``.  Repetitions run one at a time, each
in a fresh interpreter (``perfbench/rep.py``), until the next one would end
after ``--seconds``.  Set-up is sampled at least ``MIN_SETUP_SAMPLES`` times.
Every metric is the median over the run's samples.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds one traced
repetition after the untraced ones and prints the per-layer metrics, with
``trace.overhead_s`` = traced 1-thread wall minus the untraced median.

Before the result line a ``fingerprint`` line records the sha256 of every
emitted data file and the environment; it is informational, not gated.
The last line is the result: ``correct``, ``attempted`` and ``failed``
count output checks.  A repetition that cannot run (no simulator under
``src``, a crash) ends the benchmark with exit code 1 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
REP = Path(__file__).resolve().parent / "rep.py"
MIN_SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0


class RepFailed(Exception):
    pass


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class Runner:
    def __init__(self, workload: str, seed: int, nproc: int, started: float):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.nproc = nproc
        self.started = started
        self.count = 0
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
            ),
            # The --threads knob is the only parallelism under test.
            OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        )

    def rep(self, *flags: str) -> dict:
        self.count += 1
        cwd = WORK / f"rep{self.count}"
        cwd.mkdir(parents=True)
        (cwd / "config.json").write_text(json.dumps(self.wl.config))
        cmd = [sys.executable, str(REP), "--workload", self.wl.name,
               "--seed", str(self.seed), "--nproc", str(self.nproc), *flags]
        t0 = time.perf_counter()
        timeout = max(RUN_LIMIT_S - (t0 - self.started), 1.0)
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise RepFailed(f"repetition {self.count} exceeded {timeout:.0f} s") from exc
        finally:
            shutil.rmtree(cwd, ignore_errors=True)
        if proc.returncode != 0:
            raise RepFailed(f"repetition {self.count} exited {proc.returncode}:\n"
                            f"{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["elapsed_s"] = time.perf_counter() - t0
        return result


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    nproc = len(os.sched_getaffinity(0))
    runner = Runner(args.workload, args.seed, nproc, started)
    wl = runner.wl
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        deadline = time.perf_counter() + args.seconds
        reps = [runner.rep()]
        while time.perf_counter() + median(r["elapsed_s"] for r in reps) <= deadline:
            reps.append(runner.rep())
        setups = [r["setup_s"] for r in reps]
        traced = None
        if args.trace:
            traced = runner.rep("--trace")
        else:
            while len(setups) < MIN_SETUP_SAMPLES:
                setups.append(runner.rep("--setup-only")["setup_s"])
    except RepFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    walls = [w for r in reps for w in r["wall_s"]]
    walls_mt = [w for r in reps for w in r["wall_mt_s"]]
    full = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in full) + 1
    failed = [c for r in full for c in r["failed_checks"]]
    if any(r["digests"] != reps[0]["digests"] for r in full):
        failed.append(("outputs_identical_across_processes", False, "digests differ"))

    if args.trace:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = (traced["wall_s"][0] - median(walls), "s")
        attempted += 1
        self_sum, root_s = traced["self_sum_s"], traced["root_s"]
        if abs(self_sum - root_s) > 1e-9 * root_s:
            failed.append(("trace.self_times_sum_to_root", False,
                           f"self sum {self_sum!r} vs root {root_s!r}"))
        metrics["fail_frac"] = (len(failed) / attempted, "ratio")
    else:
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (median(walls), "s"),
            "rounds_per_s": (median(wl.rounds / w for w in walls), "1/s"),
            "rounds_per_s_mt": (median(wl.rounds / w for w in walls_mt), "1/s"),
            "peak_rss_mb": (median(r["peak_rss_mb"] for r in reps), "MB"),
        }

    for name, _, detail in failed:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    fingerprint = {
        "workload": wl.name,
        "seed": args.seed,
        "repetitions": len(reps),
        "setup_samples": len(setups),
        "wall_samples": len(walls),
        "wall_mt_samples": len(walls_mt),
        "files": reps[0]["digests"],
        "absent_spans": traced["absent_spans"] if traced else None,
        "env": {
            "python": platform.python_version(),
            "numpy": reps[0]["numpy"],
            "nproc": nproc,
            "cpu": cpu_model(),
        },
    }
    print(json.dumps({"fingerprint": fingerprint}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
