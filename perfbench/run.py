"""The repository benchmark: one run of one workload.

    python3 perfbench/run.py --workload compile_stream --seed 1 \
        --seconds 35 --trace 0

Run from the repository root.  Each run gets a fresh worker process
(``worker.py``) with its own ``REPRO_CACHE_DIR`` and ``TMPDIR`` under
``.perfbench/`` (removed afterwards) and no other ``REPRO_*`` variable,
so every knob is at its shipped default.  The last line of standard
output is the result: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics, or, with ``--trace 1``, the per-layer metrics.  The
lines before it record the environment, the tail percentiles used and,
for ``--trace 1``, the per-layer table and the tracing overhead (the
traced worker's end-to-end medians against an untraced worker's, same
seed).

``--check-counts`` runs the traced worker twice with one seed and exits
non-zero unless every per-layer count repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

WORKLOADS = ("compile_stream", "native_calls")
BUDGET_S = 170.0     # one invocation, every worker included

# What each per-layer metric should move (printed with the table).
MOVES = {
    "isa.": "setup_s",
    "lms.stage": "mem_hit_us_*",
    "lms.optimize": "cold_compile_ms_*, disk_hit_ms_*",
    "lms.stms": "sim_call_us_*",
    "cache.graph_hash": "mem_hit_us_*",
    "cache.mem": "mem_hit_us_*",
    "cache.disk": "disk_hit_ms_*, cold_compile_ms_*",
    "codegen.required_isas": "disk_hit_ms_p50, then cold_compile_ms_p50",
    "spec.": "disk_hit_ms_p50, then cold_compile_ms_p50",
    "codegen.emit": "cold_compile_ms_*",
    "codegen.c_source": "cold_compile_ms_*",
    "codegen.so_": "cold_compile_ms_*",
    "codegen.cc": "cold_compile_ms_*",
    "codegen.link": "cold_compile_ms_*",
    "codegen.native_call": "call_us_p50, calls_per_s",
    "codegen.raw": "call_us_p50, calls_per_s",
    "codegen.boundary": "call_us_p50, calls_per_s",
    "codegen.native_batch": "native_batch_entries_per_s",
    "resilience.": "cold_compile_ms_*, disk_hit_ms_*",
    "timing.": "cold_compile_ms_*, disk_hit_ms_*",
    "pipeline.compile": "cold_compile_ms_*, disk_hit_ms_*",
    "pipeline.dispatch": "call_us_p50",
    "tiered.dispatch": "call_us_p50",
    "tiered.sync": "call_us_p50",
    "tiered.time": "setup_s",
    "simd.": "sim_call_us_*, sim_batch_entries_per_s",
    "batch.": "*_batch_entries_per_s",
    "policy.": "cold_compile_ms_p50, disk_hit_ms_p50",
    "obs.counter": "call_us_p50",
    "obs.spans": "cold_compile_ms_*",
}


def environment(workdir: Path) -> dict:
    """What a result depends on besides the code."""
    def first_line(cmd: list[str]) -> str:
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=30)
            return (out.stdout or out.stderr).splitlines()[0]
        except (OSError, subprocess.SubprocessError, IndexError):
            return "unavailable"

    flags: list[str] = []
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                wanted = {"sse4_2", "avx", "avx2", "fma", "f16c", "avx512f"}
                flags = sorted(set(line.split(":", 1)[1].split()) & wanted)
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "gcc": first_line(["gcc", "--version"]),
        "cpu_isa_flags": flags,
        "nproc": os.cpu_count(),
        "repro_env": {"REPRO_CACHE_DIR": str(workdir / "<run>" / "cache")},
    }


def run_worker(args, workdir: Path, trace: int, deadline: float) -> dict:
    """One worker process in ``workdir``; its whole process group is
    killed when it ends or outlives ``deadline``."""
    out = workdir / "result.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for sub in ("cache", "tmp"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    env.update(PYTHONPATH=str(ROOT / "src"),
               REPRO_CACHE_DIR=str(workdir / "cache"),
               TMPDIR=str(workdir / "tmp"))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out", str(out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        try:   # smoke-run children, compilers: nothing may outlive it
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code is None:
        raise RuntimeError(f"worker exceeded the {BUDGET_S:.0f} s budget")
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(out.read_text())


def print_layers(layers: dict) -> None:
    print(f"{'per-layer metric':46s} {'value':>14s}  unit   should move")
    for name, value in layers.items():
        moves = next((v for k, v in MOVES.items() if name.startswith(k)), "")
        print(f"{name:46s} {value:14.4f}  {tracing.unit_of(name):6s} {moves}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-counts", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    # a terminated run still stops its worker (see run_worker)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + BUDGET_S
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}-{time.time_ns()}"
    try:
        print(json.dumps({"environment": environment(workdir)}))
        if args.check_counts:
            first = run_worker(args, workdir / "a", 1, deadline)["layers"]
            second = run_worker(args, workdir / "b", 1, deadline)["layers"]
            differ = {k: (first[k], second[k])
                      for k in tracing.COUNT_METRICS if first[k] != second[k]}
            print(json.dumps({"counts": {k: first[k]
                                         for k in tracing.COUNT_METRICS},
                              "differ": differ}))
            return 1 if differ else 0
        result = base = run_worker(args, workdir / "untraced", 0, deadline)
        if args.trace:
            result = run_worker(args, workdir / "traced", 1, deadline)
            print_layers(result["layers"])
            print(json.dumps({"tracing_overhead": {
                k: result["metrics"][k]["value"] / v["value"] - 1.0
                for k, v in base["metrics"].items()}}))
            metrics = {k: {"value": v, "unit": tracing.unit_of(k)}
                       for k, v in result["layers"].items()}
        else:
            metrics = base["metrics"]
        print(json.dumps({"detail": result["detail"],
                          "problems": result["problems"]}))
        runs = (base, result) if args.trace else (base,)
        failed = sum(r["failed"] for r in runs)
        print(json.dumps({"correct": failed == 0,
                          "attempted": sum(r["attempted"] for r in runs),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()   # only once no other run uses it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
