"""portsec benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The workloads are ``p2p_bookings``,
``ledger_lifecycles`` and ``desk_compare`` (see ``workloads.py`` for why
each exists). Each invocation generates one fresh fixture file, times
several cold set-ups in fresh processes, then runs the workload in a fresh
process of its own. With ``--trace 0`` the last line of output carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced run over a fixed, seed-determined op list. End-to-end times are
adjusted to a reference host speed (see ``steady.py``). The line before
the result shows the failure count, the determinism check, the host levels
and the raw times.

``--smoke`` runs every workload at tiny sizes and checks that every metric
in BENCHMARK.json is printed with its unit, that traced counts repeat
exactly for one seed, and that a booking tampered in transit is counted as
a failure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_DIR = ROOT / ".perfbench"  # spans and scratch fixture files
WORKLOADS = ("p2p_bookings", "ledger_lifecycles", "desk_compare")
COLD_SETUPS = 3  # cold set-ups in fresh processes, besides the workload's own
TIME_LIMIT = 170.0  # seconds for one invocation, all children included

UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
         "ok_ratio": "ratio", "peak_rss_mb": "MB", "live_verify_ms": "ms",
         "offline_verify_ms": "ms"}


class BenchError(Exception):
    pass


def _child(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion; its last output line is JSON."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError(f"time limit reached before {args[0]}")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded the time limit") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker {args[0]} printed no result") from None


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
            tamper_at: int = -1) -> tuple[dict, dict]:
    """One benchmark invocation. Returns (result line, side information)."""
    deadline = perf_counter() + TIME_LIMIT
    WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        fixture_file = scratch / "fixtures.psf"
        generated = _child(["gen", "--out", str(fixture_file)], deadline)
        net = ["--net"] if workload == "ledger_lifecycles" else []
        setups = [] if trace else [
            _child(["setup", "--fixtures", str(fixture_file), *net], deadline)
            for _ in range(1 if smoke else COLD_SETUPS)
        ]
        spans = WORK_DIR / f"spans-{workload}-seed{seed}.tsv"
        run = _child(["workload", "--name", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(int(trace)),
                      "--fixtures", str(fixture_file),
                      "--generate-ms", repr(generated["generate_fixtures_ms"]),
                      "--spans", str(spans), "--tamper-at", str(tamper_at),
                      *(["--smoke"] if smoke else [])], deadline)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)  # holds private keys

    metrics = dict(run["metrics"])
    if not trace:
        setups.append(run)
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics = {name: metrics[name] for name in UNITS}
        units = UNITS
    else:
        units = _per_layer_units()
    line = {
        "correct": run["failed"] == 0 and run["determinism_ok"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    side = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "fail_ratio": run["failed"] / run["attempted"],
        "failures": run["failures"],
        "determinism_ok": run["determinism_ok"],
        "determinism_digest": run["determinism_digest"],
        "probe_levels_ms": run["probe_levels_ms"],
        "raw_timings": run["raw_timings"],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "raw_setup_s_samples": [s["raw_setup_s"] for s in setups],
        "ops": run["ops"],
        "loop_s": run["loop_s"],
        "generate_fixtures_ms": generated["generate_fixtures_ms"],
        "key_sets": generated["key_sets"],
    }
    if trace:
        side["spans_file"] = str(spans.relative_to(ROOT))
    return line, side


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# --- smoke self-test ----------------------------------------------------------


def smoke() -> list[str]:
    """Tiny runs of every workload; returns the problems found."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    traced_counts = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            line, side = measure(workload, 1, 1, bool(trace), smoke=True)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace {trace}: metrics {sorted(got)} "
                                f"differ from BENCHMARK.json")
            if not line["correct"] or line["failed"]:
                problems.append(f"{workload} trace {trace}: failures {side['failures']}")
            if trace == 0 and any(m["value"] <= 0 for m in line["metrics"].values()):
                problems.append(f"{workload}: an end-to-end metric is not positive")
            if trace:
                traced_counts[workload] = _counts(line)
    again, _ = measure("p2p_bookings", 1, 1, True, smoke=True)
    if _counts(again) != traced_counts["p2p_bookings"]:
        problems.append("traced counts differ between two runs of one seed")
    tampered, side = measure("p2p_bookings", 1, 1, False, smoke=True, tamper_at=1)
    if not (side["fail_ratio"] > 0 and tampered["metrics"]["ok_ratio"]["value"] < 1
            and not tampered["correct"]):
        problems.append("a booking tampered in transit was not counted as a failure")
    return problems


def _counts(line: dict) -> dict:
    return {name: m["value"] for name, m in line["metrics"].items()
            if m["unit"] in ("count", "count/op", "ratio") and name != "trace.overhead_ratio"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "portsec" / "__init__.py").is_file():
        print(f"no portsec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            problems = smoke()
            for problem in problems:
                print(f"smoke: {problem}", file=sys.stderr)
            print("smoke: " + ("FAIL" if problems else "ok"))
            return 1 if problems else 0
        if args.workload is None:
            parser.error("--workload is required")
        line, side = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(side))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
