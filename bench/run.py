#!/usr/bin/env python3
"""Benchmark entry point.

    python3 bench/run.py --workload sim-link --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One workload runs in one fresh single-threaded interpreter (bench/worker.py).
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics.  The line before
it records the build.  --workload all runs every workload both ways and
prints each metric by name with its unit.  The exit code is 0 only when a
result was printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from harness import PROBE_NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3  # fresh interpreters timed to ready per untraced run, the workload's own included
IMPORT_SAMPLES = 3
CHILD_TIMEOUT = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker; return seconds from start to READY and the report it printed last."""
    start = time.perf_counter()
    # unbuffered, so that readline() takes only the READY line and communicate() gets the rest
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, bufsize=0)
    try:
        ready_line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if ready_line.strip() != b"READY":
            raise BenchError(f"worker did not get ready: {ready_line.strip()!r}")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    return ready, json.loads(lines[-1])


def importtime(code: str, deadline: float) -> tuple[dict[str, float], str]:
    """Cumulative import seconds per module from `python -X importtime -c code`, and its stdout."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise BenchError(f"{code!r} failed: {proc.stderr.strip().splitlines()[-1:]}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, module = line.split("|")
            if cum.strip().isdigit():
                cumulative[module.strip()] = int(cum) / 1e6
    return cumulative, proc.stdout


def import_times(deadline: float) -> dict[str, float]:
    """Import seconds of longwire, longwire.stats and scipy.stats, medians over fresh interpreters."""
    samples: dict[str, list[float]] = {name: [] for name in spec.IMPORT_METRICS}
    for _ in range(IMPORT_SAMPLES):
        cumulative, out = importtime("import sys, longwire; print('scipy.stats' in sys.modules)", deadline)
        samples["import.longwire.s"].append(cumulative["longwire"])
        samples["import.longwire.stats.s"].append(cumulative.get("longwire.stats", 0.0))
        scipy_stats = 0.0
        if out.strip() == "True":
            # scipy loads submodules lazily, so `import longwire` logs no scipy.stats line:
            # time it on top of the numpy and scipy.special that longwire.stats needs anyway.
            scipy_stats = importtime("import numpy, scipy.special; import scipy.stats", deadline)[0]["scipy.stats"]
        samples["import.scipy.stats.s"].append(scipy_stats)
    return {name: statistics.median(values) for name, values in samples.items()}


def build_record(seed: int, worker_build: dict) -> dict:
    """What produced the numbers: versions, cores, commit when there is one, a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "longwire").iterdir()):
        if path.suffix in (".py", ".pyx", ".c", ".so"):
            digest.update(path.name.encode() + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git here; the source digest still identifies the build
            pass
    return {**worker_build, "nproc": os.cpu_count(), "commit": commit,
            "source_sha256": digest.hexdigest()[:16], "seed": seed}


def scaled_setup(ready: float, report: dict) -> float:
    """Set-up seconds at the nominal host speed, like wall_s, from the probes the process took while it set up."""
    return (ready - report["setup_probe_spent_s"]) * PROBE_NOMINAL_S / report["setup_probe_s"]


def measure(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; return the result object and the build record."""
    deadline = time.perf_counter() + CHILD_TIMEOUT
    common = ["--workload", workload, "--seed", str(seed), *(["--tiny"] if tiny else [])]
    ready, report = run_worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    attempted, failed = report["attempted"], report["failed"]
    if trace:
        metrics = {**report["per_layer"], **import_times(deadline), "host.setup_raw_s": ready}
        units = spec.PER_LAYER
    else:
        setup = [scaled_setup(ready, report)]
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(scaled_setup(*run_worker([*common, "--setup-only"], deadline)))
        keys = report["keys_attacked"]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": report["wall_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "ops_ok_frac": (attempted - failed - report["refused"]) / attempted,
            # no key attacked means no key recovered wrongly
            "key_correct_frac": report["keys_correct"] / keys if keys else 1.0,
        }
        units = spec.END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, build_record(seed, report["build"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "longwire" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result, build = measure(args.workload, args.seed, args.seconds, args.trace)
            print("# build " + json.dumps(build))
            print(json.dumps(result))
            return 0
        correct = True
        for workload in spec.WORKLOADS:
            for trace in (0, 1):
                result, build = measure(workload, args.seed, args.seconds, trace)
                correct &= result["correct"]
                print(f"## {workload} trace={trace} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                for name, metric in result["metrics"].items():
                    print(f"{workload:14s} {name:52s} {metric['value']:14.6g} {metric['unit']}")
        print("# build " + json.dumps(build))
        return 0 if correct else 1
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
