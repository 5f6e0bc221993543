"""One workload in a fresh interpreter: set up, run passes, report one JSON line.

Started by bench/run.py.  It prints READY once the package is imported and
the inputs are made, so the parent can time set-up from process start.
With --setup-only it stops there.  Otherwise it runs the job list again and
again until --seconds have passed and two passes are done; with --trace 1
the passes alternate untraced and traced, so one run also gives the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import harness  # noqa: E402  (the package path comes first)
import spec  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    args = parser.parse_args(argv)

    with harness.HostProbe(interval=0.05) as setup_probe:
        import longwire

        if not Path(longwire.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"longwire imported from {longwire.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        import workloads

        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    print("READY", flush=True)
    setup_probe.sample()  # a set-up shorter than the interval still gets one
    setup = {"setup_probe_s": statistics.fmean(setup_probe.samples), "setup_probe_spent_s": setup_probe.spent}
    if args.setup_only:
        print(json.dumps(setup), flush=True)
        return 0

    passes = []
    start = time.perf_counter()
    with harness.HostProbe() as probe:
        while True:
            passes.append(workload.run_pass(bool(args.trace) and len(passes) % 2 == 1, probe))
            if time.perf_counter() - start >= args.seconds and len(passes) >= 2:
                break
    print(json.dumps({**report(workload, passes), **setup}), flush=True)
    traced = [p for p in passes if p.tracing]
    if traced:
        write_spans(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json", traced)
    return 0


def write_spans(path: Path, traced) -> None:
    """All spans of the traced passes, once, at the end of the run."""
    rows = []
    for i, p in enumerate(traced):
        origin = p.spans[0].start if p.spans else 0.0
        rows.extend({"pass": i, "name": s.name, "start_s": s.start - origin, "raw_s": s.raw_seconds,
                     "seconds": s.seconds, "work": s.work, "parent": s.parent} for s in p.spans)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def report(workload, passes) -> dict:
    import numpy
    import scipy
    from longwire import kernels

    plain = [p for p in passes if not p.tracing]
    traced = [p for p in passes if p.tracing]
    result = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "refused": sum(p.refused for p in passes),
        "keys_attacked": sum(p.keys_attacked for p in passes),
        "keys_correct": sum(p.keys_correct for p in passes),
        "wall_s": harness.wall_seconds(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "build": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "kernels_backend": kernels.BACKEND,
        },
    }
    if traced:
        layers = spec.median_metrics([spec.pass_metrics(p) for p in traced])
        layers["cli.csv_files_changed"] = workload.csv_changed
        layers["trace.overhead_s"] = harness.wall_seconds(traced) - harness.wall_seconds(plain)
        layers["host.wall_raw_s"] = statistics.median(p.seconds for p in plain)
        layers["host.probe_ms"] = 1e3 * statistics.fmean(t for p in plain for t in p.probe_samples)
        result["per_layer"] = layers
    return result


if __name__ == "__main__":
    raise SystemExit(main())
