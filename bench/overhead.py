"""Tracing overhead per workload: traced wall time minus untraced wall time.

Runs ``bench/run.py`` once with ``--trace 0`` and once with ``--trace 1`` on
the same seed (so on identical inputs and identical work) for each workload,
then prints both measured wall times per phase and their difference, next to
the traced run's own estimate (spans recorded times the cost of one span).
Noise on a shared machine can exceed the overhead; repeat with other seeds
to see it.

Usage: ``python3 bench/overhead.py [--seed 1] [--seconds 30] [workload ...]``
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from gen import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.DEVNULL, timeout=600,
    )
    path = BENCH.parent / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    for workload in args.workloads:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        print(f"{workload} (seed {args.seed}): phase  untraced_s  traced_s  diff_s")
        for phase, t0 in plain["phase_wall_s"].items():
            t1 = traced["phase_wall_s"].get(phase, 0.0)
            print(f"  {phase:10s} {t0:10.3f} {t1:9.3f} {t1 - t0:+8.3f}")
        w0, w1 = plain["measured_wall_s"], traced["measured_wall_s"]
        est = traced["metrics"]["trace.overhead_est_frac"]
        print(f"  {'total':10s} {w0:10.3f} {w1:9.3f} {w1 - w0:+8.3f}  "
              f"({(w1 - w0) / w0:+.1%}; estimate from span count {est:.2%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
