"""End-to-end benchmark of ``run_imm`` and the serving tier.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload imm-ic --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``imm-ic``        serial ``run_imm``, IC, k=50, epsilon=0.2
* ``imm-lt-jobs2``  ``run_imm``, LT, k=50, epsilon=0.2, ``n_jobs=2``
* ``serve``         ``InfluenceService``, two closed-loop clients

Each pass runs in a fresh process (``workload.py``).  ``--trace 0``
prints the end-to-end metrics.  ``--trace 1`` runs the same requests
twice, untraced and then traced, and prints the per-layer metrics plus
``trace.overhead_frac``, the traced median request time over the
untraced one, minus 1.  The last line of standard output is one JSON
object; the lines before it repeat every figure with its sample count.
The exit code is 0 only when every answer check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: a pass must end well inside the 180 s each invocation is allowed
BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("spread_frac", "ratio"),
    ("ok_frac", "ratio"),
)


def run_pass(args, trace: int, deadline: float) -> dict:
    """Run one workload pass in a fresh process and return its result."""
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if trace:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--spans", str(spans)]
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    # its own process group, so a timeout also stops the pass's pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{args.workload}: pass did not finish within the time budget")
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: pass exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(result: dict) -> dict:
    """``name -> (value, sample count)`` for every end-to-end metric."""
    latency = result["latency_ms"]
    return {
        "setup_s": (float(np.median(result["setup_s"])), len(result["setup_s"])),
        "req_p50_ms": (float(np.median(latency)), len(latency)),
        "req_per_s": (len(latency) / result["loop_s"], len(latency)),
        "peak_rss_mb": (result["peak_rss_mb"], 1),
        "spread_frac": (result["spread_frac"], result["ok"]),
        "ok_frac": (result["ok"] / result["attempted"], result["attempted"]),
    }


def describe(result: dict) -> list[str]:
    lines = [
        f"spread_frac standard error <= {result['spread_se']:.4f} "
        f"(held-out sample of {result['oracle_sets']} RRR sets)",
        "checks " + " ".join(f"{c}={'ok' if v else 'FAILED'}" for c, v in result["checks"].items()),
    ]
    if result["tiers"]:
        lines.append("tiers " + " ".join(f"{t}={n}" for t, n in result["tiers"].items()))
    lines += [f"error {e}" for e in result["errors"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("imm-ic", "imm-lt-jobs2", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S

    base = run_pass(args, 0, deadline)
    passes = [base]
    if args.trace:
        traced = run_pass(args, 1, deadline)
        passes.append(traced)
        figures = {name: tuple(v) for name, v in traced["layers"].items()}
        # setup_s is a median that drops the first, cold set-up of the
        # process; this keeps first-call costs (lazy imports, caches
        # filled on first use) in view
        figures["setup.first_s"] = (base["setup_s"][0], 1)
        overhead = np.median(traced["latency_ms"]) / np.median(base["latency_ms"]) - 1.0
        figures["trace.overhead_frac"] = (overhead, len(traced["latency_ms"]))
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        figures = end_to_end(base)
        units = dict(END_TO_END)

    for line in describe(passes[-1]):
        print(f"{args.workload}: {line}")
    for name, (value, count) in figures.items():
        print(f"{args.workload}: {name} = {value:.6g} {units[name]} (n={count})")

    correct = all(all(p["checks"].values()) for p in passes)
    last = passes[-1]
    print(json.dumps({
        "correct": correct,
        "attempted": last["attempted"],
        "failed": last["attempted"] - last["ok"],
        "metrics": {
            name: {"value": float(figures[name][0]), "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
