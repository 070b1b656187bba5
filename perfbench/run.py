"""memlab benchmark: one workload per run, measured in its own process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload project --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

A run generates the workload's inputs from the seed with ``gen.py`` and
runs them in a worker process (``work.py``), which also times fresh
interpreters importing memlab for the set-up time.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  ``--self-test`` runs every workload once on small
inputs, traced and untraced, and checks the outputs and metric names.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# The whole command has to end within 180 seconds.
DEADLINE_S = 175
SELF_TEST_SEED = 1


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(workload: str, spec: Path, seconds: float, trace: int,
               timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "work.py"), "--workload", workload,
         "--inputs", str(spec), "--seconds", str(seconds),
         "--trace", str(trace)],
        env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_test() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: {m["name"] for m in declared["end_to_end"]},
             1: {m["name"] for m in declared["per_layer"]}}
    ok = True
    for workload in gen.WORKLOADS:
        spec = gen.write_inputs(workload, SELF_TEST_SEED,
                                OUT / f"selftest-{workload}", small=True)
        units = sum(unit.get("repeats", 1) for unit in
                    json.loads(spec.read_text(encoding="utf-8"))["units"])
        for trace in (0, 1):
            try:
                result = run_worker(workload, spec, 0, trace, DEADLINE_S)
            except RuntimeError as exc:
                ok = False
                print(f"self-test {workload} trace={trace}: {exc}")
                continue
            problems = []
            if result["failed"]:
                problems.append(f"{result['failed']} failed")
            if result["attempted"] != units * (1 + trace):
                problems.append(f"{result['attempted']} attempted, expected "
                                f"{units * (1 + trace)}")
            if set(result["metrics"]) != names[trace]:
                problems.append(f"metrics {sorted(result['metrics'])}")
            ok = ok and not problems
            print(f"self-test {workload} trace={trace}: "
                  f"{'; '.join(problems) or 'ok'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "memlab" / "__init__.py").is_file():
        print(f"perfbench: no memlab sources under {SRC}; run it from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds < 0:
        parser.error("--workload and --seed are required, --seconds >= 0")

    spec = gen.write_inputs(args.workload, args.seed,
                            OUT / f"{args.workload}-s{args.seed}")
    result = run_worker(args.workload, spec, args.seconds, args.trace,
                        DEADLINE_S - (time.perf_counter() - started))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
