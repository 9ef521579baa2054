"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload:
  1. two traced runs with one seed report identical per-layer counts
     (every metric whose unit is a count or a ratio of counts);
  2. the traced run returns the same verdicts (digest) as an untraced run
     of the same rounds;
  3. a held-out seed builds rounds with the same op mix, and an untraced
     run on it passes every oracle check apart from the known defects.
Prints one line per workload and exits 1 if any check fails.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402

SEED = 1
HELD_OUT = 11  # outside the seeds 1-10 of baseline.json
SECONDS = 3


def run(*extra):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + [str(e) for e in extra], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit("run.py %s failed:\n%s" % (extra, proc.stderr))
    lines = proc.stdout.splitlines()
    digest = next(l.split()[-1] for l in lines
                  if l.startswith("verdict digest:"))
    return json.loads(lines[-1]), digest


def op_mix(name, seed):
    wl = workloads.build(name, seed, ROOT, os.path.join(ROOT, ".bench_work"))
    return [sorted(collections.Counter(op.kind for op in r).items())
            for r in [wl.first_round] + wl.rounds]


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "ratio")}


def check(name):
    common = ("--workload", name, "--seed", SEED, "--seconds", SECONDS)
    a, digest_a = run(*common, "--trace", 1)
    b, _ = run(*common, "--trace", 1)
    problems = []
    if counts(a) != counts(b):
        problems.append("traced counts differ between runs: %s" % {
            k: (v, counts(b)[k]) for k, v in counts(a).items()
            if counts(b)[k] != v})
    u, digest_u = run(*common, "--trace", 0,
                      "--rounds", workloads.TRACE_ROUNDS[name])
    if (digest_u, u["attempted"]) != (digest_a, a["attempted"]):
        problems.append("traced verdicts differ from untraced ones")
    if op_mix(name, SEED) != op_mix(name, HELD_OUT):
        problems.append("held-out seed %d has another op mix" % HELD_OUT)
    h, _ = run("--workload", name, "--seed", HELD_OUT, "--seconds", SECONDS,
               "--trace", 0)
    if not h["correct"]:
        problems.append("held-out seed %d fails %d ops"
                        % (HELD_OUT, h["failed"]))
    return problems


def main() -> int:
    failed = False
    for name in workloads.NAMES:
        problems = check(name)
        print("%s: %s" % (name, "; ".join(problems) or "ok"), flush=True)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
