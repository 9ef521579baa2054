"""Benchmark of the twoshift library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run is a closed loop: one caller in
one process sends one op at a time.  Rounds (fixed op mixes, see
workloads.py) run until ``--seconds`` have passed, and the run always
stops on a round boundary.  Every op is then checked against an
independent oracle.  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` the layers are
traced from outside (tracer.py), a fixed number of rounds runs, and the
per-layer metrics are reported instead.  Human-readable lines come first.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 9
TAIL_MEM_CAP = 512 << 20  # address-space cap for the tail-index repro child
PINNED = "TWOSHIFT_BENCH_PINNED"
ADDR_NO_RANDOMIZE = 0x0040000
# Host speed: on a shared virtual machine (the 2-vCPU host of
# baseline.json) speed drifts by 15-30 % over tens of seconds, enough to
# swamp a 20 s run.  A fixed reference is timed before the timed phase,
# after the first op that ends REF_EVERY_S after the previous sample, and at
# the end (its time is not counted as timed-phase time); every time the run
# reports is scaled to a host that runs the reference at its nominal rate.
# The raw figures are printed too.  The reference is a pure-Python loop in
# this process, REF_NOMINAL times per second; for the cli workload, whose
# ops are cold interpreters, and whose latencies follow the loop only in
# part, it is a cold interpreter that imports a fixed set of standard
# modules, COLD_NOMINAL times per second.
REF_NOMINAL = 1000.0
REF_SLICE_S = 0.1
REF_EVERY_S = 0.5
COLD_REF = [sys.executable, "-I", "-c", "import argparse, collections, "
            "dataclasses, fractions, itertools, json, re"]
COLD_NOMINAL = 12.0
COLD_SLICE_S = 0.2


class Deadline(Exception):
    """Raised by SIGALRM when an op or a child overruns its limit."""


def _on_alarm(signum, frame):
    raise Deadline()


class Raised:
    """An exception an op let escape, kept as its result."""

    def __init__(self, exc: BaseException) -> None:
        self.name = type(exc).__name__
        self.text = str(exc)[:200]

    def __eq__(self, other):
        return isinstance(other, Raised) and other.name == self.name

    def __repr__(self):
        return "<raised %s: %s>" % (self.name, self.text)


def run_child(argv, limit_s, env, mem_cap=None):
    """Run one child to completion or until ``limit_s``; returns a
    workloads.Child with its exit code, output and peak RSS (from wait4)."""
    from workloads import Child

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (mem_cap, mem_cap))

    out_path = os.path.join(WORK, "child.out")
    err_path = os.path.join(WORK, "child.err")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, env=env,
                                preexec_fn=cap if mem_cap else None)
        reaped = None
        timed_out = False
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            reaped = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            if reaped is None:
                os.kill(proc.pid, signal.SIGKILL)
                reaped = os.wait4(proc.pid, 0)
                timed_out = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        proc.returncode = os.waitstatus_to_exitcode(reaped[1])
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode("utf-8", "replace"),
                     err.read().decode("utf-8", "replace"), timed_out,
                     reaped[2].ru_maxrss)


def _reference() -> int:
    """Fixed pure-Python work: tuple building and dict updates."""
    d = {}
    for i in range(3000):
        t = (i & 7, i & 3, i >> 3)
        d[t] = d.get(t, 0) + 1
    return len(d)


def host_speed() -> float:
    """Reference loops per second over about REF_SLICE_S, as a share of
    REF_NOMINAL.  The cyclic collector is off meanwhile, so that the
    library's GC settings and heap size, which the reference shares, do
    not move the factor."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        n = 0
        t0 = time.perf_counter()
        while True:
            _reference()
            n += 1
            t = time.perf_counter() - t0
            if t >= REF_SLICE_S:
                return n / t / REF_NOMINAL
    finally:
        if was_enabled:
            gc.enable()


def cold_host_speed() -> float:
    """Cold reference interpreters per second over about COLD_SLICE_S, as a
    share of COLD_NOMINAL."""
    n = 0
    t0 = time.perf_counter()
    while True:
        subprocess.run(COLD_REF, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, check=True)
        n += 1
        t = time.perf_counter() - t0
        if t >= COLD_SLICE_S:
            return n / t / COLD_NOMINAL


def canonical(res) -> str:
    """Text form of a result that does not depend on the iteration order of
    its sets (the wildcard hashes by object id, so that order follows the
    memory layout, which differs between traced and untraced runs)."""
    if isinstance(res, (set, frozenset)):
        return "{" + ",".join(sorted(map(canonical, res))) + "}"
    if isinstance(res, dict):
        return "{" + ",".join(sorted(canonical(k) + ":" + canonical(v)
                                     for k, v in res.items())) + "}"
    if isinstance(res, (tuple, list)):
        return "(" + ",".join(canonical(r) for r in res) + ")"
    if hasattr(res, "timed_out"):
        return repr((res.code, res.out))
    if dataclasses.is_dataclass(res):
        return type(res).__name__ + canonical(
            [getattr(res, f.name) for f in dataclasses.fields(res)])
    return repr(res)


def quantiles(lat_ns):
    ms = [v / 1e6 for v in lat_ns]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[-1]


def measure_setup(args, env):
    """Median wall time of fresh interpreters that only set up the inputs."""
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    times = []
    speeds = [host_speed()]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = run_child(argv, 120, env)
        times.append(time.perf_counter() - t0)
        speeds.append(host_speed())
        if child.code != 0 or child.timed_out:
            raise RuntimeError("setup child failed: %s" % child.err[-500:])
    return statistics.median(times), statistics.fmean(speeds)


def pin_layout():
    """Re-exec once with address-space randomization off and a fixed string
    hash seed, so that set iteration orders (some hashes are object ids) and
    with them the per-layer counts repeat for a fixed seed.  Only this
    process and its children are affected."""
    if os.environ.get(PINNED) == "1":
        return
    os.environ[PINNED] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current == -1 or libc.personality(current | ADDR_NO_RANDOMIZE) == -1:
            return
    except OSError:
        return
    os.execv(sys.executable, [sys.executable] + sys.argv)


def main(argv=None) -> int:
    pin_layout()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int,
                    help="run exactly this many rounds instead of --seconds "
                         "(default with --trace 1: the workload's fixed "
                         "traced round count)")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twoshift", "__init__.py")):
        print("error: no twoshift sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    import twoshift
    if not os.path.realpath(twoshift.__file__).startswith(
            os.path.realpath(SRC) + os.sep):
        print("error: twoshift imported from %s, not %s"
              % (twoshift.__file__, SRC), file=sys.stderr)
        return 2
    import workloads as W

    if args.workload not in W.NAMES:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(W.NAMES)), file=sys.stderr)
        return 2
    wl = W.build(args.workload, args.seed, ROOT, WORK)
    if args.setup_only:
        sys.stdout.flush()
        os._exit(0)

    env = dict(os.environ, PYTHONPATH=SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        op_nid = tracer.name_id("bench.op", "bench")
        wil = tracer.originals["spaces.word_in_language"]
        info0 = wil.cache_info() if hasattr(wil, "cache_info") else None
    rounds_cap = args.rounds or (W.TRACE_ROUNDS[args.workload] if args.trace
                                 else None)
    is_cli = args.workload == "cli"
    limit_ns = int(wl.op_limit_s * 1e9)

    def child_op(argv, mem_cap=None):
        return run_child([sys.executable, "-m", "twoshift.cli"] + list(argv),
                         wl.op_limit_s, env, mem_cap)

    # Per distinct op: [op, first result, executions, repeats that
    # differed from the first result, executions over the time limit].
    seen = {}
    order = []
    lats = array("q")
    child_rss = 0
    # Whole run, set-up and oracles included, must end within 180 s.
    watchdog = 140 if rounds_cap else min(2 * args.seconds + 30, 100)
    sample = cold_host_speed if is_cli and not args.trace else host_speed
    speeds = [sample()]
    paused = 0
    start = time.perf_counter_ns()
    last_ref = start
    if not is_cli:
        signal.setitimer(signal.ITIMER_REAL, watchdog)
    rounds_done = 0
    try:
        while True:
            ops = wl.rounds[rounds_done % len(wl.rounds)]
            if rounds_done == 0:
                ops = wl.first_round + ops
            for op in ops:
                if op.fn is not None:
                    fn, fargs = op.fn, op.args
                elif op.child or not args.trace:
                    fn = child_op
                    fargs = op.args + ((TAIL_MEM_CAP,) if op.child else ())
                else:
                    fn, fargs = W.in_process, op.args
                if tracer is not None:
                    tracer.op += 1
                    tracer.enter(op_nid)
                t0 = time.perf_counter_ns()
                try:
                    res = fn(*fargs)
                except Deadline:
                    res = Raised(TimeoutError("run watchdog"))
                    raise
                except Exception as exc:
                    res = Raised(exc)
                finally:
                    lat = time.perf_counter_ns() - t0
                    lats.append(lat)
                    entry = seen.get(id(op))
                    if entry is None:
                        seen[id(op)] = [op, res, 1, 0, int(lat > limit_ns)]
                        order.append(id(op))
                    else:
                        entry[2] += 1
                        entry[3] += not (res == entry[1])
                        entry[4] += lat > limit_ns
                if tracer is not None:
                    tracer.leave(op_nid, None, False)
                if is_cli and not op.child and hasattr(res, "rss_kib"):
                    child_rss = max(child_rss, res.rss_kib)
                now = time.perf_counter_ns()
                if now - last_ref >= REF_EVERY_S * 1e9:
                    speeds.append(sample())
                    last_ref = time.perf_counter_ns()
                    paused += last_ref - now
            rounds_done += 1
            if rounds_done == W.TRACE_ROUNDS[args.workload]:
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            elapsed = (time.perf_counter_ns() - start - paused) / 1e9
            if rounds_cap is not None:
                if rounds_done >= rounds_cap or elapsed > watchdog:
                    break
            elif elapsed >= args.seconds:
                break
    except Deadline:
        print("warning: run watchdog fired after %.0f s" % watchdog,
              file=sys.stderr)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = (time.perf_counter_ns() - start - paused) / 1e9
    speeds.append(sample())
    host = statistics.fmean(speeds)
    if rounds_done < W.TRACE_ROUNDS[args.workload]:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        info1 = wil.cache_info() if info0 is not None else None

    # -- verification against the oracles ---------------------------------
    failed = 0
    known = {}
    by_kind = {}
    digest = hashlib.sha256()
    shown = 0
    for key in order:
        op, res, runs, differed, slow = seen[key]
        try:
            ok = not isinstance(res, Raised) and bool(op.check(res))
        except Exception as exc:
            ok = False
            print("oracle error on %s: %r" % (op.kind, exc), file=sys.stderr)
        bad = runs if not ok else min(runs, differed + slow)
        digest.update(("%s=%s;" % (op.kind, canonical(res))).encode())
        if not bad:
            continue
        if op.known:
            known[op.known] = known.get(op.known, 0) + bad
        else:
            failed += bad
            by_kind[op.kind] = by_kind.get(op.kind, 0) + bad
            if shown < 5:
                shown += 1
                print("FAILED %s args=%.300r result=%.300r"
                      % (op.kind, op.args, res), file=sys.stderr)
    if by_kind:
        print("unexpected failures by op: %s" % by_kind, file=sys.stderr)
    attempted = len(lats)
    known_failed = sum(known.values())
    p50, p90 = quantiles(lats)
    ops_per_s = attempted / elapsed
    peak_kib = child_rss if is_cli else rss_kib

    print("workload=%s seed=%d trace=%d rounds=%d ops=%d elapsed=%.2f s"
          % (args.workload, args.seed, args.trace, rounds_done, attempted,
             elapsed))
    print("verdict digest: %s" % digest.hexdigest())
    print("fail_frac %.4f (%d of %d ops: %d unexpected, %d known defects)"
          % ((failed + known_failed) / attempted, failed + known_failed,
             attempted, failed, known_failed))
    for why, n in sorted(known.items()):
        print("  known defect x%d: %s" % (n, why))

    print("host speed %.3f of nominal (%d reference samples); raw "
          "ops_per_s %.6g, op_ms_p50 %.6g, op_ms_p90 %.6g"
          % (host, len(speeds), ops_per_s, p50, p90))
    if tracer is None:
        setup_raw, setup_host = measure_setup(args, env)
        print("raw setup_s %.6g at host speed %.3f" % (setup_raw, setup_host))
        metrics = {
            "setup_s": (setup_raw * setup_host, "s"),
            "ops_per_s": (ops_per_s / host, "ops/s"),
            "op_ms_p50": (p50 * host, "ms"),
            "op_ms_p90": (p90 * host, "ms"),
            "ok_frac": (1 - (failed + known_failed) / attempted, "ratio"),
            "peak_rss_mib": (peak_kib / 1024, "MiB"),
        }
        print("latency percentiles from %d samples (%d above p90)"
              % (attempted, sum(lat / 1e6 > p90 for lat in lats)))
    else:
        t = tracer
        queries = sum(t.count("spaces." + q) for q in (
            "word_in_language", "ray_in_language", "follower_infinite"))
        under_blocks = t.nested["blocks_queries"]
        hit_ratio = 0.0
        if info0 is not None:
            hits = info1.hits - info0.hits
            total = hits + info1.misses - info0.misses
            hit_ratio = hits / total if total else 0.0
        metrics = {
            "points.window.calls": (t.count("points.window"), "count"),
            "words.pattern_matches.calls":
                (t.count("words.pattern_matches"), "count"),
            "spaces.infinite_ok.calls":
                (t.count("spaces.infinite_ok"), "count"),
            "points.make_infinite.calls":
                (t.count("points.make_infinite"), "count"),
            "spaces.witnesses_per_query":
                (t.nested["witness"] / queries if queries else 0.0, "ratio"),
            "bridge.one_contains.calls":
                (t.count("bridge.one_contains"), "count"),
            "spaces.blocks.yield":
                (t.yielded / under_blocks if under_blocks else 0.0, "ratio"),
            "spaces.equal_spaces.rays_scanned":
                (t.nested["rays_scanned"], "count"),
            "spaces.word_in_language.hit_ratio": (hit_ratio, "ratio"),
            "blockcodes.sbc_apply.calls":
                (t.count("blockcodes.sbc_apply"), "count"),
            "higherblock.encode_block.calls":
                (t.count("higherblock.encode_block"), "count"),
            "topology.cyl_contains.calls":
                (t.count("topology.cyl_contains"), "count"),
            "higherblock.edge_blocks.self_s":
                (t.self_s("higherblock.edge_blocks"), "s"),
        }
        for layer in ("words", "points", "topology", "spaces", "blockcodes",
                      "higherblock", "bridge", "cli"):
            metrics[layer + ".self_s"] = (t.self_s(layer), "s")
        for layer, n in t.errors.items():
            metrics[layer + ".errors"] = (n, "count")
        metrics["trace.ops_per_s"] = (ops_per_s / host, "ops/s")
        metrics["known_defects.failing"] = (known_failed, "count")
        path = os.path.join(WORK, "trace-%s.json" % args.workload)
        t.dump(path)
        print("spans: %d recorded of %d, written to %s"
              % (len(t.spans) // 6, t.seq, os.path.relpath(path, ROOT)))

    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
