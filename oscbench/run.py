"""oscq benchmark: four seeded workloads, independent output checks, and a
traced per-layer run.

Run from the repository root:

    python3 oscbench/run.py --workload zeros --seed 1 --seconds 6 --trace 0

A run repeats the workload's ladder (its op list) until the timed ops have
taken --seconds, and always runs at least one ladder (on `rules`, five).
Every op draws fresh inputs from the seed, runs in this process through
oscq's public entry points, and is checked after its ladder, untimed, by
`checks`.  Times are
CPU seconds normalised to the machine's momentary speed (see `speed`).
With --trace 0 the last line of output holds the end-to-end metrics; with
--trace 1 untraced and traced ladders alternate and it holds the per-layer
metrics and the tracing overhead.  Every op, the environment and the spans
are also written under `.oscbench/` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from mpmath import mp

from speed import REFERENCE_S, OpTimeout, SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = ".oscbench"
SETUP_PROBES = 5
# wall-clock limits that keep a run under three minutes; a normal op takes
# at most about 50 s (smallnorm on the 2-core reference machine when slow)
OP_WALL_CAP_S = 80
RUN_WALL_CAP_S = 160
WORKLOADS = ("zeros", "rules", "smallnorm", "asymptotics")


def _import_oscq():
    """Put the checkout's own oscq first on the path; refuse to run
    without it rather than pick up another copy."""
    if not os.path.isfile(os.path.join(SRC, "oscq", "__init__.py")):
        sys.exit(f"oscbench: no oscq sources at {SRC}")
    sys.path.insert(0, SRC)
    import oscq.cli  # noqa: F401  (imports every layer module)


def _environment(seed):
    import mpmath
    return {"python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "seed": seed}


def _probe(workload):
    """Set up as a run does, then print this process's CPU seconds since
    exec, normalised by the speed sampled while it set up."""
    meter = SpeedMeter()
    with meter.running():
        meter.sample()
        import workloads
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            workloads.warm_up(workload, tmp)
        meter.sample()
    own = resource.getrusage(resource.RUSAGE_SELF)
    cpu = own.ru_utime + own.ru_stime - meter.spent
    print(json.dumps({"cpu_s": cpu, "seconds": cpu * REFERENCE_S
                      / statistics.mean(meter.samples)}))


def _setup_s(workload):
    """Median normalised seconds from a fresh process to ready, warm-up
    included, over SETUP_PROBES fresh processes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        w0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
        probe = json.loads(out.stdout.splitlines()[-1])
        samples.append({"seconds": probe["seconds"],
                        "cpu_seconds": probe["cpu_s"],
                        "wall_seconds": time.perf_counter() - w0})
    return statistics.median(s["seconds"] for s in samples), samples


def _time_ops(ops, meter, run_deadline):
    """Run and time each op of one ladder; returns one record per op.

    An op is stopped once it has run OP_WALL_CAP_S, or at run_deadline, and
    counts as failed, so that a run ends in bounded time whatever nu the
    seed draws; the run then goes on to a fresh ladder if time allows."""
    def attempt(op):
        meter.deadline = min(time.perf_counter() + OP_WALL_CAP_S,
                             run_deadline)
        try:
            return op.run(), []
        except (Exception, SystemExit, OpTimeout) as exc:
            return exc, [f"raised {type(exc).__name__}: {exc}"]
        finally:
            meter.deadline = None
            mp.prec = prec

    prec = mp.prec   # a stopped op can leave mpmath's global precision set
    records = []
    for op in ops:
        w0 = time.perf_counter()
        (value, failures), seconds, cpu = meter.measure(lambda: attempt(op))
        records.append({"op": op.label, "seconds": seconds,
                        "cpu_seconds": cpu,
                        "wall_seconds": time.perf_counter() - w0,
                        "bits_requested": op.bits_requested,
                        "bits_used": None, "bytes_written": 0,
                        "failures": failures,
                        "stopped": isinstance(value, OpTimeout),
                        "value": value})
    return records


def _check_ops(ops, records):
    """Check each op's output, untimed, and fill in its bits used."""
    for op, rec in zip(ops, records):
        value = rec.pop("value")
        if rec["failures"]:
            continue
        try:
            rec["bits_used"], rec["failures"] = op.check(value)
        except Exception as exc:
            rec["failures"] = [f"check raised {type(exc).__name__}: {exc}"]
        rec["bytes_written"] = sum(os.path.getsize(p) for p in op.outputs
                                   if os.path.exists(p))
    return records


def _print_ladder(i, tag, records):
    print(f"ladder {i} ({tag}): {_ladder_s(records):.3f} s")
    for r in records:
        verdict = "ok" if not r["failures"] else \
            "FAILED: " + "; ".join(r["failures"])
        print(f"  {r['op']}: {r['seconds']:.3f} s ({r['cpu_seconds']:.3f} "
              f"cpu, {r['wall_seconds']:.3f} wall), bits "
              f"{r['bits_used']}/{r['bits_requested']}, {verdict}")


def _ladder_s(records, key="seconds"):
    return sum(r[key] for r in records)


def _finished(ladders):
    """The ladders in which no op was stopped: a stopped op has no time to
    solution, so timings come from these whenever there are any."""
    return [lad for lad in ladders if not any(r["stopped"] for r in lad)]


def _end_to_end(ladders, setup_s):
    failed = sum(1 for lad in ladders for r in lad if r["failures"])
    attempted = sum(len(lad) for lad in ladders)
    ladders = _finished(ladders) or ladders
    ops = [r for lad in ladders for r in lad]
    ratios = [r["bits_used"] / r["bits_requested"] for r in ops
              if r["bits_used"] is not None]
    return {
        "ladder_s": statistics.median(_ladder_s(lad) for lad in ladders),
        "op_p50_s": statistics.median(r["seconds"] for r in ops),
        "op_max_s": statistics.median(max(r["seconds"] for r in lad)
                                      for lad in ladders),
        "bits_ratio_max": max(ratios) if ratios else 0.0,
        "failed_frac": failed / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def _per_layer(tracer, layer_metrics, plain, traced):
    m = layer_metrics(tracer, len(traced))
    # span times are raw CPU seconds, so the accounting uses the traced
    # ladders' raw CPU seconds too
    raw = sum(_ladder_s(lad, "cpu_seconds") for lad in traced) / len(traced)
    attributed = sum(v for k, v in m.items()
                     if k.count(".") == 1 and k.endswith(".self_s"))
    with_trace = statistics.mean(map(_ladder_s, _finished(traced) or traced))
    without = statistics.mean(map(_ladder_s, _finished(plain) or plain))
    m.update({
        "cli.bytes_written": sum(_ladder_s(lad, "bytes_written")
                                 for lad in traced) / len(traced),
        "trace.ladder_s": raw,
        "trace.residue_s": raw - attributed,
        "trace.overhead_frac": (with_trace - without) / without,
    })
    return m


def _declared(values, section):
    """The metrics BENCHMARK.json declares in section, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)[section]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="set up, warm up, report CPU used and exit")
    args = ap.parse_args(argv)

    _import_oscq()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.probe:
        _probe(args.workload)
        return 0
    import workloads

    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        workloads.warm_up(args.workload, tmp)
        return _measure(args, workloads, tmp, started + RUN_WALL_CAP_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(args, workloads, tmp, run_deadline) -> int:
    from spans import Tracer, layer_metrics

    env = _environment(args.seed)
    print(f"oscbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    setup_s, setup_samples = (None, []) if args.trace \
        else _setup_s(args.workload)

    gen = workloads.Generator(args.workload, args.seed, tmp)
    meter = SpeedMeter()
    tracer = Tracer(clock=meter.clock)
    plain, traced = [], []
    with meter.running():
        while True:
            ops = gen.ladder()
            plain.append(_check_ops(ops, _time_ops(ops, meter,
                                                   run_deadline)))
            _print_ladder(len(plain) + len(traced), "untraced", plain[-1])
            if args.trace:
                ops = gen.ladder()
                with tracer.patched():
                    lad = _time_ops(ops, meter, run_deadline)
                traced.append(_check_ops(ops, lad))
                _print_ladder(len(plain) + len(traced), "traced", lad)
            done = (_finished(plain) and (_finished(traced) or not args.trace)
                    and sum(map(_ladder_s, _finished(plain + traced)))
                    >= args.seconds
                    and len(plain) >= workloads.MIN_LADDERS.get(args.workload,
                                                                1))
            if done or time.perf_counter() >= run_deadline:
                break

    ops = [r for lad in plain + traced for r in lad]
    failed = sum(1 for r in ops if r["failures"])
    e2e = _end_to_end(plain, setup_s)
    if args.trace:
        metrics = _declared(_per_layer(tracer, layer_metrics, plain, traced),
                            "per_layer")
        os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, "traces",
                                 f"{args.workload}-seed{args.seed}.json"))
    else:
        metrics = _declared(e2e, "end_to_end")

    print("end-to-end (untraced ladders):")
    for k, v in e2e.items():
        if v is not None:
            print(f"  {k} = {v:.6g}")
    print("  ladder raw cpu s: " + ", ".join(
        f"{_ladder_s(lad, 'cpu_seconds'):.3f}" for lad in plain))
    print("  ladder wall s: " + ", ".join(
        f"{_ladder_s(lad, 'wall_seconds'):.3f}" for lad in plain))
    if setup_samples:
        print("  setup probes (s, cpu, wall): " + "; ".join(
            f"{s['seconds']:.4f}, {s['cpu_seconds']:.4f}, "
            f"{s['wall_seconds']:.4f}" for s in setup_samples))
    print(f"  speed samples: {len(meter.samples)}, median "
          f"{statistics.median(meter.samples):.5f} s vs reference "
          f"{REFERENCE_S} s")
    if args.trace:
        print("per-layer (traced ladders, per ladder):")
        for k, m in metrics.items():
            print(f"  {k} = {m['value']:.6g} {m['unit']}")
    failing = sorted({f for r in ops for f in r["failures"]})
    if failing:
        print("failures:\n  " + "\n  ".join(failing))

    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    with open(os.path.join(OUT_DIR, "results", f"{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"environment": env, "args": vars(args),
                   "end_to_end": e2e, "setup_probes": setup_samples,
                   "speed_samples": meter.samples, "metrics": metrics,
                   "ladders": {"untraced": plain, "traced": traced}},
                  fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
