#!/usr/bin/env python3
"""Closed-loop benchmark of freearr: one process, one thread, one request at a time.

Run from the root of a checkout:

    python3 bench/run.py --workload verdict_stream --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24

A run sets the workload up three times (reporting the median), then answers
whole rounds of the workload's fixed requests until ``--seconds`` of request
time is spent.  After every request it times a reference loop; the bounded
time metrics are request times divided by the loop times around them.  The first round's outputs are checked by the independent
checkers in ``checkers.py``; every later round must reproduce them exactly.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402


def ref_loop_ms() -> float:
    """A fixed pure-Python loop that imports nothing from freearr.

    Half is integer arithmetic and half Fraction arithmetic with dict stores:
    a slow phase of the host slows the two kinds of work by different
    amounts, and freearr does both.
    """
    t = time.perf_counter()
    s = 0
    for i in range(10000):
        s += i * i % 7
    x, acc, seen = Fraction(1, 3), Fraction(0), {}
    for i in range(300):
        acc += x * Fraction(i + 1, 7)
        seen[i, acc.denominator & 7] = acc
    return 1000.0 * (time.perf_counter() - t)


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_round(wl, tracer, lat, rel, refs):
    """Answer the workload's requests once.

    Appends each request's time to ``lat`` and, to ``rel``, the same time in
    units of the reference loop timed just before and just after it.  Returns
    (requests, outputs, errors, seconds, reference units).
    """
    reqs, outs, errs = [], [], []
    spent = spent_rel = 0.0
    gen = wl.rounds_requests()
    try:
        req, fn = next(gen)
        while True:
            err = None
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as e:  # a failing request is counted, not fatal
                out, err = None, f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            refs.append(ref_loop_ms())
            r = 1000.0 * dt / ((refs[-2] + refs[-1]) / 2)
            spent += dt
            spent_rel += r
            lat.append(dt)
            rel.append(r)
            reqs.append(req)
            outs.append(out)
            errs.append(err)
            req, fn = gen.send(out)
    except StopIteration:
        pass
    return reqs, outs, errs, spent, spent_rel


def run_workload(args) -> int:
    try:
        fa = workloads.load_freearr()
    except ImportError as e:
        return fail(f"cannot import freearr from {SRC}: {e}")
    if not os.path.abspath(fa.__file__).startswith(SRC + os.sep):
        return fail(f"freearr was imported from {fa.__file__}, not from {SRC}")
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    fa.arrio.parse_param("1/2")  # pays sympy's lazy import inside set-up
    import_s = time.perf_counter() - _START
    cls = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"inputs-{os.getpid()}")
    try:
        return measure(args, spec, fa, cls, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec, fa, cls, workdir, import_s) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl = cls(fa, args.seed, workdir)
        wl.warmup()
        setups.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setups)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    lat: list[float] = []
    rel: list[float] = []
    refs: list[float] = [ref_loop_ms()]
    round_times: list[float] = []
    round_rel: list[float] = []
    first = None
    attempted = failed = wrong = 0
    while True:
        reqs, outs, errs, spent, spent_rel = one_round(wl, tracer, lat, rel, refs)
        round_times.append(spent)
        round_rel.append(spent_rel)
        if first is None:
            t_check = time.perf_counter()
            ok = [i for i, e in enumerate(errs) if e is None]
            checked = wl.check([reqs[i] for i in ok], [outs[i] for i in ok])
            check_s = time.perf_counter() - t_check
            faults = list(errs)
            for i, fault in zip(ok, checked):
                faults[i] = fault
            first = (reqs, outs, faults)
            for i, fault in enumerate(faults):
                if fault is not None:
                    print(f"fault: {reqs[i]}: {fault}", file=sys.stderr)
        else:
            same = reqs == first[0] and outs == first[1]
            faults = first[2] if same else ["output differs from the first round"] * len(reqs)
        attempted += len(reqs)
        failed += sum(f is not None for f in faults)
        wrong += sum(f is not None and e is None for f, e in zip(faults, errs))
        if sum(round_times) + statistics.median(round_times) / 2 >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    rounds = len(round_times)
    n = len(lat)
    lat_ms = sorted(1000.0 * x for x in lat)
    e2e = {
        "wall_ref": statistics.median(round_rel),
        "latency_p50_ref": statistics.median(rel),
        "wall_s": statistics.median(round_times),
        "latency_p50_ms": statistics.median(lat_ms),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"rounds": rounds, "requests": n, "check_s": check_s,
             "host.ref_loop_ms": statistics.median(refs)}
    if n >= 100:  # at least ten samples beyond the 90th percentile
        extra["latency_p90_ms"] = statistics.quantiles(lat_ms, n=10)[-1]
    layer = {}
    if tracer is not None:
        layer = tracer.metrics(rounds)
        layer["host.ref_loop_ms"] = extra["host.ref_loop_ms"]
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    label = "traced " if tracer is not None else ""
    for name, value in list(e2e.items()) + list(extra.items()) + sorted(layer.items()):
        unit = units.get(name, "ms" if name.endswith("_ms") else "s" if name.endswith("_s") else "count")
        print(f"{args.workload} {label}{name} {value:.6g} {unit}")
    print(f"{args.workload} {label}round_s {' '.join(f'{t:.3f}' for t in round_times)}")

    chosen = spec["per_layer"] if tracer is not None else spec["end_to_end"]
    values = layer if tracer is not None else e2e
    metrics = {}
    for m in chosen:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": int(v) if float(v).is_integer() and m["unit"] == "count" else v,
                              "unit": m["unit"]}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return fail(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        part = json.loads(lines[-1])
        result["correct"] = result["correct"] and part["correct"]
        result["attempted"] += part["attempted"]
        result["failed"] += part["failed"]
        for metric, v in part["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(result))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS) + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
