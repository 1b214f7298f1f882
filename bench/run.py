"""weaklim benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload scalar_eval --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the library is imported from
``src/`` of that checkout.  One client, in one process and one thread, runs
the workload's pool of ops in order, each op after the previous one returned,
and repeats the pool until ``--seconds`` have passed.  The pools and the
correctness checks are in ``workloads.py``.

The client moves to the next core this process may use before each pass,
so that a slow spell on one core of a shared host does not cover the whole
run; only one core is busy at a time.

``--trace 0`` runs untraced and reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced passes over the same pool and reports the
per-layer metrics from the traced ones (see ``spans.py``).  Each metric is
printed on its own line with its unit and basis.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A run record with the machine, the load and the metrics is written
under ``bench/out/``.  A traced run also writes the spans of its first traced
pass there.
"""

from __future__ import annotations

import argparse
from array import array
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("verify_all", "scalar_eval", "quad_integrals")
# Workloads whose ops are long enough to time in segments (spans.Checkpoints).
SEGMENTED = ("verify_all", "quad_integrals")
SETUP_RUNS = 6  # half before the timed loop, half after it, on alternate cores
CHILD_TIMEOUT_S = 150


# ------------------------------------------------------------ machine

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "weaklim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record(seed: int) -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    load = os.getloadavg()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "load_before": list(load),
        "loaded": load[0] > nproc,
    }


def usable_cores() -> list:
    """The cores this process may run on; [None] where affinity is unsupported."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None]


def run_on(cores, i: int) -> None:
    """Move this process to the i-th core, cycling through ``cores``."""
    core = cores[i % len(cores)]
    if core is not None:
        os.sched_setaffinity(0, {core})


# -------------------------------------------------------------- set-up

def _child(script: str, workload: str, seed: int) -> str:
    out = subprocess.run([sys.executable, str(BENCH / script), workload, str(seed)],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"{script} exited {out.returncode}: {out.stderr[-2000:]}")
    return out.stdout.strip().splitlines()[-1]


def probe_setup(workload: str, seed: int, runs: int, cores) -> list:
    """Fresh interpreters timed from their start to the first completed op.

    Each one starts on the next core in turn (a child inherits its parent's
    affinity); the parent gets all its cores back afterwards.
    """
    rows = []
    try:
        for i in range(runs):
            run_on(cores, i)
            start = time.time()
            row = json.loads(_child("setup_probe.py", workload, seed))
            row["setup_s"] = row.pop("done_wall") - start
            rows.append(row)
    finally:
        if cores[0] is not None:
            os.sched_setaffinity(0, set(cores))
    return rows


def median_setup(rows: list) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# --------------------------------------------------------------- loops

def one_pass(workloads, pool, tracer=None):
    run_op = workloads.run_op
    clock = time.perf_counter
    lat, outs = array("d"), []
    for i, entry in enumerate(pool):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        out = run_op(entry)
        lat.append(clock() - t0)
        outs.append(out)
    return lat, outs


class Checker:
    """Checks every op of the pool and watches determinism.

    The first pass is checked against the contracts (or, for verify_all, the
    recorded verdicts); every later pass must reproduce its outcomes byte for
    byte.  ``attempted`` and ``failed`` count the pool's distinct ops once
    each, however many passes the time allowed, so they depend on the seed
    alone.
    """

    def __init__(self, workloads, pool, refs, expected):
        self.w = workloads
        self.pool = pool
        self.refs = refs
        self.expected = expected
        self.attempted = len(pool)
        self.failed = 0
        self.failed_by_fn = {}
        self.keys = None           # exact outcome text of the first pass
        self.digest = None         # sha256 of the first verify_all pass's JSON
        self.unstable = 0          # outcomes that changed between passes

    def __call__(self, outs) -> list:
        w = self.w
        keys = [w.outcome_key(o) for o in outs]
        if self.keys is not None:
            self.unstable += sum(a != b for a, b in zip(keys, self.keys))
            return keys
        self.keys = keys
        if self.expected is not None:
            ok = [w.check_verify_all(o, self.expected) for o in outs]
            if outs[0][0] == "ok":
                self.digest = w.digest(outs[0][1])
        else:
            ok = [w.check(e, o, r) for e, o, r in zip(self.pool, outs, self.refs)]
        for (name, _), good in zip(self.pool, ok):
            if not good:
                self.failed += 1
                self.failed_by_fn[name] = self.failed_by_fn.get(name, 0) + 1
        return keys


def segmented_pass(workloads, pool, checkpoints):
    """One pass, timed as the segments between checkpoints.

    Returns the segment times, the index of each op's first segment and the
    outcomes.  An op's segments run from its start to the next op's start.
    """
    import numpy as np

    marks = checkpoints.marks
    del marks[:]
    run_op = workloads.run_op
    clock = time.perf_counter
    starts, outs = [], []
    for entry in pool:
        starts.append(len(marks))
        marks.append(clock())
        outs.append(run_op(entry))
    marks.append(clock())
    return np.diff(np.array(marks)), np.array(starts), outs


def run_untraced(workloads, pool, checker, seconds, cores, checkpoints=None):
    """Each input's fastest latency over the passes, and its basis.

    With ``checkpoints`` an op's latency is the sum of the fastest time of
    each of its segments.  If the segments ever differed from pass to pass,
    it is the op's fastest whole repeat instead.
    """
    import numpy as np

    best, best_seg, starts0, ragged, passes = None, None, None, False, 0
    deadline = time.perf_counter() + seconds
    while True:
        run_on(cores, passes)
        if checkpoints is None:
            lat, outs = one_pass(workloads, pool)
            lat = np.array(lat)
        else:
            seg, starts, outs = segmented_pass(workloads, pool, checkpoints)
            lat = np.add.reduceat(seg, starts)
            if best_seg is None:
                best_seg, starts0 = seg, starts
            elif seg.size == best_seg.size and np.array_equal(starts, starts0):
                best_seg = np.minimum(best_seg, seg)
            else:
                ragged = True
        checker(outs)
        best = lat if best is None else np.minimum(best, lat)
        passes += 1
        if time.perf_counter() >= deadline:
            break
    where = f"{passes} passes on {len(cores)} core(s) in turn"
    if checkpoints is None:
        return best, f"each input's fastest repeat; {where}"
    if ragged:
        return best, f"each input's fastest repeat (segments differed); {where}"
    return (np.add.reduceat(best_seg, starts0),
            f"each input's sum of the fastest time of each of its segments, "
            f"{best_seg.size} in all; {where}")


def run_traced(workloads, pool, checker, seconds, claim_ids, cores):
    """Alternate untraced and traced passes until the time is up.

    Each untraced and traced pair runs on one core, the next pair on the
    next core.
    """
    from spans import Tracer

    untraced, traced, summaries = [], [], []
    first = None
    mismatches = 0
    deadline = time.perf_counter() + seconds
    while True:
        run_on(cores, len(traced))
        lat_u, outs_u = one_pass(workloads, pool)
        keys_u = checker(outs_u)
        tracer = Tracer()
        with tracer.installed():
            lat_t, outs_t = one_pass(workloads, pool, tracer)
        keys_t = checker(outs_t)
        mismatches += sum(a != b for a, b in zip(keys_u, keys_t))
        untraced.append(sum(lat_u))
        traced.append(sum(lat_t))
        summaries.append(tracer.summary(claim_ids))
        if first is None:
            first = tracer
        if time.perf_counter() >= deadline:
            return untraced, traced, summaries, first, mismatches


# -------------------------------------------------------------- metrics

def tail(samples):
    """Highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond, n); the value is the
    nearest-rank percentile.  With ten samples or fewer it is the maximum.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100, 0, n
    pct = 100 * (n - 10) // n
    rank = -(-pct * n // 100)  # ceil(pct n / 100), at least 1 since pct >= 9
    return s[rank - 1], pct, n - rank, n


def end_to_end(samples, basis, setup, checker, rss_mb):
    import numpy as np

    # An input's latency is its fastest repeat.  On a shared host, other
    # tenants slow a core for seconds to minutes at a time, which moves the
    # median of a 30 s run by a third; the fastest of many short repeats,
    # spread over the cores, moves far less.  verify_all has a single input,
    # so it has a single sample.
    value, pct, beyond, n = tail(samples.tolist())
    ok = checker.attempted - checker.failed
    return [
        ("setup_s", setup["setup_s"], "s",
         f"median of {SETUP_RUNS} fresh interpreters to the first completed op"),
        ("ops_per_s", samples.size / samples.sum(), "1/s",
         f"{samples.size} inputs over the sum of their latencies"),
        ("latency_p50_ms", 1e3 * float(np.median(samples)), "ms",
         f"n={n}, {basis}"),
        ("latency_tail_ms", 1e3 * value, "ms", f"p{pct}, {beyond} of n={n} samples beyond it"),
        ("failed_ratio", checker.failed / checker.attempted, "1",
         f"{checker.failed} of {checker.attempted} distinct ops outside contract"),
        ("ok_ratio", ok / checker.attempted, "1", "1 - failed_ratio"),
        ("peak_rss_mb", rss_mb, "MB", "ru_maxrss of the timed process"),
    ]


def per_layer(setup, untraced, traced, summaries, claim_ids):
    counts = summaries[0]["counts"]
    times = {k: min(s["times"][k] for s in summaries) for k in summaries[0]["times"]}
    n = len(summaries)
    rows = [(k, v, "count", "first traced pass; equal in all passes") for k, v in counts.items()]
    integrals = counts["quad.integrals"]
    rows.append(("quad.nodes_per_integral", counts["quad.nodes"] / integrals if integrals else 0.0,
                 "count", "quad.nodes / quad.integrals"))
    rows += [(k, v, "s", f"fastest of {n} traced passes") for k, v in times.items()]
    rows += [(f"cli.{k}", setup[k], "s", f"median of {SETUP_RUNS} fresh interpreters")
             for k in ("import_numpy_s", "import_weaklim_s", "first_op_s")]
    u, t = min(untraced), min(traced)
    rows += [
        ("trace.overhead_ratio", t / u, "ratio", "trace.traced_pass_s / trace.untraced_pass_s"),
        ("trace.traced_pass_s", t, "s", f"fastest of {n} traced passes"),
        ("trace.untraced_pass_s", u, "s", f"fastest of {n} untraced passes"),
    ]
    return rows


# ----------------------------------------------------------------- main

def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        p.error("--seconds must be a positive number")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "weaklim" / "__init__.py").is_file():
        print("error: no library sources at src/weaklim next to bench/", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    machine = machine_record(args.seed)
    if machine["loaded"]:
        print(f"warning: load average {machine['load_before'][0]:.2f} exceeds "
              f"nproc {machine['nproc']} at start", file=sys.stderr)

    cores = usable_cores()
    machine["cores"] = cores
    probes = probe_setup(args.workload, args.seed, SETUP_RUNS // 2, cores)
    import workloads
    from spans import Checkpoints
    from weaklim import claims

    pool = workloads.make_pool(args.workload, args.seed)
    refs = expected = None
    if args.workload == "verify_all":
        expected = workloads.load_expected()
    else:
        refs = json.loads(_child("oracle.py", args.workload, args.seed))
    checker = Checker(workloads, pool, refs, expected)

    mismatches, drift = 0, False
    if args.trace:
        untraced, traced, summaries, first, mismatches = run_traced(
            workloads, pool, checker, args.seconds, claims.claim_ids(), cores)
        drift = any(s["counts"] != summaries[0]["counts"] for s in summaries)
    elif args.workload in SEGMENTED:
        checkpoints = Checkpoints()
        with checkpoints.installed():
            timed = run_untraced(workloads, pool, checker, args.seconds, cores, checkpoints)
    else:
        timed = run_untraced(workloads, pool, checker, args.seconds, cores)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = median_setup(probes + probe_setup(args.workload, args.seed,
                                              SETUP_RUNS - len(probes), cores))
    machine["load_after"] = list(os.getloadavg())
    if args.trace:
        rows = per_layer(setup, untraced, traced, summaries, claims.claim_ids())
    else:
        rows = end_to_end(*timed, setup, checker, rss_mb)

    # Ops outside their contract are counted in `failed`.  `correct` says
    # whether the run can be trusted: outputs repeat from pass to pass,
    # tracing changed none of them, and every verify_all pass reproduced the
    # recorded verdicts.  A verdict digest change alone is reported, not
    # counted, so a documented last-digit shift stays visible.
    digest_match = checker.digest == expected["sha256"] if expected else None
    correct = (checker.unstable == 0 and mismatches == 0 and not drift
               and (expected is None or checker.failed == 0))

    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  pool {len(pool)} ops  "
          f"one client, closed loop, {mode}")
    print("machine " + json.dumps(machine))
    for name, value, unit, basis in rows:
        print(f"{name:34s} {value:<14.6g} {unit:6s} {basis}")
    if checker.failed_by_fn:
        print("outside contract (distinct ops): " + ", ".join(
            f"{k} {v}" for k, v in sorted(checker.failed_by_fn.items())))
    if expected:
        print(f"verdict digest matches the recorded one: {digest_match}")
    if args.trace:
        print(f"traced outputs identical to untraced: {mismatches == 0}  "
              f"counts equal in every traced pass: {not drift}")
    print(f"outputs deterministic across passes: {checker.unstable == 0}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows
               if name != "failed_ratio"}
    record = {"workload": args.workload, "trace": args.trace, "machine": machine,
              "metrics": {name: {"value": v, "unit": u, "basis": b} for name, v, u, b in rows},
              "failed_by_function": checker.failed_by_fn,
              "digest_match": digest_match}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        first.write_spans(OUT / f"{stem}-spans.jsonl")

    print(json.dumps({"correct": bool(correct), "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
