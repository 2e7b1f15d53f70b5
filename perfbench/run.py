"""The graphtop benchmark: measure one workload for a fixed time.

    python3 perfbench/run.py --workload aggregate-n6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --self-check

Every pass runs in a fresh interpreter (perfbench/pass.py) started by this
process, one at a time, so the load comes from one process; only the
aggregate-n6-w2 workload makes graphtop fork its 2 workers.  This process
never imports graphtop.

--trace 0 reports the end-to-end metrics (medians over the passes of the
run); --trace 1 alternates untraced and traced passes and reports the
per-layer metrics.  Times are in reference seconds (see speed.py).
Human-readable lines come first; the last line of stdout is one JSON
object with correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
PASS = ROOT / "perfbench" / "pass.py"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 16  # set-up-only starts per run, on top of each pass's own set-up
MIN_PASSES = 3
MAX_RUN_S = 150  # stop starting passes after this, whatever --seconds says
PASS_TIMEOUT_S = 120

E2E_UNITS = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def spawn(spec):
    """Run one pass process; (result or None, spawn time, error text)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(PASS), json.dumps(spec)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, t0, f"pass timed out after {PASS_TIMEOUT_S}s"
    why = err.decode("utf-8", "replace").strip()[-600:]
    if proc.returncode != 0:
        return None, t0, f"exit code {proc.returncode}: {why}"
    try:
        return json.loads(out.decode().splitlines()[-1]), t0, None
    except (ValueError, IndexError):
        return None, t0, f"no result line: {why}"


class Run:
    """Passes of one workload, with the op tally behind fail_ratio.

    An op is one call of graphtop.cli.main, plus, on count-dense, the pool
    self-check; a pass that dies counts all its ops as failed.
    """

    def __init__(self, workload, seed, ref, workdir):
        self.workload, self.seed, self.ref, self.workdir = workload, seed, ref, workdir
        self.attempted = self.failed = 0
        self.problems = []
        self.missing_targets = set()
        self.untraced_share = 0.0  # of a traced pass's wall time, median

    def fail(self, n, why):
        self.failed += n
        self.problems.append(why)

    def one(self, mode, workload=None):
        workload = workload or self.workload
        spec = {"workload": workload, "seed": self.seed, "mode": mode,
                "workdir": str(self.workdir)}
        # the host's speed just before the start, for the set-up time
        setup_speed = speed.host_speed()
        doc, t0, err = spawn(spec)
        n_ops = 0 if mode == "setup" else workloads.ops_per_pass(workload, self.ref)
        self.attempted += n_ops
        if doc is None:
            self.attempted += n_ops == 0  # a failed set-up counts as one op
            self.fail(max(n_ops, 1), f"{workload} {mode} pass: {err}")
            return None
        for why in doc.get("failures", ()):
            self.fail(1, why)
        doc["setup_s"] = doc["ready"] - t0
        doc["setup_ref_s"] = doc["setup_s"] * setup_speed
        return doc

    def self_check(self):
        doc, _, err = spawn({"mode": "self-check", "workdir": str(self.workdir)})
        self.attempted += 1
        problems = [err] if doc is None else doc["problems"]
        if problems:
            self.fail(1, "count-dense pool self-check: " + "; ".join(problems))


def _loop(start, deadline, body, min_rounds):
    """Repeat body while the next round is predicted to end by deadline."""
    rounds = 0
    while True:
        t = perf_counter()
        body()
        rounds += 1
        now = perf_counter()
        if rounds >= min_rounds and (now + (now - t) > deadline or now - start > MAX_RUN_S):
            return


def _ok(docs):
    return [d for d in docs if d is not None]


def measure(workload, seed, seconds, trace, ref):
    """(run, metrics, sample counts, raw times) for one workload."""
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, seed, ref, workdir)
        if workload == "count-dense":
            run.self_check()
        start = perf_counter()
        deadline = start + seconds
        if trace:
            return (run, *_measure_traced(run, start, deadline), {})
        setups = _ok(run.one("setup") for _ in range(SETUP_PROBES))
        passes = []
        _loop(start, deadline,
              lambda: passes.append(run.one("untraced")), MIN_PASSES)
        passes = _ok(passes)
        if not passes:
            return run, {}, {}, {}
        setups += passes
        metrics = {
            "wall_ref_s": statistics.median(p["wall_s"] * p["speed"] for p in passes),
            "cpu_ref_s": statistics.median(p["cpu_s"] * p["speed"] for p in passes),
            "setup_s": statistics.median(s["setup_ref_s"] for s in setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        samples = {k: len(passes) for k in metrics}
        samples["setup_s"] = len(setups)
        raw = {k: (statistics.median(p[k] for p in passes), "s", len(passes))
               for k in ("wall_s", "cpu_s")}
        raw["setup_raw_s"] = (statistics.median(s["setup_s"] for s in setups), "s", len(setups))
        raw["speed"] = (statistics.median(p["speed"] for p in passes), "ratio", len(passes))
        return run, metrics, samples, raw
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_traced(run, start, deadline):
    fanout = run.workload == "aggregate-n6-w2"
    untraced, traced, serial = [], [], []

    def cycle():
        if fanout:
            serial.append(run.one("untraced", "aggregate-n6"))
        untraced.append(run.one("untraced"))
        traced.append(run.one("traced"))

    _loop(start, deadline, cycle, 2)
    untraced, traced, serial = _ok(untraced), _ok(traced), _ok(serial)
    if not untraced or not traced:
        return {}, {}
    layers = {k: statistics.median(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    run.missing_targets.update(*(p["missing_targets"] for p in traced))
    run.untraced_share = statistics.median(
        p["layers"]["trace.untraced_s"] / (p["wall_s"] * p["speed"]) for p in traced)

    def ref_wall(passes):
        return statistics.median(p["wall_s"] * p["speed"] for p in passes)

    layers["trace.overhead_s"] = ref_wall(traced) - ref_wall(untraced)
    workers = 2 if fanout else 1
    layers["aggregate.fanout_utilization"] = statistics.median(
        p["children_cpu_s"] / (workers * p["wall_s"]) for p in untraced)
    layers["aggregate.fanout_speedup"] = (
        ref_wall(serial) / ref_wall(untraced) if serial else 1.0)
    samples = {k: len(traced) for k in layers}
    return {k: layers[k] for k in spans.LAYER_UNITS}, samples


def report(workload, run, metrics, samples, raw, trace):
    units = spans.LAYER_UNITS if trace else E2E_UNITS
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"{workload}  seed={run.seed}  trace={int(trace)}")
    rows = [(k, v, units[k], samples[k]) for k, v in metrics.items()]
    rows += [(k, v, unit, n) for k, (v, unit, n) in raw.items()]
    for name, value, unit, n in rows:
        print(f"  {name:34s} {value:14.6f} {unit:6s} (median of {n})")
    print(f"  {'fail_ratio':34s} {ratio:14.6f} {'ratio':6s} "
          f"({run.failed} failed of {run.attempted} ops)")
    if run.missing_targets:
        print(f"  not traced (gone from graphtop): {', '.join(sorted(run.missing_targets))}")
    if run.untraced_share > spans.UNTRACED_FLAG_SHARE:
        print(f"  FLAG trace.untraced_s is {run.untraced_share:.1%} of the traced wall time "
              f"(over {spans.UNTRACED_FLAG_SHARE:.0%}): a hot function may no longer "
              "go through a traced name")
    for why in run.problems[:10]:
        print(f"  FAIL {why}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="only re-derive the count-dense pool and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "graphtop" / "__init__.py").is_file():
        print(f"error: no graphtop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ref = workloads.load_reference()
    if args.self_check:
        run = Run("count-dense", 0, ref, WORK / f"run-{os.getpid()}")
        run.workdir.mkdir(parents=True, exist_ok=True)
        try:
            run.self_check()
        finally:
            shutil.rmtree(run.workdir, ignore_errors=True)
        print("count-dense pool self-check:", "FAIL" if run.failed else "PASS")
        for why in run.problems:
            print(f"  {why}")
        return 1 if run.failed else 0
    if args.workload is None:
        parser.error("--workload is required")

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    out = {}
    complete = True
    for workload in names:
        run, metrics, samples, raw = measure(workload, args.seed, args.seconds, args.trace, ref)
        report(workload, run, metrics, samples, raw, args.trace)
        attempted += run.attempted
        failed += run.failed
        units = spans.LAYER_UNITS if args.trace else E2E_UNITS
        complete &= set(metrics) == set(units)
        prefix = f"{workload}." if len(names) > 1 else ""
        out.update({prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
