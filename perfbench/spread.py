"""Run-to-run spread of the benchmark, and the baseline record.

    python3 perfbench/spread.py --seeds 10 --sets 2 --seconds 20 [--trace-seeds 3]
                                [--workloads count-dense,...] [--out perfbench/baseline.json]

A set runs perfbench/run.py once per workload and seed (seeds 1..N,
workloads interleaved so host drift falls on all of them alike).  For every
end-to-end metric and set, it reports the median of the run values and the
distance between their first and third quartiles as a share of the median,
next to the metric's bound from BENCHMARK.json; with two sets or more, also
how far each later set's median moved from the first set's, as a share of
the first.  With --trace-seeds it also makes traced runs and records the
per-layer medians.  With --out it writes the machine facts, every set's
medians with their sample counts, the shifts and the per-layer table.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    elapsed = time.perf_counter() - t0
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not doc["correct"]:
        sys.stderr.write(proc.stdout + proc.stderr)
    return doc, elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def summarize(names, bounds, runs):
    """Per workload and metric: median, quartile spread, run count, unit."""
    table = {}
    for w in names:
        table[w] = {}
        for name, bound in bounds.items():
            values = [d["metrics"][name]["value"] for d in runs[w]]
            med, rel = spread(values)
            flag = "ok" if name == "setup_s" or rel < bound / 3 else (
                "WIDE" if rel >= bound else "over a third")
            print(f"{w:18s} {name:12s} {med:10.4f} {rel:8.4f} {bound:6.2f} {flag}")
            table[w][name] = {"median": med, "iqr_share": rel, "runs": len(values),
                              "unit": runs[w][0]["metrics"][name]["unit"]}
        table[w]["fail_ratio"] = {
            "failed": sum(d["failed"] for d in runs[w]),
            "attempted": sum(d["attempted"] for d in runs[w])}
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace-seeds", type=int, default=0)
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",")
    seeds = range(1, args.seeds + 1)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    sets = []
    for k in range(args.sets):
        runs = {w: [] for w in names}
        for seed in seeds:
            for w in names:
                doc, elapsed = one_run(w, seed, seconds, 0)
                runs[w].append(doc)
                ok &= doc["correct"]
                print(f"set {k + 1} {w} seed={seed} {elapsed:.1f}s " + " ".join(
                    f"{m}={v['value']:.4f}" for m, v in doc["metrics"].items()), flush=True)
        print(f"\nset {k + 1}\n{'workload':18s} {'metric':12s} {'median':>10s} "
              f"{'IQR/med':>8s} {'bound':>6s}")
        sets.append(summarize(names, bounds, runs))

    shifts = {}
    if len(sets) > 1:
        print(f"\n{'workload':18s} {'metric':12s} {'shift':>8s} {'bound':>6s}  "
              "(later set's median against the first set's)")
    for k, later in enumerate(sets[1:], 2):
        for w in names:
            for name, bound in bounds.items():
                first = sets[0][w][name]["median"]
                shift = (later[w][name]["median"] - first) / first
                shifts.setdefault(f"set{k}", {}).setdefault(w, {})[name] = shift
                flag = "ok" if shift <= bound else "WORSE"
                print(f"{w:18s} {name:12s} {shift:8.4f} {bound:6.2f}  {flag}")

    layers = {}
    for seed in range(1, args.trace_seeds + 1):
        for w in names:
            doc, elapsed = one_run(w, seed, seconds, 1)
            ok &= doc["correct"]
            layers.setdefault(w, []).append(doc["metrics"])
            print(f"{w} seed={seed} traced {elapsed:.1f}s", flush=True)
    layer_table = {
        w: {k: {"median": statistics.median(m[k]["value"] for m in ms), "unit": ms[0][k]["unit"],
                "runs": len(ms)} for k in ms[0]}
        for w, ms in layers.items()
    }
    if args.out:
        record = {
            "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                        "python": platform.python_version()},
            "run_seconds": seconds,
            "seeds": list(seeds),
            "end_to_end": sets[0],
            "later_sets": sets[1:],
            "shift_from_first_set": shifts,
            "per_layer": layer_table,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
