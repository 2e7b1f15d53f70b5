"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 -I perfbench/pass.py '{"workload": ..., "seed": ..., "mode": ...}'

mode is "setup" (start, import graphtop, build the inputs, stop),
"untraced", "traced", or "self-check" (re-derive the count-dense pool).
A fresh interpreter per pass keeps process-global state in graphtop, such
as the counts memo, from carrying over between passes.

Each op calls graphtop.cli.main(argv) with stdout going to a sink that
counts and hashes the bytes and spools them to a file, so a long stream
costs the pass no memory; the outputs are checked after the timed window.
Untraced and traced passes also measure the host's speed while they run.
"""

import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


class Sink(io.RawIOBase):
    """Counts, hashes and spools what graphtop writes to stdout."""

    def __init__(self, spool):
        self.spool = spool
        self.nbytes = 0
        self.sha = hashlib.sha256()

    def writable(self):
        return True

    def write(self, data):
        self.nbytes += len(data)
        self.sha.update(data)
        self.spool.write(data)
        return len(data)


class Tail(io.RawIOBase):
    """Keeps the last few KiB of stderr for failure reports."""

    def __init__(self):
        self.data = b""

    def writable(self):
        return True

    def write(self, data):
        self.data = (self.data + bytes(data))[-4096:]
        return len(data)


def _text(raw):
    return io.TextIOWrapper(io.BufferedWriter(raw, 1 << 16), encoding="utf-8")


def _cpu(who):
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def _emit(doc):
    sys.__stdout__.write(json.dumps(doc) + "\n")
    sys.__stdout__.flush()


def main():
    spec = json.loads(sys.argv[1])
    import graphtop
    import graphtop.cli

    if not Path(graphtop.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"graphtop imported from {graphtop.__file__}, not {ROOT / 'src'}")
    import speed
    import workloads

    ref = workloads.load_reference()
    workdir = Path(spec["workdir"])
    if spec["mode"] == "self-check":
        _emit({"problems": workloads.derive_pool(ref)})
        return
    ops = workloads.build_ops(spec["workload"], spec["seed"], workdir, ref)
    ready = time.perf_counter()
    if spec["mode"] == "setup":
        _emit({"ready": ready})
        return

    tracer = None
    if spec["mode"] == "traced":
        from spans import Tracer

        tracer = Tracer(workdir)
        tracer.install()
    cli_main = graphtop.cli.main
    sampler = speed.SpeedSampler(workdir)

    spools = [(workdir / f"out-{i}.txt").open("wb") for i in range(len(ops))]
    sinks = [Sink(f) for f in spools]
    outs = [_text(s) for s in sinks]
    tails = [Tail() for _ in ops]
    errs = [_text(t) for t in tails]
    results = []
    cpu0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    sampler.start()
    first = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.run_id = i
        sys.stdout, sys.stderr = outs[i], errs[i]
        code = error = None
        try:
            code = cli_main(list(op.argv))
        except (Exception, SystemExit):
            error = traceback.format_exc(limit=4)
        finally:
            outs[i].flush()
            errs[i].flush()
            sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
        results.append((code, error))
    last = time.perf_counter()
    cpu1 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    sampler.stop()
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    for f in spools:
        f.close()

    failures = []
    for i, (op, (code, error)) in enumerate(zip(ops, results)):
        path = workdir / f"out-{i}.txt"
        why = workloads.check_op(op, code, error, path, sinks[i].sha.hexdigest())
        if why is not None:
            stderr_tail = tails[i].data.decode("utf-8", "replace").strip()
            failures.append(f"{op.label}: {why} {stderr_tail[-300:]}".strip())
        path.unlink()
    wall = last - first
    doc = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": (cpu1[0] - cpu0[0]) + (cpu1[1] - cpu0[1]),
        "children_cpu_s": cpu1[1] - cpu0[1],
        "peak_rss_mb": rss_kb / 1024,
        "ops": len(ops),
        "failures": failures,
        "bytes_out": sum(s.nbytes for s in sinks),
    }
    doc["speed"], doc["speed_samples"] = sampler.speed()
    if tracer is not None:
        from spans import layer_metrics

        spans = tracer.collect()
        metrics = layer_metrics(spans, wall, tracer.main_pid, doc["speed"])
        metrics["cli.bytes_out"] = doc["bytes_out"]
        doc["layers"] = metrics
        doc["missing_targets"] = tracer.missing
        trace_dir = ROOT / ".perfbench" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with (trace_dir / f"{spec['workload']}-seed{spec['seed']}.jsonl").open("w") as fh:
            fh.write(json.dumps({"workload": spec["workload"], "seed": spec["seed"],
                                 "wall_s": wall, "fields": ["id", "parent", "name", "start",
                                                            "end", "count", "run_id"]}) + "\n")
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    _emit(doc)


if __name__ == "__main__":
    main()
