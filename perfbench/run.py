"""ppsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from a checkout that holds src/ppsim.  One process runs one operation at
a time (a closed loop with one client).  Passes of the workload's fixed batch
repeat until the next one would end after --seconds, and at least one runs.
Every output is checked once its pass has finished.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
wall_s is the median pass time; op_p50_ms is the median over a pass's
operations of each operation's median latency.  Their times (and the printed
op_p90_ms) are rescaled to a reference machine speed by speed.SpeedSampler,
because the host's speed swings by about 1.45x; the unscaled figures are
printed beside them.
With --trace 1 it runs half its time untraced and half traced, and reports
the per-layer metrics: span counts and self times per pass, solver and
readout counters, a kernel sweep, source sizes and the tracing overhead.
The spans of the last traced run of each workload, and the full result of
each run, are written under .perfbench_out/.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ppsim benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check rejects a corrupted output")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    return args


def setup_probe(args) -> int:
    """Time a fresh interpreter's import of ppsim.cli and the workload's set-up."""
    t0 = time.perf_counter()
    import ppsim.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        t1 = time.perf_counter()
        workloads.WORKLOADS[args.workload](args.seed, workdir).warm_up()
        warm_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "setup_s": import_s + warm_s}))
    return 0


def run_setup_probe(args) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Measurement:
    def __init__(self):
        self.pass_spans = []  # (start, end) perf_counter readings
        self.op_spans = []
        self.op_positions = []  # index of each operation within its pass
        self.attempted = 0
        self.failures = []

    @property
    def pass_s(self):
        return [t1 - t0 for t0, t1 in self.pass_spans]

    @property
    def latency_s(self):
        return [t1 - t0 for t0, t1 in self.op_spans]


def measure(workload, seconds, tracer=None) -> Measurement:
    import checks

    m = Measurement()
    start = time.perf_counter()
    index = 0
    while True:
        ops = workload.batch(index)
        results = []
        pass_start = time.perf_counter()
        for position, op in enumerate(ops):
            if tracer is not None:
                tracer.op += 1
                tracer.active = True
            t0 = time.perf_counter()
            try:
                results.append((op, op.run(), None))
            except Exception as exc:  # a failed operation is counted, not fatal
                results.append((op, None, exc))
            m.op_spans.append((t0, time.perf_counter()))
            m.op_positions.append(position)
            if tracer is not None:
                tracer.active = False
        m.pass_spans.append((pass_start, time.perf_counter()))
        for op, out, exc in results:
            m.attempted += 1
            if exc is None:
                try:
                    op.check(out)
                except (checks.CheckError, KeyError, TypeError, ValueError) as bad:
                    # a malformed payload surfaces as one of the built-in errors
                    exc = bad
            if exc is not None:
                m.failures.append(f"{op.kind}: " + "".join(traceback.format_exception_only(exc)).strip())
        index += 1
        if time.perf_counter() - start + statistics.median(m.pass_s) > seconds:
            return m


def median_op_latency(latencies, positions) -> float:
    """Median over a pass's operations of each one's median latency across passes.

    A pass mixes operations whose latencies form clusters far apart (2.5 ms
    spectra, 45 ms solves on cli-2spin), and the median of the pooled
    latencies can fall at the edge of a cluster, where it is a tail statistic
    and spreads several times more across runs.
    """
    by_position = {}
    for position, latency in zip(positions, latencies):
        by_position.setdefault(position, []).append(latency)
    return statistics.median(statistics.median(v) for v in by_position.values())


def layer_metrics(tracer, traced: Measurement, plain: Measurement) -> dict:
    """Per-layer figures per traced pass, plus the tracing overhead."""
    import tracing

    passes = len(traced.pass_s)
    out = {}
    for name in tracing.LAYERS:
        out[f"{name}.calls"] = tracer.calls[name] / passes
        out[f"{name}.self_s"] = tracer.self_s[name] / passes
    c = tracer.counters
    solves = tracer.calls["prep.solve_angles"]
    out["prep.residual_evals"] = c["prep.residual_evals"] / solves if solves else 0.0
    for key in ("prep.starts_tried", "prep.starts_converged", "prep.unique_roots",
                "prep.roots_in_box", "readout.records"):
        out[key] = c[key] / passes
    tried = c["prep.starts_tried"]
    out["prep.converged_frac"] = c["prep.starts_converged"] / tried if tried else 0.0
    out["trace.overhead_frac"] = statistics.median(traced.pass_s) / statistics.median(plain.pass_s) - 1
    return out


def run(args, workdir) -> int:
    # the benchmark's own modules import ppsim, so every import of them waits
    # until src/ is on sys.path (and, in a set-up probe, until it is timed)
    import ppsim
    import probes
    import speed
    import tracing
    import workloads
    from ppsim import cli, core, dsl, hogg, prep, readout

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = probes.run_record(ROOT, args)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.warm_up()
    setups = [run_setup_probe(args) for _ in range(SETUP_PROBES)]

    metrics = {}
    if args.trace:
        metrics.update(probes.kernel_sweep(args.seed))
        metrics.update(probes.source_lines(Path(ppsim.__file__).parent))
        metrics["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        plain = measure(workload, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install({"core": core, "prep": prep, "readout": readout,
                        "dsl": dsl, "hogg": hogg, "cli": cli})
        try:
            traced = measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics.update(layer_metrics(tracer, traced, plain))
        tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
        runs, section = [plain, traced], "per_layer"
    else:
        with speed.SpeedSampler() as sampler:
            m = measure(workload, args.seconds)
        latencies = [sampler.rescaled(*s) for s in m.op_spans]
        metrics["wall_s"] = statistics.median(sampler.rescaled(*s) for s in m.pass_spans)
        metrics["op_p50_ms"] = median_op_latency(latencies, m.op_positions) * 1e3
        if len(latencies) >= P90_MIN_SAMPLES:
            metrics["op_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
        metrics["wall_s.unscaled"] = statistics.median(m.pass_s)
        metrics["op_p50_ms.unscaled"] = median_op_latency(m.latency_s, m.op_positions) * 1e3
        metrics["speed.samples"] = sampler.samples
        metrics["speed.kernel_us"] = sampler.median_kernel_s * 1e6
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runs, section = [m], "end_to_end"

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    samples = sum(len(r.op_spans) for r in runs)
    passes = sum(len(r.pass_spans) for r in runs)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("record " + json.dumps(record, sort_keys=True))
    print(f"passes {passes}, operations {attempted}, failed {len(failures)}, "
          f"failed_frac {len(failures) / attempted:.6g}")
    print(f"operation latency samples {samples}")
    reported = {}
    for spec in bench[section]:
        reported[spec["name"]] = {"value": metrics[spec["name"]], "unit": spec["unit"]}
        print(f"{spec['name']} {metrics[spec['name']]:.6g} {spec['unit']}")
    if not args.trace:
        if "op_p90_ms" in metrics:
            print(f"op_p90_ms {metrics['op_p90_ms']:.6g} ms")
        else:
            print(f"op_p90_ms omitted: {samples} samples, fewer than {P90_MIN_SAMPLES}")
        print(f"unscaled wall_s {metrics['wall_s.unscaled']:.6g} s, "
              f"op_p50_ms {metrics['op_p50_ms.unscaled']:.6g} ms "
              f"(speed samples {metrics['speed.samples']}, "
              f"median kernel {metrics['speed.kernel_us']:.1f} us)")
    for line in failures[:10]:
        print(f"failure {line}", file=sys.stderr)

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": reported}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**result, "record": record, "all_metrics": metrics, "failures": failures}, fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ppsim" / "__init__.py").is_file():
        print(f"perfbench: no ppsim package under {SRC}; run from a ppsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.self_test:
            import checks

            return 0 if checks.self_test(workdir) else 1
        return run(args, workdir)


if __name__ == "__main__":
    sys.exit(main())
