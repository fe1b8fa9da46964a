"""Benchmark of the delay-noise analyzer: one workload, one seed, one run.

Run from the repository root::

    python3 noisebench/run.py --workload screen-block --seed 1 \\
        --seconds 20 --trace 0

The run builds its nets from ``--seed`` and runs the workload's call
sequence.  Its set-up (characterization) runs ``SETUPS`` times, each
time into a fresh analyzer, and reports the median.  The timed section
runs the workload's fixed number of passes (two, or one for the
extracted tree), each on fresh nets from the seed and carrying over the
characterization; each time it reports is the smallest of the passes'
readings, and every pass must answer as the first.  With ``--trace 1``
the timed section runs once traced and once untraced, each after a
single set-up.  The work of a run is fixed: ``--seconds`` is the
nominal length of its timed section on a 2-vCPU host and does not
change how much is measured, so a faster program is measured on the
same work as a slower one.  The run then checks the answers and
prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer table of one traced
pass (wrappers on the program's entry points plus its own counters and
spans), followed by an untraced pass on fresh nets that gives the
tracing overhead and must answer identically.  Metric names and units,
and the workload names, come from ``BENCHMARK.json``.
"""

import os

# One BLAS/OpenMP thread, pinned before numpy loads: the benchmark is a
# single closed-loop client and CPU time must not hide a thread pool.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

#: Characterizations per untraced run; set-up time is their median.  A
#: third one would add about a fifth to every screen-block and
#: extracted-tree run (nine seconds on a 2-vCPU host).
SETUPS = 2


def source_hash() -> str:
    """SHA-256 over the program's source files, in path order."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def run(name: str, seed: int, trace: bool, per_layer):
    """Run one workload; returns (correct, acct, metrics, notes).

    ``per_layer`` names the rows of the traced table, in order.
    """
    import layers
    import stats
    import workloads
    from repro.obs import Tracer, metrics, set_tracer

    workload = workloads.WORKLOADS[name]
    notes = []
    if trace:
        registry = metrics()
        recorder = layers.LayerRecorder(workload.top)
        recorder.install()
        notes += [f"wrapper skipped: {s}" for s in recorder.skipped]
        tracer = Tracer(enabled=True)
        set_tracer(tracer)
        registry.reset()
        try:
            meter = workloads.Meter(1, recorder, registry, tracer)
            traced = workload.run_pass(workload.nets(seed), meter)
            recorder.switch("pass", registry, tracer)
        finally:
            recorder.uninstall()
            set_tracer(Tracer(enabled=False))
        gc.collect()
        untraced = workload.run_pass(workload.nets(seed), workloads.Meter(1))
        untraced.problems += stats.check_same_answers(untraced.answers,
                                                      traced.answers)
        passes = [untraced, traced]
        labels = ["untraced", "traced"]
    else:
        meter = workloads.Meter(SETUPS)
        labels = [f"pass{i + 1}" for i in range(workload.passes)]
        passes = []
        for _ in labels:
            gc.collect()
            passes.append(workload.run_pass(workload.nets(seed), meter))
            meter = workloads.Meter(state=meter.state)
        for label, later in zip(labels[1:], passes[1:]):
            later.problems += stats.check_same_answers(
                passes[0].answers, later.answers, (labels[0], label))
    # Before the audits, which re-run nets that the screen itself does
    # not analyze.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload.audit is not None:
        workload.audit(passes[0], seed)

    acct = stats.Accounting()
    problems = []
    for label, result in zip(labels, passes):
        acct.attempted += result.acct.attempted
        acct.analyzed += result.acct.analyzed
        acct.degraded += result.acct.degraded
        for net, reasons in result.acct.failed.items():
            acct.failed[f"{label}/{net}"] = reasons
        problems += result.problems
        notes += [f"{label}: wall {result.wall:.3f} s, cpu "
                  f"{result.cpu:.3f} s, set-up {result.setup:.3f} s"]
    notes += passes[0].notes
    notes += [f"FAILED {net}: {'; '.join(reasons)}"
              for net, reasons in sorted(acct.failed.items())]
    notes += [f"CHECK FAILED: {p}" for p in problems]

    if trace:
        values = layers.layer_table(
            recorder, per_layer, wall=traced.wall,
            untraced_wall=passes[0].wall,
            extra=dict(traced.rows, failed_frac=acct.failed_frac,
                       degraded_frac=acct.degraded_frac))
        return not problems, acct, values, notes

    result = passes[0]
    per_net = stats.percentiles(
        stats.fastest(p.per_net for p in passes).values())
    notes.append("set-up runs: " + ", ".join(
        f"{t:.3f} s" for t in result.setup_times) + " (median reported)")
    if len(passes) > 1:
        notes.append(f"times are the smallest of {len(passes)} passes")
    notes.append(f"per-net time: p50 {per_net.p50:.6f} s, tail "
                 f"p{per_net.tail_pct:.1f} {per_net.tail:.6f} s "
                 f"({per_net.n} samples, {per_net.beyond} beyond the tail)")
    notes.append(f"failed_frac {acct.failed_frac:.4f} "
                 f"({len(acct.failed)}/{acct.attempted}), degraded_frac "
                 f"{acct.degraded_frac:.4f} "
                 f"({acct.degraded}/{acct.analyzed})")
    values = {
        "setup_s": result.setup,
        "wall_s": min(p.wall for p in passes),
        "cpu_s": min(p.cpu for p in passes),
        "net_p50_s": per_net.p50,
        "net_tail_s": per_net.tail,
        "peak_rss_mb": peak_rss_mb,
    }
    return not problems, acct, values, notes


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"noisebench: no program source at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import scipy

    import repro
    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"noisebench: imported repro from {repro.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        return 2

    print(f"# noisebench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} | blas_threads="
          f"{BLAS_THREADS} nproc={os.cpu_count()} | src={source_hash()} | "
          f"python {platform.python_version()} numpy {numpy.__version__} "
          f"scipy {scipy.__version__}", flush=True)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    correct, acct, values, notes = run(
        args.workload, args.seed, bool(args.trace),
        [m["name"] for m in spec["per_layer"]])
    for note in notes:
        print(f"# {note}")
    if args.trace:
        width = max(map(len, values))
        for metric in values:
            print(f"#   {metric:<{width}}  {values[metric]:.6g}")
    result = {
        "correct": correct,
        "attempted": acct.attempted,
        "failed": len(acct.failed),
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
