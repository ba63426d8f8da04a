"""hplateau benchmark: one workload per process, one JSON result line.

    python3 hpbench/run.py --workload ellipsoid-path --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  With
--trace 0 the result carries the end-to-end metrics, with --trace 1 the
per-layer ones (see README.md).  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# One BLAS thread: the workloads are small batched LAPACK calls and a
# sparse LU, and a single thread keeps run-to-run spread low.  Set before
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

#: Set-up is measured in this many fresh interpreters; the median is
#: reported (imports happen once per process, so in-process repeats
#: could not time them).
SETUP_PROBES = 3

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "cli_fields_per_s": "1/s",
                    "rw_samples_per_s": "1/s", "peak_rss_mib": "MiB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ellipsoid-path", "steep-walk", "ball-certify"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def emit(correct, attempted, failed, metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}),
          flush=True)


def probe_setup(args) -> float:
    """Median time from interpreter start of run.py to inputs ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "hplateau")):
        print(f"hplateau sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    import numpy as np
    import tracing
    import workloads
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](None).build_inputs(args.seed)
        print(time.perf_counter() - T_START)
        return 0
    setup_s = probe_setup(args)

    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    run_dir = os.path.join(HERE, "_out",
                           f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        wl = workloads.WORKLOADS[args.workload](run_dir)
        wl.build_inputs(args.seed)

        rng = np.random.default_rng(args.seed)
        untraced = tracing.NullTracer()
        # whole rounds that fit in --seconds, and at least min_rounds
        t_run = time.perf_counter()
        took = []
        while len(took) < wl.min_rounds or time.perf_counter() - t_run \
                + statistics.median(took) <= args.seconds:
            t = time.perf_counter()
            wl.run_round(untraced, rng)
            took.append(time.perf_counter() - t)
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced_rounds = len(wl.rounds)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                wl.run_round(tracer, rng)
            finally:
                tracer.uninstall()
            tracer.dump(os.path.join(
                HERE, "_out", f"trace-{args.workload}-seed{args.seed}.json"))
        wl.finish()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for what in wl.problems:
        print("CHECK FAILED:", what, file=sys.stderr)
    attempted = sum(r["attempted"] for r in wl.rounds)
    failed = sum(r["failed"] for r in wl.rounds)

    if tracer is None:
        e2e = wl.summary(wl.rounds[:untraced_rounds])
        e2e.update(setup_s=setup_s, peak_rss_mib=peak_mib)
        metrics = {k: (e2e[k], u) for k, u in END_TO_END_UNITS.items()}
    else:
        metrics = tracing.layer_metrics(tracer)
        solve = next(i for i, s in enumerate(tracer.spans) if s[0] == "bench.solve")
        traced_s = tracer.spans[solve][2] - tracer.spans[solve][1]
        own = sum(v for k, v in tracer.self_times(solve).items()
                  if k.startswith("bench."))
        untraced_s = statistics.median(
            r["solve_s"] for r in wl.rounds[:untraced_rounds])
        metrics.update({"trace.solve_s": (traced_s, "s"),
                        "trace.unattributed_s": (own, "s"),
                        "trace.overhead_s": (traced_s - untraced_s, "s")})
        unmeasured = sorted(k for k, (v, _) in metrics.items() if v is None)
        if unmeasured:
            print("unmeasured (wrap target missing: "
                  f"{', '.join(sorted(tracer.missing))}): {', '.join(unmeasured)}",
                  file=sys.stderr)
    emit(not wl.problems, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
