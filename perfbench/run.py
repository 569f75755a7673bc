"""rigfit benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload fit_wide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; rigfit is imported from ./src. The
inputs are generated from --seed (see workloads.py for the workloads and why
each was chosen). With --trace 0 the command sequence is repeated untraced
for --seconds and the end-to-end metrics are reported; with --trace 1 each
case runs untraced and then with span wrappers installed (spans.py), and the
per-layer metrics are reported. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The line before
it records the machine and run facts, which are also written with the raw
repetitions to .perfbench_out/. The exit code is 0 when every output check
passed, apart from the known eval-mask defect, which is counted as failed.
"""
import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("fit_wide", "fit_noisy", "clip_io")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="rigfit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: 2 cases of 3 frames, for the smoke check")
    return parser.parse_args(argv)


def _blas_version(np):
    try:
        return np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _import_seconds():
    """Wall time of a fresh interpreter that imports the CLI."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import rigfit.cli"],
                   env=dict(os.environ, PYTHONPATH=SRC), check=True, timeout=120)
    return time.perf_counter() - t0


def _median(values):
    return float(statistics.median(values))


def _fit_summary(reps):
    """(mean iterations per frame, median fit MPJPE over cases) from the
    first repetition's fit reports; (0, 0) for a workload without fit."""
    reports = [r for r in reps[0]["reports"] or () if r is not None]
    if not reports:
        return 0.0, 0.0
    iters = [f["iters"] for r in reports for f in r["frames"]]
    return float(sum(iters)) / len(iters), _median([r["mpjpe_fk"] for r in reports])


def _file_bytes(workdir):
    sizes = {}
    for name in os.listdir(workdir):
        path = os.path.join(workdir, name)
        if os.path.isfile(path):
            kind = name.split(".", 1)[1]
            sizes[kind] = sizes.get(kind, 0) + os.path.getsize(path)
    return sizes


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rigfit", "__init__.py")):
        print(f"perfbench: no rigfit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # One BLAS/OpenMP thread, set before numpy loads: the baseline figures
    # were taken that way on a shared 2-CPU machine.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["RIGFIT_LOG"] = "warn"
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy

    import rigfit.cli as cli
    from rigfit.fit import FitConfig
    from spans import Tracer, unit_of
    from workloads import WORKLOADS, Checks, Runner, measure, prepare, run_case

    workload = WORKLOADS[args.workload]
    size = {"cases": min(2, workload.cases), "frames": 3} if args.scale == "tiny" else {}
    workdir = os.path.join(OUT, f"work-{workload.name}-{os.getpid()}")
    warmdir = os.path.join(workdir, "warm")
    os.makedirs(warmdir)
    try:
        # set-up: a fresh interpreter's imports, then input generation and a
        # warm-up pass over a 2-frame case in this process
        setups = []
        for _ in range(SETUP_REPEATS):
            imports = _import_seconds()
            t0 = time.perf_counter()
            cases = prepare(workload, args.seed, workdir, **size)
            warm = prepare(workload, args.seed, warmdir, cases=1, frames=2)
            run_case(workload, warm[0], 0, Runner(cli), Checks(), {})
            setups.append(imports + time.perf_counter() - t0)

        checks, seen = Checks(), {}
        if args.trace == 0:
            # two repetitions at least, so that every run checks that the
            # outputs repeat exactly; a traced run repeats each case anyway
            reps, traced = measure(workload, cases, args.seconds, cli, checks, seen, min_reps=2)
            missing = []
        else:
            tracer = Tracer()
            reps, traced = measure(workload, cases, args.seconds, cli, checks, seen,
                                   tracer=tracer, max_iters=FitConfig().max_iters)
            tracer.save(os.path.join(OUT, f"trace-{workload.name}.npz"))
            missing = tracer.missing
        file_bytes = _file_bytes(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    frames = len(cases) * cases[0].frames
    run_s = _median([r["run_s"] for r in reps])
    if args.trace == 0:
        metrics = {
            "setup_s": (_median(setups), "s"),
            "run_s": (run_s, "s"),
            "main_frames_per_s": (
                _median([frames / r["times"][workload.main_step] for r in reps]), "frames/s"),
            "eval_frames_per_s": (
                _median([frames / r["times"]["eval"] for r in reps]), "frames/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": ((checks.attempted - checks.failed) / checks.attempted, "fraction"),
        }
    else:
        values = {name: _median([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        values["iters_per_frame"], values["fit_mpjpe"] = _fit_summary(reps)
        values["trace_overhead_frac"] = _median([r["run_s"] for r in traced]) / run_s - 1.0
        metrics = {name: (v, unit_of(name)) for name, v in values.items()}

    facts = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "setup_runs_s": setups,
        "joints": workload.joints,
        "cases": len(cases),
        "frames_per_case": cases[0].frames,
        "frames": frames,
        "file_bytes": file_bytes,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas_version(np),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "known_defects_counted": checks.known_defects,
        "trace_targets_missing": missing,
        "unexpected_failures": checks.unexpected[:20],
    }
    result = {
        "correct": not checks.unexpected,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(
        OUT, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "result": result,
                   "repetitions": [{k: r[k] for k in ("times", "run_s")} for r in reps],
                   "traced_repetitions": [r["layers"] for r in traced]}, fh, indent=1)
    for what in checks.unexpected:
        print(f"perfbench: check failed: {what}", file=sys.stderr)
    print("# facts " + json.dumps(facts))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
