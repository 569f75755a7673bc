"""Smoke check of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Checks that workloads.LAYER_TARGETS maps every per-layer metric of
BENCHMARK.json. Runs every workload untraced and traced with --scale tiny,
and checks that each run exits 0 with its output checks passing, that it
prints exactly the metrics BENCHMARK.json names, each with its unit and a
finite value, and that fit_noisy counts the known eval-mask defect. Finally
checks that the benchmark refuses to run, printing no result, in a directory
that holds only BENCHMARK.json and perfbench/. Exits 1 if any check fails.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd, workload, trace):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import LAYER_TARGETS

    if set(LAYER_TARGETS) != {m["name"] for m in spec["per_layer"]}:
        problems.append("workloads.LAYER_TARGETS and BENCHMARK.json per_layer differ")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                problems.append(f"{tag}: output checks failed")
            if (result["failed"] > 0) != (workload == "fit_noisy"):
                problems.append(f"{tag}: {result['failed']} failed checks")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(wanted))} "
                                f"or their units differ from BENCHMARK.json")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{tag}: non-finite values for {bad}")
            print(f"ok  {tag}: {result['attempted']} checks, {result['failed']} failed",
                  flush=True)

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the sources the benchmark did not refuse to run")
        else:
            print("ok  refuses to run without the sources", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
