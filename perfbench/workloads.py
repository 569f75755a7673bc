"""The three benchmark workloads: inputs, command sequences and output checks.

Each workload is a fixed sequence of `rigfit` CLI commands run in-process
through `rigfit.cli.main(argv)`, once per case, on inputs generated here
from the run's seed. A case is one random rig (branching <= 4, bone scale
0.3) with a smooth sinusoidal clip and a moving root. How much one case costs
to fit depends strongly on its rig, so a workload spreads its frames over
several cases; that keeps the figures of one seed close to those of the next.

fit_wide (60 joints, realizable input, default FitConfig)
    Commands: `fit --report`; `eval --metric all` against the clean
    trajectory. At N = 60 the dense `_residual_jacobian` and the (3N)^2
    damped solve dominate, while warm-started frames converge in about 12
    LM iterations.
fit_noisy (24 joints, Gaussian noise sigma 0.02, bone lengths x1.15 against
    the rig, 4 non-root joints masked, `--fit-root-translation`)
    Commands: `fit --report`; `eval` against the clean truth; `eval`
    against the masked observed trajectory. The same LM layer is used
    differently: no pose reproduces the input, steps are rejected and
    iterations run long, and the root-translation Jacobian columns are
    exercised. A damping change that helps fit_wide can hurt here.
clip_io (30 joints, no fit)
    Commands: `synth` (FK, BVH write, JSON save); `eval --metric all` of the
    synth BVH against its own JSON; `normalize`. BVH I/O does nearly all of
    the work and fitting none, with writes beside reads, so a format change
    that speeds one and slows the other shows.

LAYER_TARGETS below records, for each per-layer metric, the end-to-end
metric it should move and the workloads it should move it on.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import re
import zlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import inputs
from spans import installed, layer_metrics

# Bound before any wrapper exists, so the output checks never show up in a
# traced run and keep working when the traced bindings are replaced.
from rigfit.bvh import parse_bvh

# Output tolerances. BVH motion values carry 6 decimals (degrees for
# rotations), which moves joint positions by about 1e-6 at these rig sizes.
FIT_MPJPE_MAX = 1e-3  # realizable fit, as acceptance criterion 1
BVH_ROUNDING = 1e-5  # |eval MPJPE - fit's own MPJPE| and synth self-eval
NOISY_MPJPE_MAX = 0.5  # fit_noisy against the clean truth: no blow-up
MASK_DEFECT = "trajectory masks differ"

# fit_noisy's observed trajectory against the rig
BONE_SCALE = 1.15
NOISE_SIGMA = 0.02
MASKED_JOINTS = 4  # never the root


@dataclass(frozen=True)
class Workload:
    name: str
    joints: int
    cases: int
    frames: int
    main_step: str  # the command behind main_frames_per_s
    noisy: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit_wide", joints=60, cases=2, frames=16, main_step="fit"),
        Workload("fit_noisy", joints=24, cases=48, frames=4, main_step="fit", noisy=True),
        Workload("clip_io", joints=30, cases=1, frames=300, main_step="synth"),
    )
}

# per-layer metric -> (end-to-end metric it should move, workloads)
LAYER_TARGETS = {
    "skeleton.fk.calls": ("main_frames_per_s", ("fit_wide", "fit_noisy")),
    "skeleton.fk.self_s": ("main_frames_per_s", ("fit_wide", "fit_noisy")),
    "skeleton.fk_sequence.s": ("eval_frames_per_s", ("clip_io",)),
    "skeleton.pose_canon.calls": ("main_frames_per_s, eval_frames_per_s", ("clip_io",)),
    "skeleton.pose_canon.s": ("main_frames_per_s, eval_frames_per_s", ("clip_io",)),
    "rotations.batch_to_matrix.s": ("main_frames_per_s", ("fit_wide",)),
    "rotations.batch_jacobian.s": ("main_frames_per_s", ("fit_wide",)),
    "rotations.euler.calls": ("main_frames_per_s, eval_frames_per_s", ("clip_io",)),
    "rotations.euler.s": ("main_frames_per_s, eval_frames_per_s", ("clip_io",)),
    "fit.geometric_init.calls": ("main_frames_per_s", ("fit_wide", "fit_noisy")),
    "fit.geometric_init.self_s": ("main_frames_per_s", ("fit_wide", "fit_noisy")),
    "fit.residual_jacobian.calls": ("main_frames_per_s", ("fit_wide",)),
    "fit.residual_jacobian.self_s": ("main_frames_per_s", ("fit_wide",)),
    "fit.loss.calls": ("main_frames_per_s", ("fit_noisy",)),
    "fit.loss.self_s": ("main_frames_per_s", ("fit_noisy",)),
    "fit.lm_step.self_s": ("main_frames_per_s", ("fit_wide",)),
    "fit.refine_frame.p50_ms": ("main_frames_per_s", ("fit_noisy",)),
    "fit.refine_frame.p95_ms": ("main_frames_per_s", ("fit_noisy",)),
    "fit.iters": ("iters_per_frame, main_frames_per_s", ("fit_noisy",)),
    "fit.trial_steps": ("iters_per_frame, main_frames_per_s", ("fit_noisy",)),
    "fit.accept_ratio": ("iters_per_frame, main_frames_per_s", ("fit_noisy",)),
    "fit.max_iters_frames": ("iters_per_frame, main_frames_per_s", ("fit_noisy",)),
    "fit.fallback_frames": ("iters_per_frame, main_frames_per_s", ("fit_noisy",)),
    "fit.fk_per_jacobian": ("iters_per_frame, main_frames_per_s", ("fit_noisy",)),
    "iters_per_frame": ("main_frames_per_s", ("fit_wide", "fit_noisy")),
    "fit_mpjpe": ("ok_frac", ("fit_wide", "fit_noisy")),
    "bvh.parse.s": ("eval_frames_per_s", ("clip_io",)),
    "bvh.parse.mb_per_s": ("eval_frames_per_s", ("clip_io",)),
    "bvh.write.s": ("main_frames_per_s", ("clip_io", "fit_wide")),
    "bvh.write.mb_per_s": ("main_frames_per_s", ("clip_io", "fit_wide")),
    "trajectory.load.s": ("eval_frames_per_s", ("clip_io",)),
    "trajectory.save.s": ("main_frames_per_s", ("clip_io",)),
    "metrics.mpjpe.s": ("eval_frames_per_s", ("clip_io",)),
    "metrics.mpjve.s": ("eval_frames_per_s", ("clip_io",)),
    "metrics.cd_skeleton.calls": ("eval_frames_per_s", ("clip_io",)),
    "metrics.cd_skeleton.s": ("eval_frames_per_s", ("clip_io",)),
    "normalize.s": ("run_s", ("clip_io",)),
    "cli.self_s": ("run_s", ("fit_wide", "fit_noisy", "clip_io")),
    "trace_overhead_frac": ("none: the cost of tracing itself", ()),
}


@dataclass
class Case:
    rig: inputs.Rig
    frames: int
    paths: dict
    synth_seed: int


def prepare(workload, seed, workdir, cases=None, frames=None):
    """Generate and write the inputs of every case; same seed, same bytes."""
    cases = workload.cases if cases is None else cases
    frames = workload.frames if frames is None else frames
    salt = zlib.crc32(workload.name.encode())
    out = []
    for k in range(cases):
        rng = np.random.default_rng([seed, salt, k])
        rig = inputs.random_rig(rng, workload.joints)
        base = os.path.join(workdir, f"case{k:02d}")
        paths = {
            "rig": base + ".rig.bvh", "clean": base + ".clean.json", "obs": base + ".obs.json",
            "fit": base + ".fit.bvh", "report": base + ".report.json",
            "synth": base + ".synth", "norm": base + ".norm.json",
        }
        _write(paths["rig"], inputs.rig_bvh_text(rig))
        synth_seed = int(rng.integers(2**31))
        out.append(Case(rig, frames, paths, synth_seed))
        if workload.main_step != "fit":
            continue  # `rigfit synth` makes the clip
        rotations, root = inputs.smooth_motion(rng, rig.joint_count, frames)
        clean = inputs.forward_kinematics(rig.parents, rig.offsets, rotations, root)
        all_valid = np.ones(rig.joint_count, dtype=bool)
        _write(paths["clean"], inputs.trajectory_json_text(rig.names, clean, all_valid))
        if workload.noisy:
            observed = inputs.forward_kinematics(
                rig.parents, rig.offsets * BONE_SCALE, rotations, root
            )
            observed += rng.normal(scale=NOISE_SIGMA, size=observed.shape)
            mask = all_valid.copy()
            masked = rng.choice(np.arange(1, rig.joint_count), size=MASKED_JOINTS, replace=False)
            mask[masked] = False
            observed[:, ~mask] = 0.0  # occluded: present in the file, not trusted
            _write(paths["obs"], inputs.trajectory_json_text(rig.names, observed, mask))
    return out


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


class Checks:
    """Exit codes and output checks; every failed one counts in `failed`.

    `unexpected` lists failures that make the run incorrect; the known
    eval-mask defect is counted as failed but does not.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.unexpected = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.unexpected.append(what)
        return ok

    def known_defect(self):
        self.attempted += 1
        self.failed += 1
        self.known_defects += 1


class _Capture(logging.Handler):
    def __init__(self):
        super().__init__(level=logging.ERROR)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class Runner:
    """Runs CLI commands in-process and times each one."""

    def __init__(self, cli_module):
        self.cli = cli_module
        self.times = {}

    def call(self, step, argv):
        """-> (exit code, stdout text, error messages logged)."""
        capture = _Capture()
        logger = logging.getLogger("rigfit")
        logger.addHandler(capture)
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                t0 = perf_counter()
                rc = self.cli.main(argv)
                dt = perf_counter() - t0
        finally:
            logger.removeHandler(capture)
        self.times[step] = self.times.get(step, 0.0) + dt
        return rc, stdout.getvalue(), capture.messages


def _json_or_none(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def run_fit_case(workload, case, k, runner, checks, seen, paused):
    """fit --report, eval vs clean truth, and (fit_noisy) eval vs observed."""
    p = case.paths
    traj = p["obs"] if workload.noisy else p["clean"]
    argv = ["fit", "--rig", p["rig"], "--traj", traj, "--out", p["fit"],
            "--report", p["report"]]
    if workload.noisy:
        argv.append("--fit-root-translation")
    rc, _, _ = runner.call("fit", argv)
    report = None
    with paused():
        if checks.check(rc == 0, f"case {k}: fit exit {rc}"):
            with open(p["report"], encoding="utf-8") as fh:
                report = json.load(fh)
            iters = [f["iters"] for f in report["frames"]]
            checks.check(iters == seen.setdefault(k, iters),
                         f"case {k}: iterations differ from the first repetition")
            with open(p["fit"], encoding="utf-8") as fh:
                doc = parse_bvh(fh.read())
            checks.check(
                list(doc.skeleton.joint_names) == case.rig.names
                and doc.clip.frame_count == case.frames,
                f"case {k}: fitted BVH does not re-parse with the rig's joints",
            )
            if not workload.noisy:
                checks.check(report["mpjpe_fk"] < FIT_MPJPE_MAX,
                             f"case {k}: fit MPJPE {report['mpjpe_fk']:.3g}")

    rc, out, _ = runner.call(
        "eval", ["eval", "--pred", p["fit"], "--gt", p["clean"], "--metric", "all"]
    )
    ev = _json_or_none(out)
    if checks.check(rc == 0 and ev is not None, f"case {k}: eval exit {rc}"):
        if workload.noisy:
            checks.check(ev["mpjpe"] < NOISY_MPJPE_MAX,
                         f"case {k}: MPJPE vs clean truth {ev['mpjpe']:.3g}")
        elif report is not None:
            checks.check(abs(ev["mpjpe"] - report["mpjpe_fk"]) <= BVH_ROUNDING,
                         f"case {k}: eval MPJPE {ev['mpjpe']:.6g} vs fit "
                         f"{report['mpjpe_fk']:.6g}")

    if workload.noisy:
        rc, out, errors = runner.call(
            "eval_obs", ["eval", "--pred", p["fit"], "--gt", p["obs"], "--metric", "all"]
        )
        ev = _json_or_none(out)
        if rc == 2 and any(MASK_DEFECT in e for e in errors):
            # BVH inputs get an all-true mask, so a masked trajectory is refused
            checks.known_defect()
        elif checks.check(rc == 0 and ev is not None, f"case {k}: eval vs observed exit {rc}"):
            if report is not None:
                checks.check(abs(ev["mpjpe"] - report["mpjpe_fk"]) <= BVH_ROUNDING,
                             f"case {k}: eval vs observed MPJPE {ev['mpjpe']:.6g} "
                             f"vs fit {report['mpjpe_fk']:.6g}")
    return report


_JOINT_LINE = re.compile(r"^\s*(?:ROOT|JOINT)\s+(\S+)", re.M)
_FRAMES_LINE = re.compile(r"^Frames:\s*(\d+)", re.M)


def run_clip_case(case, k, runner, checks, seen):
    """synth, eval of the synth BVH against its own JSON, normalize."""
    p = case.paths
    rc, _, _ = runner.call(
        "synth", ["synth", "--rig", p["rig"], "--frames", str(case.frames),
                  "--seed", str(case.synth_seed), "--out", p["synth"]]
    )
    if checks.check(rc == 0, f"case {k}: synth exit {rc}"):
        with open(p["synth"] + ".bvh", "rb") as fh:
            data = fh.read()
        header = data[: data.index(b"MOTION") + 64].decode()
        frames = _FRAMES_LINE.search(header)
        checks.check(
            _JOINT_LINE.findall(header) == case.rig.names
            and frames is not None and int(frames.group(1)) == case.frames,
            f"case {k}: synth BVH does not carry the rig's joints and frames",
        )
        digest = hashlib.sha256(data).hexdigest()
        checks.check(digest == seen.setdefault(k, digest),
                     f"case {k}: synth BVH differs from the first repetition")

    rc, out, _ = runner.call(
        "eval", ["eval", "--pred", p["synth"] + ".bvh", "--gt", p["synth"] + ".json",
                 "--metric", "all"]
    )
    ev = _json_or_none(out)
    if checks.check(rc == 0 and ev is not None, f"case {k}: eval exit {rc}"):
        checks.check(
            ev["mpjpe"] <= BVH_ROUNDING and ev["cds"] <= BVH_ROUNDING
            and ev["mpjve"] <= BVH_ROUNDING * inputs.FPS * 2,
            f"case {k}: synth BVH vs its JSON: mpjpe {ev['mpjpe']:.3g} "
            f"mpjve {ev['mpjve']:.3g} cds {ev['cds']:.3g}",
        )

    rc, _, _ = runner.call("normalize", ["normalize", "--in", p["synth"] + ".json",
                                         "--out", p["norm"]])
    if checks.check(rc == 0, f"case {k}: normalize exit {rc}"):
        with open(p["norm"], encoding="utf-8") as fh:
            pos = np.asarray(json.load(fh)["frames"], dtype=float)
        extent = (pos.max(axis=(0, 1)) - pos.min(axis=(0, 1))).max()
        checks.check(np.abs(pos).max() <= 1.0 + 1e-9 and abs(extent - 2.0) <= 1e-9,
                     f"case {k}: normalized extent {extent:.12g}")


def run_case(workload, case, k, runner, checks, seen, paused=contextlib.nullcontext):
    """The workload's command sequence on one case; its fit report or None.

    `seen` holds, per case, the output of the first run that later ones must
    repeat exactly. `paused` suspends tracing while the fit checks re-parse
    the output.
    """
    if workload.main_step == "fit":
        return run_fit_case(workload, case, k, runner, checks, seen, paused)
    run_clip_case(case, k, runner, checks, seen)
    return None


def _repetition(runner, reports):
    return {"times": runner.times, "run_s": sum(runner.times.values()), "reports": reports}


def measure(workload, cases, seconds, cli, checks, seen, min_reps=1, tracer=None,
            max_iters=0):
    """Repeat the command sequence over all cases until the next repetition
    would end after `seconds`, but at least `min_reps` times.

    Returns (untraced repetitions, traced repetitions). With a tracer, every
    case runs twice in a row, untraced and then with the wrappers installed,
    so that drift in the machine's speed cancels out of the tracing overhead;
    each traced repetition carries its per-layer metrics.
    """
    plain, traced = [], []
    began = perf_counter()
    while True:
        t0 = perf_counter()
        runner, reports = Runner(cli), []
        if tracer is not None:
            traced_runner, mark = Runner(cli), tracer.mark()
        for k, case in enumerate(cases):
            reports.append(run_case(workload, case, k, runner, checks, seen))
            if tracer is not None:
                with installed(tracer):
                    run_case(workload, case, k, traced_runner, checks, seen, tracer.paused)
        plain.append(_repetition(runner, reports))
        if tracer is not None:
            traced.append(_repetition(traced_runner, None))
            traced[-1]["layers"] = layer_metrics(tracer, mark, max_iters)
        wall = perf_counter() - t0
        if len(plain) >= min_reps and perf_counter() - began + wall > seconds:
            return plain, traced
