"""Span tracing of rigfit's layers from outside the program.

Wrappers are installed around the layer-boundary functions listed in
TARGETS only while a case runs traced and removed afterwards, so no
untraced measurement runs through them. Each call records one span (name,
start, end, parent) in memory; self time is a span's duration minus the
durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# span name -> (defining module, attribute, modules whose binding is wrapped)
# None as the last field wraps the binding in every rigfit module, so calls
# from any layer are seen; a tuple restricts it to calls made from there.
TARGETS = (
    ("cli", "rigfit.cli", "main", None),
    ("fit.fit_sequence", "rigfit.fit", "fit_sequence", None),
    ("fit.geometric_init", "rigfit.fit", "geometric_init_frame", None),
    ("fit.refine_frame", "rigfit.fit", "refine_frame", None),
    ("fit.residual_jacobian", "rigfit.fit", "_residual_jacobian", None),
    ("fit.loss", "rigfit.fit", "fit_loss", None),
    ("skeleton.fk", "rigfit.skeleton", "fk_positions_and_frames", None),
    ("skeleton.fk_sequence", "rigfit.skeleton", "fk_sequence", None),
    ("rotations.batch_to_matrix", "rigfit.rotations", "batch_axis_angle_to_matrix", None),
    ("rotations.batch_jacobian", "rigfit.rotations", "batch_axis_angle_jacobian", None),
    ("rotations.euler", "rigfit.rotations", "euler_to_matrix", ("rigfit.bvh",)),
    ("rotations.euler", "rigfit.rotations", "matrix_to_euler", ("rigfit.bvh",)),
    ("rotations.euler", "rigfit.rotations", "matrix_to_axis_angle", ("rigfit.bvh",)),
    ("rotations.euler", "rigfit.rotations", "axis_angle_to_matrix", ("rigfit.bvh",)),
    ("bvh.parse", "rigfit.bvh", "parse_bvh", None),
    ("bvh.write", "rigfit.bvh", "write_bvh", None),
    ("trajectory.load", "rigfit.trajectory", "load_trajectory", None),
    ("trajectory.save", "rigfit.trajectory", "save_trajectory", None),
    ("metrics.mpjpe", "rigfit.metrics", "mpjpe", None),
    ("metrics.mpjve", "rigfit.metrics", "mpjve", None),
    ("metrics.cd_skeleton", "rigfit.metrics", "cd_skeleton", None),
    ("normalize", "rigfit.normalize", "remove_global_translation", None),
    ("normalize", "rigfit.normalize", "sequence_normalize", None),
)
# Pose.__post_init__ canonicalizes every row of a pose; it is a method, so
# it is wrapped on the class.
POSE_CANON = "skeleton.pose_canon"

FALLBACK_NOTE = "fell back to the geometric initialization"


def unit_of(metric):
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in ((".calls", "count"), ("_ms", "ms"), ("mb_per_s", "MB/s"),
                         ("_s", "s"), (".s", "s"), ("_frac", "fraction"),
                         ("_ratio", "fraction"), ("per_jacobian", "calls/call"),
                         ("per_frame", "iters/frame"), ("mpjpe", "length")):
        if metric.endswith(suffix):
            return unit
    return "count"


class Tracer:
    """In-memory spans plus the counts recorded at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.nbytes = array("q")  # BVH text size (ASCII) at bvh.parse / bvh.write
        self.fit_reports = []  # reports of each fit_sequence call
        self.missing = []  # TARGETS the program no longer has
        self.enabled = True
        self._stack = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.nbytes.append(0)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter_ns()
                self._stack.pop()
            if name == "bvh.parse":
                self.nbytes[idx] = len(args[0])
            elif name == "bvh.write":
                self.nbytes[idx] = len(result)
            elif name == "fit.fit_sequence":
                self.fit_reports.append(result[1])
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def mark(self):
        """Position to pass to layer_metrics as the start of a repetition."""
        return len(self.start), len(self.fit_reports)

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            nbytes=np.frombuffer(self.nbytes, dtype=np.int64),
        )


@contextlib.contextmanager
def installed(tracer):
    """Wrap every TARGETS binding (and Pose.__post_init__); undo on exit.

    A target the program no longer defines is listed in tracer.missing and
    its metrics read 0, so that a refactor shows in the facts of the run
    instead of stopping it.
    """
    from rigfit.skeleton import Pose

    undo = []
    tracer.missing = []
    try:
        for name, home, attr, only in TARGETS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                tracer.missing.append(f"{home}.{attr}")
                continue
            wrapper = tracer.wrap(name, original)
            modules = [
                m for key, m in list(sys.modules.items())
                if (key == "rigfit" or key.startswith("rigfit."))
                and (only is None or key in only)
            ]
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        original_post_init = Pose.__post_init__
        undo.append((Pose, "__post_init__", original_post_init))
        Pose.__post_init__ = tracer.wrap(POSE_CANON, original_post_init)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def _has_ancestor(parent, name, target):
    """Per span: does any strict ancestor carry name id `target`?"""
    found = np.zeros(len(parent), dtype=bool)
    up = parent.copy()
    while np.any(up >= 0):
        live = up >= 0
        found[live] |= name[up[live]] == target
        nxt = np.full_like(up, -1)
        nxt[live] = parent[up[live]]
        up = nxt
    return found


def layer_metrics(tracer, since, max_iters):
    """Per-layer numbers of the spans and fit reports recorded after `since`."""
    i0, r0 = since
    n_ids = len(tracer.names)
    name = np.array(tracer.name[i0:], dtype=np.int32)
    parent = np.array(tracer.parent[i0:], dtype=np.int32) - i0
    parent[parent < -1] = -1  # roots, and parents before `since`
    dur = (
        np.array(tracer.end[i0:], dtype=np.int64)
        - np.array(tracer.start[i0:], dtype=np.int64)
    ) * 1e-9
    nbytes = np.array(tracer.nbytes[i0:], dtype=np.int64)
    children = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], dur[has_parent])
    self_s = dur - children

    def ids(span):
        return tracer._ids.get(span, n_ids)

    def sel(span):
        return name == ids(span)

    def calls(span):
        return int(np.count_nonzero(sel(span)))

    def total(span, values=dur):
        return float(values[sel(span)].sum())

    def rate(span):
        t = total(span)
        return float(nbytes[sel(span)].sum()) / 1e6 / t if t > 0.0 else 0.0

    refine_ms = dur[sel("fit.refine_frame")] * 1e3
    in_refine = _has_ancestor(parent, name, ids("fit.refine_frame"))
    in_fit = _has_ancestor(parent, name, ids("fit.fit_sequence"))
    loss_in_refine = int(np.count_nonzero(sel("fit.loss") & in_refine))
    fk_in_fit = int(np.count_nonzero(sel("skeleton.fk") & in_fit))
    jacobians = calls("fit.residual_jacobian")
    refines = calls("fit.refine_frame")

    frames = [f for reports in tracer.fit_reports[r0:] for f in reports]
    fallback = [any(FALLBACK_NOTE in d for d in f.get("diagnostics", ())) for f in frames]
    accepted = sum(
        len(f.get("accepted_losses", [0])) - 1 - int(fb) for f, fb in zip(frames, fallback)
    )
    # refine_frame evaluates the loss once at its start and once for the
    # fallback comparison; every other evaluation is a trial step.
    trials = loss_in_refine - 2 * refines

    return {
        "skeleton.fk.calls": calls("skeleton.fk"),
        "skeleton.fk.self_s": total("skeleton.fk", self_s),
        "skeleton.fk_sequence.s": total("skeleton.fk_sequence"),
        "skeleton.pose_canon.calls": calls(POSE_CANON),
        "skeleton.pose_canon.s": total(POSE_CANON),
        "rotations.batch_to_matrix.s": total("rotations.batch_to_matrix"),
        "rotations.batch_jacobian.s": total("rotations.batch_jacobian"),
        "rotations.euler.calls": calls("rotations.euler"),
        "rotations.euler.s": total("rotations.euler"),
        "fit.geometric_init.calls": calls("fit.geometric_init"),
        "fit.geometric_init.self_s": total("fit.geometric_init", self_s),
        "fit.residual_jacobian.calls": jacobians,
        "fit.residual_jacobian.self_s": total("fit.residual_jacobian", self_s),
        "fit.loss.calls": calls("fit.loss"),
        "fit.loss.self_s": total("fit.loss", self_s),
        "fit.lm_step.self_s": total("fit.refine_frame", self_s),
        "fit.refine_frame.p50_ms": float(np.percentile(refine_ms, 50)) if refines else 0.0,
        "fit.refine_frame.p95_ms": float(np.percentile(refine_ms, 95)) if refines else 0.0,
        "fit.iters": int(sum(f.get("iters", 0) for f in frames)),
        "fit.trial_steps": trials,
        "fit.accept_ratio": accepted / trials if trials > 0 else 0.0,
        "fit.max_iters_frames": int(sum(f.get("iters", 0) >= max_iters for f in frames)),
        "fit.fallback_frames": int(sum(fallback)),
        "fit.fk_per_jacobian": fk_in_fit / jacobians if jacobians else 0.0,
        "bvh.parse.s": total("bvh.parse"),
        "bvh.parse.mb_per_s": rate("bvh.parse"),
        "bvh.write.s": total("bvh.write"),
        "bvh.write.mb_per_s": rate("bvh.write"),
        "trajectory.load.s": total("trajectory.load"),
        "trajectory.save.s": total("trajectory.save"),
        "metrics.mpjpe.s": total("metrics.mpjpe"),
        "metrics.mpjve.s": total("metrics.mpjve"),
        "metrics.cd_skeleton.calls": calls("metrics.cd_skeleton"),
        "metrics.cd_skeleton.s": total("metrics.cd_skeleton"),
        "normalize.s": total("normalize"),
        "cli.self_s": total("cli", self_s),
    }
