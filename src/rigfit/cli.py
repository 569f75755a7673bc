"""Command-line driver: fit, eval, normalize, synth, inspect.

Exit codes: 0 success, 2 validation failure, 3 I/O failure, 4 internal error.
Machine output goes to stdout; diagnostics go to stderr via logging.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys

import numpy as np

from .bvh import parse_bvh, write_bvh
from .errors import ValidationError
from .fit import STOP_REASONS, FitConfig, fit_sequence
from .metrics import SkeletonInstance, cd_skeleton, mpjpe, mpjve
from .normalize import remove_global_translation, sequence_normalize
from .skeleton import AnimationClip, JointTrajectory, fk_sequence
from .trajectory import load_trajectory, save_trajectory, write_json

log = logging.getLogger("rigfit")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_INTERNAL = 4
# the per-frame fields of a fit --report, in the order written
REPORT_KEYS = ("loss_pos", "loss_prior", "loss_twist", "iters", "stop", "trials")


def _configure_logging():
    level = os.environ.get("RIGFIT_LOG", "warn").lower()
    levels = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    logging.basicConfig(
        stream=sys.stderr,
        level=levels.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _read_text(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_side(path):
    """Load a BVH or trajectory JSON evaluation input as (trajectory, parents
    or None). BVH inputs run through forward kinematics first."""
    if path.endswith(".bvh"):
        doc = parse_bvh(_read_text(path))
        return fk_sequence(doc.skeleton, doc.clip), doc.skeleton.parents
    return load_trajectory(path)[0], None


def _normalize_side(traj):
    traj, _roots = remove_global_translation(traj)
    traj, _transform = sequence_normalize(traj)
    return traj


def _write_clip(doc, clip, path):
    """Write clip as BVH on doc's rig and channel layout, at the clip's frame rate."""
    out = dataclasses.replace(doc, clip=clip, frame_time=1.0 / clip.fps, extra_translations={})
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(write_bvh(out))


def _valid_bones(traj, parents):
    """A side's valid joints as (positions, parents), keeping a bone only where
    both of its ends are valid; None when no bone is left."""
    mask = traj.mask
    parents = np.asarray(parents)[mask]
    kept = (parents >= 0) & mask[np.maximum(parents, 0)]
    if not kept.any():
        return None
    parents = np.where(kept, (np.cumsum(mask) - 1)[parents], -1)
    return traj.positions[:, mask], parents


def _warn_early_stops(reports):
    """One warning line counting, per stop reason, the frames whose refinement
    ended before the gradient test passed, with the first five frame indices."""
    early = {reason: [t for t, r in enumerate(reports) if r["stop"] == reason]
             for reason in STOP_REASONS if reason != "grad_tol"}
    parts = [
        f"{reason} {len(frames)} (frames {', '.join(map(str, frames[:5]))}"
        f"{', ...' if len(frames) > 5 else ''})"
        for reason, frames in early.items() if frames
    ]
    if parts:
        stopped = sum(map(len, early.values()))
        log.warning("refinement stopped early in %d of %d frames: %s",
                    stopped, len(reports), "; ".join(parts))


def cmd_fit(args):
    doc = parse_bvh(_read_text(args.rig))
    traj, names = load_trajectory(args.traj)
    name_map = {}
    if args.map:
        with open(args.map, "r", encoding="utf-8") as fh:
            try:
                name_map = json.load(fh)
            except ValueError as exc:  # malformed JSON, or text that is not UTF-8
                raise ValidationError(f"--map file is not valid JSON: {exc}") from exc
        if not isinstance(name_map, dict) or not all(
            isinstance(v, str) for v in name_map.values()
        ):
            raise ValidationError("--map file must be a JSON object of rig->traj name strings")
    rig_names = doc.skeleton.joint_names
    traj_index = {n: i for i, n in enumerate(names)}
    columns = []
    unmatched = []
    for rig_name in rig_names:
        key = name_map.get(rig_name, rig_name)
        if key in traj_index:
            columns.append(traj_index[key])
        else:
            unmatched.append(rig_name)
    if unmatched:
        raise ValidationError(
            "trajectory has no joints named: " + ", ".join(unmatched)
        )
    reordered = JointTrajectory(
        positions=traj.positions[:, columns, :],
        mask=traj.mask[columns],
        fps=traj.fps,
    )
    config = FitConfig(
        lambda_prior=args.lambda_prior,
        lambda_twist=args.lambda_twist,
        max_iters=args.max_iters,
        fit_root_translation=args.fit_root_translation,
    )
    clip, reports = fit_sequence(doc.skeleton, reordered, config)
    _warn_early_stops(reports)
    _write_clip(doc, clip, args.out)
    fk = dataclasses.replace(fk_sequence(doc.skeleton, clip), mask=reordered.mask)
    mpjpe_fk = mpjpe(fk, reordered)
    log.info("fit wrote %s (FK MPJPE %.3g)", args.out, mpjpe_fk)
    if args.report:
        frames = [{key: r[key] for key in REPORT_KEYS} for r in reports]
        with open(args.report, "w", encoding="utf-8") as fh:
            write_json(fh, {"frames": frames, "mpjpe_fk": mpjpe_fk})
    return EXIT_OK


def cmd_eval(args):
    pred, pred_parents = _load_side(args.pred)
    gt, gt_parents = _load_side(args.gt)
    if pred.frame_count != gt.frame_count:
        raise ValidationError("frame count mismatch between pred and gt")
    if pred.joint_count == gt.joint_count:
        # a BVH side marks every joint valid: score the joints both sides trust
        shared = pred.mask & gt.mask
        if not shared.any():
            raise ValidationError("pred and gt have no valid joint in common")
        pred = dataclasses.replace(pred, mask=shared)
        gt = dataclasses.replace(gt, mask=shared)
    space = "input"
    if args.normalize:
        pred = _normalize_side(pred)
        gt = _normalize_side(gt)
        space = "normalized"
    wanted = ["mpjpe", "mpjve", "cds"] if args.metric == "all" else [args.metric]
    report = {"space": space}
    if args.metric == "all" and pred.joint_count != gt.joint_count:
        # rigs whose joints do not correspond: only cds can score the pair
        log.warning("mpjpe and mpjve skipped: joint counts differ (%d pred, %d gt)",
                    pred.joint_count, gt.joint_count)
        report["mpjpe"] = report["mpjve"] = None
        wanted = ["cds"]
    if "mpjpe" in wanted:
        report["mpjpe"] = mpjpe(pred, gt)
    if "mpjve" in wanted:
        report["mpjve"] = mpjve(pred, gt)
    if "cds" in wanted:
        pred_parents = gt_parents if pred_parents is None else pred_parents
        gt_parents = pred_parents if gt_parents is None else gt_parents
        if pred_parents is None:
            missing = "cds needs a kinematic hierarchy; at least one input must be BVH"
        else:
            if len(pred_parents) != pred.joint_count or len(gt_parents) != gt.joint_count:
                raise ValidationError("cannot borrow parents: joint counts differ")
            pred_part, gt_part = _valid_bones(pred, pred_parents), _valid_bones(gt, gt_parents)
            missing = None
            if pred_part is None or gt_part is None:
                missing = "cds needs a bone with both ends valid on each side"
        if missing is None:
            values = cd_skeleton(SkeletonInstance(*pred_part), SkeletonInstance(*gt_part))
            report["cds"] = float(np.mean(values))
            report["cds_per_frame"] = values.tolist()
        elif wanted == ["cds"]:
            raise ValidationError(missing)
        else:
            # "all" still reports the joint metrics of a pair cds cannot score
            log.warning("cds skipped: %s", missing)
            report["cds"] = report["cds_per_frame"] = None
    write_json(sys.stdout, report)
    return EXIT_OK


def cmd_normalize(args):
    traj, names = load_trajectory(args.infile)
    traj, roots = remove_global_translation(traj)
    traj, transform = sequence_normalize(traj)
    save_trajectory(args.out, traj, names)
    if args.transform:
        with open(args.transform, "w", encoding="utf-8") as fh:
            write_json(fh, {
                "center": transform.center.tolist(),
                "scale": transform.scale,
                "root_positions": roots.tolist(),
            })
    return EXIT_OK


def _smooth_random_clip(skeleton, frames, rng, fps):
    """Deterministic smooth clip: per-joint sinusoidal axis-angle trajectories."""
    n = skeleton.joint_count
    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    amps = rng.uniform(0.2, 0.7, size=n)
    freqs = rng.uniform(0.5, 2.0, size=n)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    t_amp = rng.uniform(0.0, 0.3, size=3)
    t_phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
    s = (2.0 * np.pi * np.arange(frames) / max(frames, 2))[:, None]
    angles = amps * np.sin(freqs * s + phases)
    root = t_amp * np.sin(s + t_phase)
    return AnimationClip(angles[:, :, None] * axes, root, fps=fps)


def cmd_synth(args):
    doc = parse_bvh(_read_text(args.rig))
    if args.frames < 1:
        raise ValidationError("--frames must be >= 1")
    rng = np.random.default_rng(args.seed)
    clip = _smooth_random_clip(doc.skeleton, args.frames, rng, fps=1.0 / doc.frame_time)
    bvh_path = args.out + ".bvh"
    json_path = args.out + ".json"
    _write_clip(doc, clip, bvh_path)
    traj = fk_sequence(doc.skeleton, clip)
    save_trajectory(json_path, traj, doc.skeleton.joint_names)
    log.info("synth wrote %s and %s", bvh_path, json_path)
    return EXIT_OK


def cmd_inspect(args):
    doc = parse_bvh(_read_text(args.rig))
    skel = doc.skeleton
    lengths = np.linalg.norm(skel.offsets, axis=1)
    print(f"joints: {skel.joint_count}  frames: {doc.clip.frame_count}  "
          f"frame_time: {doc.frame_time:g}")
    for i in range(skel.joint_count):
        p = skel.parents[i]
        parent_name = "-" if p < 0 else skel.joint_names[p]
        chans = doc.channel_layout[i]
        order = "".join(c[0] for c in chans if c.endswith("rotation"))
        ox, oy, oz = skel.offsets[i]
        marker = " [end site]" if i in doc.end_sites else ""
        print(
            f"  {i:3d} {skel.joint_names[i]:<20} parent={parent_name:<20} "
            f"offset=({ox:.4f}, {oy:.4f}, {oz:.4f}) length={lengths[i]:.4f} "
            f"order={order}{marker}"
        )
    return EXIT_OK


@functools.cache  # built at the first command, then reused by every later one
def build_parser():
    parser = argparse.ArgumentParser(
        prog="rigfit",
        description="Fit rotation-based skeletal animation to 3D joint "
        "trajectories and evaluate the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a trajectory onto a rig and write BVH")
    p.add_argument("--rig", required=True)
    p.add_argument("--traj", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lambda-prior", type=float, default=FitConfig.lambda_prior)
    p.add_argument("--lambda-twist", type=float, default=FitConfig.lambda_twist)
    p.add_argument("--max-iters", type=int, default=FitConfig.max_iters)
    p.add_argument("--fit-root-translation", action="store_true")
    p.add_argument("--map", help="JSON object mapping rig joint names to trajectory names")
    p.add_argument("--report", help="write a per-frame loss report JSON here")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="compare two animations or trajectories")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--metric", choices=["mpjpe", "mpjve", "cds", "all"], default="all")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("normalize", help="normalize a trajectory into [-1,1]^3")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--transform", help="write the inverse transform JSON here")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("synth", help="generate a deterministic test clip + trajectory")
    p.add_argument("--rig", required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output path prefix (.bvh/.json added)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inspect", help="dump a rig's joint tree")
    p.add_argument("--rig", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None):
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_IO
    except Exception:  # pragma: no cover - defensive
        log.exception("internal error")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
