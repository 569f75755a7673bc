"""BVH hierarchy + motion parser and canonical writer.

Degrees live in the file, radians (axis-angle) in memory; conversion happens
only at this boundary. End Sites are kept as leaf metadata, not joints.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import BvhParseError, ValidationError
from .rotations import (  # the private conversions skip the rotation check: the
    _matrix_to_axis_angle,  # matrices here are built from finite angles
    _matrix_to_euler,
    batch_axis_angle_to_matrix,
    euler_to_matrix,
)
from .skeleton import AnimationClip, Skeleton, validate_skeleton

_POSITION_CHANNELS = ("Xposition", "Yposition", "Zposition")
_ROTATION_CHANNELS = {"Xrotation": "X", "Yrotation": "Y", "Zrotation": "Z"}


@dataclass(frozen=True)
class BvhDocument:
    """A parsed BVH file: rig, per-joint channel layout, end sites and motion.

    channel_layout holds the CHANNELS tokens verbatim per joint (canonical
    joint order). end_sites maps joint index -> local End Site offset.
    extra_translations maps non-root joint index -> (T, 3) position-channel
    values, so files with 6-channel children round-trip faithfully.
    """

    skeleton: Skeleton
    channel_layout: tuple
    end_sites: dict
    clip: AnimationClip
    frame_time: float
    extra_translations: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (self.frame_time > 0.0):
            raise ValidationError("frame_time must be positive")
        if self.clip.joint_count != self.skeleton.joint_count:
            raise ValidationError("clip joint count does not match skeleton")
        if len(self.channel_layout) != self.skeleton.joint_count:
            raise ValidationError("channel layout must cover every joint")

    def end_site_world_positions(self):
        """Rest-pose world positions of all End Site tips."""
        from .skeleton import rest_pose_positions

        rest = rest_pose_positions(self.skeleton)
        return np.array(
            [rest[i] + off for i, off in sorted(self.end_sites.items())]
        ).reshape(-1, 3)


def _number(tok, line):
    try:
        value = float(tok)
    except ValueError:
        raise BvhParseError(f"non-numeric literal {tok!r}", line)
    if value - value != 0.0:  # nan and +-inf, which float() accepts
        raise BvhParseError(f"non-finite literal {tok!r}", line)
    return value


class _Tokens:
    """The header's tokens, split a line at a time as they are read: the
    motion lines are left whole for _motion_rows."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.ln = self.item_line = self.pos = 0  # lines split; the line of items, next index
        self.items = []  # the tokens of the last line split that had any

    @property
    def line(self):
        """Line of the next token, or of the last one at the end of the text."""
        while self.pos == len(self.items) and self.ln < len(self.lines):
            self.ln += 1
            row = self.lines[self.ln - 1].split()
            if row:
                self.items, self.item_line, self.pos = row, self.ln, 0
        return self.item_line

    def next(self):
        line = self.line
        if self.pos == len(self.items):
            raise BvhParseError("unexpected end of file", line)
        self.pos += 1
        return self.items[self.pos - 1]

    def expect(self, *expected):
        tok = self.next()
        if tok not in expected:
            raise BvhParseError(f"expected {' / '.join(expected)}, got {tok!r}", self.item_line)
        return tok

    def number(self):
        return _number(self.next(), self.item_line)

    def integer(self):
        tok = self.next()
        try:
            return int(tok)
        except ValueError:
            raise BvhParseError(f"expected integer, got {tok!r}", self.item_line)


def _parse_joint_header(tokens, names, parents, offsets, channels, parent):
    """Name, OFFSET and CHANNELS of the joint whose keyword was just read."""
    name = tokens.next()
    names.append(name)
    parents.append(parent)
    tokens.expect("{")
    tokens.expect("OFFSET")
    offsets.append([tokens.number(), tokens.number(), tokens.number()])
    tokens.expect("CHANNELS")
    count = tokens.integer()
    chans = tuple(tokens.next() for _ in range(count))
    line = tokens.line
    rot = [c for c in chans if c in _ROTATION_CHANNELS]
    pos = [c for c in chans if c in _POSITION_CHANNELS]
    for c in chans:
        if c not in _ROTATION_CHANNELS and c not in _POSITION_CHANNELS:
            raise BvhParseError(f"unknown channel name {c!r}", line)
    if len(rot) != 3 or len({_ROTATION_CHANNELS[c] for c in rot}) != 3:
        raise BvhParseError(f"joint {name!r} needs three distinct rotation channels", line)
    if pos and (len(pos) != 3 or len(set(pos)) != 3):
        raise BvhParseError(f"joint {name!r} needs three distinct position channels or none", line)
    channels.append(chans)


def _parse_hierarchy(tokens):
    """The joints after ROOT in file order, read with an explicit stack of the
    joints whose closing brace is still to come, so any depth parses.
    Returns names, parents, offsets, channels and end sites."""
    names, parents, offsets, channels, end_sites = [], [], [], [], {}
    open_joints = []
    while True:
        parent = open_joints[-1] if open_joints else -1
        _parse_joint_header(tokens, names, parents, offsets, channels, parent)
        open_joints.append(len(names) - 1)
        while open_joints:
            tok = tokens.next()
            if tok == "JOINT":
                break
            if tok == "End":
                tokens.expect("Site")
                tokens.expect("{")
                tokens.expect("OFFSET")
                end_sites[open_joints[-1]] = np.array(
                    [tokens.number(), tokens.number(), tokens.number()]
                )
                tokens.expect("}")
            elif tok == "}":
                open_joints.pop()
            else:
                raise BvhParseError(
                    f"expected JOINT, End Site or '}}', got {tok!r}", tokens.item_line
                )
        if not open_joints:
            return names, parents, offsets, channels, end_sites


def _motion_columns(channel_layout):
    """Where each joint's channels sit in a motion row: the (N, 3) rotation
    columns in channel order, {rotation order: its joints} and {joint: its
    X, Y, Z position columns} for the joints that have position channels."""
    rotation_cols, orders, position_cols = [], {}, {}
    start = 0
    for j, chans in enumerate(channel_layout):
        rotation_cols.append([start + n for n, c in enumerate(chans) if c in _ROTATION_CHANNELS])
        order = "".join(_ROTATION_CHANNELS[c] for c in chans if c in _ROTATION_CHANNELS)
        orders.setdefault(order, []).append(j)
        if _POSITION_CHANNELS[0] in chans:  # then all three, as _parse_joint_header checked
            position_cols[j] = [start + chans.index(c) for c in _POSITION_CHANNELS]
        start += len(chans)
    return np.array(rotation_cols), orders, position_cols


def parse_bvh(text):
    """Parse a BVH document: its hierarchy of any depth, then its motion."""
    tokens = _Tokens(text)
    tokens.expect("HIERARCHY")
    tokens.expect("ROOT")
    names, parents, offsets, channels, end_sites = _parse_hierarchy(tokens)
    try:
        skeleton = validate_skeleton(names, parents, offsets)
    except ValidationError as exc:
        raise BvhParseError(str(exc)) from exc
    # file order is parent-first already, so the remap is the identity
    tokens.expect("MOTION")
    if tokens.expect("Frames:", "Frames") == "Frames":
        tokens.expect(":")
    frame_count = tokens.integer()
    tokens.expect("Frame")
    if tokens.expect("Time:", "Time") == "Time":
        tokens.expect(":")
    frame_time = tokens.number()
    if frame_count < 1:
        raise BvhParseError("BVH must declare at least one frame")
    if not (frame_time > 0.0):
        raise BvhParseError("frame time must be positive")

    motion = _motion_rows(tokens, frame_count, sum(len(c) for c in channels))
    del tokens  # its lines copy the motion text; free them first
    rotation_cols, orders, position_cols = _motion_columns(channels)
    angles = np.deg2rad(motion[:, rotation_cols])
    matrices = np.empty(angles.shape + (3,))
    for order, joints in orders.items():
        matrices[:, joints] = euler_to_matrix(angles[:, joints], order)
    extra = {j: motion[:, cols] for j, cols in position_cols.items()}
    root_translation = extra.pop(0, np.zeros((frame_count, 3)))
    clip = AnimationClip(_matrix_to_axis_angle(matrices), root_translation, fps=1.0 / frame_time)
    return BvhDocument(
        skeleton=skeleton,
        channel_layout=tuple(tuple(c) for c in channels),
        end_sites=end_sites,
        clip=clip,
        frame_time=frame_time,
        extra_translations=extra,
    )


def _motion_rows(tokens, frame_count, row_width):
    """The rest of the text as a (frame_count, row_width) array, one row per non-blank
    line from any tokens after the Frame Time value on, each read by one float pass.
    The array holds no more rows than lines are left, whatever frame_count declares."""
    motion = np.empty((min(frame_count, len(tokens.lines) - tokens.ln + 1), row_width))
    row_lines = []  # the line of each row read

    def check(message=None, line=None):
        # the first fault in file order: a bad value of a row read so far, named by _number
        bad = np.flatnonzero(~np.isfinite(motion[: len(row_lines)]).all(axis=1))
        if len(bad):
            ln = row_lines[bad[0]]
            for tok in tokens.lines[ln - 1].split()[-row_width:]:  # the row ends its line
                _number(tok, ln)
        if message:
            raise BvhParseError(message, line)

    rest = ((n, line.split()) for n, line in enumerate(tokens.lines[tokens.ln :], tokens.ln + 1))
    for ln, row in chain([(tokens.item_line, tokens.items[tokens.pos :])], rest):
        if not row:
            continue
        t = len(row_lines)
        if t == frame_count:
            check(f"motion data has more rows than the declared {frame_count}", ln)
        if len(row) != row_width:
            check(f"motion row has {len(row)} values, expected {row_width}", ln)
        try:
            motion[t] = list(map(float, row))
        except ValueError:
            motion[t] = np.nan  # for check to name the bad token
        row_lines.append(ln)
    if len(row_lines) < frame_count:  # named at the line of the last token
        check(f"motion data has {len(row_lines)} of {frame_count} rows",
              (row_lines or [tokens.item_line])[-1])
    check()
    return motion


def _fmt(v):
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


def write_bvh(document):
    """Canonical serialization: 2-space indentation, uppercase keywords,
    fixed-point motion values, LF line endings. Deterministic byte output."""
    skel = document.skeleton
    clip = document.clip
    children = skel.children()
    lines = ["HIERARCHY"]
    # depth-first with an explicit stack, so any depth writes: a joint's
    # header, its children's blocks, then its End Site and closing brace
    stack = [(0, 0, False)]
    while stack:
        j, depth, close = stack.pop()
        indent = "  " * depth
        inner = "  " * (depth + 1)
        if close:
            if j in document.end_sites:
                ex, ey, ez = document.end_sites[j]
                lines.append(f"{inner}End Site")
                lines.append(f"{inner}{{")
                lines.append(f"{inner}  OFFSET {_fmt(ex)} {_fmt(ey)} {_fmt(ez)}")
                lines.append(f"{inner}}}")
            lines.append(f"{indent}}}")
            continue
        keyword = "ROOT" if skel.parents[j] < 0 else "JOINT"
        lines.append(f"{indent}{keyword} {skel.joint_names[j]}")
        lines.append(f"{indent}{{")
        ox, oy, oz = skel.offsets[j]
        lines.append(f"{inner}OFFSET {_fmt(ox)} {_fmt(oy)} {_fmt(oz)}")
        chans = document.channel_layout[j]
        lines.append(f"{inner}CHANNELS {len(chans)} " + " ".join(chans))
        stack.append((j, depth, True))
        stack.extend((c, depth + 1, False) for c in reversed(children[j]))

    lines.append("MOTION")
    lines.append(f"Frames: {clip.frame_count}")
    lines.append(f"Frame Time: {_fmt(document.frame_time)}")
    rotation_cols, orders, position_cols = _motion_columns(document.channel_layout)
    matrices = batch_axis_angle_to_matrix(clip.rotations)
    angles = np.empty(clip.rotations.shape)
    for order, joints in orders.items():
        angles[:, joints] = _matrix_to_euler(matrices[:, joints], order)
    motion = np.zeros((clip.frame_count, sum(map(len, document.channel_layout))))
    # continuous channels: past +-180 degrees, not back by 360, lest interpolation spin a joint
    motion[:, rotation_cols] = np.unwrap(np.rad2deg(angles), period=360.0, axis=0)
    translations = {**document.extra_translations, 0: clip.root_translation}
    for j, cols in position_cols.items():
        motion[:, cols] = translations.get(j, 0.0)
    row_format = " ".join(["%.6f"] * motion.shape[1])  # one format per row, not per value
    rows = "\n".join(row_format % tuple(row) for row in motion.tolist())
    lines.append(rows.replace("-0.000000", "0.000000"))  # all tokens are %.6f: whole ones match
    return "\n".join(lines) + "\n"


def document_from_clip(skeleton, clip, end_sites=None):
    """Wrap a freshly fitted clip as a writable document.

    The root gets 6 channels (positions first), children 3 rotation channels,
    all in ZXY order.
    """
    rot_channels = ("Zrotation", "Xrotation", "Yrotation")
    layout = [_POSITION_CHANNELS + rot_channels]
    layout += [rot_channels] * (skeleton.joint_count - 1)
    return BvhDocument(
        skeleton=skeleton,
        channel_layout=tuple(layout),
        end_sites=dict(end_sites or {}),
        clip=clip,
        frame_time=1.0 / clip.fps,
        extra_translations={},
    )
