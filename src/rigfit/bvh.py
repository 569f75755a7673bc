"""BVH hierarchy + motion parser and canonical writer.

Degrees live in the file, radians (axis-angle) in memory; conversion happens
only at this boundary. End Sites are kept as leaf metadata, not joints.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .errors import BvhParseError, ValidationError
from .rotations import (
    batch_axis_angle_to_matrix,
    euler_to_matrix,
    matrix_to_axis_angle,
    matrix_to_euler,
)
from .skeleton import AnimationClip, Skeleton, validate_skeleton

_POSITION_CHANNELS = ("Xposition", "Yposition", "Zposition")
_ROTATION_CHANNELS = {"Xrotation": "X", "Yrotation": "Y", "Zrotation": "Z"}
_DEFAULT_ROT_CHANNELS = ("Zrotation", "Xrotation", "Yrotation")


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
        return float(tok)
    except ValueError:
        raise BvhParseError(f"non-numeric literal {tok!r}", line)


class _Tokens:
    def __init__(self, text):
        self.items = []  # (token, line)
        for ln, line in enumerate(text.splitlines(), start=1):
            for tok in line.split():
                self.items.append((tok, ln))
        self.pos = 0

    @property
    def line(self):
        if self.pos < len(self.items):
            return self.items[self.pos][1]
        return self.items[-1][1] if self.items else 0

    def peek(self):
        if self.pos >= len(self.items):
            raise BvhParseError("unexpected end of file", self.line)
        return self.items[self.pos][0]

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, *expected):
        tok = self.next()
        if tok not in expected:
            raise BvhParseError(
                f"expected {' / '.join(expected)}, got {tok!r}", self.items[self.pos - 1][1]
            )
        return tok

    def number(self):
        return _number(self.next(), self.items[self.pos - 1][1])

    def integer(self):
        tok = self.next()
        try:
            return int(tok)
        except ValueError:
            raise BvhParseError(f"expected integer, got {tok!r}", self.items[self.pos - 1][1])


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
                    f"expected JOINT, End Site or '}}', got {tok!r}", tokens.items[tokens.pos - 1][1]
                )
        if not open_joints:
            return names, parents, offsets, channels, end_sites


def _rotation_order(chans):
    return "".join(_ROTATION_CHANNELS[c] for c in chans if c in _ROTATION_CHANNELS)


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
    del tokens  # the token list outweighs the motion array; free it first
    rotations = np.empty((frame_count, skeleton.joint_count, 3))
    root_translation = np.zeros((frame_count, 3))
    extra = {}
    start = 0
    for j, chans in enumerate(channels):
        block = motion[:, start : start + len(chans)]
        start += len(chans)
        rot_cols = [k for k, c in enumerate(chans) if c in _ROTATION_CHANNELS]
        angles = np.deg2rad(block[:, rot_cols])
        rotations[:, j] = matrix_to_axis_angle(euler_to_matrix(angles, _rotation_order(chans)))
        if _POSITION_CHANNELS[0] in chans:  # then all three, as _parse_joint_header checked
            translation = block[:, [chans.index(c) for c in _POSITION_CHANNELS]]
            if j == 0:
                root_translation = translation
            else:
                extra[j] = translation
    clip = AnimationClip(rotations, root_translation, fps=1.0 / frame_time)
    return BvhDocument(
        skeleton=skeleton,
        channel_layout=tuple(tuple(c) for c in channels),
        end_sites=end_sites,
        clip=clip,
        frame_time=frame_time,
        extra_translations=extra,
    )


def _motion_rows(tokens, frame_count, row_width):
    """The remaining tokens as a (frame_count, row_width) array, one row per line."""
    motion = np.empty((frame_count, row_width))
    t = 0
    for line, group in groupby(tokens.items[tokens.pos :], key=lambda item: item[1]):
        row = [tok for tok, _ in group]
        if t == frame_count:
            raise BvhParseError(
                f"motion data has more rows than the declared {frame_count}", line
            )
        if len(row) != row_width:
            raise BvhParseError(f"motion row has {len(row)} values, expected {row_width}", line)
        motion[t] = [_number(tok, line) for tok in row]
        t += 1
    if t < frame_count:
        raise BvhParseError(f"motion data has {t} of {frame_count} rows", tokens.items[-1][1])
    return motion


def _fmt(v):
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


def write_bvh(document):
    """Canonical serialization: 2-space indentation, uppercase keywords,
    fixed-point motion values, LF line endings. Deterministic byte output."""
    skel = document.skeleton
    clip = document.clip
    if clip.joint_count != skel.joint_count:
        raise ValidationError("clip joint count does not match skeleton")
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
    translations = {**document.extra_translations, 0: clip.root_translation}
    no_translation = np.zeros((clip.frame_count, 3))
    columns = []  # one (T,) column per channel, in file order
    for j, chans in enumerate(document.channel_layout):
        matrices = batch_axis_angle_to_matrix(clip.rotations[:, j])
        angles = iter(np.rad2deg(matrix_to_euler(matrices, _rotation_order(chans))).T)
        translation = translations.get(j, no_translation)
        for c in chans:
            columns.append(
                next(angles) if c in _ROTATION_CHANNELS else translation[:, "XYZ".index(c[0])]
            )
    for row in np.stack(columns, axis=1):
        lines.append(" ".join(map(_fmt, row.tolist())))
    return "\n".join(lines) + "\n"


def document_from_clip(skeleton, clip, end_sites=None, rotation_order="ZXY"):
    """Wrap a freshly fitted clip as a writable document.

    The root gets 6 channels (positions first), children 3 rotation channels,
    all with the same rotation order (default ZXY).
    """
    rot_channels = tuple(f"{axis}rotation" for axis in rotation_order.upper())
    if len(rot_channels) != 3:
        raise ValidationError("rotation order must name three axes")
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
