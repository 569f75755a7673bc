"""JSON trajectory carrier: schema validation and round-trips."""

import json

import numpy as np
import pytest

from rigfit import JointTrajectory, TrajectoryFormatError
from rigfit.trajectory import (
    SCHEMA_VERSION,
    load_trajectory,
    save_trajectory,
    trajectory_from_dict,
    trajectory_to_dict,
)


def sample_traj(rng, t=3, n=4, with_mask=True):
    mask = np.array([True] * (n - 1) + [False]) if with_mask else None
    return JointTrajectory(positions=rng.normal(size=(t, n, 3)), mask=mask, fps=24.0)


class TestDictRoundTrip:
    def test_round_trip_preserves_everything(self, rng):
        traj = sample_traj(rng)
        names = ["a", "b", "c", "d"]
        data = trajectory_to_dict(traj, names)
        assert data["v"] == SCHEMA_VERSION
        back, back_names = trajectory_from_dict(data)
        assert back_names == names
        np.testing.assert_allclose(back.positions, traj.positions)
        assert np.array_equal(back.mask, traj.mask)
        assert back.fps == traj.fps

    def test_mask_omitted_means_all_valid(self, rng):
        traj = sample_traj(rng, with_mask=False)
        data = trajectory_to_dict(traj, list("abcd"))
        data.pop("mask", None)
        back, _ = trajectory_from_dict(data)
        assert back.mask.all()


class TestFileRoundTrip:
    def test_save_load(self, rng, tmp_path):
        traj = sample_traj(rng)
        path = tmp_path / "traj.json"
        save_trajectory(path, traj, ["a", "b", "c", "d"])
        back, names = load_trajectory(path)
        np.testing.assert_allclose(back.positions, traj.positions)
        assert names == ["a", "b", "c", "d"]
        # the file is plain versioned JSON
        raw = json.loads(path.read_text())
        assert raw["v"] == SCHEMA_VERSION


class TestMaskedNonFinite:
    def test_masked_nan_written_as_zero_is_strict_json(self, tmp_path):
        # a masked joint may hold NaN or inf, which JSON has no number for
        positions = np.arange(12.0).reshape(2, 2, 3)
        positions[0, 1] = np.nan
        positions[1, 1] = [np.inf, -np.inf, 1.0]
        traj = JointTrajectory(positions=positions, mask=[True, False], fps=30.0)
        path = tmp_path / "masked.json"
        save_trajectory(path, traj, ["a", "b"])

        def refuse(constant):
            raise ValueError(f"non-JSON constant {constant}")

        raw = json.loads(path.read_text(), parse_constant=refuse)
        assert [frame[1] for frame in raw["frames"]] == [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        back, _ = load_trajectory(path)
        assert back.mask.tolist() == [True, False]
        assert np.array_equal(back.positions[:, 0], positions[:, 0])


class TestJsonBytes:
    def test_save_matches_json_dump(self, rng, tmp_path):
        # json.dumps and json.dump encode alike, the C encoder and the Python one
        positions = rng.normal(size=(5, 4, 3)) * np.array([1e-300, 1.0, 1e300])
        positions[0, 0] = [-0.0, 0.1, 1e16]
        traj = JointTrajectory(positions=positions, mask=[True, False, True, True], fps=1 / 3)
        names = ["a", "b\u00e9", "c\"q", "d\n"]
        save_trajectory(tmp_path / "saved.json", traj, names)
        with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
            json.dump(trajectory_to_dict(traj, names), fh)
            fh.write("\n")
        assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()


class TestSchemaErrors:
    def base(self, rng):
        return trajectory_to_dict(sample_traj(rng), ["a", "b", "c", "d"])

    def test_missing_version(self, rng):
        data = self.base(rng)
        del data["v"]
        with pytest.raises(TrajectoryFormatError):
            trajectory_from_dict(data)

    def test_wrong_version(self, rng):
        data = self.base(rng)
        data["v"] = 99
        with pytest.raises(TrajectoryFormatError):
            trajectory_from_dict(data)

    def test_name_count_mismatch(self, rng):
        data = self.base(rng)
        data["joint_names"] = ["a"]
        with pytest.raises(TrajectoryFormatError):
            trajectory_from_dict(data)

    def test_repeated_names(self, rng):
        data = self.base(rng)
        data["joint_names"] = ["a", "b", "a", "b"]
        with pytest.raises(TrajectoryFormatError, match="joint_names repeat: a, b"):
            trajectory_from_dict(data)

    def test_ragged_frames(self, rng):
        data = self.base(rng)
        data["frames"][0] = data["frames"][0][:-1]
        with pytest.raises(TrajectoryFormatError):
            trajectory_from_dict(data)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TrajectoryFormatError):
            load_trajectory(path)

    @pytest.mark.parametrize("key, value, message", [
        ("frames", {"0": [[0.0, 0.0, 0.0]]}, "rectangular"),
        ("frames", [[[10**400, 0, 0]] * 4], "rectangular"),
        ("joint_names", ["a", ["b"], "c", "d"], "list of strings"),
        ("joint_names", "abcd", "list of strings"),
        ("mask", [True, [True], True, False], "true/false flags"),
        ("mask", ["true", "true", "true", "false"], "true/false flags"),
    ], ids=["frames-object", "frames-overflow", "name-list", "names-string", "mask-nested",
            "mask-strings"])
    def test_wrong_types(self, rng, key, value, message):
        data = self.base(rng)
        data[key] = value
        with pytest.raises(TrajectoryFormatError, match=message):
            trajectory_from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("fps", True), ("fps", "30"), ("fps", None), ("fps", [30]), ("fps", float("inf")),
        ("frame", True), ("frame", "1.5"), ("frame", None), ("frame", [1.5]),
    ])
    def test_non_numbers_rejected(self, rng, key, value):
        # bool is an int to Python, numpy would read "1.5" as 1.5, and json
        # reads Infinity; JSON numbers are the only coordinates and frame rates
        data = self.base(rng)
        if key == "fps":
            data["fps"] = value
        else:
            data["frames"][1][2][0] = value
        with pytest.raises(TrajectoryFormatError):
            trajectory_from_dict(data)

    def test_integer_numbers_accepted(self, rng):
        data = self.base(rng)
        data["fps"] = 30
        data["frames"][0][0] = [0, 1, -2]
        traj, _ = trajectory_from_dict(data)
        assert traj.fps == 30.0
        assert traj.positions[0, 0].tolist() == [0.0, 1.0, -2.0]

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"v": 1, "fps": 30, "joint_names": ["\xff"]}')
        with pytest.raises(TrajectoryFormatError):
            load_trajectory(path)
