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

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"v": 1, "fps": 30, "joint_names": ["\xff"]}')
        with pytest.raises(TrajectoryFormatError):
            load_trajectory(path)
