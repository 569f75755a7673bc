"""End-to-end CLI behavior: subcommands, exit codes, and determinism."""

import json
import logging
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigfit import JointTrajectory
from rigfit.bvh import parse_bvh
from rigfit.cli import build_parser, main
from rigfit.metrics import mpjpe
from rigfit.skeleton import fk_sequence
from rigfit.trajectory import load_trajectory, save_trajectory

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
RIG = os.path.join(FIXTURE_DIR, "chain_zxy.bvh")
MINIMAL = os.path.join(FIXTURE_DIR, "minimal.bvh")
STAR = os.path.join(FIXTURE_DIR, "star.bvh")
GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def run(*argv):
    return main(list(argv))


def synth_pair(tmp_path, rig=RIG, frames=5, seed=3):
    tmp_path.mkdir(exist_ok=True)
    prefix = str(tmp_path / "pair")
    assert run("synth", "--rig", rig, "--frames", str(frames), "--seed", str(seed),
               "--out", prefix) == 0
    return prefix + ".bvh", prefix + ".json"


class TestSynth:
    def test_writes_pair(self, tmp_path):
        bvh, js = synth_pair(tmp_path)
        doc = parse_bvh(open(bvh).read())
        traj, names = load_trajectory(js)
        assert doc.clip.frame_count == 5
        assert traj.frame_count == 5
        assert list(names) == list(doc.skeleton.joint_names)
        # JSON is the FK of the BVH clip
        fk = fk_sequence(doc.skeleton, doc.clip)
        # BVH motion values are written with 6 fixed decimals, so the parsed
        # clip differs from the generating clip by quantization only
        np.testing.assert_allclose(traj.positions, fk.positions, atol=1e-4)

    def test_single_frame(self, tmp_path):
        bvh, js = synth_pair(tmp_path, frames=1)
        traj, _ = load_trajectory(js)
        assert traj.frame_count == 1

    def test_same_seed_identical_bytes(self, tmp_path):
        a_bvh, a_js = synth_pair(tmp_path / "a", seed=7)
        b_bvh, b_js = synth_pair(tmp_path / "b", seed=7)
        assert open(a_bvh, "rb").read() == open(b_bvh, "rb").read()
        assert open(a_js, "rb").read() == open(b_js, "rb").read()

    def test_output_matches_golden_files(self, tmp_path):
        # star.bvh, 40 frames, seed 7; the golden pair holds the exact bytes
        prefix = str(tmp_path / "star")
        assert run("synth", "--rig", STAR, "--frames", "40", "--seed", "7",
                   "--out", prefix) == 0
        for ext in (".bvh", ".json"):
            with open(prefix + ext, "rb") as got, open(
                os.path.join(GOLDEN_DIR, "star_synth_40_seed7" + ext), "rb"
            ) as want:
                assert got.read() == want.read()

    def test_different_seed_differs(self, tmp_path):
        a_bvh, _ = synth_pair(tmp_path / "a", seed=1)
        b_bvh, _ = synth_pair(tmp_path / "b", seed=2)
        assert open(a_bvh).read() != open(b_bvh).read()


class TestFit:
    def test_round_trip_accuracy_and_report(self, tmp_path):
        _, js = synth_pair(tmp_path, frames=4)
        out = str(tmp_path / "fit.bvh")
        report = str(tmp_path / "report.json")
        assert run("fit", "--rig", RIG, "--traj", js, "--out", out,
                   "--report", report) == 0
        doc = parse_bvh(open(out).read())
        traj, _ = load_trajectory(js)
        fk = fk_sequence(doc.skeleton, doc.clip)
        assert mpjpe(fk, traj) < 1e-3
        rep = json.load(open(report))
        assert rep["mpjpe_fk"] < 1e-3
        assert len(rep["frames"]) == 4
        for fr in rep["frames"]:
            for key in ("loss_pos", "loss_prior", "loss_twist", "iters", "stop", "trials"):
                assert key in fr

    def test_masked_root_fit_matches_golden_files(self, tmp_path):
        # the golden synth clip with its root masked, fitted with the root
        # translation: the fitted BVH bytes and each frame's iterations,
        # trials and stop reason are those the committed golden files hold
        doc = json.load(open(os.path.join(GOLDEN_DIR, "star_synth_40_seed7.json")))
        doc["mask"][0] = False
        traj = str(tmp_path / "noroot.json")
        with open(traj, "w") as fh:
            json.dump(doc, fh)
        out, report = str(tmp_path / "fit.bvh"), str(tmp_path / "report.json")
        assert run("fit", "--rig", STAR, "--traj", traj, "--out", out, "--report", report) == 0
        golden = os.path.join(GOLDEN_DIR, "star_synth_40_seed7_noroot")
        with open(out, "rb") as got, open(golden + ".fit.bvh", "rb") as want:
            assert got.read() == want.read()
        frames = json.load(open(report))["frames"]
        want = json.load(open(golden + ".stops.json"))
        assert {key: [f[key] for f in frames] for key in ("iters", "trials", "stop")} == want

    def fit_report(self, tmp_path, *extra, root_masked=False):
        """Per-frame report of a star fit. Each frame of the clip starts at its
        exact geometric init, and stops there at once, unless the root is
        masked: then the root translation is fitted, which takes iterations."""
        _, js = synth_pair(tmp_path, rig=STAR, frames=8, seed=1)
        if root_masked:
            doc = json.load(open(js))
            doc["mask"][0] = False
            js = str(tmp_path / "noroot.json")
            json.dump(doc, open(js, "w"))
        report = str(tmp_path / "report.json")
        assert run("fit", "--rig", STAR, "--traj", js, "--out", str(tmp_path / "fit.bvh"),
                   "--report", report, *extra) == 0
        return json.load(open(report))["frames"]

    def test_realizable_fit_reports_grad_tol(self, tmp_path):
        frames = self.fit_report(tmp_path, root_masked=True)
        assert all(fr["stop"] == "grad_tol" for fr in frames)
        assert all(fr["trials"] >= fr["iters"] for fr in frames)
        assert max(fr["iters"] for fr in frames) > 2

    def test_max_iters_report(self, tmp_path):
        frames = self.fit_report(tmp_path, "--max-iters", "2", root_masked=True)
        assert all(fr["iters"] <= 2 for fr in frames)
        cut = [fr for fr in frames if fr["iters"] == 2]
        assert cut and all(fr["stop"] == "max_iters" for fr in cut)

    def test_early_stop_warns_once(self, tmp_path, caplog):
        with caplog.at_level("WARNING", logger="rigfit"):
            frames = self.fit_report(tmp_path, "--max-iters", "2", root_masked=True)
        cut = [t for t, fr in enumerate(frames) if fr["stop"] == "max_iters"]
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(cut) > 5 and len(warnings) == 1
        assert warnings[0] == (
            f"refinement stopped early in {len(cut)} of {len(frames)} frames: "
            f"max_iters {len(cut)} (frames {', '.join(map(str, cut[:5]))}, ...)"
        )

    def test_converged_fit_does_not_warn(self, tmp_path, caplog):
        with caplog.at_level("WARNING", logger="rigfit"):
            frames = self.fit_report(tmp_path)
        assert all(fr["stop"] == "grad_tol" for fr in frames)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_joint_name_mismatch_exit_2(self, tmp_path, rng, capsys):
        traj_path = tmp_path / "bad.json"
        from rigfit import JointTrajectory

        traj = JointTrajectory(positions=rng.normal(size=(2, 3, 3)), mask=None, fps=30.0)
        save_trajectory(traj_path, traj, ["Hips", "Spine", "Wrong"])
        assert run("fit", "--rig", RIG, "--traj", str(traj_path),
                   "--out", str(tmp_path / "o.bvh")) == 2

    @pytest.mark.parametrize("flag", ["--lambda-prior", "--lambda-twist"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_loss_weight_exit_2(self, tmp_path, caplog, flag, value):
        _, js = synth_pair(tmp_path, frames=2)
        assert run("fit", "--rig", RIG, "--traj", js, "--out", str(tmp_path / "o.bvh"),
                   flag, value) == 2
        assert "loss weights must be finite" in caplog.text

    def test_repeated_trajectory_name_exit_2(self, tmp_path, caplog):
        # a decoy column reusing LegL's name must not silently stand in for it
        _, js = synth_pair(tmp_path, rig=STAR, frames=3)
        traj, names = load_trajectory(js)
        decoy = np.concatenate([traj.positions, traj.positions[:, 1:2] + 1.0], axis=1)
        path = str(tmp_path / "decoy.json")
        save_trajectory(path, JointTrajectory(decoy, None, traj.fps), names + ["LegL"])
        assert run("fit", "--rig", STAR, "--traj", path, "--out", str(tmp_path / "o.bvh")) == 2
        assert "joint_names repeat: LegL" in caplog.text

    def test_repeated_rig_name_exit_2(self, tmp_path, caplog):
        rig = tmp_path / "twins.bvh"
        rig.write_text(open(STAR).read().replace("JOINT LegR", "JOINT LegL"))
        _, js = synth_pair(tmp_path, rig=STAR, frames=2)
        assert run("fit", "--rig", str(rig), "--traj", js, "--out", str(tmp_path / "o.bvh")) == 2
        assert "repeated joint names: LegL" in caplog.text

    @pytest.mark.parametrize("name_map", [{"Hips": ["x"]}, ["Hips"], {"Hips": 3}])
    def test_bad_map_exit_2(self, tmp_path, name_map):
        _, js = synth_pair(tmp_path, frames=2)
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(name_map))
        assert run("fit", "--rig", RIG, "--traj", js, "--map", str(map_path),
                   "--out", str(tmp_path / "o.bvh")) == 2

    def test_malformed_map_exit_2(self, tmp_path, caplog):
        _, js = synth_pair(tmp_path, frames=2)
        map_path = tmp_path / "map.json"
        map_path.write_text("{bad")
        assert run("fit", "--rig", RIG, "--traj", js, "--map", str(map_path),
                   "--out", str(tmp_path / "o.bvh")) == 2
        assert "--map file is not valid JSON" in caplog.text

    def test_missing_file_exit_3(self, tmp_path):
        assert run("fit", "--rig", str(tmp_path / "nope.bvh"),
                   "--traj", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o.bvh")) == 3


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=8,
)


@st.composite
def mutated_documents(draw, doc):
    """doc with one mutation: a value anywhere in it replaced, a key or list
    entry dropped, or the whole document replaced; as JSON text, which may
    also be cut short."""
    doc = json.loads(json.dumps(doc))
    holder, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        holder, key = node, draw(st.sampled_from(list(keys)))
        node = node[key]
    if holder is None:
        doc = draw(JSON_VALUES)
    elif draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = draw(JSON_VALUES)
    text = json.dumps(doc)
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def exit_code(*argv):
    """main's exit code, with argparse's usage errors counted as exit 2."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def star_pair(tmp_path_factory):
    bvh, js = synth_pair(tmp_path_factory.mktemp("star"), rig=STAR, frames=3, seed=1)
    return bvh, js, json.load(open(js))


NUMERIC_FLAGS = ("--lambda-prior", "--lambda-twist", "--max-iters")
NUMBERS = (st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e400", "-0", "", "x", "1.5"])
           | st.integers(-10, 10**6).map(str) | st.floats().map(repr) | st.text(max_size=5))


class TestBadInputProperties:
    """Mutated input files and flags are validation errors (exit 2), never
    internal ones (exit 4)."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_trajectory(self, star_pair, data):
        bvh, _, doc = star_pair
        text = data.draw(mutated_documents(doc))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "traj.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            assert exit_code("fit", "--rig", STAR, "--traj", path,
                             "--out", os.path.join(tmp, "o.bvh")) in (0, 2)
            assert exit_code("eval", "--pred", path, "--gt", bvh) in (0, 2)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutated_map(self, star_pair, data):
        _, js, _ = star_pair
        text = data.draw(mutated_documents({"Pelvis": "Pelvis", "LegL": "LegR",
                                            "LegR": "LegL"}))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "map.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            assert exit_code("fit", "--rig", STAR, "--traj", js, "--map", path,
                             "--out", os.path.join(tmp, "o.bvh")) in (0, 2)

    @settings(max_examples=60, deadline=None)
    @given(flag=st.sampled_from(NUMERIC_FLAGS), value=NUMBERS)
    def test_mutated_numeric_flag(self, star_pair, flag, value):
        _, js, _ = star_pair
        with tempfile.TemporaryDirectory() as tmp:
            assert exit_code("fit", "--rig", STAR, "--traj", js, "--out",
                             os.path.join(tmp, "o.bvh"), f"{flag}={value}") in (0, 2)


class TestOneProcess:
    def test_commands_in_a_row_share_one_parser(self, tmp_path, capsys):
        # the parser is built once per process; each command still parses
        # its own flags, and a usage error leaves the next command unharmed
        _, js = synth_pair(tmp_path, frames=3)
        out = str(tmp_path / "fit.bvh")
        assert exit_code("fit", "--rig", RIG, "--traj", js, "--out", out) == 0
        assert exit_code("eval", "--pred", out, "--gt", js, "--metric", "mpjpe") == 0
        assert json.loads(capsys.readouterr().out)["mpjpe"] < 1e-3
        assert exit_code("eval", "--pred", out, "--gt", js, "--no-such-flag") == 2
        assert exit_code("inspect", "--rig", RIG) == 0
        assert "Hips" in capsys.readouterr().out
        assert build_parser() is build_parser()


class TestEval:
    def test_identical_files_all_zero(self, tmp_path, capsys):
        bvh, _ = synth_pair(tmp_path)
        assert run("eval", "--pred", bvh, "--gt", bvh, "--metric", "all") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mpjpe"] == pytest.approx(0.0, abs=1e-12)
        assert report["mpjve"] == pytest.approx(0.0, abs=1e-12)
        assert report["cds"] == pytest.approx(0.0, abs=1e-9)

    def test_mixed_bvh_json_inputs(self, tmp_path, capsys):
        bvh, js = synth_pair(tmp_path)
        assert run("eval", "--pred", bvh, "--gt", js, "--metric", "mpjpe") == 0
        report = json.loads(capsys.readouterr().out)
        # the BVH side is quantized to 6 decimals of a degree, the JSON side
        # is exact, so the pair agrees only up to quantization (~5e-7)
        assert report["mpjpe"] == pytest.approx(0.0, abs=1e-5)

    def test_parallel_chain_cds_value(self, tmp_path, capsys, rng):
        # the hand-built parallel-chain pair: symmetric distance exactly 1
        from rigfit import JointTrajectory

        a = JointTrajectory(positions=np.array([[[0.0, 0, 0], [1.0, 0, 0]]]), mask=None, fps=30.0)
        b = JointTrajectory(positions=np.array([[[0.0, 1.0, 0], [1.0, 1.0, 0]]]), mask=None, fps=30.0)
        pa, pb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_trajectory(pa, a, ["r", "c"])
        save_trajectory(pb, b, ["r", "c"])
        # cds needs a hierarchy: borrow it from a BVH prediction side instead
        bvh, js = synth_pair(tmp_path)
        assert run("eval", "--pred", bvh, "--gt", js, "--metric", "cds") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cds"] == pytest.approx(0.0, abs=1e-5)
        # two JSON sides carry no hierarchy at all: validation error
        assert run("eval", "--pred", pa, "--gt", pb, "--metric", "cds") == 2

    def test_all_metrics_of_two_trajectories(self, tmp_path, capsys, caplog):
        # no side carries a hierarchy: "all" reports the joint metrics, cds null
        _, js = synth_pair(tmp_path)
        with caplog.at_level("WARNING", logger="rigfit"):
            assert run("eval", "--pred", js, "--gt", js) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mpjpe"] == 0.0 and report["mpjve"] == 0.0
        assert report["cds"] is None and report["cds_per_frame"] is None
        assert "cds skipped" in caplog.text

    def test_masked_trajectory_scores_shared_joints(self, tmp_path, capsys):
        # a BVH side is valid everywhere; only the JSON side's valid joints count
        bvh, js = synth_pair(tmp_path)
        traj, names = load_trajectory(js)
        moved = traj.positions.copy()
        moved[:, 1] += 5.0  # would dominate MPJPE if the masked joint were scored
        masked = JointTrajectory(positions=moved, mask=[True, False, True], fps=traj.fps)
        obs = str(tmp_path / "obs.json")
        save_trajectory(obs, masked, names)
        assert run("eval", "--pred", bvh, "--gt", obs, "--metric", "all") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mpjpe"] == pytest.approx(0.0, abs=1e-5)
        assert report["mpjve"] == pytest.approx(0.0, abs=1e-3)

    def mask_and_move(self, tmp_path, js, joint):
        traj, names = load_trajectory(js)
        moved = traj.positions.copy()
        moved[:, joint] += 5.0
        mask = np.ones(traj.joint_count, dtype=bool)
        mask[joint] = False
        obs = str(tmp_path / "obs.json")
        save_trajectory(obs, JointTrajectory(positions=moved, mask=mask, fps=traj.fps), names)
        return obs

    def test_cds_skips_masked_joints_and_their_bones(self, tmp_path, capsys):
        # star: root with two legs; joint 2 masked leaves the root-LegL bone
        bvh, js = synth_pair(tmp_path, rig=STAR)
        obs = self.mask_and_move(tmp_path, js, 2)
        assert run("eval", "--pred", bvh, "--gt", obs, "--metric", "cds") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cds"] == pytest.approx(0.0, abs=1e-5)

    def test_cds_with_no_valid_bone(self, tmp_path, capsys):
        # a 3-joint chain with its middle joint masked has no bone left
        bvh, js = synth_pair(tmp_path)
        obs = self.mask_and_move(tmp_path, js, 1)
        assert run("eval", "--pred", bvh, "--gt", obs, "--metric", "cds") == 2
        capsys.readouterr()
        assert run("eval", "--pred", bvh, "--gt", obs, "--metric", "all") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cds"] is None
        assert report["mpjpe"] == pytest.approx(0.0, abs=1e-5)

    def test_no_shared_valid_joint_exit_2(self, tmp_path, caplog):
        _, js = synth_pair(tmp_path)
        traj, names = load_trajectory(js)
        paths = []
        for k, mask in enumerate(([True, False, False], [False, True, True])):
            paths.append(str(tmp_path / f"side{k}.json"))
            side = JointTrajectory(positions=traj.positions, mask=mask, fps=traj.fps)
            save_trajectory(paths[-1], side, names)
        assert run("eval", "--pred", paths[0], "--gt", paths[1], "--metric", "mpjpe") == 2
        assert "no valid joint in common" in caplog.text

    def test_cross_rig_all_scores_cds_only(self, tmp_path, capsys, caplog):
        # star (3 joints) against minimal (2 joints): no joint corresponds
        star, star_js = synth_pair(tmp_path / "star", rig=STAR)
        minimal, minimal_js = synth_pair(tmp_path / "minimal", rig=MINIMAL)
        with caplog.at_level("WARNING", logger="rigfit"):
            assert run("eval", "--pred", star, "--gt", minimal) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mpjpe"] is None and report["mpjve"] is None
        assert np.isfinite(report["cds"]) and len(report["cds_per_frame"]) == 5
        assert caplog.text.count("mpjpe and mpjve skipped") == 1
        for metric in ("mpjpe", "mpjve"):
            assert run("eval", "--pred", star, "--gt", minimal, "--metric", metric) == 2
        # with no hierarchy on either side, no metric can score the pair
        assert run("eval", "--pred", star_js, "--gt", minimal_js) == 2

    @pytest.mark.parametrize("metric", ["mpjpe", "mpjve", "cds", "all"])
    def test_frame_count_mismatch_exit_2(self, tmp_path, caplog, metric):
        star, _ = synth_pair(tmp_path / "star", rig=STAR, frames=5)
        for rig in (STAR, MINIMAL):
            gt, _ = synth_pair(tmp_path / "short", rig=rig, frames=4)
            assert run("eval", "--pred", star, "--gt", gt, "--metric", metric) == 2
        assert "frame count mismatch" in caplog.text

    def test_normalize_flag(self, tmp_path, capsys):
        bvh, js = synth_pair(tmp_path)
        assert run("eval", "--pred", bvh, "--gt", js, "--metric", "mpjpe",
                   "--normalize") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mpjpe"] == pytest.approx(0.0, abs=1e-5)
        assert report["space"] == "normalized"


class TestNormalize:
    def test_file_level_normalization(self, tmp_path, rng):
        from rigfit import JointTrajectory

        pos = rng.normal(size=(4, 3, 3)) * 7.0
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        tf = tmp_path / "t.json"
        save_trajectory(src, JointTrajectory(positions=pos, mask=None, fps=30.0), ["a", "b", "c"])
        assert run("normalize", "--in", str(src), "--out", str(dst),
                   "--transform", str(tf)) == 0
        out, _ = load_trajectory(dst)
        assert np.all(np.abs(out.positions) <= 1.0 + 1e-9)
        assert np.max(np.abs(out.positions)) > 1.0 - 1e-9
        t = json.load(open(tf))
        assert t["scale"] > 0
        assert len(t["center"]) == 3
        assert len(t["root_positions"]) == 4

    @pytest.mark.parametrize("key, value", [("fps", True), ("fps", "30"), ("frame", True),
                                            ("frame", "1.5")])
    def test_non_number_exit_2(self, tmp_path, caplog, key, value):
        _, js = synth_pair(tmp_path)
        doc = json.load(open(js))
        if key == "fps":
            doc["fps"] = value
        else:
            doc["frames"][0][0][1] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("normalize", "--in", str(bad), "--out", str(tmp_path / "y.json")) == 2
        assert "must be JSON numbers" in caplog.text

    def test_missing_input_exit_3(self, tmp_path):
        assert run("normalize", "--in", str(tmp_path / "x.json"),
                   "--out", str(tmp_path / "y.json")) == 3


class TestInspect:
    @pytest.mark.parametrize("rig", ["minimal.bvh", "star.bvh", "chain_xyz.bvh"])
    def test_dump_lists_tree(self, rig, capsys):
        assert run("inspect", "--rig", os.path.join(FIXTURE_DIR, rig)) == 0
        out = capsys.readouterr().out
        doc = parse_bvh(open(os.path.join(FIXTURE_DIR, rig)).read())
        for name in doc.skeleton.joint_names:
            assert name in out

    def test_huge_declared_frame_count_exit_2(self, tmp_path, caplog):
        text = open(MINIMAL).read().replace("Frames: 2", "Frames: 1000000000000000")
        rig = tmp_path / "huge.bvh"
        rig.write_text(text)
        assert run("inspect", "--rig", str(rig)) == 2
        assert "motion data has 2 of 1000000000000000 rows" in caplog.text
