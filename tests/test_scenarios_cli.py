"""Tests for scenario configs, run orchestration, and the command-line interface."""

import importlib.metadata
import json
import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from rodsim import cli, integrators, scenarios
from rodsim.cli import main
from rodsim.errors import ConfigurationError, InputError, InstabilityError, SingularSystemError
from rodsim.rod_model import MaterialParams, reconstruct_centerline
from rodsim.scenarios import (
    BoundaryConfig,
    CarpetConfig,
    DriveConfig,
    OutputConfig,
    ScenarioConfig,
    Trajectory,
    benchmark_stability,
    default_config,
    run_scenario,
    simulate_rod,
)

from helpers import DRIVES, step_loop, under_drives


def small_config(**overrides):
    material = MaterialParams(
        rho=1.0, area=1.0, moment=1e-2, EI=1e-1, length=1.0, nodes=21
    )
    base = dict(material=material, scheme="semi", dt=1e-3, t_end=0.05)
    base.update(overrides)
    return ScenarioConfig(**base)


DEFAULT_CONFIG_JSON = """{
  "schema": 1,
  "material": {
    "rho": 1.0,
    "area": 0.02,
    "moment": 0.01,
    "EI": 0.1,
    "length": 1.0,
    "nodes": 101
  },
  "scheme": "semi",
  "dt": 0.001,
  "t_end": 10.0,
  "boundary": {
    "base": "clamped",
    "tip": "free"
  },
  "drive": {
    "amplitude": 0.5,
    "frequency": 1.0,
    "active_fraction": 0.3,
    "phase": 0.0
  },
  "carpet": {
    "rods": 1,
    "spacing": 0.5,
    "phase_increment": 0.0
  },
  "output": {
    "stride": 10,
    "format": "json",
    "path": null
  },
  "seed": 0
}"""


class TestScenarioConfig:
    def test_defaults(self):
        config = default_config()
        assert config.scheme == "semi"
        assert config.material.nodes == 101
        assert config.drive.active_fraction == pytest.approx(0.3)

    def test_json_round_trip(self):
        config = small_config(
            drive=DriveConfig(amplitude=0.7, frequency=2.0, phase=0.1),
            carpet=CarpetConfig(rods=3, spacing=0.4, phase_increment=0.2),
            output=OutputConfig(stride=5, format="csv"),
            seed=11,
        )
        clone = ScenarioConfig.from_json(config.to_json())
        assert clone == config

    def test_json_text_is_the_schema(self):
        # The config's JSON text, key order and sections included, is its
        # schema: it is pinned here, for both boundary kinds.
        assert default_config().to_json() == DEFAULT_CONFIG_JSON
        doc = json.loads(DEFAULT_CONFIG_JSON)
        doc["boundary"]["tip"] = "clamped"
        clamped = ScenarioConfig.from_dict(doc)
        assert clamped == default_config(boundary=BoundaryConfig(tip="clamped"))
        assert clamped.to_json() == DEFAULT_CONFIG_JSON.replace(
            '"tip": "free"', '"tip": "clamped"')
        assert ScenarioConfig.from_json(clamped.to_json()) == clamped

    @pytest.mark.parametrize(
        "patch, error, message",
        [
            ({"boundary": {"base": "pinned"}}, ConfigurationError,
             "invalid config: base must be 'clamped' or 'free'"),
            ({"boundary": {"tip": "hinged"}}, ConfigurationError,
             "invalid config: tip must be 'clamped' or 'free'"),
            ({"boundary": []}, InputError,
             "invalid config: boundary section must be a JSON object"),
            ({"boundary": {"left": "free"}}, InputError,
             "invalid config: unknown boundary keys: ['left']"),
            ({"base": "clamped"}, InputError, "invalid config: unknown config keys: ['base']"),
        ],
        ids=["base-pinned", "tip-hinged", "boundary-array", "boundary-unknown-key",
             "top-level-base"],
    )
    def test_boundary_section_errors(self, patch, error, message):
        doc = {**json.loads(small_config().to_json()), **patch}
        with pytest.raises(InputError) as err:
            ScenarioConfig.from_dict(doc)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_absent_keys_take_the_dataclass_defaults(self):
        material = small_config().material
        doc = {"schema": 1, "material": asdict(material)}
        assert ScenarioConfig.from_dict(doc) == ScenarioConfig(material=material)

    def test_unknown_top_level_key(self):
        doc = json.loads(small_config().to_json())
        doc["extra"] = 1
        with pytest.raises(InputError, match="unknown config keys"):
            ScenarioConfig.from_dict(doc)

    def test_unknown_nested_key(self):
        doc = json.loads(small_config().to_json())
        doc["drive"]["wavelength"] = 3.0
        with pytest.raises(InputError, match="unknown drive keys"):
            ScenarioConfig.from_dict(doc)

    def test_wrong_schema_version(self):
        doc = json.loads(small_config().to_json())
        doc["schema"] = 2
        with pytest.raises(InputError, match="schema"):
            ScenarioConfig.from_dict(doc)

    def test_invalid_scheme(self):
        with pytest.raises(ConfigurationError):
            small_config(scheme="magic")

    def test_invalid_active_fraction(self):
        with pytest.raises(ConfigurationError):
            DriveConfig(active_fraction=0.0)

    def test_invalid_output(self):
        with pytest.raises(ConfigurationError):
            OutputConfig(stride=0)
        with pytest.raises(ConfigurationError):
            OutputConfig(format="xml")

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            (None, "scheme", "bogus", "invalid config: scheme must be 'pure' or 'semi'"),
            ("output", "stride", 0, "invalid config: output stride must be >= 1"),
        ],
        ids=["scheme-bogus", "stride-zero"],
    )
    def test_config_errors_keep_their_class(self, tmp_path, capsys, section, key,
                                            value, message):
        # A document with a bad value raises the value's own error class, with
        # the same message, and the command line still exits 2 on it.
        doc = json.loads(small_config().to_json())
        (doc[section] if section else doc)[key] = value
        with pytest.raises(ConfigurationError) as err:
            ScenarioConfig.from_dict(doc)
        assert str(err.value) == message
        assert isinstance(err.value.__cause__, ConfigurationError)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == 2
        assert message in capsys.readouterr().err


class TestDrive:
    @pytest.mark.parametrize("length", [1e-11, 1e-9, 1.0, 1e6])
    def test_driven_nodes_do_not_depend_on_units(self, length):
        # Node i is driven when i / (N - 1) <= active_fraction, on any length
        # scale: the cutoff's tolerance is relative to the length.
        wrong = []
        for nodes in (3, 11, 21, 31, 101, 1001):
            for fraction in (0.1, 0.25, 0.3, 0.5, 0.7, 1.0):
                config = default_config(
                    material=replace(default_config().material, length=length, nodes=nodes),
                    drive=DriveConfig(amplitude=1.0, active_fraction=fraction))
                couple = scenarios._drive(config, 0.0, config.material.grid().nodes,
                                          np.array([0.25]))[0, 0]
                expected = sum(i / (nodes - 1) <= fraction for i in range(nodes))
                if np.count_nonzero(couple) != expected:
                    wrong.append((nodes, fraction, np.count_nonzero(couple), expected))
        assert not wrong


def row_by_row_csv(traj):
    """The CSV text of the trajectory, written one row at a time."""
    rows = ["t,rod,node,x,y,z"] + [
        f"{t!r},{k},{i},{x!r},{y!r},{z!r}"
        for t, frame in zip(traj.times.tolist(), traj.positions.tolist())
        for k, rod in enumerate(frame) for i, (x, y, z) in enumerate(rod)]
    return "\n".join(rows) + "\n"


class TestFloatTexts:
    """`_float_texts` spells every float as `repr` does, and with
    `_json_float` as `json.dumps` does, whatever orjson's version writes."""

    @staticmethod
    def check(values, json_count=None):
        assert scenarios._float_texts(values) == list(map(repr, values.tolist()))
        values = values[:json_count]
        assert (", ".join(scenarios._float_texts(values, scenarios._json_float))
                == json.dumps(values.tolist())[1:-1])

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20181)
        bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
        # An eighth with any exponent, NaN payloads and subnormals among them;
        # the rest with exponents from about 1e-6 to 1e17, where orjson's
        # digits are used and where its spelling changes.
        near = bits[bits.size // 8:]
        exponents = rng.integers(1003, 1081, size=near.size, dtype=np.uint64)
        near[:] = (near & ~np.uint64(0x7FF << 52)) | (exponents << np.uint64(52))
        specials = np.array([0x7FF0000000000001, 0xFFF8000000000000, 0x7FF8DEADBEEF0001,
                             0x7FF0000000000000, 0xFFF0000000000000, 1, 0x800FFFFFFFFFFFFF],
                            dtype=np.uint64)
        values = np.concatenate([specials, bits]).view(float)
        assert np.isnan(values[:50000]).sum() > 10 and (np.abs(values) < 2.3e-308).sum() > 10
        self.check(values, json_count=50000)

    def test_neighbours_of_the_spelling_bounds(self):
        values = []
        for bound in (0.0, 5e-324, 1e-5, 1e-4, 1e15, 1e16, 1e17):
            for start in (bound, -bound):
                values.append(start)
                for direction in (-np.inf, np.inf):
                    value = start
                    for _ in range(3):
                        value = np.nextafter(value, direction)
                        values.append(value)
        self.check(np.array(values))

    def test_shapes(self):
        assert scenarios._float_texts(np.zeros((0, 3))) == []
        assert scenarios._float_texts(np.eye(2)[:, ::-1]) == ["0.0", "1.0", "1.0", "0.0"]


class TestTrajectory:
    def make(self, frames=3, rods=2, nodes=4):
        rng = np.random.default_rng(0)
        return Trajectory(
            times=np.arange(frames) * 0.1,
            positions=rng.standard_normal((frames, rods, nodes, 3)),
            energies=rng.uniform(0.0, 1.0, (frames, rods)),
            drifts=rng.uniform(0.0, 1e-3, (frames, rods, 3)),
        )

    def test_tips(self):
        traj = self.make()
        np.testing.assert_array_equal(traj.tips, traj.positions[:, :, -1, :])

    def test_json_round_trip(self):
        traj = self.make()
        clone = Trajectory.from_json(traj.to_json())
        np.testing.assert_array_equal(clone.positions, traj.positions)
        np.testing.assert_array_equal(clone.energies, traj.energies)

    def test_json_chunks_do_not_grow_with_frames(self):
        # A piece holds at most the 300 floats of one positions frame of 2 rods
        # of 50 nodes, so four times the frames leave the largest piece as it was.
        largest = []
        for frames in (200, 800):
            traj = self.make(frames=frames, nodes=50)
            chunks = list(traj.json_chunks())
            assert "".join(chunks) == reference_json(traj)
            largest.append(max(map(len, chunks)))
        assert largest[1] <= 1.01 * largest[0], largest

    def test_csv_round_trip_byte_identical(self):
        # repr() floats survive the round trip exactly, so re-serializing
        # reproduces the file byte for byte.
        traj = self.make()
        text = traj.to_csv()
        clone = Trajectory.from_csv(text)
        np.testing.assert_array_equal(clone.positions, traj.positions)
        assert clone.to_csv() == text

    def test_csv_bytes_match_row_by_row_repr(self):
        # to_csv takes its digits from orjson and repr; its bytes must be
        # those of writing every row on its own, for signed zeros, subnormals,
        # huge values and values repeated within and across frames.
        traj = self.make(frames=4, rods=3, nodes=5)
        positions = traj.positions
        positions[0] = 0.1  # a frame whose coordinates are all equal
        positions[1, 0, 0] = (-0.0, 0.0, 5e-324)
        positions[1, 0, 1] = (1e300, -1e300, 0.0)
        positions[1, 1] = positions[1, 0]  # repeated across rods
        positions[2, 2] = positions[1, 0]  # repeated across frames
        positions[3, :, :, 0] = -0.0
        positions[3, 1, 2] = (0.0, -5e-324, -0.0)
        traj.times = np.array([0.0, 0.1, 1.0 / 3.0, 1e300])
        text = traj.to_csv()
        assert text == row_by_row_csv(traj)
        clone = Trajectory.from_csv(text)
        assert clone.times.tobytes() == traj.times.tobytes()
        assert clone.positions.tobytes() == positions.tobytes()
        # Values orjson spells otherwise than repr: tiny, huge and non-finite.
        odd = self.make(frames=2, rods=2, nodes=4)
        odd.positions[0, 0] = ((1e-5, -1.5e-7, 5e-324), (1e15, -1e16, 1.7976931348623157e308),
                               (-0.0, 9.999999999999999e-05, 1e-4), (math.nan, math.inf, -math.inf))
        odd.positions[1, 1, 1:3] = ((-2.5e-300, 1e22, -0.0), (math.nan, 1.5e-5, 1e16 + 2))
        assert odd.to_csv() == row_by_row_csv(odd)
        assert odd.to_json() == reference_json(odd)
        assert "NaN, Infinity, -Infinity" in odd.to_json()

    def test_csv_header(self):
        assert self.make().to_csv().splitlines()[0] == "t,rod,node,x,y,z"

    def test_csv_row_count(self):
        traj = self.make(frames=3, rods=2, nodes=4)
        assert len(traj.to_csv().strip().splitlines()) == 1 + 3 * 2 * 4

    def test_csv_missing_header(self):
        with pytest.raises(InputError):
            Trajectory.from_csv("a,b,c\n1,2,3\n")

    def test_csv_malformed_row(self):
        with pytest.raises(InputError):
            Trajectory.from_csv("t,rod,node,x,y,z\n0.0,0,0,1.0\n")

    def test_json_malformed(self):
        with pytest.raises(InputError):
            Trajectory.from_json('{"times": [0.0]}')

    def test_csv_missing_row(self):
        lines = self.make().to_csv().splitlines()
        del lines[5]
        with pytest.raises(InputError, match="no row for"):
            Trajectory.from_csv("\n".join(lines))
        # A sparse rod index is rejected before any array is sized by it.
        sparse = "t,rod,node,x,y,z\n0.0,0,0,0.0,0.0,0.0\n0.0,1000000000000,0,0.0,0.0,0.0\n"
        with pytest.raises(InputError, match=r"no row for t=0\.0, rod 1, node 0 "
                                             r"\(999999999999 rows missing\)"):
            Trajectory.from_csv(sparse)
        # A header alone has no rows at all.
        with pytest.raises(InputError, match="header but no rows"):
            Trajectory.from_csv("t,rod,node,x,y,z\n")

    def test_csv_duplicate_row(self):
        text = self.make().to_csv()
        duplicate = text.splitlines()[3]
        with pytest.raises(InputError, match="duplicate CSV row"):
            Trajectory.from_csv(text + duplicate + "\n")

    @pytest.mark.parametrize("row", ["0.0,0,0,nan,0.0,0.0", "0.0,0,0,0.0,inf,0.0",
                                     "0.0,0,0,0.0,0.0,-inf"])
    def test_csv_non_finite_coordinate(self, row):
        with pytest.raises(InputError, match="malformed CSV row"):
            Trajectory.from_csv(f"t,rod,node,x,y,z\n{row}\n")

    def test_json_non_finite_position(self):
        doc = json.loads(self.make().to_json())
        doc["positions"][1][0][2][1] = float("nan")
        with pytest.raises(InputError, match="non-finite positions"):
            Trajectory.from_json(json.dumps(doc))

    def test_json_frame_count_mismatch(self):
        doc = json.loads(self.make(frames=2).to_json())
        doc["positions"] = doc["positions"][:1]
        with pytest.raises(InputError, match="inconsistent trajectory"):
            Trajectory.from_json(json.dumps(doc))


class TestRunCilium:
    def test_zero_drive_stays_straight(self):
        config = small_config(drive=DriveConfig(amplitude=0.0))
        traj = run_scenario(config)
        expected = np.array([0.0, 0.0, config.material.length])
        np.testing.assert_allclose(
            traj.tips, np.broadcast_to(expected, traj.tips.shape), atol=1e-12
        )

    def test_times_strictly_increasing(self):
        traj = run_scenario(small_config())
        assert np.all(np.diff(traj.times) > 0.0)

    def test_deterministic(self):
        a = run_scenario(small_config())
        b = run_scenario(small_config())
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.energies, b.energies)

    def test_pure_scheme_runs(self):
        traj = run_scenario(small_config(scheme="pure", dt=1e-4))
        assert np.all(np.isfinite(traj.positions))

    def test_instability_carries_partial_trajectory(self):
        config = small_config(
            scheme="pure", dt=5e-2, t_end=5.0, drive=DriveConfig(amplitude=1.0)
        )
        with np.errstate(all="ignore"):
            with pytest.raises(InstabilityError) as err:
                run_scenario(config)
        assert str(err.value).startswith("simulation became unstable at step ")
        partial = err.value.partial
        assert isinstance(partial, Trajectory)
        assert np.all(np.isfinite(partial.positions))

    def test_diverging_pure_run_is_unstable(self, monkeypatch):
        # With the energy bound out of the way, the run goes on until a step
        # overflows; that step's non-finite values end it as unstable, keeping
        # the frames captured before it.
        monkeypatch.setattr(scenarios, "_energy", lambda packed, params, spacing:
                            np.zeros(packed.shape[:-3] + packed.shape[-2:-1]))
        config = small_config(
            scheme="pure", dt=0.5, t_end=100.0, drive=DriveConfig(amplitude=1.0),
            output=OutputConfig(stride=1),
        )
        with np.errstate(all="ignore"):
            traj, stable, failed = simulate_rod(config)
        assert stable is False
        assert list(failed) == [0] and failed[0].endswith(", non-finite)")
        assert 1 < traj.times.size < 200
        assert traj.times[-1] < config.t_end

    @pytest.mark.parametrize("drive", DRIVES)
    def test_unstable_run_raises_no_floating_point_warning(self, monkeypatch, drive):
        # Forward Euler far above its stability bound loses the rod within a
        # few steps; the lost rod overflows later in its block, which runs to
        # its end. The run reports the loss, as the step loop words it, and
        # nothing else.
        monkeypatch.setattr(scenarios, "_drive", DRIVES[drive])
        config = default_config(
            material=replace(default_config().material, nodes=21), scheme="pure",
            dt=0.5, t_end=1000.0, drive=DriveConfig(amplitude=1.0),
            output=OutputConfig(stride=10**9))
        _, expected = step_loop(config)
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            _, stable, failed = simulate_rod(config)
        assert not stable and failed == expected


def drive_rods(monkeypatch, config, rods):
    """Patch ``scenarios._drive`` so that of the rods of ``config`` only
    ``rods`` are driven, 300 times over and from t = 0.35 on. Far above the
    energy bound, each of them fails within a few dozen steps under any
    consistent discretization; the others take no couple and stay exactly at
    rest. A rod is known by its drive phase, which it keeps when run alone.
    The patch wraps the drive that ``scenarios`` holds when it is made."""
    phases = config.drive.phase + np.asarray(rods) * config.carpet.phase_increment
    drive = scenarios._drive

    def some_rods_driven(config, phase, nodes, times):
        weight = np.where(np.isin(phase, phases), 300.0, 0.0) * (times >= 0.35)[:, None]
        return drive(config, phase, nodes, times) * weight[:, None, :, None]

    monkeypatch.setattr(scenarios, "_drive", some_rods_driven)


class TestRunCarpet:
    def test_zero_phase_increment_gives_identical_rods(self):
        config = small_config(
            carpet=CarpetConfig(rods=3, spacing=0.5, phase_increment=0.0)
        )
        traj = run_scenario(config)
        base = traj.positions[:, 0]
        for k in (1, 2):
            shifted = traj.positions[:, k].copy()
            shifted[..., 0] -= k * 0.5
            np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_rod_decoupling_matches_single_run(self):
        # Each carpet rod is exactly a single-cilium run with a shifted phase.
        dphi = 0.7
        config = small_config(
            carpet=CarpetConfig(rods=2, spacing=0.3, phase_increment=dphi)
        )
        carpet = run_scenario(config)
        single = run_scenario(
            small_config(drive=DriveConfig(phase=dphi))
        )
        shifted = carpet.positions[:, 1].copy()
        shifted[..., 0] -= 0.3
        # The base offset enters the sequential position accumulation, so the
        # comparison is exact only up to rounding of the shifted start point.
        np.testing.assert_allclose(shifted, single.positions[:, 0], atol=1e-12)
        # Energies and drift norms do not depend on the base offset.
        np.testing.assert_array_equal(carpet.energies[:, 1], single.energies[:, 0])
        np.testing.assert_array_equal(carpet.drifts[:, 1], single.drifts[:, 0])

    @pytest.mark.parametrize("drive", DRIVES)
    def test_unstable_rods_are_those_unstable_alone(self, monkeypatch, drive):
        # Each rod fails as it would alone: the carpet names exactly the rods
        # whose single runs fail, each at the step, time and cause of its
        # single run, and its partial trajectory stops where the earliest of
        # them stopped.
        # Rods 1 and 3 are driven far above the energy bound and fail, at
        # different frames; the others rest. Which rods the semi scheme loses
        # at this step size under the plain drive hangs on the discretization
        # (ROADMAP's "Stability as a measured map" item).
        monkeypatch.setattr(scenarios, "_drive", DRIVES[drive])
        material = replace(default_config().material, nodes=21)
        config = default_config(
            material=material, dt=3e-3, t_end=1.0, output=OutputConfig(stride=5),
            carpet=CarpetConfig(rods=5, spacing=0.5, phase_increment=0.785),
        )
        driven = [1, 3]
        drive_rods(monkeypatch, config, driven)
        unstable, frames, where = [], [], []
        with np.errstate(all="ignore"):
            for k in range(5):
                alone = replace(config, carpet=CarpetConfig(),
                                drive=DriveConfig(phase=k * 0.785))
                try:
                    run_scenario(alone)
                except InstabilityError as err:
                    unstable.append(k)
                    frames.append(err.partial.times.size)
                    where.append(str(err).removeprefix("simulation became unstable at "))
            with pytest.raises(InstabilityError) as err:
                run_scenario(config)
        assert unstable == driven
        assert str(err.value) == f"rod(s) {unstable} became unstable: " + "; ".join(
            f"rod {k} at {text}" for k, text in zip(unstable, where))
        for text in where:
            assert re.fullmatch(r"step \d+ \(t=0\.\d+, energy \d(\.\d+)?e\+\d\d above bound "
                                r"1\.25e\+03\)", text), text
        assert err.value.partial.times.size == min(frames)

    @staticmethod
    def simulate_with_frame_centerlines(config, monkeypatch):
        """simulate_rod's result, each captured frame's centerlines built by a
        reconstruct_centerline call of its own, and the rod-frame count of
        every call that simulate_rod made."""
        curvatures, calls = [], []
        reconstruct = scenarios.reconstruct_centerline

        def counting_reconstruct(curvature, *args):  # (N, frames, rods, 2)
            calls.append(math.prod(curvature.shape[1:-1]))
            curvatures.extend(curvature.swapaxes(0, 1).copy())  # each frame's (N, rods, 2)
            return reconstruct(curvature, *args)

        monkeypatch.setattr(scenarios, "reconstruct_centerline", counting_reconstruct)
        result = simulate_rod(config)
        bases = np.zeros((config.carpet.rods, 3))
        bases[:, 0] = np.arange(config.carpet.rods) * config.carpet.spacing
        spacing = config.material.grid().spacing
        per_frame = np.array([reconstruct_centerline(k, spacing, bases)[0].swapaxes(0, 1)
                              for k in curvatures])
        return result, per_frame, calls

    def test_frame_blocks_match_per_frame_centerlines(self, monkeypatch):
        # 251 frames of 3 rods of 21 nodes: blocks of 102 frames (306
        # rod-frames, 6426 rod-frame-nodes within the cap of 6464), and a
        # last block of 47 at the end of the run.
        config = small_config(scheme="pure", dt=1e-4, t_end=2.5e-2,
                              output=OutputConfig(stride=1),
                              carpet=CarpetConfig(rods=3, spacing=0.5, phase_increment=2.1))
        (traj, stable, _), per_frame, calls = self.simulate_with_frame_centerlines(
            config, monkeypatch)
        assert stable and traj.times.size == 251
        assert calls == [306, 306, 141]
        assert max(calls) * config.material.nodes <= scenarios.BLOCK
        assert np.array_equal(traj.positions, per_frame)

    @pytest.mark.parametrize("drive", DRIVES)
    def test_failed_run_builds_its_last_block(self, monkeypatch, drive):
        # Rods 1 and 3 of this semi carpet are driven far above the energy
        # bound and fail as the step loop says; the frames captured before
        # the first failure fill blocks of 16 frames and part of one more,
        # which stops at the last captured frame. The cap, which sizes the
        # step blocks too, is set to 64 rod-frames of 21 nodes so that the
        # run needs several blocks. The drive's onset at step 117 and a
        # failure a few dozen steps later keep the frames between 16 and 32.
        monkeypatch.setattr(scenarios, "_drive", DRIVES[drive])
        monkeypatch.setattr(scenarios, "BLOCK", 64 * 21)
        material = replace(default_config().material, nodes=21)
        config = default_config(
            material=material, dt=3e-3, t_end=1.0, output=OutputConfig(stride=5),
            drive=DriveConfig(phase=-1.57),
            carpet=CarpetConfig(rods=4, spacing=0.5, phase_increment=1.57),
        )
        driven = [1, 3]
        drive_rods(monkeypatch, config, driven)
        (times, *_), expected = step_loop(config)
        with np.errstate(all="ignore"):
            (traj, stable, failed), per_frame, calls = self.simulate_with_frame_centerlines(
                config, monkeypatch)
        assert not stable and failed == expected and list(failed) == driven
        assert traj.times.tobytes() == times.tobytes()
        rod_frames = traj.times.size * 4
        full, last = divmod(rod_frames, 64)
        assert rod_frames > 64 and last  # the last block is partial
        assert calls == [64] * full + [last]
        assert np.array_equal(traj.positions, per_frame)

    def test_run_scenario_dispatch(self):
        single = run_scenario(small_config())
        assert single.positions.shape[1] == 1
        multi = run_scenario(small_config(carpet=CarpetConfig(rods=2)))
        assert multi.positions.shape[1] == 2


def carpet_losing_three():
    """A semi carpet of three 21-node rods, drive phases 0, 0.3 and 0.6, all
    of them driven through ``drive_rods``: from the drive's onset at step 117
    it loses the three, not all at one step, within one block of its default
    cap, the block of steps 103 to 204, which runs across its frames."""
    material = replace(default_config().material, nodes=21)
    return default_config(
        material=material, dt=3e-3, t_end=1.0, output=OutputConfig(stride=25),
        carpet=CarpetConfig(rods=3, spacing=0.5, phase_increment=0.3))


def pure_carpet_losing_four():
    """A pure carpet of four 21-node rods, drive phases 0 to 3: forward Euler
    grows every mode, so it loses all four rods, in more than one block and
    none in the first, and keeps the frames before the first loss. With the
    default cap its blocks hold 76 steps, and its frames come every 7."""
    material = replace(default_config().material, nodes=21)
    return default_config(
        material=material, scheme="pure", dt=2e-3, t_end=40.0, output=OutputConfig(stride=7),
        carpet=CarpetConfig(rods=4, spacing=0.5, phase_increment=1.0))


class TestStepBlocks:
    """``simulate_rod`` steps in blocks of at most ``BLOCK`` rod-nodes;
    a cap of one state is the step-by-step loop. Every cap gives the same
    bits, and the failures of ``helpers.step_loop``."""

    DEFAULT = scenarios.BLOCK

    @staticmethod
    def diverging_pure():
        return small_config(scheme="pure", dt=0.5, t_end=100.0,
                            drive=DriveConfig(amplitude=1.0), output=OutputConfig(stride=10))

    CASES = {
        "pure-cilium": lambda: small_config(scheme="pure", dt=1e-4, t_end=0.03,
                                            output=OutputConfig(stride=100)),
        "semi-cilium": lambda: small_config(dt=1e-3, t_end=0.2, output=OutputConfig(stride=70)),
        "semi-carpet-losing-three": carpet_losing_three,
        "pure-carpet-losing-four": pure_carpet_losing_four,
        "diverging-pure": diverging_pure,
        "bound-before-divergence": diverging_pure,
        "stable-semi-probe": lambda: default_config(dt=1e-3, t_end=2.0,
                                                    output=OutputConfig(stride=10**9)),
        "unstable-semi-probe": lambda: default_config(dt=2e-2, t_end=2.0,
                                                      output=OutputConfig(stride=10**9)),
    }
    # The rods that ``drive_rods`` drives, by case.
    DRIVEN = {"semi-carpet-losing-three": [0, 1, 2]}
    # Stand-ins for _energy, one energy per state and rod: none at all, so
    # that the diverging run goes on until a step overflows; or an infinite
    # one once a value exceeds 1e303, which the run reaches before it
    # overflows.
    ENERGIES = {
        "diverging-pure": lambda packed: np.zeros(packed.shape[:-3] + packed.shape[-2:-1]),
        "bound-before-divergence": lambda packed: np.where(
            np.abs(packed).max(axis=(-3, -1)) > 1e303, np.inf, 0.0),
    }

    def patch_energy(self, monkeypatch, case):
        energy = self.ENERGIES[case]
        monkeypatch.setattr(scenarios, "_energy", lambda packed, params, spacing: energy(packed))

    @pytest.mark.parametrize("case, drive", under_drives(CASES))
    def test_every_cap_gives_the_step_by_step_result(self, monkeypatch, case, drive):
        monkeypatch.setattr(scenarios, "_drive", DRIVES[drive])
        config = self.CASES[case]()
        if case in self.DRIVEN:
            drive_rods(monkeypatch, config, self.DRIVEN[case])
        if case in self.ENERGIES:
            self.patch_energy(monkeypatch, case)
        results = []
        state = config.carpet.rods * config.material.nodes  # rod-nodes
        for cap in (state, 3 * state, self.DEFAULT):
            monkeypatch.setattr(scenarios, "BLOCK", cap)
            with np.errstate(all="ignore"):
                results.append(simulate_rod(config))
        (traj, stable, failed), *others = results
        for other, stable_other, failed_other in others:
            assert stable_other == stable and failed_other == failed
            for name, values in vars(traj).items():  # NaN too: a diverged centerline
                assert getattr(other, name).tobytes() == values.tobytes(), name
        assert failed == step_loop(config)[1]
        steps = [int(re.match(r"step (\d+) ", where)[1]) for where in failed.values()]
        size = self.DEFAULT // state  # steps in a block of the default cap
        blocks = {(k - 1) // size for k in steps}  # the default blocks that lose rods
        if case == "semi-carpet-losing-three":
            assert list(failed) == [0, 1, 2] and len(set(steps)) > 1
            assert len(blocks) == 1 and min(blocks) > 0
        elif case == "pure-carpet-losing-four":
            assert list(failed) == [0, 1, 2, 3]
            assert len(blocks) > 1 and min(blocks) > 0
            last = (min(steps) - 1) // config.output.stride * config.output.stride
            assert traj.times.size == last // config.output.stride + 1
            assert traj.times[-1] == last * config.dt
        elif case == "diverging-pure":
            # The run overflows in its one block, whose later steps run on.
            assert list(failed) == [0] and failed[0].endswith(", non-finite)")
            assert blocks == {0} and steps[0] < config.n_steps <= size
        elif case == "bound-before-divergence":
            # The stubbed bound trips before the divergence, in the same block.
            assert list(failed) == [0] and failed[0].endswith("energy inf above bound 5e+03)")
            self.patch_energy(monkeypatch, "diverging-pure")
            diverging = int(re.match(r"step (\d+) ", step_loop(config)[1][0])[1])
            assert steps[0] < diverging and blocks == {(diverging - 1) // size}
        elif case == "unstable-semi-probe":
            assert list(failed) == [0] and traj.times.size == 1
        else:
            assert stable

    @pytest.mark.parametrize("scheme, drive", under_drives(["pure", "semi"]))
    def test_a_wrong_factor_fails_the_residual_check(self, monkeypatch, scheme, drive):
        # Bands that do not match their LU factors fail the residual check at
        # the first solve with a nonzero right-hand side (the drive is zero
        # at t = 0), with the message and row of the check of each step on
        # its own: a loop of step_once calls.
        monkeypatch.setattr(scenarios, "_drive", DRIVES[drive])
        operator = integrators._contact_operator
        monkeypatch.setattr(integrators, "_contact_operator",
                            lambda *key: operator(*key)._replace(diag=1.5 * operator(*key).diag))
        config = small_config(scheme=scheme, carpet=CarpetConfig(rods=3, phase_increment=1.0))
        with pytest.raises(SingularSystemError) as want:
            step_loop(config)
        with pytest.raises(SingularSystemError) as err:
            simulate_rod(config)
        assert str(err.value) == str(want.value) and err.value.row == want.value.row


class TestBenchmark:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--dt-max", "inf"], "dt_max must be finite, got inf"),
            (["--dt-min", "nan"], "dt_min must be finite, got nan"),
            (["--horizon", "inf"], "horizon must be finite, got inf"),
            (["--horizon", "0.01", "--dt-max", "1e300"],
             "dt_max 1e+300 exceeds the horizon 0.01"),
        ],
        ids=["dt-max-inf", "dt-min-nan", "horizon-inf", "dt-max-above-horizon"],
    )
    def test_rejects_unsteppable_dt_bounds(self, tmp_path, capsys, monkeypatch,
                                           flags, message):
        # Bounds that are not finite, or a dt_max that no run over the horizon
        # can step, are bad input (exit 2) found before any probe runs.
        def probe(config):
            raise AssertionError("a probe ran")

        monkeypatch.setattr(scenarios, "simulate_rod", probe)
        config = write_config(tmp_path, small_config())
        assert main(["benchmark", str(config), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_report_fields(self):
        config = small_config(t_end=0.2)
        report = benchmark_stability(config, horizon=0.2, dt_bounds=(1e-4, 1e-1))
        for key in ("dt_pure", "dt_semi", "dt_ratio", "wall_pure", "wall_semi",
                    "speedup"):
            assert key in report
            assert np.isfinite(report[key])
            assert report[key] > 0.0
        assert report["dt_ratio"] == pytest.approx(
            report["dt_semi"] / report["dt_pure"]
        )


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(config.to_json())
    return path


def worked_spec():
    """Boundary traces reproduced by unit amplitude, angle u + pi/4 and the
    identity time map."""
    return {
        "v1": {"cos": {"amp": 1.0, "freq": 1.0, "phase": np.pi / 4}},
        "w1": {"cos": {"amp": 1.0, "freq": 1.0, "phase": np.pi / 4}},
        "k1": {"cos": {"amp": -1.0, "freq": 1.0, "phase": np.pi / 4}},
        "v2_origin": np.sqrt(2.0) / 2.0,
        "u_max": 0.5,
        "steps": 1000,
    }


class TestCli:
    def test_simulate_json(self, tmp_path):
        cfg = write_config(tmp_path, small_config())
        out = tmp_path / "run.json"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        traj = Trajectory.from_json(out.read_text())
        assert np.all(np.isfinite(traj.positions))

    def test_simulate_csv(self, tmp_path):
        cfg = write_config(
            tmp_path, small_config(output=OutputConfig(stride=10, format="csv"))
        )
        out = tmp_path / "run.csv"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "t,rod,node,x,y,z"

    @pytest.mark.parametrize("dt, t_end, err", [
        (0.7, 1.0, "warning: dt=0.7 does not divide t_end=1.0; ran 1 step(s) of 1.0\n"),
        (1e-3, 0.1, ""),
    ])
    def test_simulate_warns_when_dt_does_not_divide_t_end(self, tmp_path, capsys,
                                                           dt, t_end, err):
        # The run steps t_end / n_steps either way; the exit code and the
        # written trajectory do not depend on the warning.
        config = small_config(scheme="pure", dt=dt, t_end=t_end)
        out = tmp_path / "run.json"
        assert main(["simulate", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
        assert capsys.readouterr().err == err
        assert out.read_text() == run_scenario(config).to_json()

    def test_simulate_unstable_exits_1_with_partial(self, tmp_path):
        config = small_config(
            scheme="pure", dt=5e-2, t_end=5.0, drive=DriveConfig(amplitude=1.0)
        )
        cfg = write_config(tmp_path, config)
        out = tmp_path / "partial.json"
        with np.errstate(all="ignore"):
            assert main(["simulate", str(cfg), "--out", str(out)]) == 1
        assert out.exists()
        Trajectory.from_json(out.read_text())

    def test_simulate_missing_config(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.json")]) == 2

    def test_simulate_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 2

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("carpet", "rods", 2.0),
            ("material", "nodes", 11.5),
            (None, "t_end", "inf"),
            ("carpet", "rods", True),
            ("output", "stride", 1.5),
            (None, "seed", 1.7),
            ("drive", "amplitude", float("nan")),
            ("carpet", "rods", 0),
            (None, "dt", 0),
            (None, "t_end", -1),
            ("boundary", "base", "pinned"),
            (None, "boundary", []),
            ("boundary", "left", "free"),
            (None, "base", "clamped"),
            (None, "dt", 1e-300),
            ("material", "nodes", 10**18),
            ("carpet", "rods", 10**18),
            pytest.param(None, None, [], id="config-array"),
        ],
    )
    def test_simulate_rejects_mistyped_number(self, tmp_path, section, key, value):
        # Counts must be JSON integers and physical numbers finite, each value
        # in its range, the config a JSON object and the run small enough to
        # allocate; anything else is bad input (exit 2), not a traceback or a
        # silent rounding. A ``key`` of None replaces the whole document.
        doc = json.loads(small_config().to_json())
        if key is None:
            doc = value
        else:
            (doc[section] if section else doc)[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run.json"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value, named",
        [
            ("drive", "amplitude", 1e160, ["drive.amplitude", "material.length", "material.EI"]),
            ("material", "length", 1e300, ["drive.amplitude", "material.length", "material.EI"]),
            ("material", "EI", 1e-320, ["drive.amplitude", "material.length", "material.EI"]),
            ("material", "rho", 1e-320, ["material.rho", "material.area", "material.moment",
                                         "material.length", "material.nodes"]),
        ],
    )
    def test_simulate_rejects_overflowing_scales(self, tmp_path, capsys, section, key,
                                                 value, named):
        # Finite values whose derived scales overflow: the energy bound, which
        # would otherwise switch the energy check off, or the contact-force
        # coefficients (rho*area*ds**2 underflows to 0). Bad input that
        # names its keys (exit 2), not a traceback.
        doc = json.loads(small_config().to_json())
        doc[section][key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run.json"
        assert main(["simulate", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(name in err for name in named), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, named",
        [
            ("carpet", "spacing", ["carpet.spacing", "carpet.rods"]),
            ("carpet", "phase_increment", ["drive.frequency", "t_end", "drive.phase",
                                           "carpet.phase_increment", "carpet.rods"]),
            ("drive", "frequency", ["drive.frequency", "t_end", "drive.phase",
                                    "carpet.phase_increment", "carpet.rods"]),
        ],
    )
    def test_simulate_rejects_an_overflowing_carpet(self, tmp_path, capsys, section, key,
                                                    named):
        # 1e308 on three rods: rod 2's base 2 * spacing, rod 2's phase or the
        # drive's 2*pi*frequency*t overflows. Bad input naming its keys (exit
        # 2) with no floating-point warning, not an infinite base in the
        # output nor a non-finite step.
        doc = json.loads(small_config(scheme="pure", carpet=CarpetConfig(rods=3)).to_json())
        doc[section][key] = 1e308
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(f"{name}=" in err for name in named), err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["pure", "semi"])
    def test_simulate_rejects_a_material_whose_elimination_overflows(self, tmp_path, capsys,
                                                                     scheme):
        # area 1e-300: the coefficients (4e302) are finite, but their products
        # in the elimination are not. Bad input naming the material keys
        # (exit 2) with no floating-point warning, not a singular pivot; with
        # both ends free it stays a singular configuration.
        doc = json.loads(small_config(scheme=scheme).to_json())
        doc["material"]["area"] = 1e-300
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(path), "--out", str(tmp_path / "run.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the contact-force coefficients") and err.count("\n") == 1
        assert all(f"material.{key}=" in err for key in ("rho", "area", "moment", "length",
                                                         "nodes")), err
        doc["boundary"] = {"base": "free", "tip": "free"}
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match="singular with both ends free"):
            simulate_rod(ScenarioConfig.from_json(path.read_text()))

    @pytest.mark.parametrize("command", ["simulate", "verify-solution", "export"])
    def test_unwritable_out_is_bad_input(self, tmp_path, capsys, command):
        # An --out path that cannot be written is bad input (exit 2) with a
        # one-line message, not a traceback after the work is done.
        traj = tmp_path / "run.traj.json"
        traj.write_text(Trajectory(np.zeros(1), np.zeros((1, 1, 2, 3)), np.zeros((1, 1)),
                                   np.zeros((1, 1, 3))).to_json())
        argv = {
            "simulate": ["simulate", str(write_config(tmp_path, small_config()))],
            "verify-solution": ["verify-solution", "--grid", "11", "--dt", "6e-2"],
            "export": ["export", str(traj), "--format", "csv"],
        }[command]
        out = tmp_path / "missing" / "x"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")

    def test_simulate_rejects_non_string_path(self, tmp_path):
        # An integer path would be opened as a file descriptor.
        doc = json.loads(small_config().to_json())
        doc["output"]["path"] = 5
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == 2

    def test_simulate_missing_material(self, tmp_path, capsys):
        doc = json.loads(small_config().to_json())
        del doc["material"]["EI"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == 2
        assert "material section is missing ['EI']" in capsys.readouterr().err

    def test_verify_solution(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["verify-solution", "--grid", "41", "--dt", "2.5e-2",
             "--seed", "3", "--out", str(out)]
        )
        report = json.loads(out.read_text())
        assert code == 0
        assert report["pass"] is True
        for key in ("R3", "R4", "R5", "R6", "R9", "R10", "R12",
                    "h_uniformity", "R22", "R23", "R24"):
            assert key in report["residuals"]
            assert report["residuals"][key] <= report["thresholds"][key]

    @pytest.mark.parametrize(
        "patch, flags, message",
        [
            ({"v2_origin": "abc"}, None, "'v2_origin' must be a finite number"),
            ({"v1": {"const": [1]}}, None, "'const' must be a finite number"),
            ({"v1": {"cos": 5}}, None, "trace v1.cos section must be a JSON object"),
            ({"steps": 1.5}, None, "'steps' must be an integer"),
            ({"steps": True}, None, "'steps' must be an integer"),
            ({"steps": 10**400}, None, "steps is too large"),
            ({"u_max": "nan"}, None, "'u_max' must be a finite number"),
            ({"u_max": 0.0}, None, "u_max must be positive, got 0.0"),
            ({"u_max": -0.5}, None, "u_max must be positive, got -0.5"),
            ({"steps": 2}, None, "steps must be at least 3"),
            ({"u_max": 5e-324}, None,
             "u_max / steps is below the float range: the knots do not increase "
             "(u_max=5e-324, steps=1000)"),
            ({"v1": {"cos": {"freq": float("inf")}}}, None, "'freq' must be a finite"),
            (None, ["--dt", "0"], "dt must be positive and finite"),
            (None, ["--dt", "-0.05"], "dt must be positive and finite"),
            (None, ["--dt", "nan"], "dt must be positive and finite"),
            (None, ["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        ],
        ids=["v2_origin-string", "const-list", "cos-number", "steps-float",
             "steps-bool", "steps-huge", "u_max-string", "u_max-zero", "u_max-negative",
             "steps-two", "u_max-underflow", "freq-inf", "dt-zero",
             "dt-negative", "dt-nan", "seed-negative"],
    )
    def test_rejects_mistyped_number(self, tmp_path, capsys, patch, flags, message):
        # Counts must be JSON integers that an array of states can hold and
        # numbers finite (and dt positive);
        # anything else is bad input (exit 2), not a traceback, a truncation or
        # a numerical failure.
        if flags is None:
            path = tmp_path / "trace.json"
            path.write_text(json.dumps(dict(worked_spec(), **patch)))
            argv = ["match-cauchy", str(path)]
        else:
            argv = ["verify-solution", "--grid", "11", *flags]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["1", "2", "0", "-5"])
    def test_verify_rejects_grid_below_three_nodes(self, capsys, grid):
        # The node count is checked before the grid spacing 1/(n - 1) is
        # formed, so one node is bad input (exit 2), not a division by zero.
        assert main(["verify-solution", "--grid", grid, "--dt", "6e-2"]) == 2
        assert f"need at least 3 nodes, got {grid}" in capsys.readouterr().err

    def test_verify_window_outside_family_exits_1(self, capsys):
        # A time window the family cannot reach is a numerical finding (exit
        # 1) whose message names the window and the flags that set it.
        assert main(["verify-solution", "--grid", "31", "--dt", "5"]) == 1
        err = capsys.readouterr().err
        assert "sampled window [" in err and "(--grid 31 --dt 5.0)" in err
        assert "not reachable on [" in err

    @staticmethod
    def run_capped(*argv):
        """The CLI in a subprocess under a 3 GiB address-space cap, which
        keeps an oversized allocation from taking the machine's memory."""
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

        src = str(Path(scenarios.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        return subprocess.run([sys.executable, "-m", "rodsim.cli", *argv], env=env,
                              preexec_fn=cap_address_space, capture_output=True, text=True)

    def test_verify_oversized_grid_is_a_size_error(self):
        # Under the cap the grid's (N, N) sampling blocks cannot be
        # allocated: a one-line input error (exit 2), not a traceback.
        result = self.run_capped("verify-solution", "--grid", "200000", "--dt", "1e-7")
        assert result.returncode == 2, result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert "--grid 200000 --dt 1e-07" in lines[0]

    def test_match_cauchy_oversized_steps_is_a_size_error(self, tmp_path):
        # Under the cap the RK4 march's states cannot be allocated: a
        # one-line input error naming steps (exit 2), not a traceback.
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(dict(worked_spec(), steps=10**10)))
        result = self.run_capped("match-cauchy", str(path), "--out", str(tmp_path / "m.json"))
        assert result.returncode == 2, result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1, result.stderr
        assert "steps" in lines[0]

    def test_match_cauchy_numerical_failure_exits_1(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(dict(worked_spec(), v1={"const": 1e-12})))
        assert main(["match-cauchy", str(path)]) == 1
        assert "initial angle too close to pi/2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "patch, message",
        [
            ({"u_max": 1e308},
             "the fit overflowed (u_max=1e+308, steps=1000): the cubic spline table "
             "overflows"),
            ({"u_max": 1e50},
             "the round-trip residual 4.75e+29 is not within its bound 1e-06 = "
             "1e-6 x max(1, largest |trace value|) (u_max=1e+50, steps=1000)"),
            ({"k1": {"const": 1e308}, "v1": {"const": 10.0}},
             "amplitude is not finite (u_max=0.5, steps=1000)"),
            ({"k1": {"const": 1e200}, "v1": {"const": 1e200}},
             "march overflowed (u_max=0.5, steps=1000)"),
        ],
        ids=["residual", "residual-bound", "amplitude", "march"],
    )
    def test_match_cauchy_non_finite_exits_1(self, tmp_path, capsys, patch, message):
        # A fit that overflows is a numerical failure (exit 1) that names the
        # keys setting the march, not a report holding NaN, which is not JSON.
        # So is a finite fit whose round-trip residual is above its bound.
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(dict(worked_spec(), **patch)))
        out = tmp_path / "match.json"
        assert main(["match-cauchy", str(path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_match_cauchy_worked_example(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(worked_spec()))
        out = tmp_path / "match.json"
        assert main(["match-cauchy", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["round_trip_residual"] <= 1e-6
        amp = np.asarray(report["family"]["A"])
        np.testing.assert_allclose(amp, 1.0, atol=1e-6)

    @pytest.mark.parametrize("u_max", [50.0, 1e6])
    def test_match_cauchy_residual_within_bound(self, tmp_path, u_max):
        # Long fits of the worked example stay far inside the 1e-6 bound.
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(dict(worked_spec(), u_max=u_max)))
        out = tmp_path / "match.json"
        assert main(["match-cauchy", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["round_trip_residual"] <= 1e-7

    def test_match_cauchy_missing_key(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"v1": {"const": 1.0}}))
        assert main(["match-cauchy", str(path)]) == 2

    def test_match_cauchy_degenerate_data(self, tmp_path):
        # v1(0) = 0 violates the nonvanishing requirement -> bad input.
        spec = {
            "v1": {"const": 0.0},
            "w1": {"const": 1.0},
            "k1": {"const": 1.0},
            "v2_origin": 0.5,
        }
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(spec))
        assert main(["match-cauchy", str(path)]) == 2

    def test_benchmark(self, tmp_path):
        cfg = write_config(tmp_path, small_config(t_end=0.2))
        out = tmp_path / "bench.json"
        code = main(
            ["benchmark", str(cfg), "--horizon", "0.2",
             "--dt-min", "1e-4", "--dt-max", "1e-1", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["dt_ratio"] > 0.0

    def test_benchmark_unstable_lower_bound_exits_1(self, tmp_path, monkeypatch, capsys):
        # A scheme already unstable at the lower bound is a numerical finding
        # about a valid config (exit 1), not an input error (exit 2).
        monkeypatch.setattr(scenarios, "simulate_rod", lambda config: (None, False, [0]))
        cfg = write_config(tmp_path, small_config())
        assert main(["benchmark", str(cfg), "--out", str(tmp_path / "bench.json")]) == 1
        assert "lower bound dt = 3e-05 is already unstable" in capsys.readouterr().err

    def test_benchmark_default_search_interval(self, tmp_path, monkeypatch):
        # Without flags the command searches the same dt interval and horizon
        # as benchmark_stability's defaults.
        calls = []

        def recording_benchmark(config, **kwargs):
            calls.append(kwargs)
            return {}

        monkeypatch.setattr(cli, "benchmark_stability", recording_benchmark)
        cfg = write_config(tmp_path, small_config())
        assert main(["benchmark", str(cfg), "--out", str(tmp_path / "bench.json")]) == 0
        assert calls == [{"horizon": scenarios.STABILITY_HORIZON,
                          "dt_bounds": scenarios.STABILITY_DT_BOUNDS}]

    def test_export_round_trip(self, tmp_path):
        traj = run_scenario(small_config())
        json_path = tmp_path / "traj.json"
        json_path.write_text(traj.to_json())
        csv_path = tmp_path / "traj.csv"
        assert main(
            ["export", str(json_path), "--format", "csv", "--out", str(csv_path)]
        ) == 0
        text = csv_path.read_text()
        n_frames, n_rods, n_nodes, _ = traj.positions.shape
        assert len(text.strip().splitlines()) == 1 + n_frames * n_rods * n_nodes
        back_path = tmp_path / "back.json"
        assert main(
            ["export", str(csv_path), "--format", "json", "--out", str(back_path)]
        ) == 0
        back = Trajectory.from_json(back_path.read_text())
        np.testing.assert_array_equal(back.positions, traj.positions)

    def test_export_csv_to_json_warns(self, tmp_path, capsys):
        traj = run_scenario(small_config())
        csv_path = tmp_path / "traj.csv"
        csv_path.write_text(traj.to_csv())
        out = tmp_path / "back.json"
        assert main(["export", str(csv_path), "--format", "json", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "written as zeros" in err
        back = Trajectory.from_json(out.read_text())
        np.testing.assert_array_equal(back.energies, 0.0)
        np.testing.assert_array_equal(back.drifts, 0.0)

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--frobnicate"])
        assert err.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["transmogrify"])
        assert err.value.code == 2

    @pytest.mark.parametrize("grid", ["3", "4", "5"])
    def test_verify_solution_smallest_grids(self, tmp_path, grid):
        # Three knots in flattened time make the not-a-knot spline the
        # parabola through them; four and five use the general end rows.
        out = tmp_path / "report.json"
        assert main(["verify-solution", "--grid", grid, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["grid"]["Ns"] == int(grid)

    @staticmethod
    def _run_fresh(code, *args):
        """stdout of ``code`` run with ``args`` in a fresh interpreter."""
        src = str(Path(scenarios.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        result = subprocess.run(
            [sys.executable, "-c", code, *map(str, args)],
            env=env, capture_output=True, text=True, check=True)
        return result.stdout.strip()

    def test_simulate_does_not_import_interpolation(self, tmp_path):
        # rodsim's splines are its own and SciPy serves only LAPACK's
        # tridiagonal solves, so neither a simulation nor the verification
        # commands load scipy.interpolate and its import time and memory.
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(worked_spec()))
        code = (
            "import sys\n"
            "import rodsim.cli\n"
            "from rodsim.rod_model import MaterialParams\n"
            "from rodsim.scenarios import ScenarioConfig, simulate_rod\n"
            "material = MaterialParams(1.0, 1.0, 1e-2, 1e-1, 1.0, 3)\n"
            "config = ScenarioConfig(material, scheme='pure', dt=1e-3, t_end=1e-2)\n"
            "assert simulate_rod(config)[1]\n"
            "argv = ['verify-solution', '--grid', '11', '--dt', '6e-2', '--out', sys.argv[1]]\n"
            "assert rodsim.cli.main(argv) == 0\n"
            "assert rodsim.cli.main(['match-cauchy', sys.argv[2], '--out', sys.argv[1]]) == 0\n"
            "print('scipy.interpolate' in sys.modules)\n"
        )
        assert self._run_fresh(code, tmp_path / "out.json", trace) == "False"

    def test_commands_do_not_import_scipy_linalg(self, tmp_path):
        # rodsim loads SciPy's compiled LAPACK extension from its file; the
        # scipy.linalg package's initialisation would be most of a command's
        # start-up time and memory.
        cfg = write_config(tmp_path, small_config(dt=1e-3, t_end=1e-2))
        code = (
            "import sys\n"
            "from rodsim.cli import main\n"
            "assert main(['simulate', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "argv = ['verify-solution', '--grid', '11', '--dt', '6e-2', '--out', sys.argv[2]]\n"
            "assert main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
        )
        assert self._run_fresh(code, cfg, tmp_path / "out.json") == "[]"

    @pytest.mark.parametrize("first", ["rodsim.grid_fields", "scipy.linalg.lapack"])
    def test_lapack_routines_are_scipys(self, first):
        # The extension initialises once per process, so rodsim's routines are
        # the objects scipy.linalg.lapack exports, whichever is imported first.
        second = ({"rodsim.grid_fields", "scipy.linalg.lapack"} - {first}).pop()
        code = (
            f"import {first}, {second}\n"
            "import scipy.linalg\n"
            "from rodsim.grid_fields import _gttrf, _gttrs\n"
            "print(_gttrf is scipy.linalg.lapack.dgttrf, _gttrs is scipy.linalg.lapack.dgttrs,\n"
            "      _gttrf is scipy.linalg._flapack.dgttrf)\n"
        )
        assert self._run_fresh(code) == "True True True"

    def test_missing_lapack_extension_names_the_directory(self, tmp_path, monkeypatch):
        from importlib.machinery import ModuleSpec

        from rodsim import grid_fields

        origin = tmp_path / "scipy" / "__init__.py"
        monkeypatch.setattr(grid_fields, "find_spec",
                            lambda name: ModuleSpec(name, None, origin=str(origin)))
        with pytest.raises(ImportError) as info:
            grid_fields._load_flapack()
        message = str(info.value)
        assert str(tmp_path / "scipy" / "linalg") in message
        assert f"scipy {importlib.metadata.version('scipy')}" in message
        monkeypatch.setattr(grid_fields, "find_spec", lambda name: None)
        with pytest.raises(ModuleNotFoundError, match="needs SciPy"):
            grid_fields._load_flapack()


THREE_RODS = CarpetConfig(rods=3, spacing=0.5, phase_increment=2.0944)


def written_case(case, monkeypatch):
    """(config, trajectory) of one streamed-writing case; `simulate` on the
    config writes that trajectory."""
    if case == "negative-zero":
        # A frame holding both zeros, whose repr differ, next to a plain one.
        positions = np.zeros((2, 2, 3, 3))
        positions[1, 0, :, 0] = -0.0
        positions[1, 1, 2] = (0.5, -0.0, -1e-300)
        traj = Trajectory(np.array([0.0, -0.0]), positions, np.full((2, 2), -0.0),
                          np.zeros((2, 2, 3)))
        monkeypatch.setattr(cli, "run_scenario", lambda config: traj)
        return small_config(), traj
    config = {
        "one-rod": small_config(),
        "three-rods": small_config(carpet=THREE_RODS),
        # 351 frames of 3 rods of 21 nodes: JSON blocks of one positions frame's
        # 189 floats (189 times, 63 energy frames, 21 drift frames) all split.
        "many-blocks": small_config(carpet=THREE_RODS, t_end=0.35,
                                    output=OutputConfig(stride=1)),
        "unstable-partial": small_config(scheme="pure", dt=5e-2, t_end=5.0,
                                         drive=DriveConfig(amplitude=1.0)),
    }[case]
    try:
        with np.errstate(all="ignore"):
            return config, run_scenario(config)
    except InstabilityError as err:
        return config, err.partial


def reference_json(traj):
    """The JSON text of the whole trajectory, made in one piece."""
    return json.dumps({"times": traj.times.tolist(), "positions": traj.positions.tolist(),
                       "energies": traj.energies.tolist(), "drifts": traj.drifts.tolist()})


class TestStreamedWriting:
    """`simulate` and `export` write a trajectory a piece at a time, CSV one
    frame and JSON a block of at most one positions frame's floats, and
    write the bytes of `to_json`/`to_csv`."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("case", ["one-rod", "three-rods", "many-blocks", "unstable-partial",
                                      "negative-zero"])
    def test_written_bytes_are_the_writers(self, tmp_path, monkeypatch, capsys, case, fmt):
        config, traj = written_case(case, monkeypatch)
        expected = traj.to_csv() if fmt == "csv" else traj.to_json()
        if fmt == "json":
            assert expected == reference_json(traj)
        config = replace(config, output=replace(config.output, format=fmt))
        out = tmp_path / f"run.{fmt}"
        with np.errstate(all="ignore"):
            code = main(["simulate", str(write_config(tmp_path, config)), "--out", str(out)])
        assert code == (1 if case == "unstable-partial" else 0)
        assert out.read_bytes() == expected.encode()

        source = tmp_path / "source.json"
        source.write_text(traj.to_json())
        exported = tmp_path / f"exported.{fmt}"
        assert main(["export", str(source), "--format", fmt, "--out", str(exported)]) == 0
        assert exported.read_bytes() == expected.encode()
        capsys.readouterr()
        assert main(["export", str(source), "--format", fmt]) == 0
        # Exactly one newline ends standard output: the CSV's own, or one added.
        assert capsys.readouterr().out == expected.rstrip("\n") + "\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_writing_holds_one_frame(self, tmp_path, monkeypatch, fmt):
        # The whole text would be the file's size, and the lists of Python
        # floats several times that; a frame of 301 is a third of a percent.
        config = small_config(carpet=THREE_RODS, t_end=0.3,
                              output=OutputConfig(stride=1, format=fmt))
        config = replace(config, material=replace(config.material, nodes=51))
        traj = run_scenario(config)
        assert traj.positions.shape[:2] == (301, 3)
        monkeypatch.setattr(cli, "run_scenario", lambda config: traj)
        cfg, out = write_config(tmp_path, config), tmp_path / f"run.{fmt}"
        # A first call makes what a process makes once: parsers, lazy imports.
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            assert main(["simulate", str(cfg), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert peak < 0.1 * size, (peak, size)
