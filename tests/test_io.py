"""Snapshot file format and config round trips."""

import zlib

import numpy as np
import pytest

from baroflow.config import ExperimentConfig
from baroflow.diagnostics import feed
from baroflow.fields import Field, make_grid
from baroflow.snapshots import (
    _HEADER,
    SnapshotFormatError,
    read_snapshot,
    scan_series,
    write_pass,
    write_snapshot,
)
from baroflow.solver import FluidParams, State, preset_ic, run


def small_state(seed=11):
    grid = make_grid(2, 16, 2.0 * np.pi)
    params = FluidParams(gamma=1.4, kappa=1.0, mu=1e-3)
    state = preset_ic("random-band", grid, params, seed=seed, amplitude=0.2)
    return grid, params, state


class TestSnapshotRoundTrip:
    def test_header_is_72_bytes(self):
        assert _HEADER.size == 72

    def test_bit_exact_round_trip(self, tmp_path):
        grid, params, state = small_state()
        path = tmp_path / "one.ckhs"
        meta = write_snapshot(path, state, params)
        back, meta2 = read_snapshot(path)
        assert np.array_equal(back.rho.values, state.rho.values)
        assert np.array_equal(back.m.values, state.m.values)
        assert back.t == state.t
        assert meta2 == meta
        assert (meta.d, meta.n, meta.field_count) == (2, 16, 3)
        assert (meta.gamma, meta.kappa, meta.mu) == (1.4, 1.0, 1e-3)
        assert meta.lam == params.lam
        assert meta.P == grid.P

    def test_rewrites_are_byte_identical(self, tmp_path):
        grid, params, state = small_state()
        a = tmp_path / "a.ckhs"
        b = tmp_path / "b.ckhs"
        write_snapshot(a, state, params)
        write_snapshot(b, state, params)
        assert a.read_bytes() == b.read_bytes()

    def test_one_dimensional_state(self, tmp_path):
        grid = make_grid(1, 32, 1.0)
        params = FluidParams(gamma=1.8, kappa=0.5, mu=0.0, lam=0.0)
        rng = np.random.default_rng(3)
        state = State(
            t=0.75,
            rho=Field(grid=grid, values=1.0 + 0.1 * rng.standard_normal(32)),
            m=Field(grid=grid, values=rng.standard_normal((1, 32))),
        )
        path = tmp_path / "line.ckhs"
        write_snapshot(path, state, params)
        back, meta = read_snapshot(path)
        assert np.array_equal(back.rho.values, state.rho.values)
        assert np.array_equal(back.m.values, state.m.values)
        assert meta.field_count == 2
        assert meta.t == 0.75


    @pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
    def test_bytes_equal_the_joined_payload(self, tmp_path, d, n):
        # the fields are written one at a time under a running CRC; the file
        # is still the header with the whole payload's CRC, then the payload
        grid = make_grid(d, n, 2.0 * np.pi)
        params = FluidParams(gamma=1.6, kappa=0.8, mu=2e-3)
        rng = np.random.default_rng(d)
        state = State(t=0.375, rho=Field(grid=grid, values=1.0 + 0.1 * rng.standard_normal(grid.shape)),
                      m=Field(grid=grid, values=rng.standard_normal((d,) + grid.shape)))
        path = tmp_path / "one.ckhs"
        meta = write_snapshot(path, state, params)
        fields = [state.rho.values] + [state.m.values[a] for a in range(d)]
        payload = b"".join(np.asarray(f, dtype="<f8").tobytes(order="F") for f in fields)
        header = _HEADER.pack(b"CKHS", 1, d, n, grid.P, params.gamma, params.kappa, params.mu, params.lam,
                              0.375, 1 + d, zlib.crc32(payload) & 0xFFFFFFFF)
        assert path.read_bytes() == header + payload
        assert meta == read_snapshot(path)[1]

    def test_one_field_in_memory_at_a_time(self, tmp_path, traced_peak):
        grid = make_grid(2, 64, 2.0 * np.pi)
        params = FluidParams()
        state = preset_ic("random-band", grid, params, seed=2, amplitude=0.3)
        field = 8 * 64**2
        traced_peak(lambda: write_snapshot(tmp_path / "warm.ckhs", state, params))
        assert traced_peak(lambda: write_snapshot(tmp_path / "one.ckhs", state, params)) < 1.5 * field


class TestSnapshotCorruption:
    def test_payload_flip_fails_checksum(self, tmp_path):
        grid, params, state = small_state()
        path = tmp_path / "one.ckhs"
        write_snapshot(path, state, params)
        blob = bytearray(path.read_bytes())
        blob[_HEADER.size + 100] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="one.ckhs: payload checksum"):
            read_snapshot(path)

    def test_bad_magic(self, tmp_path):
        grid, params, state = small_state()
        path = tmp_path / "one.ckhs"
        write_snapshot(path, state, params)
        blob = bytearray(path.read_bytes())
        blob[0:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="one.ckhs: bad magic"):
            read_snapshot(path)

    def test_unsupported_version(self, tmp_path):
        grid, params, state = small_state()
        path = tmp_path / "one.ckhs"
        write_snapshot(path, state, params)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="one.ckhs: unsupported format version"):
            read_snapshot(path)

    def test_field_count_must_match_the_dimension(self, tmp_path):
        grid, params, state = small_state()
        path = tmp_path / "one.ckhs"
        write_snapshot(path, state, params)
        blob = bytearray(path.read_bytes())
        blob[64:68] = (4).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="one.ckhs: field count 4 does not match dimension 2"):
            read_snapshot(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.ckhs"
        path.write_bytes(b"CKHS" + b"\x00" * 10)
        with pytest.raises(SnapshotFormatError, match="short.ckhs: file holds 14 bytes, shorter than the header"):
            read_snapshot(path)

    def test_trailing_garbage(self, tmp_path):
        grid, params, state = small_state()
        path = tmp_path / "one.ckhs"
        write_snapshot(path, state, params)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SnapshotFormatError, match="one.ckhs: payload holds"):
            read_snapshot(path)


@pytest.fixture(scope="module")
def short_run():
    grid = make_grid(1, 32, 2.0 * np.pi)
    params = FluidParams(gamma=1.4, kappa=1.0, mu=5e-3)
    initial = preset_ic("acoustic-pulse", grid, params, amplitude=0.1)
    return run(initial, params, T=0.2, snapshots=5), params


@pytest.fixture
def demo_dir(tmp_path, short_run):
    """tmp_path, holding short_run's series as demo_NNNN.ckhs: the same
    run, streamed there through a write_pass."""
    result, params = short_run
    run(result.series[0], params, T=0.2, snapshots=5, store=write_pass(tmp_path, "demo", params, 6))
    return tmp_path


class TestSeries:
    def test_series_round_trip(self, tmp_path, short_run):
        result, params = short_run
        streamed = run(result.series[0], params, T=0.2, snapshots=5, store=write_pass(tmp_path, "demo", params, 6))
        assert [p.name for p in streamed.series.paths] == [f"demo_{i:04d}.ckhs" for i in range(6)]
        back = scan_series(tmp_path, "demo")
        assert len(back) == len(result.series)
        for got, want in zip(back, result.series):
            assert np.array_equal(got.rho.values, want.rho.values)
            assert np.array_equal(got.m.values, want.m.values)
            assert got.t == want.t
        assert back.meta.mu == params.mu

    def test_missing_series(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no demo_NNNN.ckhs files"):
            scan_series(tmp_path, "demo")

    def test_gap_in_indices(self, demo_dir):
        (demo_dir / "demo_0002.ckhs").unlink()
        with pytest.raises(SnapshotFormatError, match="contiguous"):
            scan_series(demo_dir, "demo")

    def test_prefix_isolation(self, demo_dir, short_run):
        result, params = short_run
        feed(result.series[:2], [write_pass(demo_dir, "other", params, 2)])
        assert len(scan_series(demo_dir, "other")) == 2 and len(scan_series(demo_dir, "demo")) == 6

    @pytest.mark.parametrize("d,n", [(1, 32), (2, 16), (3, 8)])
    def test_lazy_reader_gives_the_states_of_the_run(self, tmp_path, d, n):
        grid = make_grid(d, n, 2.0 * np.pi)
        params = FluidParams(gamma=1.4, kappa=1.0, mu=5e-3)
        initial = preset_ic("random-band", grid, params, seed=30 + d, amplitude=0.3)
        held = run(initial, params, T=0.05, snapshots=3).series
        run(initial, params, T=0.05, snapshots=3, store=write_pass(tmp_path, "demo", params, 4))
        stored = scan_series(tmp_path, "demo")
        assert len(stored) == len(held) == 4 and np.array_equal(stored.times, held.times)
        states = list(stored)
        assert all(st.rho.grid is stored.grid and st.m.grid is stored.grid for st in states)
        for got, want in zip(states, held):
            assert got.t == want.t
            assert np.array_equal(got.rho.values, want.rho.values)
            assert np.array_equal(got.m.values, want.m.values)
            assert got.rho.values.flags.c_contiguous and got.m.values.flags.c_contiguous

    def test_scan_reads_headers_and_each_payload_waits_for_the_pass(self, demo_dir, short_run):
        result, params = short_run
        path = demo_dir / "demo_0004.ckhs"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        stored = scan_series(demo_dir, "demo")
        states = iter(stored)
        assert [next(states).t for _ in range(4)] == list(result.series.times[:4])
        with pytest.raises(SnapshotFormatError, match="demo_0004.ckhs: payload checksum mismatch"):
            next(states)

    def test_header_rewritten_after_the_scan_is_rejected(self, demo_dir, short_run):
        result, params = short_run
        stored = scan_series(demo_dir, "demo")
        write_snapshot(demo_dir / "demo_0002.ckhs", result.series[3], params)
        with pytest.raises(SnapshotFormatError, match="demo_0002.ckhs: header changed since the series was scanned"):
            list(stored)

    def test_times_must_increase(self, demo_dir, short_run):
        result, params = short_run
        write_snapshot(demo_dir / "demo_0002.ckhs", result.series[1], params)
        with pytest.raises(SnapshotFormatError, match="demo_0002.ckhs: time .* does not exceed the previous"):
            scan_series(demo_dir, "demo")

    @pytest.mark.parametrize("box", [1e300, -1.0, 0.0])
    def test_a_bad_box_is_a_format_error_of_the_file(self, demo_dir, box):
        for path in demo_dir.glob("demo_*.ckhs"):
            blob = bytearray(path.read_bytes())
            blob[16:24] = np.float64(box).tobytes()
            path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="demo_0000.ckhs: box length must be positive"):
            scan_series(demo_dir, "demo")
        with pytest.raises(SnapshotFormatError, match="demo_0003.ckhs: box length must be positive"):
            read_snapshot(demo_dir / "demo_0003.ckhs")

    def test_states_share_one_grid(self, demo_dir):
        back = scan_series(demo_dir, "demo")
        grid = back.grid
        assert all(st.rho.grid is grid and st.m.grid is grid for st in back)

    def test_mixed_grid_sizes_rejected(self, demo_dir, short_run):
        result, params = short_run
        grid = make_grid(1, 16, 2.0 * np.pi)
        odd = State(t=1.0, rho=Field(grid=grid, values=np.ones(16)),
                    m=Field(grid=grid, values=np.zeros((1, 16))))
        write_snapshot(demo_dir / "demo_0006.ckhs", odd, params)
        with pytest.raises(SnapshotFormatError, match="demo_0006.ckhs: header n = 16"):
            scan_series(demo_dir, "demo")

    @pytest.mark.parametrize("name", ["gamma", "kappa", "mu", "lam"])
    def test_mixed_fluid_constants_rejected(self, demo_dir, short_run, name):
        result, params = short_run
        changed = {"gamma": 1.5, "kappa": 2.0, "mu": 1e-2, "lam": 0.0}
        fields = {k: getattr(params, k) for k in ("gamma", "kappa", "mu", "lam")}
        fields[name] = changed[name]
        write_snapshot(demo_dir / "demo_0003.ckhs", result.series[3], FluidParams(**fields))
        with pytest.raises(SnapshotFormatError, match=f"demo_0003.ckhs: header {name} = "):
            scan_series(demo_dir, "demo")


class TestSnapshotWriter:
    """snapshots.write_pass, the writing feed pass."""

    def test_streams_the_series_of_a_run(self, tmp_path, short_run):
        result, params = short_run
        initial = result.series[0]
        streamed = run(initial, params, T=0.2, snapshots=5, store=write_pass(tmp_path / "new", "demo", params, 6))
        assert streamed.series.paths == [tmp_path / "new" / f"demo_{i:04d}.ckhs" for i in range(6)]
        assert list(streamed.series.times) == list(result.series.times)
        assert len(streamed.series) == 6 and streamed.series.grid == initial.grid
        for got, want in zip(streamed.series, result.series):
            assert np.array_equal(got.rho.values, want.rho.values)
            assert np.array_equal(got.m.values, want.m.values)
        for name in ("t", "E", "D", "W", "R"):
            assert np.array_equal(getattr(streamed.report, name), getattr(result.report, name))

    def test_files_are_partial_until_finish(self, tmp_path, short_run):
        result, params = short_run
        writer = write_pass(tmp_path, "demo", params, 6)
        next(writer)
        for st in result.series[:5]:
            assert writer.send(st) is None
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"demo_{i:04d}.ckhs.part" for i in range(5)]
        with pytest.raises(FileNotFoundError):
            scan_series(tmp_path, "demo")
        stored = writer.send(result.series[5])
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"demo_{i:04d}.ckhs" for i in range(6)]
        scanned = scan_series(tmp_path, "demo")
        assert (stored.meta, stored.grid) == (scanned.meta, scanned.grid)
        assert list(stored.times) == list(scanned.times) == list(result.series.times)

    def test_discard_leaves_nothing(self, tmp_path, short_run):
        result, params = short_run
        kept = tmp_path / "kept"
        kept.mkdir()
        for directory in (kept, tmp_path / "made"):
            writer = write_pass(directory, "demo", params, 6)
            next(writer)
            for st in result.series[:5]:  # all but the last, which would answer
                writer.send(st)
            writer.close()
        assert kept.is_dir() and not any(kept.iterdir())
        assert not (tmp_path / "made").exists()

    def test_the_series_is_what_was_written(self, demo_dir, short_run):
        # files a longer, earlier series left behind do not join the new one
        result, params = short_run
        stored = feed(result.series[:3], [write_pass(demo_dir, "demo", params, 3)])[0]
        assert len(stored) == 3 and [st.t for st in stored] == list(result.series.times[:3])

    def test_finish_deletes_the_longer_series_of_its_prefix_only(self, tmp_path, short_run):
        result, params = short_run
        for prefix in ("demo", "other"):
            run(result.series[0], params, T=0.2, snapshots=5, store=write_pass(tmp_path, prefix, params, 6))
        (tmp_path / "demo_0005.ckhs.bak").write_bytes(b"kept")
        feed(result.series[:3], [write_pass(tmp_path, "demo", params, 3)])
        assert sorted(p.name for p in tmp_path.glob("demo_*")) == (
            [f"demo_{i:04d}.ckhs" for i in range(3)] + ["demo_0005.ckhs.bak"])
        assert len(scan_series(tmp_path, "demo")) == 3 and len(scan_series(tmp_path, "other")) == 6


OVERRIDE_INI = """
[grid]
d = 3
n = 48
box = 6.283185307179586

[fluid]
gamma = 1.6667
mu = 0.0025
lam = -0.001

[forcing]
mode = trig
envelope = cos
rate = 2.0
term1 = 0.05,0.0,0.0@1,0,0@0.0
term2 = 0.0,0.03,0.0@0,1,1@0.5235987755982988

[initial]
preset = random-band
seed = 42
amplitude = 0.3

[run]
horizon = 0.75
snapshots = 24

[diagnostics]
ckhw_beta = 0.3333333333333333
ckhw_k_star = 4
moduli_shifts = 1,3,9

[sweep]
mu_max = 0.004
ratio = 0.5
count = 5

[output]
directory = results/a
write_snapshots = false
"""

# The parser's key table is derived from the section dataclasses, so these
# frozen emissions pin its key order and value formatting.
DEFAULT_EMISSION = (
    "[grid]\n"
    "d = 2\n"
    "n = 64\n"
    "box = 6.283185307179586\n"
    "\n"
    "[fluid]\n"
    "gamma = 1.4\n"
    "kappa = 1.0\n"
    "mu = 0.001\n"
    "lam = \n"
    "rho_min = 1e-10\n"
    "\n"
    "[forcing]\n"
    "mode = none\n"
    "envelope = const\n"
    "rate = 0.0\n"
    "\n"
    "[initial]\n"
    "preset = taylor-green\n"
    "seed = \n"
    "amplitude = \n"
    "\n"
    "[run]\n"
    "horizon = 1.0\n"
    "snapshots = 16\n"
    "cfl = 0.4\n"
    "\n"
    "[diagnostics]\n"
    "window_lo = \n"
    "window_hi = \n"
    "ckhw_beta = 0.6666666666666666\n"
    "ckhw_k_star = \n"
    "sobolev_alpha = 0.2\n"
    "moduli_shifts = 1,2,4\n"
    "moduli_lags = 1,2,4\n"
    "q1 = \n"
    "q2 = \n"
    "q = \n"
    "theta = 1e-06\n"
    "\n"
    "[sweep]\n"
    "mu_max = 0.01\n"
    "ratio = 0.5\n"
    "count = 4\n"
    "lam_ratio = -0.6666666666666666\n"
    "\n"
    "[output]\n"
    "directory = out\n"
    "prefix = run\n"
    "write_snapshots = true\n"
    "\n"
)

OVERRIDE_EMISSION = (
    "[grid]\n"
    "d = 3\n"
    "n = 48\n"
    "box = 6.283185307179586\n"
    "\n"
    "[fluid]\n"
    "gamma = 1.6667\n"
    "kappa = 1.0\n"
    "mu = 0.0025\n"
    "lam = -0.001\n"
    "rho_min = 1e-10\n"
    "\n"
    "[forcing]\n"
    "mode = trig\n"
    "envelope = cos\n"
    "rate = 2.0\n"
    "term1 = 0.05,0.0,0.0@1,0,0@0.0\n"
    "term2 = 0.0,0.03,0.0@0,1,1@0.5235987755982988\n"
    "\n"
    "[initial]\n"
    "preset = random-band\n"
    "seed = 42\n"
    "amplitude = 0.3\n"
    "\n"
    "[run]\n"
    "horizon = 0.75\n"
    "snapshots = 24\n"
    "cfl = 0.4\n"
    "\n"
    "[diagnostics]\n"
    "window_lo = \n"
    "window_hi = \n"
    "ckhw_beta = 0.3333333333333333\n"
    "ckhw_k_star = 4\n"
    "sobolev_alpha = 0.2\n"
    "moduli_shifts = 1,3,9\n"
    "moduli_lags = 1,2,4\n"
    "q1 = \n"
    "q2 = \n"
    "q = \n"
    "theta = 1e-06\n"
    "\n"
    "[sweep]\n"
    "mu_max = 0.004\n"
    "ratio = 0.5\n"
    "count = 5\n"
    "lam_ratio = -0.6666666666666666\n"
    "\n"
    "[output]\n"
    "directory = results/a\n"
    "prefix = run\n"
    "write_snapshots = false\n"
    "\n"
)


class TestConfigRoundTrip:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        again = ExperimentConfig.parse(cfg.emit())
        assert again == cfg

    def test_default_emission_is_frozen(self):
        assert ExperimentConfig().emit() == DEFAULT_EMISSION

    def test_override_emission_is_frozen(self):
        assert ExperimentConfig.parse(OVERRIDE_INI).emit() == OVERRIDE_EMISSION

    def test_emit_is_deterministic(self):
        cfg = ExperimentConfig()
        assert cfg.emit() == cfg.emit()
        assert len(cfg.sha256()) == 64

    def test_full_round_trip_with_overrides(self):
        text = OVERRIDE_INI
        cfg = ExperimentConfig.parse(text)
        assert cfg.grid.d == 3
        assert cfg.fluid.lam == -0.001
        assert cfg.forcing.mode == "trig"
        assert cfg.initial.seed == 42
        assert cfg.diagnostics.moduli_shifts == (1, 3, 9)
        assert cfg.output.write_snapshots is False
        again = ExperimentConfig.parse(cfg.emit())
        assert again == cfg
        assert again.sha256() == cfg.sha256()

    def test_float_values_survive_exactly(self):
        cfg = ExperimentConfig.parse("[grid]\nbox = 6.283185307179586\n")
        assert cfg.grid.box == 6.283185307179586
        again = ExperimentConfig.parse(cfg.emit())
        assert again.grid.box == cfg.grid.box

    def test_blank_means_none(self):
        cfg = ExperimentConfig.parse("[fluid]\nlam =\n")
        assert cfg.fluid.lam is None
        assert ExperimentConfig.parse(cfg.emit()).fluid.lam is None


class TestConfigValidation:
    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match=r"unknown config section \[grib\]"):
            ExperimentConfig.parse("[grib]\nn = 64\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match=r"unknown key 'sise'"):
            ExperimentConfig.parse("[grid]\nsise = 64\n")

    def test_gamma_at_most_one_rejected(self):
        with pytest.raises(ValueError, match="gamma must exceed 1"):
            ExperimentConfig.parse("[fluid]\ngamma = 1.0\n")

    def test_bad_number_names_its_key(self):
        with pytest.raises(ValueError, match=r"\[fluid\] mu: not a number"):
            ExperimentConfig.parse("[fluid]\nmu = fast\n")

    def test_bad_forcing_term_rejected(self):
        text = "[forcing]\nmode = trig\nterm1 = 0.05@1@0@9\n"
        with pytest.raises(ValueError, match="amps@mode@phase"):
            ExperimentConfig.parse(text)

    def test_forcing_term_dimension_mismatch(self):
        text = "[grid]\nd = 2\n\n[forcing]\nmode = trig\nterm1 = 0.05@1@0.0\n"
        with pytest.raises(ValueError, match="2 amplitudes"):
            ExperimentConfig.parse(text)

    def test_bad_forcing_mode(self):
        with pytest.raises(ValueError, match="forcing mode"):
            ExperimentConfig.parse("[forcing]\nmode = stochastic\n")

    @pytest.mark.parametrize("body", [
        "term1 = 0.05,0.0@1,0@0.0",
        "envelope = cos",
        "rate = 2.0",
        "mode = none\nterm1 = 0.05,0.0@1,0@0.0",
    ])
    def test_forcing_keys_without_trig_mode_rejected(self, body):
        with pytest.raises(ValueError, match="need mode 'trig'"):
            ExperimentConfig.parse(f"[grid]\nd = 2\n\n[forcing]\n{body}\n")

    @pytest.mark.parametrize("section, body, message", [
        ("forcing", "mode = trig\nrate = 2.0\nterm1 = 0.05,0.0@1,0@0.0", "const envelope takes no rate"),
        ("grid", "n = 7", "even and >= 4"),
        ("grid", "d = 4", "dimension must be 1, 2 or 3"),
        ("grid", "box = 0.0", "box length must be positive"),
        ("sweep", "ratio = 1.5", "ratio must lie in \\(0, 1\\)"),
        ("sweep", "count = 1", "count must be at least 2"),
        ("sweep", "mu_max = 0.0", "mu_max must be positive"),
        ("sweep", "lam_ratio = -2.0", "lam_ratio must exceed -2"),
        ("forcing", "mode = trig\nterm1 = 0.05,0.0@22,0@0.0", "forcing mode \\(22, 0\\) is past the two-thirds cutoff"),
        ("forcing", "mode = trig\nterm1 = 0.05,0.0@0,-22@0.0", "two-thirds cutoff n//3 = 21"),
        ("run", "horizon = inf", "horizon T must be positive and finite"),
        ("run", "horizon = 0.0", "horizon T must be positive and finite"),
        ("run", "snapshots = 0", "need at least one snapshot interval"),
    ])
    def test_grid_forcing_and_sweep_rules_apply_when_read(self, section, body, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.parse(f"[{section}]\n{body}\n")

    @pytest.mark.parametrize("body, message", [
        ("q1 = 1.0", "q1 must exceed gamma = 1.4"),
        ("q2 = 2.0", "q2 and q must exceed 2"),
        ("q = 1.5", "q2 and q must exceed 2"),
        ("theta = 0.0", "vacuum threshold theta must be positive"),
        ("theta = nan", "vacuum threshold theta must be positive"),
        ("ckhw_beta = 0.0", "beta must be positive"),
        ("ckhw_k_star = 22", "k_star 22 outside the resolved dealiased range \\[1, 21\\]"),
        ("ckhw_k_star = 0", "k_star 0 outside"),
        ("window_lo = 9\nwindow_hi = 9", "bad fit window \\[9, 9\\]"),
        ("window_hi = 33", "window end 33 is beyond the resolved shells"),
        ("sobolev_alpha = -0.5", "alpha must be nonnegative"),
        ("moduli_lags = 2,0", "lag 0 is not a positive whole number"),
    ])
    def test_diagnostics_rules_apply_when_read(self, body, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.parse(f"[diagnostics]\n{body}\n")

    def test_diagnostics_defaults_hold_on_the_smallest_grid(self):
        """n = 4 resolves the default fit window to [1, 2], not the empty [1, 1]."""
        cfg = ExperimentConfig.parse("[grid]\nd = 1\nn = 4\n")
        assert cfg.grid.n == 4

    def test_bad_envelope_rejected(self):
        text = "[forcing]\nmode = trig\nenvelope = sine\nterm1 = 0.05,0.0@1,0@0.0\n"
        with pytest.raises(ValueError, match="unknown envelope 'sine'"):
            ExperimentConfig.parse(text)

    @pytest.mark.parametrize("body, message", [
        ("rho_min = 0.0", "rho_min must be positive"),
        ("gamma = nan", "gamma must exceed 1"),
        ("kappa = nan", "kappa must be positive"),
        ("mu = nan", "mu must be nonnegative"),
        ("rho_min = nan", "rho_min must be positive"),
        ("mu = 0.01\nlam = nan", "lam \\+ 2\\*mu must be positive"),
        ("mu = 0.01\nlam = -0.05", "lam \\+ 2\\*mu must be positive"),
    ])
    def test_fluid_rules_apply_when_read(self, body, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.parse(f"[fluid]\n{body}\n")


class TestConfigConstructors:
    def test_grid_and_params(self):
        cfg = ExperimentConfig.parse("[grid]\nd = 1\nn = 24\n\n[fluid]\nmu = 0.01\n")
        grid = cfg.make_grid()
        assert (grid.d, grid.n) == (1, 24)
        params = cfg.fluid_params()
        assert params.mu == 0.01
        assert params.lam == pytest.approx(-2.0 * 0.01 / 3.0)

    def test_forcing_spec_terms(self):
        text = "[grid]\nd = 2\n\n[forcing]\nmode = trig\nterm1 = 0.05,0.0@1,0@0.25\n"
        spec = ExperimentConfig.parse(text).forcing_spec()
        assert spec.active
        assert spec.terms == (((0.05, 0.0), (1, 0), 0.25),)

    def test_initial_state(self):
        cfg = ExperimentConfig.parse("[initial]\npreset = equilibrium\n")
        state = cfg.initial_state()
        assert float(np.max(np.abs(state.m.values))) == 0.0

    def test_sweep_plan_ladder(self):
        text = "[sweep]\nmu_max = 0.008\nratio = 0.5\ncount = 3\n"
        plan = ExperimentConfig.parse(text).sweep_plan()
        assert plan.mu_values == (0.008, 0.004, 0.002)
        assert plan.T == 1.0

    def test_sweep_plan_carries_rho_min(self):
        text = "[fluid]\nrho_min = 1e-6\n\n[sweep]\nmu_max = 0.008\ncount = 3\n"
        plan = ExperimentConfig.parse(text).sweep_plan()
        assert [plan.params_for(mu).rho_min for mu in plan.mu_values] == [1e-6] * 3
