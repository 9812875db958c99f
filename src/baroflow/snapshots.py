"""Binary flow snapshots.

One snapshot per file: a little-endian 72-byte header followed by the
raw float64 payload, density first, then each momentum component, each
flattened Fortran-style (first grid axis fastest).

    offset  field
    0       magic "CKHS"
    4       format version (u32, currently 1)
    8       dimension d (u32)
    12      points per axis n (u32)
    16      box edge length P (f64)
    24      gamma, kappa, mu, lam (4 x f64)
    56      snapshot time t (f64)
    64      field count (u32, always 1 + d)
    68      CRC-32 of the payload (u32)

The checksum pins the payload bit-for-bit, so a corrupted file never
parses quietly.

write_pass is the store solver.run streams a series through: each
snapshot is written as the run reaches it, and the run's series is the
lazy StoredSeries of the files.
"""

from __future__ import annotations

import re
import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .fields import Field, PeriodicGrid, make_grid
from .solver import FluidParams, State

__all__ = [
    "SnapshotFormatError",
    "SnapshotMeta",
    "StoredSeries",
    "write_pass",
    "write_snapshot",
    "read_snapshot",
    "scan_series",
]

MAGIC = b"CKHS"
VERSION = 1
_HEADER = struct.Struct("<4sIIIddddddII")


class SnapshotFormatError(ValueError):
    """The bytes on disk do not form a valid snapshot."""


@dataclass(frozen=True)
class SnapshotMeta:
    """Header contents of one snapshot file."""

    version: int
    d: int
    n: int
    P: float
    gamma: float
    kappa: float
    mu: float
    lam: float
    t: float
    field_count: int


def write_snapshot(path, state: State, params) -> SnapshotMeta:
    """Write one snapshot file, holding at most one field's bytes at a time:
    the payload's CRC-32 runs along with the writes, and the header, which
    holds it, is written last in front of them."""
    grid = state.grid
    meta = SnapshotMeta(
        version=VERSION, d=grid.d, n=grid.n, P=grid.P,
        gamma=params.gamma, kappa=params.kappa, mu=params.mu, lam=params.lam,
        t=float(state.t), field_count=1 + grid.d,
    )
    checksum = 0
    with open(path, "wb") as fh:
        fh.seek(_HEADER.size)
        for f in (state.rho.values, *state.m.values):
            chunk = np.ascontiguousarray(f.T, dtype="<f8")  # f's bytes in Fortran order
            checksum = zlib.crc32(chunk, checksum)
            fh.write(chunk)
            del chunk  # before the next field's copy is made
        fh.seek(0)
        fh.write(_HEADER.pack(
            MAGIC, meta.version, meta.d, meta.n, meta.P,
            meta.gamma, meta.kappa, meta.mu, meta.lam, meta.t,
            meta.field_count, checksum,
        ))
    return meta


def _parse_header(path, data: bytes):
    """(SnapshotMeta, payload checksum) from a file's leading bytes."""
    name = Path(path).name
    if len(data) < _HEADER.size:
        raise SnapshotFormatError(f"{name}: file holds {len(data)} bytes, shorter than the header")
    (magic, version, d, n, P, gamma, kappa, mu, lam, t,
     field_count, checksum) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise SnapshotFormatError(f"{name}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotFormatError(f"{name}: unsupported format version {version}")
    if field_count != 1 + d:
        raise SnapshotFormatError(f"{name}: field count {field_count} does not match dimension {d}")
    return SnapshotMeta(version, d, n, P, gamma, kappa, mu, lam, t, field_count), checksum


def _header_grid(path, meta: SnapshotMeta) -> PeriodicGrid:
    """The grid of a header's d, n and P; a box PeriodicGrid rejects, or
    fluid constants FluidParams rejects, is a format error of the file."""
    try:
        FluidParams(gamma=meta.gamma, kappa=meta.kappa, mu=meta.mu, lam=meta.lam)
        return make_grid(meta.d, meta.n, meta.P)
    except ValueError as exc:
        raise SnapshotFormatError(f"{Path(path).name}: {exc}") from None


def read_snapshot(path, scanned=None):
    """Parse one snapshot file into (State, SnapshotMeta).  scanned, the
    (grid, SnapshotMeta) scan_series found for the file, lends the state
    its grid; the header must still be that meta."""
    data = Path(path).read_bytes()
    meta, checksum = _parse_header(path, data)
    name = Path(path).name
    payload = memoryview(data)[_HEADER.size :]
    expected = 8 * meta.field_count * meta.n**meta.d
    if len(payload) != expected:
        raise SnapshotFormatError(f"{name}: payload holds {len(payload)} bytes, expected {expected}")
    if zlib.crc32(payload) & 0xFFFFFFFF != checksum:
        raise SnapshotFormatError(f"{name}: payload checksum mismatch (file is corrupted)")
    if scanned is not None and meta != scanned[1]:
        raise SnapshotFormatError(f"{name}: header changed since the series was scanned")
    grid = _header_grid(path, meta) if scanned is None else scanned[0]
    # one view of every field, each of whose Fortran-ordered bytes are a
    # C array of the reversed shape; Field makes the one C-ordered copy
    fields = np.frombuffer(payload, dtype="<f8").reshape((meta.field_count,) + grid.shape[::-1])
    fields = fields.transpose(0, *range(meta.d, 0, -1))
    return State(t=meta.t, rho=Field(grid=grid, values=fields[0]), m=Field(grid=grid, values=fields[1:])), meta


def _series_path(directory: Path, prefix: str, index: int) -> Path:
    return directory / f"{prefix}_{index:04d}.ckhs"


@dataclass(frozen=True)
class StoredSeries:
    """A snapshot series on disk, known up front by its headers (see
    scan_series and write_pass): the first header, which every other one
    repeats but for its time, and the times.  Iterating reads each payload
    when it is reached, checksum-verified, onto the one grid; no earlier
    state is kept."""

    directory: Path
    prefix: str
    meta: SnapshotMeta
    times: np.ndarray
    grid: PeriodicGrid

    @property
    def paths(self) -> list:
        return [_series_path(self.directory, self.prefix, i) for i in range(len(self))]

    def __len__(self):
        return len(self.times)

    def __iter__(self):
        for path, t in zip(self.paths, self.times.tolist()):
            yield read_snapshot(path, (self.grid, replace(self.meta, t=t)))[0]


def write_pass(directory, prefix: str, params, count: int):
    """A feed pass (diagnostics.feed), solver.run's store for a series
    streamed to disk: it answers its set-up next() with count, which run
    checks, writes each of the count States it is sent as prefix_NNNN.ckhs
    in directory and keeps none.

    Until the last State, each file carries a ".part" suffix, which
    scan_series never matches.  Then the files take their names, the
    prefix_NNNN.ckhs files numbered past them (left by an earlier, longer
    series) are deleted, and the answer is the lazy StoredSeries of exactly
    what was written.  Closed before then, it deletes the partial files, and
    the directory too when it made it and it is left empty, so a run that
    raises leaves no snapshot behind."""
    directory = Path(directory)
    made_directory = not directory.exists()
    directory.mkdir(parents=True, exist_ok=True)
    paths, times = [_series_path(directory, prefix, i) for i in range(count)], []
    try:
        for path in paths:
            st = yield None if times else count  # count answers the set-up next()
            meta = write_snapshot(_partial(path), st, params)
            if not times:
                first, grid = meta, st.grid
            times.append(meta.t)
            del st  # written: its samples are not held while run makes the next
        for path in paths:
            _partial(path).replace(path)
        for index, path in _numbered(directory, prefix):
            if index >= count:
                path.unlink()
    except BaseException:
        for path in paths:
            _partial(path).unlink(missing_ok=True)
        if made_directory and not any(directory.iterdir()):
            directory.rmdir()
        raise
    yield StoredSeries(directory, prefix, first, np.array(times), grid)


def _partial(path: Path) -> Path:
    return path.with_name(path.name + ".part")


def _numbered(directory: Path, prefix: str) -> list:
    """(index, path) of the prefix_NNNN.ckhs files in directory, by index."""
    pattern = re.compile(rf"^{re.escape(prefix)}_(\d{{4}})\.ckhs$")
    return sorted((int(m.group(1)), p) for p in directory.iterdir() if (m := pattern.match(p.name)))


def scan_series(directory, prefix: str) -> StoredSeries:
    """Find the prefix_NNNN.ckhs files and read their headers only: the
    indices must be contiguous from 0, the first header must hold a valid
    grid and fluid constants (_header_grid), and every other one must agree
    with it on them and hold a later time than the one before."""
    directory = Path(directory)
    found = _numbered(directory, prefix)
    if not found:
        raise FileNotFoundError(f"no {prefix}_NNNN.ckhs files in {directory}")
    indices = [i for i, _ in found]
    if indices != list(range(len(indices))):
        raise SnapshotFormatError(f"snapshot indices are not contiguous: {indices}")
    metas = []
    for _, path in found:
        with open(path, "rb") as fh:
            meta, _ = _parse_header(path, fh.read(_HEADER.size))
        if not metas:
            grid = _header_grid(path, meta)
        for name in ("d", "n", "P", "gamma", "kappa", "mu", "lam") if metas else ():
            got, want = getattr(meta, name), getattr(metas[0], name)
            if got != want:
                raise SnapshotFormatError(
                    f"{path.name}: header {name} = {got} disagrees with the first snapshot ({want})"
                )
        if metas and not meta.t > metas[-1].t:
            raise SnapshotFormatError(f"{path.name}: time {meta.t} does not exceed the previous snapshot's")
        metas.append(meta)
    return StoredSeries(directory, prefix, metas[0], np.array([meta.t for meta in metas]), grid)
