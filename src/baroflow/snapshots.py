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
"""

from __future__ import annotations

import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import Field, make_grid
from .solver import SnapshotSeries, State

__all__ = [
    "SnapshotFormatError",
    "SnapshotMeta",
    "write_snapshot",
    "read_snapshot",
    "write_series",
    "read_series",
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
    grid = state.grid
    fields = [state.rho.values] + [state.m.values[a] for a in range(grid.d)]
    payload = b"".join(np.asarray(f, dtype="<f8").tobytes(order="F") for f in fields)
    checksum = zlib.crc32(payload) & 0xFFFFFFFF
    meta = SnapshotMeta(
        version=VERSION, d=grid.d, n=grid.n, P=grid.P,
        gamma=params.gamma, kappa=params.kappa, mu=params.mu, lam=params.lam,
        t=float(state.t), field_count=1 + grid.d,
    )
    header = _HEADER.pack(
        MAGIC, meta.version, meta.d, meta.n, meta.P,
        meta.gamma, meta.kappa, meta.mu, meta.lam, meta.t,
        meta.field_count, checksum,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return meta


def read_snapshot(path, first=None):
    """Parse one snapshot file into (State, SnapshotMeta).

    first, the (State, SnapshotMeta) of a series' first snapshot, lends
    the state its grid; the header must then agree with that meta on
    the grid and the fluid constants.
    """
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise SnapshotFormatError(f"file holds {len(data)} bytes, shorter than the header")
    (magic, version, d, n, P, gamma, kappa, mu, lam, t,
     field_count, checksum) = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise SnapshotFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotFormatError(f"unsupported format version {version}")
    if field_count != 1 + d:
        raise SnapshotFormatError(f"field count {field_count} does not match dimension {d}")
    payload = data[_HEADER.size :]
    count = n**d
    expected = 8 * field_count * count
    if len(payload) != expected:
        raise SnapshotFormatError(f"payload holds {len(payload)} bytes, expected {expected}")
    if zlib.crc32(payload) & 0xFFFFFFFF != checksum:
        raise SnapshotFormatError("payload checksum mismatch (file is corrupted)")
    meta = SnapshotMeta(
        version=version, d=d, n=n, P=P, gamma=gamma, kappa=kappa,
        mu=mu, lam=lam, t=t, field_count=field_count,
    )
    if first is None:
        grid = make_grid(d, n, P)
    else:
        grid = first[0].grid
        for name in ("d", "n", "P", "gamma", "kappa", "mu", "lam"):
            got, want = getattr(meta, name), getattr(first[1], name)
            if got != want:
                raise SnapshotFormatError(
                    f"{Path(path).name}: header {name} = {got} disagrees with the first snapshot ({want})"
                )
    flat = np.frombuffer(payload, dtype="<f8")
    rho = flat[:count].reshape(grid.shape, order="F")
    m = np.stack([
        flat[(1 + a) * count : (2 + a) * count].reshape(grid.shape, order="F")
        for a in range(d)
    ])
    return State(t=t, rho=Field(grid=grid, values=rho), m=Field(grid=grid, values=m)), meta


def _series_path(directory: Path, prefix: str, index: int) -> Path:
    return directory / f"{prefix}_{index:04d}.ckhs"


def write_series(directory, prefix: str, series: SnapshotSeries, params):
    """Write every snapshot of a series as prefix_NNNN.ckhs files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, st in enumerate(series):
        path = _series_path(directory, prefix, i)
        write_snapshot(path, st, params)
        paths.append(path)
    return paths


def read_series(directory, prefix: str):
    """Load prefix_NNNN.ckhs files back into (SnapshotSeries, metas),
    every state on the first snapshot's grid (see read_snapshot)."""
    directory = Path(directory)
    pattern = re.compile(rf"^{re.escape(prefix)}_(\d{{4}})\.ckhs$")
    found = sorted(
        (int(m.group(1)), p)
        for p in directory.iterdir()
        if (m := pattern.match(p.name))
    )
    if not found:
        raise FileNotFoundError(f"no {prefix}_NNNN.ckhs files in {directory}")
    indices = [i for i, _ in found]
    if indices != list(range(len(indices))):
        raise SnapshotFormatError(f"snapshot indices are not contiguous: {indices}")
    states, metas = [], []
    for _, path in found:
        st, meta = read_snapshot(path, (states[0], metas[0]) if states else None)
        states.append(st)
        metas.append(meta)
    return SnapshotSeries(states=tuple(states)), metas
