"""Quarter-wave sine lookup tables with quadrant folding.

The table stores sin over [0, pi/2) only; every other angle folds onto it
through exact sign/swap identities, and cosine reads the complementary
entry.  Power-of-two sizes keep index extraction a shift.  Nearest-entry
and linearly interpolated lookups both ship, since their accuracy/cost
trade is the whole point of the backend.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import dh
from .fixedpoint import DomainError, QFormat, fx_from_real

HALF_PI = math.pi / 2
TWO_PI = 2 * math.pi

NEAREST = "nearest"
LINEAR = "linear"

_MAGIC = b"FKLUT1"


@dataclass(frozen=True)
class SinTable:
    """Immutable quarter-wave table; safe for concurrent readers."""

    n_entries: int
    values: np.ndarray  # sin(k * (pi/2)/n_entries), quantized at build time
    mode: str
    fmt: QFormat | None = None

    @property
    def step(self) -> float:
        return HALF_PI / self.n_entries


def build_table(n_entries: int, fmt: QFormat | None = None, mode: str = NEAREST) -> SinTable:
    """Build a quarter-wave sine table; deterministic for fixed inputs."""
    if n_entries < 2:
        raise ValueError("n_entries must be >= 2")
    if n_entries & (n_entries - 1):
        raise ValueError("n_entries must be a power of two")
    if mode not in (NEAREST, LINEAR):
        raise ValueError(f"bad mode {mode!r}")
    grid = np.sin(np.arange(n_entries) * (HALF_PI / n_entries))
    if fmt is not None:
        grid = np.array([fx_from_real(v, fmt).real for v in grid])
    grid.setflags(write=False)
    return SinTable(n_entries, grid, mode, fmt)


def _sin_quarter(u, table: SinTable):
    """sin(u) for u in [0, pi/2], with sin(pi/2) = 1 as a virtual endpoint."""
    pos = np.asarray(u) / table.step
    if table.mode == NEAREST:
        idx = np.rint(pos).astype(np.int64)
        return np.where(idx >= table.n_entries, 1.0, table.values[np.minimum(idx, table.n_entries - 1)])
    idx = np.floor(pos).astype(np.int64)
    idx = np.minimum(idx, table.n_entries - 1)
    frac = pos - idx
    lo = table.values[idx]
    hi = np.where(idx + 1 >= table.n_entries, 1.0, table.values[np.minimum(idx + 1, table.n_entries - 1)])
    return lo + (hi - lo) * frac


def _sincos_abs(a, table: SinTable):
    """(cos, sin) for a >= 0 via quadrant folding onto the quarter table."""
    a = np.mod(a, TWO_PI)
    quad = np.floor(a / HALF_PI)
    r = a - quad * HALF_PI
    quad = quad.astype(np.int64) & 3
    s_r = _sin_quarter(r, table)
    c_r = _sin_quarter(HALF_PI - r, table)
    sin = np.select([quad == 0, quad == 1, quad == 2], [s_r, c_r, -s_r], default=-c_r)
    cos = np.select([quad == 0, quad == 1, quad == 2], [c_r, -s_r, -c_r], default=s_r)
    return cos, sin


def lut_sincos(theta, table: SinTable):
    """(cos, sin) of any finite angle; accepts scalars or arrays.

    The sign of theta is stripped before folding so odd/even symmetry is
    bit-exact.  A NaN or infinite angle raises DomainError.
    """
    arr = np.asarray(theta, dtype=float)
    if not (math.isfinite(arr) if arr.ndim == 0 else np.isfinite(arr).all()):
        raise DomainError("angles must be finite")
    cos, sin = _sincos_abs(np.abs(arr), table)
    sin = np.where(np.signbit(arr), -sin, sin)
    if arr.ndim == 0:
        return float(cos), float(sin)
    return cos, sin


def error_profile(table: SinTable, n_samples: int = 1_000_000) -> tuple[float, float]:
    """(max, rms) absolute error over a uniform angle scan of sin and cos."""
    angles = np.linspace(0.0, TWO_PI, n_samples, endpoint=False)
    cos, sin = lut_sincos(angles, table)
    err = np.concatenate([np.abs(sin - np.sin(angles)), np.abs(cos - np.cos(angles))])
    return float(err.max()), float(math.sqrt(np.mean(err**2)))


def sincos_op_count(table: SinTable) -> int:
    """Modeled scalar ops for one (cos, sin) pair through the table."""
    per_lookup = 2 if table.mode == NEAREST else 5
    return 6 + 2 * per_lookup  # folding plus two quarter-wave lookups


def pose_op_count(n_links: int, table: SinTable) -> int:
    """Modeled scalar ops for a full pose through the table."""
    return dh.pose_op_count(n_links, sincos_op_count(table))


def dump_table(table: SinTable, path: str) -> None:
    """Flat binary dump: header then little-endian entries."""
    word = table.fmt.word_bits if table.fmt else 0
    frac = table.fmt.frac_bits if table.fmt else 0
    mode = 0 if table.mode == NEAREST else 1
    with open(path, "wb") as fh:
        fh.write(struct.pack("<6sBBBI", _MAGIC, mode, word, frac, table.n_entries))
        if table.fmt:
            raws = [fx_from_real(v, table.fmt).raw for v in table.values]
            fh.write(struct.pack(f"<{len(raws)}q", *raws))
        else:
            fh.write(table.values.astype("<f8").tobytes())


def load_table(path: str) -> SinTable:
    with open(path, "rb") as fh:
        head = fh.read(struct.calcsize("<6sBBBI"))
        magic, mode, word, frac, n = struct.unpack("<6sBBBI", head)
        if magic != _MAGIC:
            raise ValueError(f"not a table file: bad magic {magic!r}")
        if word:
            fmt = QFormat(word, frac)
            raws = struct.unpack(f"<{n}q", fh.read(8 * n))
            values = np.array([math.ldexp(r, -frac) for r in raws])
        else:
            fmt = None
            values = np.frombuffer(fh.read(8 * n), dtype="<f8").copy()
    values.setflags(write=False)
    return SinTable(n, values, NEAREST if mode == 0 else LINEAR, fmt)
