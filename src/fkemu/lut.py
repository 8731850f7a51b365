"""Quarter-wave sine lookup tables with quadrant folding.

The table stores sin over [0, pi/2) only; every other angle folds onto it
through exact sign/swap identities, and cosine reads the complementary
entry.  Power-of-two sizes keep index extraction a shift.  Nearest-entry
and linearly interpolated lookups both ship, since their accuracy/cost
trade is the whole point of the backend.

On arrays the emulator runs the lookup in blocks of BLOCK angles and
reads a table padded with the virtual endpoint sin(pi/2) = 1, so a lookup
is a plain gather.  An array of at most BLOCK angles is one block,
returned in the arrays its unfold makes, with no output buffers to fill
and no copy.  A longer array is split into contiguous ranges of blocks,
one per CPU the process may run on: the caller runs the first range and a
thread of a pool made inside the call each other one, all writing their
slices of two preallocated outputs, since numpy releases the GIL inside
each ufunc and gather.  Every thread is joined before the call returns.
None of this changes the arithmetic emulated: every output is the same
IEEE operations on the same operands as a one-angle call, bit for bit,
whatever the number of threads.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import dh
from .fixedpoint import HALF_PI, TWO_PI, QFormat, fold_angle, frozen, lanes_from_real, lanes_real, quarter_turns
from .fixedpoint import sincos_provider

NEAREST = "nearest"
LINEAR = "linear"

_MAGIC = b"FKLUT1"
_HEADER = struct.Struct("<6sBBBI")  # magic, mode byte, word bits, fraction bits, entries
_MODES = (NEAREST, LINEAR)  # mode byte -> mode
# 8 MB of float64; a linear table this size is off by step**2/8, about 3e-13
MAX_ENTRIES = 1 << 20
# angles per block of an array call: at 8192 each numpy call is so short that
# two threads ran slower than one; at 65536 one thread is slower than at 32768
BLOCK = 32768


@dataclass(frozen=True)
class SinTable:
    """Immutable quarter-wave table; safe for concurrent readers.

    The grid is stored once, padded with the virtual endpoint
    sin(pi/2) = 1.0; values is a read-only view of its first n_entries.
    A linear table also stores deltas[k] = padded[k+1] - padded[k], the
    same subtraction its interpolation did per lookup.
    """

    n_entries: int
    values: np.ndarray  # sin(k * (pi/2)/n_entries), quantized at build time
    mode: str
    fmt: QFormat | None = None
    padded: np.ndarray = field(init=False, repr=False, compare=False)
    deltas: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        padded = frozen(np.concatenate([self.values, [1.0]]))
        deltas = frozen(padded[1:] - padded[:-1]) if self.mode == LINEAR else None
        object.__setattr__(self, "values", padded[:-1])
        object.__setattr__(self, "padded", padded)
        object.__setattr__(self, "deltas", deltas)

    @property
    def step(self) -> float:
        return HALF_PI / self.n_entries


def build_table(n_entries: int, fmt: QFormat | None = None, mode: str = NEAREST) -> SinTable:
    """Build a quarter-wave sine table; deterministic for fixed inputs."""
    _check_entries(n_entries)
    if mode not in _MODES:
        raise ValueError(f"bad mode {mode!r}")
    grid = np.sin(np.arange(n_entries) * (HALF_PI / n_entries))
    if fmt is not None:
        grid = lanes_real(lanes_from_real(grid, fmt), fmt)
    return SinTable(n_entries, grid, mode, fmt)


def _check_entries(n_entries: int) -> None:
    if n_entries < 2:
        raise ValueError(f"n_entries must be >= 2, got {n_entries}")
    if n_entries & (n_entries - 1):
        raise ValueError(f"n_entries must be a power of two, got {n_entries}")
    if n_entries > MAX_ENTRIES:
        raise ValueError(f"n_entries must be at most {MAX_ENTRIES}, got {n_entries}")


def _sin_quarter(u, table: SinTable):
    """sin(u) for u in [0, pi/2], with sin(pi/2) = 1 as a virtual endpoint.

    The endpoint is the padded table's last entry, so neither lookup needs
    a select: nearest gathers entry rint(u/step), and linear gathers the
    entry and delta at idx = min(floor(u/step), n_entries - 1) and adds
    delta * frac.  These are the operands and the IEEE operations of
    entry + (next - entry) * frac with next = 1.0 past the grid, so the
    bits are the same.
    """
    pos = u / table.step
    if table.mode == NEAREST:
        return table.padded.take(np.rint(pos).astype(np.intp))
    idx = np.minimum(np.floor(pos), table.n_entries - 1)  # a float, so pos - idx needs no cast
    lane = idx.astype(np.intp)
    return table.padded.take(lane) + table.deltas.take(lane) * (pos - idx)


def _signed_block(block: np.ndarray, table: SinTable, sin=None):
    """(cos, sin) of one block of angles: folded by fold_angle, looked up in
    the quarter table, unfolded by quarter_turns, and the sine given the
    sign of theta, written into sin if given, else into the unfold's own
    array."""
    quad, r = fold_angle(np.abs(block))
    c, s = quarter_turns(quad, _sin_quarter(HALF_PI - r, table), _sin_quarter(r, table))
    # times -1.0 is negation, bit for bit: the sign of a negative theta, -0.0 included
    return c, np.multiply(s, np.copysign(1.0, block), out=s if sin is None else sin)


@sincos_provider
def lut_sincos(theta, table: SinTable):
    """(cos, sin) of flat angles within +-MAX_ANGLE.

    The sign of theta is stripped before folding so odd/even symmetry is
    bit-exact.  Any angle beyond MAX_ANGLE, NaN or infinite raises
    DomainError.  The angles run in blocks of BLOCK, each folded, looked
    up, unfolded and signed by _signed_block; a scalar is a block of one.
    At most BLOCK angles are one block, whose outputs are the arrays the
    unfold returns; more run on every CPU of the process by _split_blocks.
    """
    if theta.size <= BLOCK:
        return _signed_block(theta, table)
    return _split_blocks(theta, table, _cpus())


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split_blocks(flat: np.ndarray, table: SinTable, workers: int):
    """(cos, sin) of a flat array's blocks, split into at most workers
    contiguous ranges of blocks.  The caller runs the first range and a
    pool thread each other one, each writing its slices of two new arrays;
    the pool is made and shut down inside the call, so every thread is
    joined before return, and one worker starts none.  An error in the
    caller's range propagates as it is, else the lowest helper range's
    error is raised, so a DomainError surfaces from the first range that
    has one."""
    cos, sin = np.empty_like(flat), np.empty_like(flat)
    n_blocks = -(-flat.size // BLOCK)
    workers = min(workers, n_blocks)
    bounds = [n_blocks * k // workers * BLOCK for k in range(workers + 1)]

    def fill(k):
        for lo in range(bounds[k], bounds[k + 1], BLOCK):
            cos[lo : lo + BLOCK], _ = _signed_block(flat[lo : lo + BLOCK], table, sin[lo : lo + BLOCK])

    # imported on the first multi-block call, not at the top: that import
    # (logging with it) costs each fkemu process ~5 ms of start-up and
    # ~0.4 MB, and read as ~2% on chain12-bench requests (2-vCPU VM)
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        helpers = [pool.submit(fill, k) for k in range(1, workers)]
        fill(0)
    for h in helpers:
        h.result()
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
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _MODES.index(table.mode), word, frac, table.n_entries))
        if table.fmt:
            fh.write(lanes_from_real(table.values, table.fmt).astype("<i8").tobytes())
        else:
            fh.write(table.values.astype("<f8").tobytes())


def load_table(path: str) -> SinTable:
    """Read a dump_table file back.  Raises ValueError, saying what is wrong,
    for any file dump_table cannot have written: a bad magic, mode byte,
    Q format or entry count, or a header or body of the wrong length."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise ValueError(f"{path}: truncated header, {len(data)} of {_HEADER.size} bytes")
    magic, mode, word, frac, n = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError(f"not a table file: bad magic {magic!r}")
    if mode >= len(_MODES):
        raise ValueError(f"{path}: bad mode byte {mode}, expected 0 ({NEAREST}) or 1 ({LINEAR})")
    if not word and frac:
        raise ValueError(f"{path}: a float table has 0 fraction bits, got {frac}")
    try:
        _check_entries(n)
        fmt = QFormat(word, frac) if word else None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    body = data[_HEADER.size :]
    if len(body) != 8 * n:
        raise ValueError(f"{path}: body has {len(body)} bytes, {n} entries take {8 * n}")
    if fmt:
        values = lanes_real(np.frombuffer(body, dtype="<i8"), fmt)
    else:
        values = np.frombuffer(body, dtype="<f8")
    return SinTable(n, values, _MODES[mode], fmt)
