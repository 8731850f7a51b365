import math
import random
import struct
import sys
import threading
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fkemu import lut
from fkemu.ccm import pose_op_count as cordic_pose_ops
from fkemu.dh import DhJoint, ROTARY, chain_pose
from fkemu.fixedpoint import MAX_ANGLE, DomainError, Q1_15, Q8_24, QFormat
from fkemu.lut import (
    BLOCK,
    LINEAR,
    MAX_ENTRIES,
    NEAREST,
    build_table,
    dump_table,
    error_profile,
    load_table,
    lut_sincos,
    pose_op_count,
)


def test_build_validation():
    with pytest.raises(ValueError):
        build_table(1)
    with pytest.raises(ValueError):
        build_table(48)  # not a power of two
    with pytest.raises(ValueError, match=f"at most {MAX_ENTRIES}, got {2 * MAX_ENTRIES}"):
        build_table(2 * MAX_ENTRIES)
    with pytest.raises(ValueError):
        build_table(64, mode="cubic")


def test_build_smallest_table():
    t = build_table(2)
    assert t.values[0] == 0.0
    assert t.values[1] == pytest.approx(math.sin(math.pi / 4), rel=1e-15)


def test_build_deterministic_and_monotone():
    a = build_table(1024)
    b = build_table(1024)
    assert np.array_equal(a.values, b.values)
    assert np.all(np.diff(a.values) > 0)


def test_quantized_build():
    t = build_table(256, fmt=Q8_24)
    assert t.fmt == Q8_24
    scaled = t.values * 2**24
    assert np.allclose(scaled, np.round(scaled))


def test_sincos_exact_points():
    t = build_table(1024, mode=LINEAR)
    assert lut_sincos(0.0, t) == (1.0, 0.0)
    c, s = lut_sincos(math.pi, t)
    assert abs(c + 1.0) <= t.step
    assert abs(s) <= t.step


def test_sincos_pi_over_four():
    t = build_table(1024, mode=LINEAR)
    c, s = lut_sincos(math.pi / 4, t)
    assert abs(c - 0.7071067811865476) < 3e-6
    assert abs(s - 0.7071067811865476) < 3e-6


ANGLES = st.floats(-MAX_ANGLE, MAX_ANGLE)
MODES = (NEAREST, LINEAR)


def _bits(x):
    # == cannot tell 0.0 from -0.0; the bytes can
    return np.asarray(x, dtype=np.float64).tobytes()


SPECIAL_ANGLES = st.sampled_from([0.0, -0.0, MAX_ANGLE, -MAX_ANGLE, 5e-324, -5e-324])


@settings(max_examples=10, deadline=None)
@given(
    size=st.sampled_from([BLOCK + 1, 2 * BLOCK + 3]),
    mode=st.sampled_from(MODES),
    fmt=st.sampled_from([None, Q1_15]),
    log_n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(ANGLES | SPECIAL_ANGLES, max_size=6),
)
def test_array_equals_scalar_across_blocks(size, mode, fmt, log_n, seed, picks):
    # every angle of a multi-block array against a call on its block alone,
    # on any table; test_providers checks the block ends against one-angle calls
    table = build_table(1 << log_n, fmt=fmt, mode=mode)
    rng = np.random.default_rng(seed)
    flat = rng.uniform(-8 * math.pi, 8 * math.pi, size)
    flat[::5] = rng.integers(-16 * table.n_entries, 16 * table.n_entries, flat[::5].size) * (table.step / 2)
    # drawn angles sit at the ends of blocks, where a block bound (and so a
    # bound between two threads' ranges) would show
    ends = sorted({i for b in range(0, size + BLOCK, BLOCK) for i in (b - 1, b) if 0 <= i < size})
    for i, a in zip(ends, picks):
        flat[i] = a
    cos, sin = lut_sincos(flat, table)
    blocks = [lut_sincos(flat[lo : lo + BLOCK], table) for lo in range(0, size, BLOCK)]
    assert _bits(cos) == _bits(np.concatenate([c for c, _ in blocks]))
    assert _bits(sin) == _bits(np.concatenate([s for _, s in blocks]))


# _split_blocks on a small block, so each split is a few hundred angles:
# sizes at block bounds, with a short last block, and with block counts that
# 2 and 3 workers split unevenly; 9 workers are more than any size has blocks
SPLIT_BLOCK = 64
SPLIT_SIZES = [SPLIT_BLOCK + 1, 2 * SPLIT_BLOCK, 3 * SPLIT_BLOCK, 4 * SPLIT_BLOCK + 1, 7 * SPLIT_BLOCK - 5]
WORKERS = [1, 2, 3, 9]


def _split_cleanly(flat, table, workers):
    """_split_blocks(flat, table, workers), asserting that no thread warned
    or outlived the call and that flat was not written, whether it returned
    or raised."""
    before, threads = flat.tobytes(), threading.active_count()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            return lut._split_blocks(flat, table, workers)
    finally:
        assert caught == []
        assert threading.active_count() == threads
        assert flat.tobytes() == before


@pytest.mark.parametrize("fmt", [None, Q1_15], ids=["float", "q1.15"])
@pytest.mark.parametrize("mode", MODES)
def test_split_blocks_equal_one_worker(monkeypatch, mode, fmt):
    monkeypatch.setattr(lut, "BLOCK", SPLIT_BLOCK)
    table = build_table(256, fmt=fmt, mode=mode)
    rng = np.random.default_rng(31)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads swap as often as the interpreter allows
    try:
        for size in SPLIT_SIZES:
            flat = rng.uniform(-8 * math.pi, 8 * math.pi, size)
            flat[::SPLIT_BLOCK] = -0.0
            flat[SPLIT_BLOCK - 1 :: SPLIT_BLOCK] = MAX_ANGLE
            one = _split_cleanly(flat, table, 1)
            # the one-worker route is one block at a time, as one-block calls give it
            assert _bits(one) == _bits([np.concatenate(half) for half in zip(*(
                lut_sincos(flat[lo : lo + SPLIT_BLOCK], table) for lo in range(0, size, SPLIT_BLOCK)))])
            for workers in WORKERS[1:]:
                assert _bits(_split_cleanly(flat, table, workers)) == _bits(one)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("fmt", [None, Q1_15], ids=["float", "q1.15"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, math.nextafter(MAX_ANGLE, math.inf)])
def test_split_blocks_domain_error_in_any_range(monkeypatch, angle, mode, fmt):
    monkeypatch.setattr(lut, "BLOCK", SPLIT_BLOCK)
    table = build_table(256, fmt=fmt, mode=mode)
    size = 4 * SPLIT_BLOCK + 1  # five blocks, the last of one angle
    # the caller's range, a helper's range for 2 and 3 workers, and the short last block
    for at in (0, 2 * SPLIT_BLOCK + 3, size - 1):
        flat = np.linspace(-MAX_ANGLE, MAX_ANGLE, size)
        flat[at] = angle
        for workers in WORKERS:
            with pytest.raises(DomainError):
                _split_cleanly(flat, table, workers)


@pytest.mark.parametrize("first_bad,raised", [(1, "64"), (2, "128"), (5, "320")])
def test_split_blocks_raise_the_lowest_ranges_error(monkeypatch, first_bad, raised):
    # six blocks in three ranges of two: blocks 1 and on fail in every range,
    # 2 and on in the two helpers' ranges, 5 in the last alone; each error
    # names its block's first angle, which is its index
    monkeypatch.setattr(lut, "BLOCK", SPLIT_BLOCK)
    signed_block = lut._signed_block

    def failing(block, table, sin=None):
        if block[0] >= first_bad * SPLIT_BLOCK:
            raise ValueError(f"{block[0]:.0f}")
        return signed_block(block, table, sin)

    monkeypatch.setattr(lut, "_signed_block", failing)
    with pytest.raises(ValueError, match=f"^{raised}$"):
        _split_cleanly(np.arange(6.0 * SPLIT_BLOCK), build_table(256), 3)


def test_pythagorean_drift():
    for mode in (NEAREST, LINEAR):
        t = build_table(256, mode=mode)
        max_err, _ = error_profile(t, n_samples=100_000)
        rng = random.Random(62)
        for _ in range(200):
            c, s = lut_sincos(rng.uniform(-7, 7), t)
            assert abs(c * c + s * s - 1.0) <= 4 * max_err


def test_error_profile_bounds():
    for n in (64, 256):
        nearest, _ = error_profile(build_table(n, mode=NEAREST), n_samples=200_000)
        linear, _ = error_profile(build_table(n, mode=LINEAR), n_samples=200_000)
        step = (math.pi / 2) / n
        assert nearest <= step
        assert linear <= step**2 / 8
        assert linear < nearest


def test_tiny_table_has_large_error():
    max_err, _ = error_profile(build_table(2, mode=NEAREST), n_samples=50_000)
    assert max_err > 0.25


def test_error_halves_and_quarters():
    n1, _ = error_profile(build_table(256, mode=NEAREST), n_samples=300_000)
    n2, _ = error_profile(build_table(512, mode=NEAREST), n_samples=300_000)
    assert n1 / n2 >= 1.9
    l1, _ = error_profile(build_table(256, mode=LINEAR), n_samples=300_000)
    l2, _ = error_profile(build_table(512, mode=LINEAR), n_samples=300_000)
    assert l1 / l2 >= 3.5


def test_zero_chain_pose_is_exact_identity():
    t = build_table(256, mode=NEAREST)
    chain = [DhJoint(ROTARY, 0, 0, 0, 0)] * 3
    assert np.array_equal(chain_pose(chain, partial(lut_sincos, table=t)), np.eye(4))


def test_pose_matches_oracle_at_high_resolution():
    rng = random.Random(63)
    t = build_table(4096, mode=LINEAR)
    for _ in range(20):
        chain = [
            DhJoint(ROTARY, rng.uniform(-math.pi, math.pi), rng.uniform(-0.3, 0.3),
                    rng.uniform(-0.3, 0.3), rng.uniform(-math.pi, math.pi))
            for _ in range(6)
        ]
        assert np.abs(chain_pose(chain, partial(lut_sincos, table=t)) - chain_pose(chain)).max() < 1e-5


def test_pose_rejects_empty_chain():
    with pytest.raises(ValueError):
        chain_pose([], partial(lut_sincos, table=build_table(64)))


def test_fewer_ops_than_cordic_backend():
    t = build_table(1024, mode=NEAREST)
    assert pose_op_count(6, t) < cordic_pose_ops(6)


def test_dump_load_round_trip(tmp_path):
    for fmt in (None, Q8_24):
        t = build_table(128, fmt=fmt, mode=LINEAR)
        path = tmp_path / f"table_{fmt}.bin"
        dump_table(t, str(path))
        back = load_table(str(path))
        assert back.n_entries == t.n_entries
        assert back.mode == t.mode
        assert back.fmt == t.fmt
        assert np.array_equal(back.values, t.values)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTLUT" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_table(str(path))


formats = st.one_of(
    st.none(),
    st.integers(8, 64).flatmap(lambda w: st.builds(QFormat, st.just(w), st.integers(0, w - 1))),
)


@given(st.integers(1, 10), formats, st.sampled_from([NEAREST, LINEAR]))
def test_dump_load_round_trip_property(tmp_path_factory, log_size, fmt, mode):
    t = build_table(1 << log_size, fmt=fmt, mode=mode)
    path = tmp_path_factory.mktemp("lut") / "table.bin"
    dump_table(t, str(path))
    back = load_table(str(path))
    assert (back.n_entries, back.mode, back.fmt) == (t.n_entries, t.mode, t.fmt)
    assert back.values.tobytes() == t.values.tobytes()


def _header(mode=0, word=0, frac=0, n=4):
    return struct.pack("<6sBBBI", b"FKLUT1", mode, word, frac, n)


@pytest.mark.parametrize("data,message", [
    (_header(mode=7) + bytes(32), "bad mode byte 7"),
    (_header(n=6) + bytes(48), "n_entries must be a power of two, got 6"),
    (_header(n=1) + bytes(8), "n_entries must be >= 2, got 1"),
    (_header(n=0), "n_entries must be >= 2, got 0"),
    (_header(n=1 << 31), "n_entries must be at most 1048576, got 2147483648"),
    (_header()[:9], "truncated header, 9 of 13 bytes"),
    (_header(n=4) + bytes(20), "body has 20 bytes, 4 entries take 32"),
    (_header(word=32, frac=24, n=4) + bytes(31), "body has 31 bytes"),
    (_header(n=4) + bytes(40), "body has 40 bytes"),
    (_header(word=5, frac=2) + bytes(32), "word_bits must be in 8..64, got 5"),
    (_header(word=16, frac=16) + bytes(32), "frac_bits must be in 0..15, got 16"),
    (_header(frac=3) + bytes(32), "a float table has 0 fraction bits, got 3"),
], ids=["mode-7", "entries-6", "entries-1", "entries-0", "entries-2^31", "short-header", "short-body",
        "short-fixed-body", "long-body", "word-5", "frac-too-wide", "float-with-frac"])
def test_load_rejects_corrupt_files(tmp_path, data, message):
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=message):
        load_table(str(path))

