"""benchmarks/fuzz.py's round loop, on stand-in tests: the long runs
themselves are not part of the suite."""

import importlib.util
import itertools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("fuzz", ROOT / "benchmarks" / "fuzz.py")
fuzz = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fuzz)


def test_rounds_run_until_the_seconds_pass():
    seen = []

    def test_files(tmp_path):
        assert tmp_path.is_dir() and not any(tmp_path.iterdir())
        seen.append(tmp_path)

    # the clock reads 0 s at the start and 1 s later at each round's end: the third round ends at 3 s
    clock = itertools.count(0.0).__next__
    rounds = fuzz.fuzz({"test_plain": lambda: seen.append("plain"), "test_files": test_files}, 3.0, clock=clock)
    assert rounds == 3
    assert seen[::2] == ["plain"] * 3
    dirs = seen[1::2]
    assert len(set(dirs)) == 3 and not any(d.exists() for d in dirs)  # a new one each round, removed


def test_zero_seconds_runs_one_round():
    calls = []
    assert fuzz.fuzz({"test_a": lambda: calls.append(1)}, 0.0, clock=itertools.repeat(0.0).__next__) == 1
    assert calls == [1]


def test_a_failure_stops_the_run_and_names_its_test(capsys):
    def test_breaks():
        raise AssertionError("found")

    with pytest.raises(AssertionError, match="found"):
        fuzz.fuzz({"test_breaks": test_breaks}, 10.0, clock=itertools.count(0.0).__next__)
    assert capsys.readouterr().out == "fuzz: test_breaks failed in round 0\n"
