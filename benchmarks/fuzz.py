#!/usr/bin/env python3
"""Long runs of the fuzz properties in tests/test_cli_fuzz.py.

    python benchmarks/fuzz.py --seconds N

Runs every hypothesis test of tests/test_cli_fuzz.py (cli.main on all four
subcommands, and the library entry points under it) in rounds until N
seconds have passed, at least one round.  Each round runs each test at its
own example count on fresh random draws.  RuntimeWarnings are errors, as
in the test suite, and no example database is read or written.

Prints one line per round and a summary; exits 0 when every round passed,
and 1 on the first failure, after hypothesis' falsifying example, the
@reproduce_failure line that replays it, and the traceback.  A failure is
a finding: fix the CLI or the library, never the test.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]


def load_tests() -> dict:
    """{name: test} of tests/test_cli_fuzz.py's hypothesis tests."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    # the tests' own settings keep their example counts; this profile,
    # loaded before they are decorated, fills in the rest
    settings.register_profile("fuzz", database=None, print_blob=True)
    settings.load_profile("fuzz")
    import test_cli_fuzz

    return {name: test for name, test in vars(test_cli_fuzz).items()
            if name.startswith("test_") and hasattr(test, "hypothesis")}


def fuzz(tests: dict, seconds: float, clock=time.monotonic) -> int:
    """Run rounds of tests until seconds have passed; returns the rounds
    run.  A test that takes tmp_path gets a new temporary directory each
    round.  A failing test's exception propagates."""
    start, rounds, elapsed = clock(), 0, 0.0
    while rounds == 0 or elapsed < seconds:
        for name, test in tests.items():
            with tempfile.TemporaryDirectory(prefix="fkemu-fuzz-") as tmp:
                kwargs = {"tmp_path": Path(tmp)} if "tmp_path" in inspect.signature(test).parameters else {}
                try:
                    test(**kwargs)
                except Exception:
                    print(f"fuzz: {name} failed in round {rounds}", flush=True)
                    raise
        rounds, elapsed = rounds + 1, clock() - start
        print(f"round {rounds - 1} passed, {elapsed:.1f} s", flush=True)
    return rounds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seconds", type=float, required=True, help="run rounds until this many seconds have passed")
    args = p.parse_args(argv)
    tests = load_tests()
    warnings.simplefilter("error", RuntimeWarning)
    try:
        rounds = fuzz(tests, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    print(f"fuzz: {rounds} rounds of {', '.join(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
