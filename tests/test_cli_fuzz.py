"""cli.main driven in-process on all four subcommands with random options
and random chain files: every run ends in a documented exit code, with no
exception, no warning, and the output contract of a failed or a good bench.
The library entry points under it take the same numbers as ChainSets: each
call raises only DomainError or ValueError, warns of nothing, and returns
only finite numbers.
"""

import contextlib
import io
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fkemu import cli
from fkemu.ccm import ccm_poses
from fkemu.cordic import CordicConfig
from fkemu.dh import PRISMATIC, ROTARY, ChainSet, DhJoint, chain_poses, provider_links
from fkemu.fixedpoint import DomainError, QFormat
from test_providers import PROVIDERS

# signed zeros, the largest double's neighbourhood, the angle domain's edge
# and subnormals, then non-finite values, as a chain file or argv spells them
FINITE_EDGES = ["-0.0", "1e308", "-1e308", "1048576", "1048577", "5e-324", "-5e-324"]
EDGES = FINITE_EDGES + ["nan", "inf", "-inf"]


def numbers(edges, lo=-4.0):
    """A float in [lo, 4] seven times in eight, else one of edges."""
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(edges) if k == 0 else st.floats(lo, 4.0).map(repr))


def pick(clean, good, bad):
    """One of good, or, unless clean, of good and bad alike."""
    return st.sampled_from(good if clean else good + bad)


@st.composite
def chain_text(draw, clean):
    """1-5 joints, perhaps a name and a point line; unless clean, also no
    joints, bad kinds, non-finite numbers, stray lines and wrong field counts."""
    nums = numbers(FINITE_EDGES if clean else EDGES)
    lines = []
    if draw(st.booleans()):
        lines.append(draw(pick(clean, ["name arm", "# comment"], ["name", "name a b", "bogus 1 2"])))
    for _ in range(draw(st.integers(1 if clean else 0, 5))):
        kind, n_fields = draw(pick(clean, ["R", "P"], ["X", ""])), draw(pick(clean, [4], [3, 5]))
        lines.append(" ".join(["joint", kind, *draw(st.lists(nums, min_size=n_fields, max_size=n_fields))]))
    if draw(st.booleans()):
        n_fields = draw(pick(clean, [3], [2, 4]))
        point = " ".join(["point", *draw(st.lists(nums, min_size=n_fields, max_size=n_fields))])
        lines.insert(draw(st.integers(0, len(lines))), point)
    return "\n".join(lines) + "\n"


def options(draw, table, required=()):
    """The flags in required and any others of table (flag -> strategy of
    its argv values, None for a flag alone), as argv."""
    argv = []
    for flag, values in table.items():
        if flag in required or draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is None else [flag, *value] if isinstance(value, list) else [flag, value]
    return argv


@st.composite
def argvs(draw, chain_path, clean):
    backend_opts = {
        "--iters": pick(clean, ["24", "12", "8"], ["1", "0", "-1", "26", "40"]),
        "--table-size": pick(clean, ["1024", "64", "2"], ["48", "1", str(1 << 21)]),
        "--table-mode": pick(clean, ["nearest", "linear"], ["cubic"]),
        "--format": pick(clean, ["Q8.24", "Q16.40"], ["Q4.12", "Q1.15", "Q0.8", "Q1.63", "x"]),
    }
    names = pick(clean, ["cordic", "taylor", "lut", "matrix"], [" lut", "", "fft"])
    command = draw(st.sampled_from(["solve", "bench", "pipeline", "vm"]))
    if command == "solve":
        return ["solve", chain_path, *options(draw, {"--backend": names, **backend_opts})]
    if command == "bench":
        return ["bench", chain_path, *options(draw, {
            "--backends": st.lists(names, min_size=1, max_size=4).map(",".join),
            "--trials": pick(clean, ["1", "3", "16"], ["0", "-1", str(cli.MAX_LINK_TRIALS + 1)]),
            "--seed": pick(clean, ["0", "7"], ["-1"]),
            **backend_opts,
        })]
    if command == "pipeline":
        return ["pipeline", *options(draw, {"--links": pick(clean, ["1", "6"], ["0", "-1", "x"])})]
    nums = numbers(FINITE_EDGES if clean else EDGES)
    return ["vm", *options(draw, {
        "--angles": st.lists(nums, min_size=4, max_size=4),
        "--params": st.lists(nums, min_size=5 if clean else 4, max_size=5),
        "--half-sized": st.none(),
        "--sincos-cycles": pick(clean, ["1", "3"], ["0", "-1"]),
        "--clock-mhz": pick(clean, ["10.3", "1e308", "5e-324"], ["0", "-0.0", "nan", "inf"]),
        "--dump-program": st.none(),
    }, required=["--angles"] if clean else [])]


def run(argv):
    """(exit code, stdout, stderr) of cli.main(argv), with every warning an
    error; argparse's rejection of an option exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(clean=st.booleans(), data=st.data())
def test_cli_ends_in_an_exit_code_with_its_output_contract(tmp_path, clean, data):
    # half the runs draw only what the CLI accepts, so most of them get past the parsers
    chain = tmp_path / "fuzz.chain"
    chain.write_text(data.draw(chain_text(clean)), encoding="utf-8")
    argv = data.draw(argvs(str(chain), clean))
    code, out, err = run(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == "" and "nan" not in out and "inf" not in out
    elif argv[0] in ("solve", "bench"):
        assert out == ""
        # argparse prints its usage above the one line that says what is wrong
        assert err.count("\n") == 1 or err.startswith("usage: ")
        assert err.splitlines()[-1].startswith("fkemu")
    if clean and argv[0] == "vm":
        assert code != 2  # every number a clean vm run draws is a float, "-1e-05" included
    if argv[0] == "bench" and code == 0:
        names = [b.strip() for b in (argv[argv.index("--backends") + 1] if "--backends" in argv
                                     else "cordic,taylor,lut").split(",") if b.strip()]
        rows = out.splitlines()
        assert rows[0] == cli.CSV_HEADER
        assert [row.split(",")[0] for row in rows[1:]] == names


QFORMATS = [(32, 24), (56, 40), (16, 12), (8, 0), (8, 4), (64, 63), (4, 2)]  # (word_bits, frac_bits)


@st.composite
def chain_sets(draw):
    """1-4 chains of 1-5 joints each, every number as a chain file may spell it."""
    nums = numbers(EDGES).map(float)
    n_links = draw(st.integers(1, 5))
    return ChainSet.of([[DhJoint(draw(st.sampled_from([ROTARY, PRISMATIC])), *draw(st.lists(nums, min_size=4, max_size=4)))
                         for _ in range(n_links)] for _ in range(draw(st.integers(1, 4)))])


def checked(call, *args):
    """call(*args), if it returns: every number it gives is finite, and no
    warning was raised; DomainError and ValueError are its only exceptions."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = call(*args)
        except (DomainError, ValueError):
            return
    for part in got if isinstance(got, tuple) else (got,):
        assert np.isfinite(part).all(), (call, args)


@settings(max_examples=100, deadline=None)
@given(chains=chain_sets(), cfg=st.tuples(st.integers(1, 40), st.sampled_from(QFORMATS)),
       names=st.lists(st.sampled_from(sorted(PROVIDERS)), min_size=1, max_size=3))
# found by this test: provider_links assembled an infinite link constant into its links
@example(chains=ChainSet.of([[DhJoint(ROTARY, 0.0, 0.0, math.inf, 0.0)]]), cfg=(24, (32, 24)), names=["cordic"])
def test_library_entry_points_raise_only_domain_errors(chains, cfg, names):
    # the pose routes and every contract provider on the chains the CLI fuzz draws
    providers = [PROVIDERS[name].sincos for name in names]
    checked(lambda: ccm_poses(chains, CordicConfig(cfg[0], QFormat(*cfg[1]))))
    checked(chain_poses, chains)
    checked(chain_poses, chains, providers[0])
    checked(provider_links, chains, providers)
    angles = np.array([chains.theta, chains.alpha])
    for sincos in providers:
        checked(sincos, angles)
        checked(sincos, float(angles.flat[0]))
