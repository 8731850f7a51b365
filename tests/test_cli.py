import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fkemu import cli
from fkemu.cli import ChainParseError, load_chain, main, parse_chain, parse_qformat
from fkemu.dh import PRISMATIC, ROTARY, ChainSet, DhJoint, chain_pose, puma_chain
from fkemu.fixedpoint import QFormat
from fkemu.lut import MAX_ENTRIES

IDENTITY_CHAIN = "joint R 0 0 0 0\n"

DEMO = """\
# little two-joint arm
name demo
joint R 0.4 0.1 0.2 -0.9
joint P 0.0 0.3 0.0 0.5
point 0.1 0.0 0.2
"""

THREE_LINK = """\
name three
joint R 0.3 0.12 0.25 -0.7
joint P 0.0 0.4 0.0 1.2
joint R -0.5 0.05 0.18 0.0
"""

# Exact stdout of `fkemu bench` for a fixed seed: any change to the emulated
# arithmetic, the op-count formulas or the CSV format shows up here.
GOLDEN_PUMA = """\
backend,max_err,rms_err,ops_per_pose,model_latency_us,params
matrix,0.000000e+00,0.000000e+00,720,0.000000e+00,
cordic,2.117570e-06,7.354756e-07,9312,6.000000e+02,iters=24;fmt=Q8.24
taylor,1.789409e-04,7.324584e-05,1152,0.000000e+00,terms=8;fmt=Q1.15
lut,1.215902e-03,4.037456e-04,828,0.000000e+00,entries=1024;mode=nearest
"""

GOLDEN_THREE_LINK = """\
backend,max_err,rms_err,ops_per_pose,model_latency_us,params
matrix,0.000000e+00,0.000000e+00,360,0.000000e+00,
cordic,1.268663e-06,4.022525e-07,4656,3.600000e+02,iters=24;fmt=Q8.24
taylor,7.656835e-05,2.924809e-05,576,0.000000e+00,terms=8;fmt=Q1.15
lut,9.276967e-07,2.985451e-07,450,0.000000e+00,entries=1024;mode=linear
"""


# link constants whose pose leaves float64: the oracle's product overflows
OVERFLOW_CHAIN = """\
joint R 0.1 1e308 1e308 0.3
joint R 0.2 1e308 1e308 0.5
"""


def write_chain(tmp_path, text, name="chain.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_chain_full():
    cf = parse_chain(DEMO, "demo")
    assert cf.name == "demo"
    assert len(cf.joints) == 2
    assert cf.joints[0].kind == "rotary"
    assert cf.joints[1].kind == "prismatic"
    assert cf.point == (0.1, 0.0, 0.2)


finite = st.floats(allow_nan=False, allow_infinity=False)
comments = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=12)
joints = st.builds(DhJoint, st.sampled_from([ROTARY, PRISMATIC]), finite, finite, finite, finite)


def chain_text(draw, name, joint_list, point):
    """A chain file as a user might write it: repr floats, any spacing,
    full-line and trailing comments, blank lines."""
    def line(*tokens):
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        trailing = draw(st.one_of(st.just(""), comments.map(lambda c: " #" + c)))
        return sep.join(tokens) + trailing

    lines = [line("name", name)]
    for j in joint_list:
        kind = "R" if j.kind == ROTARY else "P"
        lines.append(line("joint", kind, *(repr(v) for v in (j.theta, j.d, j.a, j.alpha))))
    if point is not None:
        lines.append(line("point", *(repr(v) for v in point)))
    out = []
    for text in lines:
        out += draw(st.lists(st.one_of(st.just(""), comments.map(lambda c: "#" + c)), max_size=2))
        out.append(text)
    return "\n".join(out) + draw(st.sampled_from(["", "\n"]))


@given(
    st.text(st.characters(whitelist_categories=("L", "N"), whitelist_characters="_-."), min_size=1, max_size=10),
    st.lists(joints, min_size=1, max_size=6),
    st.one_of(st.none(), st.tuples(finite, finite, finite)),
    st.data(),
)
def test_parse_chain_round_trip(name, joint_list, point, data):
    cf = parse_chain(chain_text(data.draw, name, joint_list, point))
    assert cf.name == name
    # repr, so that -0.0 has to come back as -0.0
    assert repr(cf.joints) == repr(tuple(joint_list))
    assert repr(cf.point) == repr(point)


def test_parse_errors_carry_line_and_column():
    with pytest.raises(ChainParseError) as e:
        parse_chain("joint Q 0 0 0 0\n", "f")
    assert e.value.line == 1 and e.value.col == 7
    with pytest.raises(ChainParseError) as e:
        parse_chain("joint R 0 zero 0 0\n", "f")
    assert e.value.line == 1
    with pytest.raises(ChainParseError) as e:
        parse_chain("# only comments\n", "f")
    assert e.value.line == 1
    with pytest.raises(ChainParseError):
        parse_chain("joint R 0 0 0\n", "f")  # too few numbers
    with pytest.raises(ChainParseError):
        parse_chain("joint R nan 0 0 0\n", "f")
    with pytest.raises(ChainParseError):
        parse_chain("pivot R 0 0 0 0\n", "f")
    # a column is where its token starts, not where its text first appears
    for text, col in [("joint R 1 2 3 n\n", 15), ("point 1 t 1\n", 9)]:
        with pytest.raises(ChainParseError) as e:
            parse_chain(text, "f")
        assert (e.value.line, e.value.col) == (1, col)
    # extra fields are errors at the first extra token
    extra = [
        ("joint R 0.1 0.2 0.3 0.4 0.5\n", 25),
        ("point 1 2 3 4\n", 13),
        ("point 11 1 1 1\n", 14),
        ("name a b  # c\n", 8),
    ]
    for text, col in extra:
        with pytest.raises(ChainParseError) as e:
            parse_chain(IDENTITY_CHAIN + text, "f")
        assert (e.value.line, e.value.col) == (2, col)
    with pytest.raises(ChainParseError) as e:
        parse_chain("point 1 2\t\n", "f")  # too few: one past the line's end, as before
    assert e.value.col == 10


@pytest.mark.parametrize("text, msg", [
    ("name a b\n", "f:2:8: name takes 1 field"),
    ("joint R 0.1 0.2 0.3 0.4 0.5\n", "f:2:25: joint takes 5 fields"),
    ("point 1 2 3 4\n", "f:2:13: point takes 3 fields"),
])
def test_extra_field_message_counts_in_the_right_number(text, msg):
    with pytest.raises(ChainParseError) as e:
        parse_chain(IDENTITY_CHAIN + text, "f")
    assert str(e.value) == msg


def test_load_chain_missing_file():
    with pytest.raises(ChainParseError):
        load_chain("/nonexistent/anywhere.chain")


def test_builtin_demo_chain():
    cf = load_chain("puma560")
    assert cf.name == "puma560"
    assert cf.joints == tuple(puma_chain([0.0] * 6, cli.PUMA560))
    assert cf.point == (0.0, 0.0, 0.0)


def test_parse_qformat():
    assert parse_qformat("Q8.24") == QFormat(32, 24)
    assert parse_qformat("q1.15") == QFormat(16, 15)
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_qformat("wide")


@pytest.mark.parametrize("backend", ["matrix", "cordic", "taylor", "lut"])
def test_solve_identity_chain(tmp_path, capsys, backend):
    path = write_chain(tmp_path, IDENTITY_CHAIN)
    assert main(["solve", path, "--backend", backend]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines()[2:6]]
    pose = np.array([[float(v) for v in row] for row in rows])
    assert np.abs(pose - np.eye(4)).max() < 1e-4


def test_solve_puma_cordic_deviation(tmp_path, capsys):
    assert main(["solve", "puma560", "--backend", "cordic"]) == 0
    out = capsys.readouterr().out
    dev = float(out.split("max deviation vs matrix oracle:")[1].split()[0])
    assert dev <= 1e-4


def test_solve_malformed_file_exits_2(tmp_path, capsys):
    path = write_chain(tmp_path, "joint R broken 0 0 0\n")
    assert main(["solve", path]) == 2
    assert "bad number" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # no numpy RuntimeWarning gets out
def test_solve_domain_error_exits_3(tmp_path, capsys):
    path = write_chain(tmp_path, OVERFLOW_CHAIN)
    for backend in cli.BACKENDS:
        assert main(["solve", path, "--backend", backend]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "fkemu: domain error: oracle pose is not finite in float64\n"
    # a finite pose can still carry a point past float64: 1.7e308 * sqrt(2)
    path = write_chain(tmp_path, f"joint R {math.pi / 4!r} 0 0 0\npoint 1.7e308 1.7e308 0\n")
    assert main(["solve", path]) == 3
    assert capsys.readouterr() == ("", "fkemu: domain error: transformed point is not finite in float64\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, err", [
    (OVERFLOW_CHAIN, "oracle pose is not finite in float64"),
    # the poses stay finite, but a squared error of ~1e195 does not
    (OVERFLOW_CHAIN.replace("1e308", "1e200"), "taylor error is not finite in float64"),
], ids=["oracle-overflows", "rms-overflows"])
def test_bench_non_finite_numbers_exit_3(tmp_path, capsys, text, err):
    path = write_chain(tmp_path, text)
    assert main(["bench", path, "--backends", "taylor,lut"]) == 3
    out, got = capsys.readouterr()
    assert "nan" not in out and "inf" not in out
    assert got == f"fkemu: domain error: {err}\n"


@pytest.mark.parametrize("text, backends", [
    ("joint R 0.3 0.1 0.2 3e6\n", "matrix,taylor"),  # an alpha past MAX_ANGLE
    ("joint R 0.3 200.0 0.0 0.2\n", "matrix,cordic"),  # a link beyond the cascade's reach
], ids=["taylor-angle", "cordic-reach"])
def test_failed_bench_prints_nothing(tmp_path, capsys, text, backends):
    # every pose and error is computed before the first line, so no header
    # or matrix row is left behind a domain error
    path = write_chain(tmp_path, text)
    assert main(["bench", path, "--backends", backends]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fkemu: domain error:") and err.count("\n") == 1


def test_reach_fault_names_one_point_however_many_lanes_fail(tmp_path, capsys):
    # the link fails on every trial's origin lane: the error names the first
    # one's point and counts the rest, in one short line
    path = write_chain(tmp_path, "joint R 0.3 200.0 0.0 0.2\n")
    assert main(["bench", path, "--backends", "cordic", "--trials", "1000"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fkemu: domain error: link 0 can saturate Q8.24 at n_iter 24: reach must be at most")
    assert err.endswith("on point [0.0, 0.0, 0.0, 1.0], the first of 1000 failing lanes\n")
    assert len(err.encode()) < 300


def test_cordic_link_beyond_format_exits_3(tmp_path, capsys):
    path = write_chain(tmp_path, "joint R 0.3 200.0 0.0 0.2\n")
    assert main(["solve", path, "--backend", "cordic"]) == 3
    captured = capsys.readouterr()
    assert "domain error" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cordic_reach_below_the_top_exits_3(tmp_path, capsys):
    # at 2 iterations Q8.0's 1/K rounds to 1, so CIRC2 would pin x = 100
    # at the format's top; the link fails the config's reach limit instead
    path = write_chain(tmp_path, "joint R 0 0 100 0\n")
    assert main(["solve", path, "--backend", "cordic", "--format", "Q8.0", "--iters", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fkemu: domain error: link 0 can saturate Q8.0 at n_iter 2: reach must be at most 31.9")


def test_cordic_angle_fault_reported_before_reach_fault(tmp_path, capsys):
    # the cascade folds every joint angle before the first module checks its
    # reach, so the last link's reach fault, met first in the cascade, loses
    path = write_chain(tmp_path, "joint R 1e15 0 0.1 0\njoint R 0.3 200.0 0.0 0.2\n")
    assert main(["solve", path, "--backend", "cordic"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("fkemu: domain error: |angle| must be finite")
    assert captured.out == ""


@pytest.mark.parametrize("backend", ["cordic", "taylor", "lut"])
def test_joint_angle_beyond_domain_exits_3(tmp_path, capsys, backend):
    path = write_chain(tmp_path, "joint R 1e15 0 0.1 0\n")
    assert main(["solve", path, "--backend", backend]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("fkemu: domain error:")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_bench_deterministic_and_orderings(tmp_path, capsys):
    assert main(["bench", "puma560", "--trials", "6", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["bench", "puma560", "--trials", "6", "--seed", "9"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical under a fixed seed
    rows = {line.split(",")[0]: line.split(",") for line in first.strip().splitlines()[1:]}
    assert int(rows["lut"][3]) < int(rows["cordic"][3])
    assert float(rows["cordic"][1]) < float(rows["lut"][1])


def test_bench_different_seed_changes_output(capsys):
    assert main(["bench", "puma560", "--trials", "4", "--seed", "1"]) == 0
    a = capsys.readouterr().out
    assert main(["bench", "puma560", "--trials", "4", "--seed", "2"]) == 0
    b = capsys.readouterr().out
    assert a != b


def test_bench_csv_golden(tmp_path, capsys):
    backends = ["--backends", "matrix,cordic,taylor,lut"]
    assert main(["bench", "puma560", *backends, "--trials", "4", "--seed", "3"]) == 0
    assert capsys.readouterr().out == GOLDEN_PUMA
    path = write_chain(tmp_path, THREE_LINK)
    argv = ["bench", path, *backends, "--table-mode", "linear", "--trials", "4", "--seed", "5"]
    assert main(argv) == 0
    assert capsys.readouterr().out == GOLDEN_THREE_LINK


@pytest.mark.parametrize("argv", [
    ["bench", "puma560", "--trials", "0"],
    ["bench", "puma560", "--trials", "-2"],
    ["bench", "puma560", "--trials", "1000000000000000"],  # rejected before any array is allocated
    ["vm", "--angles", "0", "0", "0", "0", "--clock-mhz", "0"],
    ["vm", "--angles", "0", "0", "0", "0", "--clock-mhz", "nan"],
    ["vm", "--angles", "0", "0", "0", "0", "--clock-mhz", "inf"],
    ["vm", "--angles", "0", "0", "0", "0", "--sincos-cycles", "-3"],
    # rejected before the table is allocated, whichever backends run
    ["bench", "puma560", "--backends", "lut", "--table-size", str(2 * MAX_ENTRIES)],
    ["bench", "puma560", "--backends", "matrix", "--table-size", str(2 * MAX_ENTRIES)],
], ids=["trials-0", "trials-negative", "trials-past-the-bound", "clock-0", "clock-nan", "clock-inf", "sincos-cycles-negative", "lut-table-2^21", "matrix-table-2^21"])
def test_bad_numeric_input_exits_2(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fkemu: ") and "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["vm", "--angles", "nan", "0", "0", "0"],
    ["vm", "--angles", "0", "0", "inf", "0"],
    ["vm", "--angles", "0", "0", "0", "0", "--params", "0.05", "0.04", "0.03", "nan", "0.02"],
    ["vm", "--angles", "0", "1e308", "1e308", "0"],  # t2 + t3 overflows
    ["vm", "--angles", "0", "0", "0", "0", "--params", "1e308", "1e308", "1e308", "1e308", "1e308"],
    ["vm", "--angles", "0", "0", "0", "0", "--clock-mhz", "5e-324"],  # 30 cycles take inf us
    ["vm", "--angles", "-inf", "0", "0", "0"],  # argparse alone would take these for options
    ["vm", "--angles", "0", "0", "0", "0", "--params", "0.05", "0.04", "0.03", "0.025", "-nan"],
    ["vm", "--angles", "0", "-1e308", "-1E308", "0"],
], ids=["vm-nan-angle", "vm-inf-angle", "vm-nan-param", "vm-angle-sum-overflow", "vm-pose-overflow", "vm-time-overflow",
        "vm-negative-inf-angle", "vm-negative-nan-param", "vm-negative-angle-sum-overflow"])
def test_vm_non_finite_input_exits_3(capsys, argv):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("fkemu: domain error:") and err.count("\n") == 1


def test_solve_past_the_link_bound_exits_2(capsys, monkeypatch):
    # solve is one trial of the chain's links; a small bound keeps the test fast
    monkeypatch.setattr(cli, "MAX_LINK_TRIALS", 5)
    assert main(["solve", "puma560"]) == 2
    assert capsys.readouterr() == ("", "fkemu: trials times links must be at most 5, got 1 x 6\n")


@pytest.mark.parametrize("links", ["0", "-3"])
def test_pipeline_without_links_exits_2(capsys, links):
    assert main(["pipeline", "--links", links]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"fkemu: --links must be >= 1, got {links}\n"


def test_bench_rejects_unknown_backend(capsys):
    for backends, err in [  # an unknown name, or none at all
        ("matrix,warp", "--backends: unknown backend 'warp', expected some of matrix,cordic,taylor,lut"),
        (",", "--backends names no backend"),
        ("", "--backends names no backend"),
    ]:
        assert main(["bench", "puma560", "--backends", backends]) == 2
        assert capsys.readouterr() == ("", f"fkemu: {err}\n")


def test_parser_is_built_once_and_reused(capsys):
    cli.build_parser.cache_clear()
    assert main(["bench", "puma560"]) == 0
    first = capsys.readouterr().out
    assert main(["bench", "puma560", "--trials", "3", "--table-mode", "linear"]) == 0
    assert capsys.readouterr().out != first
    assert main(["bench", "puma560"]) == 0
    assert capsys.readouterr().out == first  # no option of the last call lingers
    assert cli.build_parser() is cli.build_parser()


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 40)).flatmap(lambda bn: st.tuples(
    hnp.arrays(np.float64, (bn[0], bn[1], 4, 4), elements=st.floats(-1e3, 1e3)),
    hnp.arrays(np.float64, (bn[1], 4, 4), elements=st.floats(-1e3, 1e3)),
)))
def test_grade_adds_what_a_loop_over_the_poses_adds(pair):
    # a stack of backends' poses against one oracle set; the reference is a
    # loop over each backend's poses, since a flat np.sum rounds differently
    poses, oracles = pair
    max_errs, rms_errs = cli.grade(poses, oracles)
    assert max_errs.shape == rms_errs.shape == (len(poses),)
    for backend, max_got, rms_got in zip(poses, max_errs, rms_errs):
        max_err = sq_sum = 0.0
        for pose, oracle in zip(backend, oracles):
            diff = np.abs(pose - oracle)
            max_err = max(max_err, float(diff.max()))
            sq_sum += float((diff**2).sum())
        assert (max_got, rms_got) == (max_err, math.sqrt(sq_sum / oracles.size))


@settings(max_examples=40, deadline=None)
@given(st.lists(joints, min_size=1, max_size=6), st.integers(1, 5), st.integers(0, 2**32))
def test_bench_variants_draw_what_uniform_draws(joint_list, trials, seed):
    # the reference draws one rng.uniform per joint, trial by trial
    rng = np.random.default_rng(seed)
    want = ChainSet.of([
        [
            DhJoint(j.kind, float(rng.uniform(-math.pi, math.pi)), j.d, j.a, j.alpha) if j.kind == ROTARY
            else DhJoint(j.kind, j.theta, float(rng.uniform(0.0, 1.0)), j.a, j.alpha)
            for j in joint_list
        ]
        for _ in range(trials)
    ])
    got = cli.bench_variants(joint_list, trials, seed)
    for field in ("theta", "d", "a_eff", "alpha"):
        assert getattr(got, field).shape == (trials, len(joint_list))
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_pipeline_table(capsys):
    assert main(["pipeline", "--links", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n_links,processors,latency_us"
    assert lines[1] == "1,4,2.000000e+02"
    assert lines[6] == "6,24,6.000000e+02"
    assert lines[10] == "10,40,9.200000e+02"


def test_vm_zero_angles(capsys):
    assert main(["vm", "--angles", "0", "0", "0", "0"]) == 0
    out = capsys.readouterr().out
    assert "instructions: 30" in out
    assert "arithmetic ops: 24 (naive 57)" in out
    rows = [line.split() for line in out.splitlines()[0:4]]
    pose = np.array([[float(v) for v in row] for row in rows])
    assert pose[0, 0] == 1.0 and pose[1, 2] == -1.0 and pose[2, 1] == 1.0


def _vm_stdout(capsys, angles, params):
    assert main(["vm", "--angles", *angles, "--params", *params]) == 0
    return capsys.readouterr().out


def test_vm_takes_negative_numbers_in_every_spelling(capsys):
    # exponent, underscore and trailing-point forms of the plain decimals
    want = _vm_stdout(capsys, ["-0.00001", "0", "-0.5", "-1000.5"], ["0.05", "0.04", "0.03", "0.025", "-0.001"])
    assert want == _vm_stdout(capsys, ["-1e-05", "-0e0", "-.5", "-1_000.5"], ["5e-2", "0.04", "0.03", "0.025", "-1E-3"])
    assert want == _vm_stdout(capsys, ["-1.0E-5", "-0.", "-5e-1", "-1000.5e0"], ["0.05", "0.04", "0.03", "0.025", "-1e-3"])


@settings(max_examples=300, deadline=None)
@given(word=st.from_regex(r"-[0-9_.eE+\-infatyINFATY ]{0,9}", fullmatch=True)
       | st.floats().map(lambda x: f"-{abs(x)!r}")
       | st.floats().map(lambda x: f"-{abs(x):.3E}"))
def test_vm_number_words_are_the_words_float_takes(word):
    # the vm parser's test for a value with a leading "-" holds exactly where float() reads the word
    try:
        float(word)
        takes = True
    except ValueError:
        takes = False
    assert bool(cli.NEGATIVE_FLOAT.match(word)) == takes


def test_vm_half_sized_exits_4(capsys):
    assert main(["vm", "--angles", "0", "0", "0", "0", "--half-sized"]) == 4
    assert "capacity error" in capsys.readouterr().err


def test_vm_dump_program(capsys):
    assert main(["vm", "--angles", "0.1", "0.2", "0.3", "0.4", "--dump-program"]) == 0
    out = capsys.readouterr().out
    assert "LOADK r4 k0" in out
    assert "SINCOS r12 r0" in out


def test_solve_prints_transformed_point(tmp_path, capsys):
    path = write_chain(tmp_path, DEMO)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    # the chain file's point (x, y, z) moved as a point, w = 1, by the oracle pose
    cf = parse_chain(DEMO)
    want = chain_pose(cf.joints) @ (*cf.point, 1.0)
    assert out.splitlines()[-1] == "point: " + "  ".join(f"{v: .9f}" for v in want[:3])
    assert out.splitlines()[-1] == "point:  0.154476409   0.405008670   0.470695189"


def test_bench_sweeps_prismatic_joints(tmp_path, capsys):
    path = write_chain(tmp_path, DEMO)
    argv = ["bench", path, "--trials", "4", "--seed", "5", "--table-mode", "linear"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert first == capsys.readouterr().out
    assert "mode=linear" in first


def test_solve_custom_format_and_iters(tmp_path, capsys):
    assert main(["solve", "puma560", "--backend", "cordic", "--format", "Q4.12", "--iters", "14"]) == 0
    out = capsys.readouterr().out
    dev = float(out.split("max deviation vs matrix oracle:")[1].split()[0])
    assert dev < 1e-2


def test_solve_incompatible_iters_exits_2(capsys):
    # 24 iterations exceed what a 12-fraction-bit datapath resolves
    assert main(["solve", "puma560", "--backend", "cordic", "--format", "Q4.12"]) == 2


@pytest.mark.parametrize("backend", ["cordic", "matrix"])
def test_solve_iters_past_word_exits_2(capsys, backend):
    # the CORDIC config is checked when built, whichever backend runs
    assert main(["solve", "puma560", "--backend", backend, "--iters", "9", "--format", "Q1.7"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "fkemu: shift 8 out of range for Q1.7\n"
