"""Command-line interface: output schemas, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grunbaum import cli, measure, oracle, verify
from grunbaum.bodies import AnalyticProfile, Direction, Polytope
from grunbaum.extremal import grunbaum_cone


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_body(tmp_path, body, name="body.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cli.body_to_obj(body)))
    return str(path)


def test_constants_planar_closed_form(capsys):
    code, out, _ = run(capsys, "constants", "--n", "2", "--alpha", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["c2"] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert obj["method"] == "closed_form_n2"


def test_constants_grunbaum_value(capsys):
    code, out, _ = run(capsys, "constants", "--n", "3", "--alpha", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["c1"] == pytest.approx(0.421875, abs=1e-15)
    assert obj["c2_argmax_lambda"] == "inf"


def test_constants_range_error(capsys):
    code, _, err = run(capsys, "constants", "--n", "2", "--alpha", "2.5")
    assert code == 2
    assert "alpha" in err


def test_constants_beyond_profile_dimensions(capsys):
    """c2 exists at any n; its extremal cone is a profile, capped in dimension."""
    code, out, err = run(capsys, "constants", "--n", "1100", "--alpha", "0.3")
    assert code == 0, err
    assert json.loads(out)["c2"] == pytest.approx(0.350651, abs=1e-6)
    code, out, err = run(capsys, "extremal", "--kind", "upper", "--n", "1100", "--alpha", "0.3")
    assert code == 2
    assert out == ""
    assert "profile dimension" in err


def test_constants_at_a_billion_dimensions(capsys):
    code, out, err = run(capsys, "constants", "--n", "1000000000", "--alpha", "0.3")
    assert code == 0, err
    obj = json.loads(out)
    assert obj["c1"] <= obj["c2"] <= 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--alpha", "0.3"],
        ["constants", "--alpha", "-0.5"],
        ["sweep", "--alpha-min", "-0.5", "--alpha-max", "1.5", "--steps", "3"],
        ["extremal", "--kind", "upper", "--alpha", "0.3"],
    ],
)
def test_dimension_beyond_the_float_range_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--n", str(10**400))
    assert code == 2
    assert out == ""
    assert "largest float" in err and "Traceback" not in err


def test_sweep_rows_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["sweep", "--n", "2", "--alpha-min", "-0.5", "--alpha-max", "1.5", "--steps", "5"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "alpha,c1,c2,d,lambda0"
    assert len(lines) == 6
    row0 = lines[2].split(",")  # the alpha = 0 row
    assert float(row0[0]) == 0.0
    assert float(row0[1]) == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert float(row0[2]) == pytest.approx(5.0 / 9.0, abs=1e-12)
    assert float(row0[3]) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert row0[4] == "inf"
    capsys.readouterr()


def test_sweep_single_step(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "3", "--alpha-min", "0.5", "--alpha-max", "1.0", "--steps", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--n", "2", "--alpha-min", "1.0", "--alpha-max", "0.5", "--steps", "3")
    assert code == 2


def test_sweep_bad_dimension_exit_2(capsys):
    code, out, err = run(
        capsys, "sweep", "--n", "1", "--alpha-min", "-0.5", "--alpha-max", "0.5", "--steps", "3"
    )
    assert code == 2
    assert out == ""
    assert "dimension" in err


def test_sweep_unwritable_path(capsys):
    code, _, err = run(
        capsys, "sweep", "--n", "2", "--alpha-min", "0.0", "--alpha-max", "1.0",
        "--steps", "2", "--out", "/nonexistent-dir/x.csv",
    )
    assert code == 3


def test_verify_grunbaum_cone_all_pass(tmp_path, capsys):
    path = write_body(tmp_path, grunbaum_cone(2))
    code, out, _ = run(capsys, "verify", "--body", path, "--alpha", "0")
    assert code == 0
    reports = [verify.report_from_json(line) for line in out.strip().splitlines()]
    assert all(r.passed for r in reports)
    cut = [r for r in reports if r.quantity == "cut_ratio"]
    assert any(r.equality for r in cut)  # the equality case is flagged


def test_verify_corrupted_body_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type":"profile","dim":2,"knots":[[0,0],[0.5,0.2],[1,1]]}')
    code, _, err = run(capsys, "verify", "--body", str(bad))
    assert code == 2
    assert "concave" in err


def test_symmetrize_invalid_body_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type":"profile","dim":2,"knots":[[0,0],[0.5,0.2],[1,1]]}')
    code, out, err = run(capsys, "symmetrize", "--body", str(bad))
    assert code == 2
    assert out == ""
    assert "concave" in err


@pytest.mark.parametrize("kind", ["grunbaum-cone", "reflected-cone"])
@pytest.mark.parametrize("n", [150, 200, 300, 400])
def test_verify_emitted_cones_pass_at_high_dimension(tmp_path, capsys, kind, n):
    path = str(tmp_path / "cone.json")
    assert run(capsys, "extremal", "--kind", kind, "--n", str(n), "--out", path)[0] == 0
    code, out, err = run(capsys, "verify", "--body", path, "--alpha", "0.001")
    assert code == 0, out + err


@pytest.mark.parametrize(
    "b1, invariant", [([0.5, 1], "not concave inside a slab"), ([-2, 1], "negative")]
)
def test_verify_slab_table_with_a_thin_bad_slab_exit_2(tmp_path, capsys, b1, invariant):
    """A slab 1e-3 wide on which sqrt(A) is convex, or A < 0."""
    obj = {"type": "slab_profile", "dim": 3, "edges": [0, 0.001, 1]}
    obj.update(b0=[1, 1], b1=b1, b2=[1, 0])
    path = tmp_path / "slabs.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--body", str(path), "--alpha", "0.001")
    assert code == 2 and out == ""
    assert invariant in err


def test_verify_thin_wide_cone_passes(tmp_path, capsys):
    """A cone whose h * h underflows still has its centroid off the base."""
    path = tmp_path / "body.json"
    path.write_text(json.dumps({"type": "profile", "dim": 20, "knots": [[0, 1e15], [1e-170, 0]]}))
    code, out, err = run(capsys, "verify", "--body", str(path), "--alpha", "0.02")
    assert code == 0, out + err
    reports = [verify.report_from_json(line) for line in out.splitlines()]
    support = next(r for r in reports if r.quantity == "support_ratio")
    assert support.measured == pytest.approx(0.05, rel=1e-9)


@pytest.mark.parametrize(
    "obj",
    [
        {"type": "profile", "dim": dim, "knots": [[0, 1], [1, 0]]}
        for dim in (437, 1200, 10**400)
    ]
    + [
        {"type": "profile", "dim": 300, "knots": [[0, 1e-3], [1, 1e-3]]},
        {"type": "profile", "dim": 400, "knots": [[0, 10], [1, 0]]},
    ],
    ids=["dim437", "dim1200", "dim1e400", "dim300_tiny", "dim400_huge"],
)
def test_verify_beyond_float_range_exits_2(tmp_path, capsys, obj):
    """Bodies whose volume is no normal float are rejected, not misjudged."""
    path = tmp_path / "body.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", "--body", str(path))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and err


def test_verify_unparseable_body_exit_2(tmp_path, capsys):
    bad = tmp_path / "junk.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "--body", str(bad))
    assert code == 2


def test_verify_random_body_with_mc(tmp_path, capsys):
    body = oracle.random_polytope(3, 10, 51)
    path = write_body(tmp_path, body)
    code, out, _ = run(
        capsys, "verify", "--body", path, "--alpha", "0.4",
        "--direction", "1,0.5,-0.25", "--mc-samples", "20000", "--seed", "3",
    )
    assert code == 0
    backends = {verify.report_from_json(l).backend for l in out.strip().splitlines()}
    assert backends == {"exact", "monte_carlo"}


@pytest.mark.parametrize("samples", ["10", "-5"])
def test_verify_bad_mc_samples_exit_2(tmp_path, capsys, samples):
    path = write_body(tmp_path, grunbaum_cone(2))
    code, out, err = run(capsys, "verify", "--body", path, "--mc-samples", samples)
    assert code == 2
    assert out == ""
    assert "--mc-samples" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "body, flag, value, message",
    [
        ("polytope", "--direction", "nan,1", "normalize"),
        ("polytope", "--direction", "inf,1", "normalize"),
        ("profile", "--direction", "1,1e-3,0", "axis"),
        ("polytope", "--tol", "nan", "--tol"),
    ],
    ids=["direction_nan", "direction_inf", "profile_off_axis", "tol_nan"],
)
def test_verify_bad_option_exit_2(tmp_path, capsys, body, flag, value, message):
    triangle = Polytope(2, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    shape = triangle if body == "polytope" else grunbaum_cone(3)
    path = write_body(tmp_path, shape)
    code, out, err = run(capsys, "verify", "--body", path, flag, value)
    assert code == 2
    assert out == ""
    assert message in err
    assert "np.float64" not in err


@pytest.mark.parametrize("spec", ["1e200,1e200", "1e-200,1e-200"])
def test_verify_direction_at_extreme_scales(tmp_path, capsys, spec):
    """A direction is read up to scale, even where its squared norm leaves
    the float range."""
    path = write_body(tmp_path, Polytope(2, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))))
    code, out, err = run(capsys, "verify", "--body", path, "--direction", spec)
    assert code == 0, err
    assert out == run(capsys, "verify", "--body", path, "--direction", "1,1")[1]


@pytest.mark.parametrize(
    "body",
    [
        Polytope(2, ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
        oracle.random_polytope(3, 12, 8),
        oracle.random_profile(4, 6, 8),
    ],
    ids=["triangle", "polytope3", "profile4"],
)
def test_verify_mc_output_contract(tmp_path, capsys, body):
    """What a benchmark reading verify's output relies on: seven JSON report
    lines on stdout, one of them from the Monte Carlo backend, each naming
    the body file; diagnostics only on stderr."""
    path = write_body(tmp_path, body)
    code, out, _ = run(capsys, "verify", "--body", path, "--alpha", "0.3", "--mc-samples", "100000")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 7
    assert all(r["pass"] and r["context"]["path"] == path for r in reports)
    assert sum(r["backend"] == verify.MONTE_CARLO for r in reports) == 1


def test_extremal_kinds_round_trip(tmp_path, capsys):
    for kind, extra in (
        ("grunbaum-cone", []),
        ("reflected-cone", []),
        ("double-cone", ["--beta", "0.4"]),
        ("truncated-cone", ["--lam", "0.7"]),
        ("lower", ["--alpha", "0.2"]),
        ("upper", ["--alpha", "0.8"]),
        ("t5-cone", ["--alpha", "0.1"]),
    ):
        out_path = tmp_path / f"{kind}.json"
        code = cli.main(["extremal", "--kind", kind, "--n", "2", "--out", str(out_path)] + extra)
        assert code == 0, kind
        body = cli.load_body(str(out_path))
        assert isinstance(body, AnalyticProfile)
    capsys.readouterr()


def test_extremal_achieves_bound_via_verify(tmp_path, capsys):
    out_path = tmp_path / "lower.json"
    assert cli.main(["extremal", "--kind", "lower", "--n", "3", "--alpha", "0.2", "--out", str(out_path)]) == 0
    code, out, _ = run(capsys, "verify", "--body", str(out_path), "--alpha", "0.2")
    assert code == 0
    reports = [verify.report_from_json(l) for l in out.strip().splitlines()]
    t4 = [r for r in reports if r.quantity == "cut_ratio"][0]
    assert t4.equality
    assert t4.measured == pytest.approx(t4.lower, abs=1e-8)


def test_extremal_bad_kind_params(capsys):
    code, _, err = run(capsys, "extremal", "--kind", "double-cone", "--n", "2")
    assert code == 2
    code, _, err = run(capsys, "extremal", "--kind", "lower", "--n", "2", "--alpha", "0.9")
    assert code == 2


def test_extremal_t5_above_threshold_notes_nonuniqueness(capsys):
    code, out, err = run(capsys, "extremal", "--kind", "t5-cone", "--n", "2", "--alpha", "1.2")
    assert code == 0
    assert "many bodies" in err
    body = cli.body_from_obj(json.loads(out))
    assert body.knots[0][1] == 0.0  # the cone with empty section above 1/n


def test_symmetrize_cube_constant_profile(tmp_path, capsys):
    cube = Polytope(3, tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)))
    path = write_body(tmp_path, cube)
    code, out, _ = run(capsys, "symmetrize", "--body", path, "--direction", "0,0,1")
    assert code == 0
    prof = cli.body_from_obj(json.loads(out))
    areas = prof.area_at(np.linspace(*prof.support, 17))
    assert areas.max() - areas.min() < 1e-12
    assert measure.volume(prof) == pytest.approx(1.0, rel=1e-9)


def test_symmetrize_profile_fixed_point(tmp_path, capsys):
    body = grunbaum_cone(2)
    path = write_body(tmp_path, body)
    code, out, _ = run(capsys, "symmetrize", "--body", path)
    assert code == 0
    assert cli.body_from_obj(json.loads(out)) == body


def test_symmetrize_preserves_volume_2d(tmp_path, capsys):
    # planar chords are piecewise linear, so the exported profile is exact
    from grunbaum import oracle

    body = oracle.random_polytope(2, 9, 7)
    path = write_body(tmp_path, body)
    code, out, _ = run(capsys, "symmetrize", "--body", path, "--direction", "0.2,-1")
    assert code == 0
    prof = cli.body_from_obj(json.loads(out))
    assert measure.volume(prof) == pytest.approx(measure.volume(body), rel=1e-9)


def test_symmetrize_3d_matches_areas_at_breakpoints(tmp_path, capsys):
    from grunbaum import oracle

    body = oracle.random_polytope(3, 12, 7)
    d = Direction.from_vector((0.2, -1.0, 0.4))
    path = write_body(tmp_path, body)
    code, out, _ = run(capsys, "symmetrize", "--body", path, "--direction", "0.2,-1,0.4")
    assert code == 0
    prof = cli.body_from_obj(json.loads(out))
    table = measure.section_table(body, d)
    axis = Direction.axis(3)
    for t in table.edges:
        assert measure.section_area(prof, axis, t) == measure.section_area(body, d, t)


def test_symmetrize_output_passes_verify(tmp_path, capsys):
    from grunbaum import oracle

    path = write_body(tmp_path, oracle.random_polytope(3, 12, 11))
    sym_path = str(tmp_path / "sym.json")
    argv = ("symmetrize", "--body", path, "--direction", "1,2,-0.5", "--out", sym_path)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    with open(sym_path, encoding="utf-8") as fh:
        assert json.load(fh)["type"] == "slab_profile"
    code, out, err = run(capsys, "verify", "--body", sym_path, "--alpha", "0.3")
    assert code == 0, err
    assert len(out.splitlines()) == 6


def test_verify_tetrahedron_with_near_tied_heights(tmp_path, capsys):
    """Vertex heights 0, 8.4e-13, 1.2e-12 and 1: the cone meets its bound."""
    path = write_body(tmp_path, Polytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))))
    code, out, err = run(
        capsys, "verify", "--body", path, "--alpha", "0", "--direction", "1.2e-12,0.84e-12,1"
    )
    assert code == 0, err
    reports = [verify.report_from_json(line) for line in out.splitlines()]
    (t5,) = [r for r in reports if r.quantity == "section_ratio"]
    assert t5.measured == pytest.approx(0.5625, abs=1e-9)


@pytest.mark.parametrize("eps", ["1e-17", "1e-13"])
def test_symmetral_with_near_tied_knots_passes_verify(tmp_path, capsys, eps):
    """Centering rounds the knots at 0 and eps onto one height."""
    path = write_body(tmp_path, Polytope(2, ((0, 0), (1, 0), (0, 1))))
    sym_path = str(tmp_path / "sym.json")
    argv = ("symmetrize", "--body", path, "--direction", f"{eps},1", "--out", sym_path)
    assert run(capsys, *argv)[0] == 0
    code, _, err = run(capsys, "verify", "--body", sym_path)
    assert code == 0, err


def test_slab_profile_old_columns_exit_2(tmp_path, capsys):
    path = tmp_path / "old.json"
    old = {"type": "slab_profile", "dim": 3, "edges": [0, 1], "s0": [1], "s1": [0], "s2": [0]}
    path.write_text(json.dumps(old))
    code, _, err = run(capsys, "verify", "--body", str(path))
    assert code == 2
    assert "edges, b0, b1, b2" in err


def test_profile_commands_do_not_import_scipy(tmp_path):
    """scipy is imported only to build a hull, so commands that build none
    start without it."""
    path = write_body(tmp_path, grunbaum_cone(3))
    script = (
        "import contextlib, io, sys\n"
        "from grunbaum import cli\n"
        "for argv in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv.split()) == 0, argv\n"
        "print('scipy' in sys.modules)\n"
    )
    commands = [
        "constants --n 3 --alpha 0.3",
        "sweep --n 3 --alpha-min -0.5 --alpha-max 1.5 --steps 5",
        "extremal --kind upper --n 3 --alpha 0.3",
        f"verify --body {path} --alpha 0.3 --mc-samples 1000",
    ]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", script, *commands],
        capture_output=True, text=True, env=env, timeout=120,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_body_json_round_trip(tmp_path):
    from grunbaum import oracle

    bodies = [
        grunbaum_cone(3),
        Polytope(2, ((0, 0), (1, 0), (0, 1))),
        measure.schwarz_symmetral(oracle.random_polytope(3, 12, 5), Direction.axis(3)),
    ]
    for body in bodies:
        assert cli.body_from_obj(json.loads(json.dumps(cli.body_to_obj(body)))) == body


def test_body_json_rejects_unknown_type():
    with pytest.raises(ValueError):
        cli.body_from_obj({"type": "blob", "dim": 2})


_NOT_A_LIST = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_NOT_A_NUMBER = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2)
)
#: JSON numbers no float coordinate can hold
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])


_SLAB_COLUMNS = ("edges", "b0", "b1", "b2")


@st.composite
def malformed_bodies(draw):
    """A JSON value with exactly one flaw that makes it no body description."""
    key = draw(st.sampled_from(["vertices", "knots", "slabs"]))
    if key == "vertices":
        obj = {"type": "polytope", "dim": 2, key: [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]}
    elif key == "knots":
        obj = {"type": "profile", "dim": 2, key: [[0.0, 1.0], [1.0, 0.0]]}
    else:
        obj = {"type": "slab_profile", "dim": 2, "edges": [0.0, 1.0]}
        obj.update(b0=[1.0], b1=[1.0], b2=[1.0])
        key = draw(st.sampled_from(_SLAB_COLUMNS))
    rows = obj[key]  # every row has 2 entries; a slab column is flat
    flat = obj["type"] == "slab_profile"
    flaws = ["top", "type", "dim", "rows", "row", "entry"] + (["columns"] if flat else [])
    flaw = draw(st.sampled_from(flaws))
    if flaw == "columns":  # the monomial columns s0, s1, s2 of an older format
        return {k.replace("b", "s"): v for k, v in obj.items()}
    if flaw == "top":
        not_a_dict = _NOT_A_LIST.filter(lambda v: not isinstance(v, dict))
        return draw(st.one_of(not_a_dict, st.lists(st.just(obj), max_size=2)))
    if flaw == "type":
        kinds = st.one_of(_NOT_A_LIST, st.text(max_size=9))
        obj["type"] = draw(kinds.filter(lambda v: v not in ("polytope", "profile", "slab_profile")))
    elif flaw == "dim":
        obj["dim"] = draw(st.one_of(_NOT_A_NUMBER, st.floats(), st.integers(max_value=1)))
    elif flaw == "rows":
        obj[key] = draw(_NOT_A_LIST)
    elif flaw == "row" and flat:  # a column one entry too long
        rows.insert(draw(st.integers(0, len(rows))), draw(st.floats(-9, 9)))
    elif flaw == "row":
        wrong_width = st.lists(st.floats(-9, 9), max_size=4).filter(lambda r: len(r) != 2)
        rows.insert(draw(st.integers(0, len(rows))), draw(st.one_of(_NOT_A_LIST, wrong_width)))
    else:
        bad = draw(st.one_of(_NOT_A_NUMBER, _NON_FINITE))
        if flat:
            rows[draw(st.integers(0, len(rows) - 1))] = bad
        else:
            rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 1))] = bad
    return obj


@settings(max_examples=80, deadline=None)
@given(obj=malformed_bodies(), command=st.sampled_from(["verify", "symmetrize"]))
@example(obj=[{"type": "profile", "dim": 2, "knots": [[0, 1], [1, 0]]}], command="verify")
@example(
    obj={"type": "polytope", "dim": 2, "vertices": [[0, 0], [1, math.nan], [0, 1]]},
    command="verify",
)
@example(obj={"type": "profile", "dim": 2, "knots": [[0, 1], [math.inf, 0]]}, command="verify")
def test_malformed_body_json_exits_2(obj, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/body.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--body", path])
    assert code == 2
    assert "Traceback" not in err.getvalue()
