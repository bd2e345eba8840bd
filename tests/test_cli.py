"""End-to-end checks of the qwscatter command line tool."""

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwscatter.cli import main

R = "0.70710678118654757"  # 1/sqrt(2) at parser precision

HADAMARD_INI = f"""
[coin.left]
a = 0.7071067811865476
beta = 0.0
delta = 3.141592653589793

[coin.right]
matrix = {R},0 {R},0 {R},0 -{R},0

[state]
0 = 1,0 0,0

[run]
steps = 50
n_max = 256
grid_points = 65
ns = 40,80
"""

TWO_PHASE_INI = """
[coin.left]
a = 0.8
delta = 3.141592653589793

[coin.right]
a = 0.6
delta = 3.141592653589793

[state]
0 = 0.7071067811865476,0 0,0.7071067811865476

[run]
steps = 40
n_max = 256
grid_points = 65
"""


def run_cli(tmp_path, ini, command, name="out.csv", extra=""):
    cfg = tmp_path / "run.ini"
    cfg.write_text(ini + extra)
    out = tmp_path / name
    rc = main([command, "--config", str(cfg), "--out", str(out)])
    return rc, out, cfg


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_simulate_conserves_probability(tmp_path):
    rc, out, _ = run_cli(tmp_path, HADAMARD_INI, "simulate")
    assert rc == 0
    header, rows = read_rows(out)
    assert header == ["x", "re0", "im0", "re1", "im1", "prob"]
    probs = np.array([float(r[5]) for r in rows])
    assert abs(probs.sum() - 1.0) < 1e-12
    # after 50 steps only sites of even parity are populated
    assert all(int(r[0]) % 2 == 0 for r in rows if float(r[5]) > 0.0)
    assert all(abs(int(r[0])) <= 50 for r in rows)


def test_density_matches_simulate(tmp_path):
    _, sim_out, _ = run_cli(tmp_path, HADAMARD_INI, "simulate", "sim.csv")
    rc, den_out, _ = run_cli(tmp_path, HADAMARD_INI, "density", "den.csv")
    assert rc == 0
    _, sim_rows = read_rows(sim_out)
    _, den_rows = read_rows(den_out)
    sim = {int(r[0]): float(r[5]) for r in sim_rows}
    den = {int(r[0]): float(r[1]) for r in den_rows}
    common = sorted(set(sim) & set(den))
    assert common
    for x in common:
        assert abs(sim[x] - den[x]) < 1e-15


def test_runs_are_byte_identical(tmp_path):
    _, out1, _ = run_cli(tmp_path, HADAMARD_INI, "simulate", "a.csv")
    _, out2, _ = run_cli(tmp_path, HADAMARD_INI, "simulate", "b.csv")
    assert out1.read_bytes() == out2.read_bytes()


def test_spectrum_hadamard_thresholds(tmp_path):
    rc, out, _ = run_cli(tmp_path, HADAMARD_INI, "spectrum")
    assert rc == 0
    _, rows = read_rows(out)
    r = 1.0 / math.sqrt(2.0)
    for side in ("left", "right"):
        thr = {
            (round(float(row[3]), 12), round(float(row[4]), 12))
            for row in rows
            if row[0] == side and row[1] == "threshold"
        }
        want = {(round(s1 * r, 12), round(s2 * r, 12)) for s1 in (1, -1) for s2 in (1, -1)}
        assert thr == want
        arcs = [row for row in rows if row[0] == side and row[1] == "arc_start"]
        assert len(arcs) == 2
        assert not [row for row in rows if row[0] == side and row[1] == "eigenvalue"]


def test_scatter_reports_summary(tmp_path, capsys):
    rc, out, _ = run_cli(tmp_path, TWO_PHASE_INI, "scatter")
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == {"left", "right"}
    for side in ("left", "right"):
        assert 0.0 <= summary[side]["norm_sq"] <= 1.0 + 1e-12
        assert summary[side]["checkpoints"][-1] <= 256
        assert isinstance(summary[side]["converged"], bool)
    _, rows = read_rows(out)
    assert {r[0] for r in rows} <= {"left", "right"}


def test_limit_dist_summary_and_artifact(tmp_path, capsys):
    rc, out, _ = run_cli(tmp_path, HADAMARD_INI, "limit-dist")
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert abs(summary["total_mass"] - 1.0) < 1e-6
    assert summary["atom_origin"] < 0.05
    assert summary["pure_point_mass"] < 0.05
    parts = (
        summary["atom_left"]
        + summary["atom_origin"]
        + summary["atom_right"]
        + summary["mass_left"]
        + summary["mass_right"]
    )
    assert abs(parts - 1.0) < 1e-6
    header, rows = read_rows(out)
    assert header == ["kind", "v", "density", "mass"]
    assert sum(1 for r in rows if r[0] == "atom") == 3
    assert sum(1 for r in rows if r[0] == "density") == 2 * 65


def test_limit_dist_deterministic(tmp_path, capsys):
    _, out1, _ = run_cli(tmp_path, HADAMARD_INI, "limit-dist", "a.csv")
    text1 = capsys.readouterr().out
    _, out2, _ = run_cli(tmp_path, HADAMARD_INI, "limit-dist", "b.csv")
    text2 = capsys.readouterr().out
    assert out1.read_bytes() == out2.read_bytes()
    assert text1 == text2


def test_compare_rows(tmp_path):
    rc, out, _ = run_cli(tmp_path, HADAMARD_INI, "compare")
    assert rc == 0
    header, rows = read_rows(out)
    assert header == ["n", "ks", "cf_err_1", "cf_err_2", "cf_err_5", "moment_err_1", "moment_err_2"]
    assert [int(r[0]) for r in rows] == [40, 80]
    assert all(float(r[1]) < 0.25 for r in rows)


def expect_error(tmp_path, capsys, ini, code, exit_code, command="simulate"):
    rc, _, cfg = run_cli(tmp_path, ini, command)
    err = json.loads(capsys.readouterr().err)
    assert rc == exit_code
    assert err["code"] == code
    assert err["path"] == str(cfg)
    return err


def test_unknown_section_exits_2(tmp_path, capsys):
    expect_error(tmp_path, capsys, HADAMARD_INI + "\n[coin.middle]\na = 0.5\n", "ConfigError", 2)


def test_unknown_run_key_exits_2(tmp_path, capsys):
    expect_error(
        tmp_path, capsys, HADAMARD_INI.replace("steps = 50", "stepz = 50"), "ConfigError", 2
    )


def test_unparseable_entry_exits_2(tmp_path, capsys):
    bad = HADAMARD_INI.replace("0 = 1,0 0,0", "0 = one,0 0,0")
    err = expect_error(tmp_path, capsys, bad, "ConfigError", 2)
    assert "state" in err["message"]


def test_missing_state_section_exits_2(tmp_path, capsys):
    bad = "\n".join(
        line for line in HADAMARD_INI.splitlines() if line not in ("[state]", "0 = 1,0 0,0")
    )
    expect_error(tmp_path, capsys, bad, "ConfigError", 2)


MALFORMED = {
    "duplicate_option": (HADAMARD_INI + "steps = 60\n", "out.csv"),
    "duplicate_section": (HADAMARD_INI + "\n[state]\n1 = 1,0 0,0\n", "out.csv"),
    "missing_section_header": ("steps = 50\n" + HADAMARD_INI, "out.csv"),
    "line_without_delimiter": (HADAMARD_INI + "no delimiter here\n", "out.csv"),
    "not_utf8": (HADAMARD_INI + "; caf\xe9\n", "out.csv"),
    # radius = -1 is a domain error (exit 3) of the [run] check, so exit 2
    # shows that the directory is checked first
    "missing_output_directory": (HADAMARD_INI + "radius = -1\n", "missing/out.csv"),
    # the last spinor or override given for a site used to win silently
    "repeated_state_site": (
        HADAMARD_INI.replace("0 = 1,0 0,0", "1 = 0.6,0 0,0\n+1 = 0.8,0 0,0"),
        "out.csv",
    ),
    "repeated_site_override": (
        HADAMARD_INI
        + "\n[coin.site.1]\nmatrix = 1,0 0,0 0,0 -1,0\n\n[coin.site.01]\nmatrix = 1,0 0,0 0,0 1,0\n",
        "out.csv",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    # each of these used to escape as a traceback with exit 1 (the missing
    # directory only after the whole computation had run) or to exit 0
    # having dropped part of the input
    ini, name = MALFORMED[case]
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(ini.encode("latin-1"))
    out = tmp_path / name
    rc = main(["limit-dist", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert rc == 2
    assert err["code"] == "ConfigError"
    assert err["path"] == str(cfg)
    assert captured.out == ""
    assert not out.exists()


def test_non_unitary_coin_exits_3(tmp_path, capsys):
    bad = HADAMARD_INI.replace(f"matrix = {R},0 {R},0 {R},0 -{R},0", "matrix = 1,0 0,0 0,0 1.5,0")
    err = expect_error(tmp_path, capsys, bad, "DomainError", 3)
    assert "coin.right" in err["message"]


def test_non_unitary_site_override_exits_3(tmp_path, capsys):
    bad = HADAMARD_INI + "\n[coin.site.0]\nmatrix = 1,0 0,0 0,0 2,0\n"
    err = expect_error(tmp_path, capsys, bad, "DomainError", 3)
    assert "x=0" in err["message"]


def test_nan_site_override_exits_3(tmp_path, capsys):
    bad = HADAMARD_INI + "\n[coin.site.0]\nmatrix = nan,0 0,0 0,0 1,0\n"
    err = expect_error(tmp_path, capsys, bad, "DomainError", 3, command="density")
    assert "x=0" in err["message"]
    assert not (tmp_path / "out.csv").exists()


def test_non_finite_state_exits_3(tmp_path, capsys):
    bad = HADAMARD_INI.replace("0 = 1,0 0,0", "0 = nan,0 0,0")
    expect_error(tmp_path, capsys, bad, "DomainError", 3, command="density")
    assert not (tmp_path / "out.csv").exists()


def test_zero_state_exits_3(tmp_path, capsys):
    expect_error(tmp_path, capsys, HADAMARD_INI.replace("0 = 1,0 0,0", "0 = 0,0 0,0"), "DomainError", 3)


def test_bad_schedule_exits_3(tmp_path, capsys):
    expect_error(
        tmp_path,
        capsys,
        HADAMARD_INI.replace("n_max = 256", "n_max = -4"),
        "DomainError",
        3,
        command="limit-dist",
    )


@pytest.mark.parametrize("guard", ["nan", "-0.1"])
def test_bad_guard_exits_3(tmp_path, capsys, guard):
    # a NaN guard used to drop every grid point and report ks = 0
    bad = HADAMARD_INI.replace("n_max = 256", "n_max = 128") + f"guard = {guard}\n"
    err = expect_error(tmp_path, capsys, bad, "DomainError", 3, command="compare")
    assert "guard" in err["message"]
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("xi", ["nan", "inf"])
def test_non_finite_xi_exits_3(tmp_path, capsys, xi):
    bad = HADAMARD_INI.replace("n_max = 256", "n_max = 128") + f"xi = 1,{xi}\n"
    expect_error(tmp_path, capsys, bad, "DomainError", 3, command="compare")
    assert not (tmp_path / "out.csv").exists()


def test_infinite_tol_exits_3(tmp_path, capsys):
    err = expect_error(
        tmp_path, capsys, HADAMARD_INI + "tol = inf\n", "DomainError", 3, command="limit-dist"
    )
    assert "tolerance" in err["message"]
    assert not (tmp_path / "out.csv").exists()


def test_negative_radius_exits_3(tmp_path, capsys):
    # radius = -1 used to make the time-average cross-check vacuous (exit 0)
    bad = HADAMARD_INI.replace("n_max = 256", "n_max = 128") + "radius = -1\n"
    err = expect_error(tmp_path, capsys, bad, "DomainError", 3, command="limit-dist")
    assert "radius" in err["message"]
    assert not (tmp_path / "out.csv").exists()


def test_estimator_disagreement_exits_4(tmp_path, capsys):
    # after 150 steps the ballistic mass is still inside radius 64, so
    # the time average cannot match the near-zero norm deficit
    ini = HADAMARD_INI + "\nhorizon = 150\nradius = 64\n"
    expect_error(tmp_path, capsys, ini, "ConvergenceError", 4, command="limit-dist")


@pytest.fixture
def no_limit_law(monkeypatch):
    """Make any computation of the limit law fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("the limit law was computed")

    monkeypatch.setattr("qwscatter.cli.limit_distribution", refuse)


def test_output_directory_exits_2(tmp_path, capsys, no_limit_law):
    # used to run the whole computation, then fail with IsADirectoryError
    cfg = tmp_path / "run.ini"
    cfg.write_text(HADAMARD_INI)
    out = tmp_path / "out.csv"
    out.mkdir()
    rc = main(["limit-dist", "--config", str(cfg), "--out", str(out)])
    err = json.loads(capsys.readouterr().err)
    assert rc == 2
    assert err["code"] == "ConfigError"
    assert "directory" in err["message"]


def with_run_value(ini, key, value):
    """``ini`` with [run] (its last section) setting ``key`` to ``value``."""
    lines = [line for line in ini.splitlines() if not line.startswith(f"{key} = ")]
    return "\n".join(lines) + f"\n{key} = {value}\n"


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("limit-dist", "radius", "-1"),
        ("limit-dist", "horizon", "1"),
        ("compare", "guard", "nan"),
        ("compare", "xi", "inf"),
        ("compare", "ns", "0"),
    ],
)
def test_run_values_checked_before_the_limit_law(tmp_path, capsys, no_limit_law, command, key, value):
    # each used to exit 3 only after the limit law had been computed
    ini = with_run_value(HADAMARD_INI, key, value)
    err = expect_error(tmp_path, capsys, ini, "DomainError", 3, command=command)
    assert err["message"].startswith("[run]: ")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("limit-dist", "horizon", "600000"),
        ("compare", "ns", "40,600000"),
    ],
)
def test_window_caps_checked_before_the_limit_law(tmp_path, capsys, no_limit_law, command, key, value):
    # the walk window of 1 + 2 * 600000 sites is over the cap; each used to
    # exit 3 only after the limit law had been computed
    ini = with_run_value(HADAMARD_INI, key, value)
    err = expect_error(tmp_path, capsys, ini, "ResourceLimitError", 3, command=command)
    assert err["message"].startswith("[run]: evolution window of 1200001 sites")
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("simulate", "tol", "inf"),
        ("density", "radius", "-1"),
        ("scatter", "ns", "0"),
        ("scatter", "horizon", "1"),
        ("limit-dist", "guard", "nan"),
        ("compare", "radius", "-1"),
    ],
)
def test_run_values_a_command_does_not_use_are_not_checked(tmp_path, command, key, value):
    # a command checks only the [run] values that it uses
    rc, out, _ = run_cli(tmp_path, with_run_value(HADAMARD_INI, key, value), command)
    assert rc == 0
    assert out.exists()


# -- property test: random configs, random subcommands ------------------

_COMMANDS = ("simulate", "density", "spectrum", "scatter", "limit-dist", "compare")
_WORDS = {"left", "right", "arc_start", "arc_end", "threshold", "eigenvalue", "atom", "density", ""}
_SPOILED = ("nan", "inf", "-inf", "1e400", "-1", "0", "2", "x", "")
_angle = st.floats(-4.0, 4.0)


def _text(x):
    return repr(float(x))


@st.composite
def _unitary(draw):
    """A random unitary as a ``matrix`` value at 17 digits."""
    t, p, q, r = (draw(_angle) for _ in range(4))
    c, s = math.cos(t), math.sin(t)
    m = np.exp(1j * r) * np.array(
        [[c * np.exp(1j * p), s * np.exp(1j * q)], [-s * np.exp(-1j * q), c * np.exp(-1j * p)]]
    )
    return " ".join(f"{_text(z.real)},{_text(z.imag)}" for z in m.ravel())


@st.composite
def _coin(draw):
    if draw(st.booleans()):
        return {"matrix": draw(_unitary())}
    coin = {"a": _text(draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))))}
    for key in draw(st.lists(st.sampled_from(["alpha", "beta", "delta"]), unique=True)):
        coin[key] = _text(draw(_angle))
    return coin


@st.composite
def _config(draw):
    """A valid small config, half the time with one value spoiled."""
    sections = {"coin.left": draw(_coin()), "coin.right": draw(_coin())}
    for site in draw(st.lists(st.integers(-3, 3), max_size=2, unique=True)):
        sections[f"coin.site.{site}"] = {"matrix": draw(_unitary())}
    for side in draw(st.lists(st.sampled_from(["left", "right"]), max_size=2, unique=True)):
        sections[f"coin.tail.{side}"] = {
            "kappa": _text(draw(st.floats(0.0, 1.0))),
            "epsilon": _text(draw(st.floats(0.1, 2.0))),
        }
    state = {}
    for site in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True)):
        re0, im0, re1, im1 = (_text(draw(st.floats(-2.0, 2.0))) for _ in range(4))
        state[str(site)] = f"{re0},{im0} {re1},{im1}"
    if draw(st.booleans()):
        state["normalize"] = draw(st.sampled_from(["true", "false"]))
    sections["state"] = state
    # every size is given, since the defaults take seconds
    n_max = draw(st.integers(2, 64))
    sections["run"] = {
        "steps": str(draw(st.integers(-8, 24))),
        "n_max": str(n_max),
        "first": str(draw(st.integers(2, n_max))),
        "tol": draw(st.sampled_from(["1e-6", "0.01"])),
        "grid_points": str(draw(st.integers(2, 17))),
        "horizon": str(draw(st.integers(2, 48))),
        "radius": str(draw(st.integers(0, 8))),
        "ns": ",".join(map(str, draw(st.lists(st.integers(1, 24), max_size=2)))),
        "xi": ",".join(map(_text, draw(st.lists(st.floats(-5.0, 5.0), max_size=2)))),
        "guard": _text(draw(st.floats(0.0, 0.2))),
    }
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(sections)))
        key = draw(st.sampled_from(sorted(sections[name])))
        sections[name][key] = draw(st.sampled_from(_SPOILED))
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
        for name, body in sections.items()
    )


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(ini=_config(), command=st.sampled_from(_COMMANDS))
def test_random_configs_exit_cleanly(tmp_path_factory, ini, command):
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg, out = tmp / "run.ini", tmp / "out.csv"
    cfg.write_text(ini)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([command, "--config", str(cfg), "--out", str(out)])
    assert rc in (0, 2, 3, 4)
    if rc:
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"code", "message", "path"}
        return
    _, rows = read_rows(out)
    for cell in (cell for row in rows for cell in row):
        assert cell in _WORDS or math.isfinite(float(cell)), cell
