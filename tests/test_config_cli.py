"""Config parsing, built-in experiment runs, CLI statuses and artifacts."""

import io
import os
import re
from pathlib import Path

import pytest

from robinlab import cli, config as cfgmod
from robinlab import inequalities as ineq
from robinlab.errors import ConfigError, SolverError

MINIMAL = """
# comment line
checks = [quantitative]
family = ellipse
grid = [1.1, 1.3]
"""


def test_parse_minimal_defaults():
    cfg = cfgmod.parse_config(MINIMAL, name="mini")
    assert cfg.checks == ("quantitative",)
    assert cfg.family == "ellipse"
    assert cfg.grid == (1.1, 1.3)
    assert cfg.q_values == (1.0,)
    assert cfg.beta_values == (1.0,)
    assert cfg.resolution.n_r == 48
    assert cfg.domain_K == 512
    assert cfg.output_dir == "out/mini"
    assert cfg.cardinality("quantitative") == 2


def test_parse_full_config():
    text = """
name = custom
checks = [intermediate, ec_ball]
family = perturbed
grid = [0.02, 0.05]
q = [1.0, 1.5]
beta = [0.5, 2.0]
c_factor = [0.0, 0.5]
k = 3
n_r = 24
n_theta = 48
K = 128
M = 1024
n_angles = 512
output_dir = /tmp/custom-out
"""
    cfg = cfgmod.parse_config(text)
    assert cfg.name == "custom"
    assert cfg.k == 3
    assert cfg.c_factors == (0.0, 0.5)
    assert (cfg.resolution.n_r, cfg.resolution.M, cfg.resolution.n_angles) == (24, 1024, 512)
    assert cfg.output_dir == "/tmp/custom-out"
    # the obstacle-level axis only multiplies the obstacle check
    assert cfg.cardinality("intermediate") == 2 * 2 * 2
    assert cfg.cardinality("ec_ball") == 2 * 2 * 2 * 2


def _with_line(override: str) -> str:
    """MINIMAL with any same-key line replaced by the override."""
    key = override.split("=")[0].strip()
    kept = [
        ln
        for ln in MINIMAL.splitlines()
        if "=" not in ln or ln.split("=")[0].strip() != key
    ]
    return "\n".join(kept) + "\n" + override + "\n"


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("mystery = 3", "mystery"),
        ("grid = 1.0", "bracketed"),
        ("grid = [1.0, oops]", "non-numeric"),
        ("n_r = 4.5", "integer"),
        ("estimate_tolerance = true", "unknown key"),
        ("default_tol = 1e-3", "unknown key"),
        ("no equals sign here", "key = value"),
    ],
)
def test_parse_rejects_bad_lines(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        cfgmod.parse_config(_with_line(line))


def test_key_docs_name_exactly_the_known_keys():
    # the module docstring's key table (first column, up to its blank line)
    # and README's key list must not drift from the parser's keys
    table = cfgmod.__doc__.split("(R = required):\n\n")[1].split("\n\n")[0]
    documented = set()
    for line in table.splitlines():
        first = re.split(r"\s{2,}", line.strip())[0].replace(" (R)", "")
        documented.update(name.strip() for name in first.split(","))
    assert documented == cfgmod._KNOWN
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = readme.split("\nRequired keys:")[1].split("\n\n")[0]
    assert set(re.findall(r"`(\w+)`", listed)) == cfgmod._KNOWN


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        cfgmod.parse_config(MINIMAL + "checks = [quantitative]\n")


def test_parse_missing_required():
    with pytest.raises(ConfigError, match='"family"'):
        cfgmod.parse_config("checks = [quantitative]\ngrid = [1.0]\n")


@pytest.mark.parametrize(
    "override,field",
    [
        ("q = [2.5]", '"q"'),
        ("beta = [0.0]", '"beta"'),
        ("c_factor = [-0.1]", '"c_factor"'),
        ("checks = [nope]", '"checks"'),
        ("family = hexagon", '"family"'),
        ("grid = []", '"grid"'),
        ("K = 50", '"K"'),
        ("k = 0", '"k"'),
    ],
)
def test_validation_names_offending_field(override, field):
    base = "checks = [quantitative]\nfamily = disk\ngrid = [1.0]\n"
    lines = [
        line
        for line in base.splitlines()
        if line.split("=")[0].strip() != override.split("=")[0].strip()
    ]
    text = "\n".join(lines) + "\n" + override + "\n"
    with pytest.raises(ConfigError, match=field):
        cfgmod.parse_config(text)


def test_builtin_configs_parse():
    names = cfgmod.builtin_config_names()
    assert names == ["ball-sanity", "ellipse-q1"]
    for name in names:
        cfg = cfgmod.load_builtin(name)
        assert cfg.name == name
        assert cfgmod.config_description(name)
    with pytest.raises(ConfigError, match="no built-in"):
        cfgmod.load_builtin("missing")


def test_load_config_from_file(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINIMAL, encoding="utf-8")
    cfg = cfgmod.load_config(path)
    assert cfg.name == "mini"
    with pytest.raises(ConfigError, match="cannot read"):
        cfgmod.load_config(tmp_path / "absent.cfg")


# --- CLI --------------------------------------------------------------------


def test_cli_ball_prints_closed_form(capsys):
    status = cli.main(["ball", "--q", "1", "--beta", "1", "--R", "1"])
    out = capsys.readouterr().out
    assert status == 0
    assert "E          = -0.981747704247" in out
    assert "lambda_q   = 0.509295817894" in out
    assert "psi(0)     = 0.75" in out


def test_cli_run_ball_sanity_idempotent(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "ball-sanity"]) == 0
    out_dir = tmp_path / "out" / "ball-sanity"
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == [
        "ec_ball.csv",
        "intermediate.csv",
        "quantitative.csv",
        "summary.txt",
        "trace_poincare.csv",
    ]
    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert cli.main(["run", "ball-sanity"]) == 0
    second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert first == second  # bit-identical rerun
    summary = (out_dir / "summary.txt").read_text()
    assert "status ok" in summary
    assert "total: 4 passed, 0 failed" in summary
    for name, blob in first.items():
        assert b"\r" not in blob, name


def test_cli_run_ellipse_q1_rows_and_deficits(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "ellipse-q1"]) == 0
    cfg = cfgmod.load_builtin("ellipse-q1")
    for check in cfg.checks:
        lines = (
            (tmp_path / "out" / "ellipse-q1" / f"{check}.csv")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert len(rows) == cfg.cardinality(check)  # one row per grid point
        assert [float(r["param"]) for r in rows] == list(cfg.grid)
        assert all(float(r["deficit"]) > 0.0 for r in rows)
        assert all(r["passed"] == "true" for r in rows)


def test_cli_run_config_file_and_q25_exit(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(
        "checks = [quantitative]\nfamily = disk\ngrid = [1.0]\nq = [2.5]\n",
        encoding="utf-8",
    )
    status = cli.main(["run", str(bad)])
    err = capsys.readouterr().err
    assert status == 2
    assert '"q"' in err and "2.5" in err


def test_cli_run_unknown_builtin(capsys):
    assert cli.main(["run", "does-not-exist"]) == 2
    assert "no built-in config" in capsys.readouterr().err


def test_cli_check_subcommand(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    status = cli.main(
        [
            "check",
            "quantitative",
            "--family",
            "ellipse",
            "--grid",
            "1.2",
            "--n-r",
            "24",
            "--n-theta",
            "48",
            "--M",
            "1024",
            "--n-angles",
            "512",
            "--csv",
            str(csv),
        ]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "1/1 passed" in out
    assert "empirical constant" in out
    assert csv.read_text(encoding="utf-8").count("\n") == 2


def test_cli_check_rejects_the_fixed_tolerance_flag(calls, capsys):
    # the half-resolution gauge is the only tolerance path
    argv = ["check", "quantitative", "--family", "ellipse", "--grid", "1.2", "--fixed-tolerance"]
    assert cli.main(argv) == 2
    assert "unrecognized arguments: --fixed-tolerance" in capsys.readouterr().err
    assert calls["mesh_star"] == 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--family", "perturbed", "--grid", "0.05", "--k", "0"],
        ["--family", "ellipse", "--grid", "1.2", "--K", "63"],
        ["--family", "ellipse", "--grid", "1.2", "--c-factor", "-1"],
        ["--family", "ellipse", "--grid", "1.2", "--beta", "0"],
    ],
)
def test_cli_check_rejects_what_a_config_rejects(flags, calls, capsys):
    # the flags make one ExperimentConfig, checked before any work
    assert cli.main(["check", "ec_ball", *flags]) == 2
    assert "config error" in capsys.readouterr().err
    assert calls["mesh_star"] == calls["fraenkel_asymmetry"] == 0


def test_cli_ball_unverified_profile_is_a_solver_failure(capsys):
    # the profile fails its ODE residual check: a solver failure, not a bad value
    argv = ["ball", "--n", "3", "--q", "1.9199441324755204", "--beta", "0.40118109472273006"]
    argv += ["--c", "4.280410742892416", "--R", "1.9164197066144089"]
    assert cli.main(argv) == 3
    assert "solver failure: ODE residual" in capsys.readouterr().err


def test_cli_list_configs(capsys):
    assert cli.main(["list-configs"]) == 0
    out = capsys.readouterr().out
    assert "ball-sanity" in out and "ellipse-q1" in out


def test_cli_argparse_errors_fold_to_config_status(capsys):
    assert cli.main(["bogus"]) == 2
    assert cli.main([]) == 2
    assert cli.main(["check", "nope", "--family", "disk", "--grid", "1.0"]) == 2
    capsys.readouterr()


def _fake_row(passed):
    return {
        "family": "disk",
        "param": 1.0,
        "k": "",
        "q": 1.0,
        "beta": 1.0,
        "c": 0.0,
        "check": "quantitative",
        "lhs": -1.0 if not passed else 1.0,
        "rhs": 0.0,
        "deficit": -1.0 if not passed else 1.0,
        "tolerance": 1e-3,
        "passed": passed,
        "lambda_q": 0.5,
        "E": -0.9,
        "inf_u": 0.5,
        "per": 6.28,
        "area": 3.14,
        "asymmetry": 0.0,
    }


def test_run_experiment_violation_status(tmp_path, monkeypatch, capsys):
    def fake_rows(*args, **kwargs):
        return {"quantitative": [_fake_row(False)]}

    monkeypatch.setattr(cli.ineq, "_experiment_rows", fake_rows)
    cfg = cfgmod.parse_config(
        "checks = [quantitative]\nfamily = disk\ngrid = [1.0]\n"
        f"output_dir = {tmp_path / 'v'}\n"
    )
    status = cli.run_experiment(cfg)
    capsys.readouterr()
    assert status == 4
    summary = (tmp_path / "v" / "summary.txt").read_text()
    assert "status violation" in summary
    assert "0/1 passed" in summary


def test_cli_solver_failure_status(tmp_path, monkeypatch, capsys):
    def exploding_rows(*args, **kwargs):
        raise SolverError("synthetic failure")

    monkeypatch.setattr(cli.ineq, "_experiment_rows", exploding_rows)
    cfg_path = tmp_path / "s.cfg"
    cfg_path.write_text(
        "checks = [quantitative]\nfamily = disk\ngrid = [1.0]\n"
        f"output_dir = {tmp_path / 's'}\n",
        encoding="utf-8",
    )
    assert cli.main(["run", str(cfg_path)]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_cli_run_q2_fails_before_any_solve(tmp_path, calls, capsys):
    cfg_path = tmp_path / "q2.cfg"
    cfg_path.write_text(
        "checks = [quantitative]\nfamily = ellipse\ngrid = [1.2]\nq = [1.0, 2.0]\n"
        f"output_dir = {tmp_path / 'q2'}\n",
        encoding="utf-8",
    )
    assert cli.main(["run", str(cfg_path)]) == 2
    assert "not sweepable" in capsys.readouterr().err
    assert calls["minimize_energy"] == 0


def test_cli_run_that_fails_leaves_no_output_dir(tmp_path, capsys):
    # the output directory is made only in the write phase
    cfg_path = tmp_path / "q2.cfg"
    out_dir = tmp_path / "out" / "q2"
    cfg_path.write_text(
        "checks = [quantitative]\nfamily = ellipse\ngrid = [1.2]\nq = [2.0]\n"
        f"output_dir = {out_dir}\n",
        encoding="utf-8",
    )
    assert cli.main(["run", str(cfg_path)]) == 2
    assert "not sweepable" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_resolution_floor_reads_the_same_from_flags_and_config(tmp_path, calls, capsys):
    expected = 'config error: config field "n_r": 4 is below the floor 8\n'
    argv = ["check", "quantitative", "--family", "ellipse", "--grid", "1.2", "--n-r", "4"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == expected
    cfg_path = tmp_path / "coarse.cfg"
    cfg_path.write_text(
        "checks = [quantitative]\nfamily = ellipse\ngrid = [1.2]\nn_r = 4\n"
        f"output_dir = {tmp_path / 'coarse'}\n",
        encoding="utf-8",
    )
    assert cli.main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == expected
    assert calls["mesh_star"] == calls["fraenkel_asymmetry"] == 0
    assert not (tmp_path / "coarse").exists()


# a multi-check, multi-level experiment small enough for tier-1
SMALL_EXPERIMENT = """
checks = [intermediate, quantitative, ec_ball, trace_poincare]
family = ellipse
grid = [1.15, 1.3]
q = [1.0, 1.5]
beta = [0.5, 2.0]
c_factor = [0.5, 2.0]
n_r = 16
n_theta = 32
K = 64
M = 256
n_angles = 256
"""


def _run_small_experiment(tmp_path, monkeypatch):
    """(status, config, {check: rows written})."""
    cfg = cfgmod.parse_config(SMALL_EXPERIMENT + f"output_dir = {tmp_path / 'x'}\n")
    written = {}
    write = cli.ineq.rows_to_csv

    def recording_write(rows, path):
        written[os.path.splitext(os.path.basename(path))[0]] = rows
        write(rows, path)

    monkeypatch.setattr(cli.ineq, "rows_to_csv", recording_write)
    status = cli.run_experiment(cfg, out=io.StringIO())
    return status, cfg, written


def test_run_experiment_rows_equal_single_check_sweeps(tmp_path, monkeypatch):
    status, cfg, written = _run_small_experiment(tmp_path, monkeypatch)
    assert list(written) == list(cfg.checks)
    all_passed = True
    for check in cfg.checks:
        expected = []
        for q in cfg.q_values:
            for beta in cfg.beta_values:
                for cf in cfg.c_factors if check == "ec_ball" else (0.0,):
                    sw = ineq.sweep(
                        cfg.family,
                        cfg.grid,
                        check,
                        q=q,
                        beta=beta,
                        res=cfg.resolution,
                        k=cfg.k,
                        c_factor=cf,
                        domain_K=cfg.domain_K,
                    )
                    expected.extend(sw.rows)
                    all_passed &= sw.all_passed
        # repr round-trips floats exactly: equal strings are equal bits
        got = [[repr(r[c]) for c in ineq.SWEEP_COLUMNS] for r in written[check]]
        assert got == [[repr(r[c]) for c in ineq.SWEEP_COLUMNS] for r in expected], check
    assert status == (0 if all_passed else 4)


def test_run_experiment_solves_each_shape_once(tmp_path, monkeypatch, calls):
    _, cfg, _ = _run_small_experiment(tmp_path, monkeypatch)
    n_shapes = len(cfg.grid) * len(cfg.q_values) * len(cfg.beta_values)
    # per shape: a fine and a half mesh; the c = 0 solve at both resolutions
    # and each obstacle level at both; one asymmetry per grid value
    assert calls["mesh_star"] == 2 * n_shapes
    assert calls["assemble"] == 2 * n_shapes
    assert calls["minimize_energy"] == (2 + 2 * len(cfg.c_factors)) * n_shapes
    assert calls["fraenkel_asymmetry"] == len(cfg.grid)
