"""CLI subcommands: smoke runs and provenance files (acceptance criterion 8
checks their determinism)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hestoncal.calibration import MAX_ITER
from hestoncal.cli import build_parser, main
from hestoncal.mesh import assemble_blocks, mesh_from_nodes
from hestoncal.params import ModelParams
from hestoncal.quotes import GOOGLE_R, GOOGLE_S0, QuoteSet, load_google_quotes, write_quotes_csv
from hestoncal.rbm import GreedyConfig, load_reduced_model, pod_greedy, save_reduced_model
from hestoncal.solvers import TimeGrid
from hestoncal.trees import TreeConfig

THETA = "0.25,-0.5,0.10,0.4,0.10"


def _run(args):
    rc = main(args)
    assert rc == 0


def test_mesh_info(capsys):
    _run(["mesh-info", "--n-nu", "8", "--n-x", "8"])
    out = capsys.readouterr().out
    assert "nodes" in out and "triangles" in out


def test_price_detailed_american(capsys):
    _run(
        [
            "price",
            "--backend",
            "DetailedAm",
            "--theta",
            THETA,
            "--strike",
            "1.0",
            "--maturity",
            "0.5",
            "--n-nu",
            "12",
            "--n-x",
            "12",
            "--steps",
            "24",
            "--horizon",
            "1.0",
        ]
    )
    out = capsys.readouterr().out
    price = float(out.strip().split()[-1])
    assert 0.0 < price < 1.0


@pytest.mark.parametrize("horizon", ["inf", "nan"])
def test_price_refuses_a_non_finite_horizon(horizon):
    argv = ["price", "--backend", "DetailedAm", "--theta", THETA, "--strike", "1",
            "--maturity", "1", "--n-nu", "8", "--n-x", "8", "--steps", "8", "--horizon", horizon]
    with pytest.raises(ValueError, match=f"finite T > 0 and I >= 1, got T={horizon}"):
        main(argv)


def test_price_closed_form(capsys):
    _run(
        [
            "price",
            "--backend",
            "DasClosedForm",
            "--theta",
            THETA,
            "--strike",
            "1.0",
            "--maturity",
            "0.5",
        ]
    )
    price = float(capsys.readouterr().out.strip().split()[-1])
    assert 0.0 < price < 1.0


def test_synth_writes_csv_and_runconfig(tmp_path):
    _run(
        [
            "synth",
            "--backend",
            "DasClosedForm",
            "--theta",
            THETA,
            "--output",
            "ladder.csv",
            "--out-dir",
            str(tmp_path),
        ]
    )
    csv_path = tmp_path / "ladder.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "maturity_years,strike,bid,ask,price,style"
    assert len(lines) == 66  # header + 65 quotes
    cfg = json.loads((tmp_path / "ladder_runconfig.json").read_text())
    assert cfg["command"] == "synth"
    assert tuple(cfg["theta"]) == tuple(float(v) for v in THETA.split(","))


def _make_ladder(tmp_path, style="european"):
    backend = "DasClosedForm"
    out = f"ladder_{style}.csv"
    _run(
        [
            "synth",
            "--backend",
            backend,
            "--theta",
            THETA,
            "--output",
            out,
            "--out-dir",
            str(tmp_path),
        ]
    )
    return tmp_path / out


def test_calibrate_closed_form_round_trip(tmp_path):
    quotes = _make_ladder(tmp_path)
    _run(
        [
            "calibrate",
            "--backend",
            "DasClosedForm",
            "--quotes",
            str(quotes),
            "--x0",
            "0.3,-0.4,0.15,0.8,0.15",
            "--max-iter",
            "60",
            "--stem",
            "cf",
            "--out-dir",
            str(tmp_path),
        ]
    )
    summary = (tmp_path / "cf_summary.txt").read_text()
    assert "xi" in summary and "status" in summary
    assert not any(line.startswith("time") for line in summary.splitlines())
    timings = json.loads((tmp_path / "cf_timings.json").read_text())
    assert set(timings) == {"preprocess_s", "calibrate_s"}
    assert timings["preprocess_s"] >= 0.0 and timings["calibrate_s"] > 0.0
    res = (tmp_path / "cf_residuals.csv").read_text().splitlines()
    assert res[0] == "maturity_years,strike,observed,model,abs_rel_err"
    assert len(res) == 66
    cfg = json.loads((tmp_path / "cf_runconfig.json").read_text())
    assert cfg["backend"] == "DasClosedForm"
    assert cfg["paths"]["timings"] == str(tmp_path / "cf_timings.json")


def test_deamericanize_subcommand(tmp_path):
    # synthesize American-looking quotes via the closed form plus a premium
    quotes = _make_ladder(tmp_path)
    text = quotes.read_text().splitlines()
    fixed = [text[0]]
    for line in text[1:]:
        parts = line.split(",")
        parts[-1] = "american"
        fixed.append(",".join(parts))
    am = tmp_path / "am.csv"
    am.write_text("\n".join(fixed) + "\n")
    _run(
        [
            "deamericanize",
            "--quotes",
            str(am),
            "--tree-steps",
            "100",
            "--output",
            "pseudo.csv",
            "--out-dir",
            str(tmp_path),
        ]
    )
    pseudo = (tmp_path / "pseudo.csv").read_text().splitlines()
    assert pseudo[0] == "maturity_years,strike,observed_price,sigma_star,pseudo_price"
    assert 1 < len(pseudo) <= 66
    for line in pseudo[1:]:
        row = line.split(",")
        assert float(row[4]) <= float(row[2]) + 1e-12  # pseudo <= observed


def test_build_basis_and_reduced_price(tmp_path, capsys):
    common = [
        "--n-nu",
        "10",
        "--n-x",
        "10",
        "--steps",
        "10",
        "--horizon",
        "1.0",
    ]
    _run(
        [
            "build-basis",
            "--style",
            "american",
            "--n-max",
            "8",
            "--train-counts",
            "2",
            "1",
            "1",
            "2",
            "--output",
            "model.npz",
            "--out-dir",
            str(tmp_path),
        ]
        + common
    )
    model = tmp_path / "model.npz"
    assert model.exists()
    _run(
        [
            "price",
            "--backend",
            "ReducedAm",
            "--basis",
            str(model),
            "--theta",
            THETA,
            "--strike",
            "1.0",
            "--maturity",
            "0.5",
        ]
        + common
    )
    price = float(capsys.readouterr().out.strip().split()[-1])
    assert 0.0 < price < 1.0
    # the European variants refuse the American basis
    for backend in ("ReducedEu", "DasReduced"):
        with pytest.raises(ValueError, match="basis is american"):
            main(["price", "--backend", backend, "--basis", str(model), "--theta", THETA,
                  "--strike", "1.0", "--maturity", "0.5"] + common)


def test_runconfig_records_basis_and_n_max(tmp_path):
    common = ["--n-nu", "8", "--n-x", "8", "--steps", "8", "--horizon", "2.0", "--out-dir", str(tmp_path)]
    _run(["build-basis", "--n-max", "6", "--train-counts", "2", "1", "1", "1",
          "--output", "model.npz"] + common)
    basis = str(tmp_path / "model.npz")
    _run(["synth", "--backend", "ReducedAm", "--basis", basis, "--theta", THETA,
          "--output", "ladder.csv"] + common)
    cfg = json.loads((tmp_path / "ladder_runconfig.json").read_text())
    assert cfg["paths"]["basis"] == basis
    _run(["calibrate", "--backend", "ReducedAm", "--basis", basis,
          "--quotes", str(tmp_path / "ladder.csv"), "--x0", THETA, "--n-max", "7",
          "--max-iter", "1", "--stem", "rb"] + common)
    cfg = json.loads((tmp_path / "rb_runconfig.json").read_text())
    assert cfg["n_max"] == 7
    assert cfg["paths"]["basis"] == basis


#: Keys of every runconfig besides the subcommand's own options.
RECORD_KEYS = {"command", "verbose", "paths"}
FEM_KEYS = {"n_nu", "n_x", "horizon", "steps"}


def _record(path):
    return json.loads(path.read_text())


def test_build_basis_records_exactly_its_options(tmp_path):
    _run(["build-basis", "--n-nu", "8", "--n-x", "8", "--steps", "8", "--n-max", "6",
          "--train-counts", "2", "1", "1", "1", "--output", "m.npz", "--out-dir", str(tmp_path)])
    cfg = _record(tmp_path / "m_runconfig.json")
    assert set(cfg) == RECORD_KEYS | FEM_KEYS | {
        "rate", "out_dir", "n_max", "style", "tol", "train_counts", "output"}
    assert cfg["paths"] == {"basis": str(tmp_path / "m.npz")}
    assert cfg["train_counts"] == [2, 1, 1, 1]


def test_build_basis_writes_the_output_path_it_records(tmp_path, capsys):
    common = ["--n-nu", "8", "--n-x", "8", "--steps", "8", "--horizon", "2.0"]
    _run(["build-basis", "--n-max", "4", "--train-counts", "2", "1", "1", "1",
          "--output", "mybasis", "--out-dir", str(tmp_path)] + common)
    basis = tmp_path / "mybasis"
    assert capsys.readouterr().out.rstrip().endswith(f"-> {basis}")
    assert _record(tmp_path / "mybasis_runconfig.json")["paths"] == {"basis": str(basis)}
    assert load_reduced_model(basis).style == "american"
    _run(["price", "--backend", "ReducedAm", "--basis", str(basis), "--theta", THETA,
          "--strike", "1.0", "--maturity", "0.5"] + common)


def test_build_basis_refuses_a_cap_without_room_for_a_pick(tmp_path):
    with pytest.raises(ValueError, match="n_max=2 .*initial basis of size 2"):
        main(["build-basis", "--style", "american", "--n-nu", "8", "--n-x", "8", "--steps", "8",
              "--n-max", "2", "--train-counts", "2", "1", "1", "1", "--out-dir", str(tmp_path)])
    assert not any(tmp_path.iterdir())  # nothing written


def test_deamericanize_records_exactly_its_options(tmp_path):
    quotes = tmp_path / "am.csv"
    quotes.write_text("maturity_years,strike,bid,ask,price,style\n"
                      "0.5,1.0,,,0.08,american\n1.0,1.1,,,0.14,american\n")
    _run(["deamericanize", "--quotes", str(quotes), "--tree-steps", "50",
          "--output", "pseudo.csv", "--out-dir", str(tmp_path)])
    cfg = _record(tmp_path / "pseudo_runconfig.json")
    assert set(cfg) == RECORD_KEYS | {"rate", "spot", "out_dir", "quotes", "tree_steps", "output"}
    assert cfg["paths"] == {"quotes": str(quotes), "output": str(tmp_path / "pseudo.csv")}


def test_synth_records_exactly_its_options(tmp_path):
    _run(["synth", "--backend", "DasClosedForm", "--theta", THETA, "--output", "ladder.csv",
          "--out-dir", str(tmp_path)])
    cfg = _record(tmp_path / "ladder_runconfig.json")
    assert set(cfg) == RECORD_KEYS | FEM_KEYS | {
        "rate", "out_dir", "backend", "theta", "basis", "output"}
    assert cfg["paths"] == {"output": str(tmp_path / "ladder.csv")}


def test_calibrate_records_exactly_its_options(tmp_path):
    quotes = _make_ladder(tmp_path)
    _run(["calibrate", "--backend", "DasClosedForm", "--quotes", str(quotes), "--x0", THETA,
          "--max-iter", "1", "--stem", "cf", "--out-dir", str(tmp_path)])
    cfg = _record(tmp_path / "cf_runconfig.json")
    assert set(cfg) == RECORD_KEYS | FEM_KEYS | {
        "rate", "spot", "out_dir", "backend", "quotes", "basis", "tree_steps", "n_max",
        "max_iter", "fix_kappa", "feller", "x0", "stem", "refine_basis"}
    assert cfg["stem"] == "cf" and cfg["refine_basis"] is False
    assert cfg["paths"] == {
        "quotes": str(quotes),
        "summary": str(tmp_path / "cf_summary.txt"),
        "residuals": str(tmp_path / "cf_residuals.csv"),
        "timings": str(tmp_path / "cf_timings.json"),
    }


def test_parser_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    basis = parse(["build-basis"])
    assert (basis.n_max, basis.tol) == (GreedyConfig.n_max, GreedyConfig.tol)
    calib = parse(["calibrate", "--quotes", "q.csv"])
    assert (calib.n_max, calib.tree_steps, calib.max_iter) == (
        GreedyConfig.n_max, TreeConfig.steps, MAX_ITER)
    assert parse(["deamericanize", "--quotes", "q.csv"]).tree_steps == TreeConfig.steps


def test_calibrate_refuses_quotes_of_the_other_style(tmp_path):
    common = ["--n-nu", "8", "--n-x", "8", "--steps", "8", "--horizon", "2.0", "--out-dir", str(tmp_path)]
    for style, backend, other in (("european", "DetailedEu", "DetailedAm"),
                                  ("american", "DetailedAm", "DetailedEu")):
        _run(["synth", "--backend", backend, "--theta", THETA, "--output", f"{style}.csv"] + common)
        with pytest.raises(ValueError, match=f"holds {style} ones"):
            main(["calibrate", "--backend", other, "--quotes", str(tmp_path / f"{style}.csv"),
                  "--x0", THETA, "--max-iter", "1", "--stem", other] + common)
        assert not (tmp_path / f"{other}_summary.txt").exists()


def test_basis_refuses_a_mesh_or_time_grid_it_was_not_built_on(tmp_path):
    common = ["--n-nu", "8", "--n-x", "8", "--steps", "8", "--horizon", "2.0"]
    _run(["build-basis", "--n-max", "4", "--train-counts", "2", "1", "1", "1",
          "--output", "m.npz", "--out-dir", str(tmp_path)] + common)
    basis = str(tmp_path / "m.npz")
    price = ["price", "--backend", "ReducedAm", "--basis", basis, "--theta", THETA,
             "--strike", "1.0", "--maturity", "0.5"]
    _run(price + common)
    # the default mesh and time grid are not the basis's
    with pytest.raises(ValueError, match="built with --n-nu 8; this run has --n-nu 33"):
        main(price)
    # a repeated option takes its last value
    for option, value in (("--n-x", "7"), ("--steps", "9"), ("--horizon", "1.0")):
        with pytest.raises(ValueError, match=f"built with {option} .*; this run has {option} {value}"):
            main(price + common + [option, value])
    _run(["synth", "--backend", "DetailedAm", "--theta", THETA, "--output", "q.csv",
          "--out-dir", str(tmp_path)] + common)
    calibrate = ["calibrate", "--backend", "ReducedAm", "--basis", basis, "--refine-basis",
                 "--quotes", str(tmp_path / "q.csv"), "--out-dir", str(tmp_path)]
    with pytest.raises(ValueError, match="this run has --steps 120"):
        main(calibrate + common[:4])
    assert not (tmp_path / "calibration_summary.txt").exists()


def test_refine_basis_reports_the_pilot_and_the_refined_basis(tmp_path, capsys):
    common = ["--n-nu", "8", "--n-x", "8", "--steps", "8", "--horizon", "2.0", "--out-dir", str(tmp_path)]
    _run(["build-basis", "--n-max", "4", "--train-counts", "2", "1", "1", "1",
          "--output", "m.npz"] + common)
    _run(["synth", "--backend", "DetailedAm", "--theta", THETA, "--output", "q.csv"] + common)
    capsys.readouterr()
    _run(["calibrate", "--backend", "ReducedAm", "--basis", str(tmp_path / "m.npz"),
          "--refine-basis", "--n-max", "4", "--quotes", str(tmp_path / "q.csv"), "--x0", THETA,
          "--max-iter", "1", "--stem", "two"] + common)
    out = capsys.readouterr().out
    assert f"refined basis: dim=4 dual=2 -> {tmp_path / 'two_refined_basis.npz'}" in out
    paths = _record(tmp_path / "two_runconfig.json")["paths"]
    for key, suffix in (("summary", "summary.txt"), ("residuals", "residuals.csv"), ("timings", "timings.json")):
        assert paths[f"pilot_{key}"] == str(tmp_path / f"two_pilot_{suffix}")
        assert paths[key] == str(tmp_path / f"two_{suffix}")
    pilot = (tmp_path / "two_pilot_summary.txt").read_text()
    assert "backend: ReducedAm" in pilot and "iterations: 1" in pilot
    assert paths["refined_basis"] == str(tmp_path / "two_refined_basis.npz")


def test_refine_basis_refines_on_a_graded_pilot_basis(tmp_path):
    """--refine-basis builds its refinement bases on the pilot basis's own
    node arrays and time grid, here graded in x (x = 0.1 sinh(z), z
    uniform), not on the uniform mesh of --n-nu and --n-x."""
    x = 0.1 * np.sinh(np.linspace(-np.arcsinh(50.0), np.arcsinh(50.0), 9))
    x[[0, -1]] = -5.0, 5.0
    space = mesh_from_nodes(np.linspace(1e-5, 3.0, 9), x)
    grid = TimeGrid(2.0, 8)
    train = [ModelParams(0.3, -0.5, 0.1, 1.0, 0.05), ModelParams(0.5, -0.2, 0.2, 2.0, 0.05)]
    pilot = pod_greedy("american", train, space, assemble_blocks(space), grid, GreedyConfig(n_max=4))
    save_reduced_model(pilot, tmp_path / "graded.npz")
    common = ["--n-nu", "8", "--n-x", "8", "--steps", "8", "--horizon", "2.0", "--out-dir", str(tmp_path)]
    _run(["synth", "--backend", "DetailedAm", "--theta", THETA, "--output", "q.csv"] + common)
    _run(["calibrate", "--backend", "ReducedAm", "--basis", str(tmp_path / "graded.npz"),
          "--refine-basis", "--n-max", "4", "--quotes", str(tmp_path / "q.csv"), "--x0", THETA,
          "--max-iter", "1", "--stem", "graded"] + common)
    refined = load_reduced_model(tmp_path / "graded_refined_basis.npz")
    assert refined.space.nu.tobytes() == space.nu.tobytes()
    assert refined.space.x.tobytes() == x.tobytes()
    assert refined.grid == grid


def test_report_subcommand(tmp_path, capsys):
    res = tmp_path / "r.csv"
    res.write_text(
        "maturity_years,strike,observed,model,abs_rel_err\n"
        "0.5,1.0,0.1,0.101,0.01\n"
        "1.0,0.9,0.05,0.049,0.02\n"
    )
    _run(["report", "--residuals", str(res)])
    out = capsys.readouterr().out
    assert "max" in out


def test_report_refuses_a_residual_file_without_a_column_it_reads(tmp_path):
    res = tmp_path / "r.csv"
    res.write_text("maturity_years,strike,observed,model\n0.5,1.0,0.1,0.101\n")
    with pytest.raises(ValueError, match="r.csv: a residual CSV needs the column.s. abs_rel_err"):
        _run(["report", "--residuals", str(res)])


@pytest.mark.parametrize("row, named", [
    ("0.5,1.0,0.1,0.101", "abs_rel_err is missing"),
    ("0.5,1.0,0.1,,0.01", "model '' is not a number"),
    ("0.5,1.0,0.1,n/a,0.01", "model 'n/a' is not a number"),
], ids=["short_row", "empty_cell", "text_cell"])
def test_report_refuses_a_residual_row_with_a_missing_or_non_numeric_cell(tmp_path, row, named):
    """A row whose cell is missing or not a number is refused, naming the file and the line."""
    res = tmp_path / "r.csv"
    res.write_text(f"maturity_years,strike,observed,model,abs_rel_err\n1.0,0.9,0.05,0.049,0.02\n{row}\n")
    with pytest.raises(ValueError, match=f"r.csv, line 3: {named}$"):
        _run(["report", "--residuals", str(res)])


@pytest.mark.parametrize(
    "argv",
    [
        ["deamericanize", "--quotes", "x.csv", "--n-nu", "5"],
        ["synth", "--theta", THETA, "--spot", "2"],
        ["build-basis", "--spot", "2"],
        ["build-basis", "--train-counts", "2", "1", "1", "2", "1"],
        ["price", "--theta", THETA, "--strike", "1.0", "--maturity", "0.5", "--out-dir", "."],
    ],
)
def test_parser_rejects_options_the_subcommand_does_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_unknown_backend_rejected():
    with pytest.raises(SystemExit):
        main(["calibrate", "--backend", "Nonsense", "--quotes", "x.csv"])


#: Imports every module, then runs each JSON argv list of argv[1] through
#: cli.main; prints, after the imports and after each run, whether
#: scipy.sparse has been loaded.
_SPARSE_PROBE = """
import json, sys
from hestoncal import calibration, cli, mesh, rbm, solvers
loaded = ["scipy.sparse" in sys.modules]
for argv in json.loads(sys.argv[1]):
    if cli.main(argv) != 0:
        sys.exit(f"nonzero exit status: {argv}")
    loaded.append("scipy.sparse" in sys.modules)
print(json.dumps(loaded))
"""


def test_closed_form_flows_never_load_the_sparse_stack(tmp_path):
    """Importing hestoncal and running deamericanize, a DasClosedForm
    calibration and report leave scipy.sparse unloaded; a DetailedAm price
    loads it, so the probe sees an import when one happens."""
    bundled = load_google_quotes()
    two = sorted({q.maturity for q in bundled})[:2]
    quotes = tuple(q for q in bundled if q.maturity in two)[::5]
    write_quotes_csv(QuoteSet(quotes=quotes, S0=GOOGLE_S0, r=GOOGLE_R), tmp_path / "am.csv")
    market = ["--quotes", "am.csv", "--spot", repr(GOOGLE_S0), "--rate", repr(GOOGLE_R), "--out-dir", "."]
    flows = [
        ["deamericanize", *market],
        ["calibrate", "--backend", "DasClosedForm", *market, "--max-iter", "5", "--stem", "das"],
        ["report", "--residuals", "das_residuals.csv"],
        ["price", "--backend", "DetailedAm", "--theta", THETA, "--strike", "1.0", "--maturity", "0.5",
         "--n-nu", "8", "--n-x", "8", "--steps", "8"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _SPARSE_PROBE, json.dumps(flows)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False, False, True]
