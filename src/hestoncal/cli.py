"""Command-line entry points.

Subcommands: mesh-info, price, build-basis, deamericanize, synth, calibrate,
report.  Every run that writes outputs also writes <stem>_runconfig.json
next to them: the options the subcommand parsed, and under "paths" every
file it read or wrote.  The domain, the theta weight, the unit strike and the
parameter boxes are program constants, not options, and are not recorded.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import quotes as qio
from .mesh import Domain2D, assemble_blocks, build_mesh
from .params import DEFAULT_CALIB_BOX, DEFAULT_PARAM_BOX
from .rbm import GreedyConfig, load_reduced_model, make_training_grid, pod_greedy, save_reduced_model
from .solvers import TimeGrid
from .trees import TreeConfig, deamericanize_set

log = logging.getLogger(__name__)


def _grid(args) -> TimeGrid:
    return TimeGrid(T=args.horizon, I=args.steps)


def _fem(args):
    space = build_mesh(Domain2D(), args.n_nu, args.n_x)
    return space, assemble_blocks(space)


def _theta_arg(text: str) -> tuple:
    values = tuple(float(v) for v in text.split(","))
    if len(values) != 5:
        raise argparse.ArgumentTypeError("expected xi,rho,gamma,kappa,nu0")
    return values


#: Options shared by several subcommands; each subcommand takes only those it reads.
_OPTIONS = {
    "--n-nu": dict(type=int, default=33, help="mesh intervals in variance"),
    "--n-x": dict(type=int, default=33, help="mesh intervals in log-moneyness"),
    "--horizon": dict(type=float, default=2.0, help="time-grid horizon in years"),
    "--steps": dict(type=int, default=120, help="number of time steps"),
    "--rate": dict(type=float, default=0.05, help="risk-free rate"),
    "--spot": dict(type=float, default=1.0, help="spot price S0"),
    "--out-dir": dict(type=Path, default=Path("."), help="output directory"),
    "--backend": dict(default="DetailedAm", choices=list(cal.VARIANTS), help="calibration route"),
    "--theta": dict(type=_theta_arg, required=True, help="xi,rho,gamma,kappa,nu0"),
    "--basis": dict(type=Path, default=None, help="reduced-model .npz file"),
    "--quotes": dict(type=Path, required=True, help="quote CSV"),
    "--tree-steps": dict(type=int, default=TreeConfig.steps, help="CRR tree steps per inversion"),
    "--n-max": dict(type=int, default=GreedyConfig.n_max, help="basis-size cap of the greedy"),
}
#: The options of the mesh and the time grid.
_FEM = ("--n-nu", "--n-x", "--horizon", "--steps")


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(name, **_OPTIONS[name])


def _write_json(path: Path, record: dict) -> None:
    """Write record to path as indented JSON with sorted keys, a Path as its str."""
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n", encoding="utf-8")


def _write_runconfig(args, stem: str, **paths) -> None:
    """Write the parsed options of this run and the files it read or wrote
    (paths, None entries dropped) to <out-dir>/<stem>_runconfig.json."""
    record = {k: v for k, v in vars(args).items() if k != "func"}
    record["paths"] = {k: v for k, v in paths.items() if v is not None}
    _write_json(args.out_dir / f"{stem}_runconfig.json", record)


def _load_basis(args):
    """The --basis model; refused unless it was built on the mesh and time
    grid of args, which its reduced solves and refinements use."""
    model = load_reduced_model(args.basis)
    mesh = {"--n-nu": (model.space.n_nu, args.n_nu), "--n-x": (model.space.n_x, args.n_x),
            "--steps": (model.grid.I, args.steps), "--horizon": (model.grid.T, args.horizon)}
    for option, (built, parsed) in mesh.items():
        if built != parsed:
            raise ValueError(f"{args.basis} was built with {option} {built}; this run has {option} {parsed}")
    return model


def _backend(args):
    """The --backend variant's pricer; the mesh of args is built only if the
    variant prices with it.  A --basis for a variant that prices without one
    is refused before it loads."""
    if args.basis is not None and cal.VARIANTS[args.backend].backend is not cal.ReducedBackend:
        raise ValueError(f"backend {args.backend} prices without a reduced basis; drop --basis")
    model = None if args.basis is None else _load_basis(args)
    return cal.make_backend(args.backend, fem=lambda: (*_fem(args), _grid(args)), model=model)


# ---------------------------------------------------------------------------
# report emission

RESIDUAL_COLUMNS = ["maturity_years", "strike", "observed", "model", "abs_rel_err"]
PSEUDO_COLUMNS = ["maturity_years", "strike", "observed_price", "sigma_star", "pseudo_price"]


def emit_report(report: cal.CalibReport, out_dir: Path, stem: str = "calibration") -> dict:
    """Write summary text, residual CSV and the phase timings.

    The timings go to their own JSON file so that the other two outputs
    are bit-identical for identical inputs.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "summary": out_dir / f"{stem}_summary.txt",
        "residuals": out_dir / f"{stem}_residuals.csv",
        "timings": out_dir / f"{stem}_timings.json",
    }
    qio.write_table(paths["residuals"], RESIDUAL_COLUMNS, zip(
        report.maturities, report.strikes, report.observed, report.model_prices, report.rel_errors))
    lines = [
        f"backend: {report.variant}",
        f"status: {report.status}",
        "theta*: " + " ".join(f"{k}={v:.6f}" for k, v in report.param_dict().items()),
        f"J*: {report.J_star:.6e}",
        f"iterations: {report.iterations}",
        f"objective evaluations: {report.n_evals}",
        f"quotes: {report.residuals.size}",
        f"max abs_rel_err: {np.max(report.rel_errors):.6e}",
        f"feller enforced: {report.feller_active} (margin {report.feller_margin:.3e})",
        f"x0: {np.array2string(report.x0, precision=6)}",
    ]
    paths["summary"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(paths["timings"], {"preprocess_s": report.time_preprocess,
                                   "calibrate_s": report.time_calibrate})
    return paths


def _parse_residual(row: list[str]) -> dict:
    """A residual row by column; a cell that is missing or not a number is refused."""
    record = dict(zip(RESIDUAL_COLUMNS, row))
    for c in RESIDUAL_COLUMNS:
        try:
            float(record.get(c))
        except (TypeError, ValueError):
            what = "is missing" if c not in record else f"{record[c]!r} is not a number"
            raise ValueError(f"{c} {what}") from None
    return record


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_mesh_info(args) -> int:
    space = build_mesh(Domain2D(), args.n_nu, args.n_x)
    print(f"domain: variance [{space.domain.nu_min}, {space.domain.nu_max}]"
          f" x log-moneyness [{space.domain.x_min}, {space.domain.x_max}]")
    print(f"intervals: {space.n_nu} x {space.n_x}")
    print(f"nodes: {space.n_nodes}")
    print(f"triangles: {space.triangles.shape[0]}")
    print(f"free (interior + variance-wall) DOFs: {space.n_free}")
    print(f"mesh size: h_nu={np.ptp(space.nu) / space.n_nu:.6g}, h_x={np.ptp(space.x) / space.n_x:.6g}")
    return 0


def cmd_price(args) -> int:
    quote = qio.Quote(maturity=args.maturity, strike=args.strike,
                      style=cal.VARIANTS[args.backend].style, price=float("nan"))
    backend = _backend(args)
    price = float(backend.price_vector(np.asarray(args.theta), [quote], args.spot, args.rate)[0])
    print(f"{price:.10f}")
    return 0


def cmd_build_basis(args) -> int:
    space, blocks = _fem(args)
    train = make_training_grid(DEFAULT_PARAM_BOX, args.train_counts, args.rate)
    log.info("training set: %d distinct PDE parameters", len(train))
    t0 = time.perf_counter()
    model = pod_greedy(args.style, train, space, blocks, _grid(args),
                       GreedyConfig(n_max=args.n_max, tol=args.tol))
    elapsed = time.perf_counter() - t0
    out = args.out_dir / args.output
    args.out_dir.mkdir(parents=True, exist_ok=True)
    save_reduced_model(model, out)
    _write_runconfig(args, out.stem, basis=out)
    print(f"basis: dim={model.dim} dual={model.n_dual} "
          f"training-error={model.errors[-1]:.3e} offline-time={elapsed:.1f}s -> {out}")
    return 0


def cmd_deamericanize(args) -> int:
    raw = qio.read_quotes_csv(args.quotes, S0=args.spot, r=args.rate)
    pre = qio.preprocess_quotes(raw)
    pseudo = deamericanize_set(pre.quotes, args.spot, args.rate, TreeConfig(steps=args.tree_steps))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / args.output
    qio.write_table(out, PSEUDO_COLUMNS, ((p.maturity, p.strike, p.observed_price, p.sigma_star,
                                           p.pseudo_price) for p in pseudo))
    _write_runconfig(args, out.stem, quotes=args.quotes, output=out)
    print(f"wrote {len(pseudo)} pseudo-European quotes -> {out}")
    return 0


def cmd_synth(args) -> int:
    backend = _backend(args)
    style = cal.VARIANTS[args.backend].style
    qs = qio.generate_synthetic(np.asarray(args.theta), args.rate, style, backend.price_vector)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / args.output
    qio.write_quotes_csv(qs, out)
    _write_runconfig(args, out.stem, basis=args.basis, output=out)
    print(f"wrote {len(qs)} synthetic quotes -> {out}")
    return 0


def cmd_calibrate(args) -> int:
    # the options are checked, and the pricer or the pilot basis loaded, before the quotes
    if args.refine_basis:
        if args.backend != "ReducedAm":
            raise ValueError("--refine-basis requires --backend ReducedAm")
        if args.basis is None:
            raise ValueError("--refine-basis requires a pilot --basis")
        model = _load_basis(args)
    else:
        backend = _backend(args)
    pre = qio.preprocess_quotes(qio.read_quotes_csv(args.quotes, S0=args.spot, r=args.rate))
    t0 = time.perf_counter()
    pre = cal.route_quotes(args.backend, pre, TreeConfig(steps=args.tree_steps))
    t_pre = time.perf_counter() - t0
    box = DEFAULT_CALIB_BOX
    options = cal.OptimizerOptions(max_iter=args.max_iter, feller=args.feller,
                                   fix_kappa=args.fix_kappa)
    refined_path, pilot_paths = None, {}
    if args.refine_basis:
        # refine on the pilot's own node arrays and time grid, which may be graded
        report, refined, pilot = cal.calibrate_reduced_refined(
            pre, model, model.space, assemble_blocks(model.space), model.grid,
            box, DEFAULT_PARAM_BOX,
            greedy_config=GreedyConfig(n_max=args.n_max),
            x0=args.x0, options=options,
        )
        pilot_paths = {f"pilot_{k}": v for k, v in
                       emit_report(pilot, args.out_dir, stem=f"{args.stem}_pilot").items()}
        refined_path = args.out_dir / f"{args.stem}_refined_basis.npz"
        save_reduced_model(refined, refined_path)
        print(f"refined basis: dim={refined.dim} dual={refined.n_dual} -> {refined_path}")
    else:
        report = cal.calibrate(pre, backend, box, x0=args.x0, options=options,
                               time_preprocess=t_pre)
    paths = emit_report(report, args.out_dir, stem=args.stem)
    _write_runconfig(args, args.stem, quotes=args.quotes, basis=args.basis,
                     refined_basis=refined_path, **pilot_paths, **paths)
    print(paths["summary"].read_text(encoding="utf-8"), end="")
    print(f"time preprocess [s]: {report.time_preprocess:.3f}")
    print(f"time calibrate [s]: {report.time_calibrate:.3f}")
    return 0 if report.status != "feller_infeasible" else 1


def cmd_report(args) -> int:
    rows = qio.read_table(args.residuals, RESIDUAL_COLUMNS, _parse_residual)
    if not rows:
        print("empty residual file", file=sys.stderr)
        return 1
    rel = np.array([float(r["abs_rel_err"]) for r in rows])
    res = np.array([float(r["observed"]) - float(r["model"]) for r in rows])
    print(f"quotes: {len(rows)}")
    print(f"J (mean squared residual): {float(res @ res) / res.size:.6e}")
    print(f"max abs_rel_err: {rel.max():.6e}")
    print(f"mean abs_rel_err: {rel.mean():.6e}")
    worst = rows[int(np.argmax(rel))]
    print(f"worst quote: T={worst['maturity_years']} K={worst['strike']}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hestoncal",
                                description="Volatility-model put calibration toolkit")
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("mesh-info", help="print mesh statistics")
    _add_options(sp, "--n-nu", "--n-x")
    sp.set_defaults(func=cmd_mesh_info)

    sp = sub.add_parser("price", help="price one put option")
    _add_options(sp, *_FEM, "--rate", "--spot", "--backend", "--theta", "--basis")
    sp.add_argument("--strike", type=float, required=True)
    sp.add_argument("--maturity", type=float, required=True)
    sp.set_defaults(func=cmd_price)

    sp = sub.add_parser("build-basis", help="offline greedy reduced-basis construction")
    _add_options(sp, *_FEM, "--rate", "--out-dir", "--n-max")
    sp.add_argument("--style", choices=["american", "european"], default="american")
    sp.add_argument("--tol", type=float, default=GreedyConfig.tol)
    sp.add_argument("--train-counts", type=int, nargs=4, default=[3, 3, 3, 3],
                    help="training-grid points along xi, rho, gamma and kappa")
    sp.add_argument("--output", default="reduced_model.npz")
    sp.set_defaults(func=cmd_build_basis)

    sp = sub.add_parser("deamericanize", help="transform American quotes to pseudo-European")
    _add_options(sp, "--rate", "--spot", "--out-dir", "--quotes", "--tree-steps")
    sp.add_argument("--output", default="pseudo_quotes.csv")
    sp.set_defaults(func=cmd_deamericanize)

    sp = sub.add_parser("synth", help="generate the synthetic 65-quote ladder")
    _add_options(sp, *_FEM, "--rate", "--out-dir", "--backend", "--theta", "--basis")
    sp.add_argument("--output", default="synthetic_quotes.csv")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("calibrate", help="calibrate parameters to a quote CSV")
    _add_options(sp, *_FEM, "--rate", "--spot", "--out-dir", "--backend", "--quotes",
                 "--basis", "--tree-steps", "--n-max")
    sp.add_argument("--max-iter", type=int, default=cal.MAX_ITER)
    sp.add_argument("--fix-kappa", action="store_true")
    sp.add_argument("--feller", action="store_true")
    sp.add_argument("--x0", type=_theta_arg, default=None)
    sp.add_argument("--stem", default="calibration")
    sp.add_argument("--refine-basis", action="store_true",
                    help="ReducedAm only: after a pilot calibration, rebuild the "
                         "basis on a training grid localized around the pilot "
                         "optimum and re-calibrate (two-stage)")
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("report", help="summarize a residual CSV")
    sp.add_argument("--residuals", type=Path, required=True)
    sp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
