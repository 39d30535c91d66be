"""Command-line entry points.

Subcommands: mesh-info, price, build-basis, deamericanize, synth, calibrate,
report.  Every run that writes outputs also writes its resolved RunConfig as
JSON next to them for provenance.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
import time
from dataclasses import dataclass, field
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


@dataclass
class RunConfig:
    """Resolved knobs of one CLI run, written next to its outputs."""

    command: str
    domain: tuple = (1e-5, 3.0, -5.0, 5.0)
    n_nu: int = 33
    n_x: int = 33
    horizon: float = 2.0
    steps: int = 120
    theta_scheme: float = 0.5
    backend: str = "DetailedAm"
    calib_box_lower: tuple = DEFAULT_CALIB_BOX.lower
    calib_box_upper: tuple = DEFAULT_CALIB_BOX.upper
    train_box_lower: tuple = DEFAULT_PARAM_BOX.lower
    train_box_upper: tuple = DEFAULT_PARAM_BOX.upper
    train_counts: tuple = (3, 3, 3, 3, 3)
    n_max: int = 60
    rb_tol: float = 1e-5
    tree_steps: int = 500
    max_iter: int = 200
    fix_kappa: bool = False
    feller: bool = False
    x0: tuple | None = None
    S0: float = 1.0
    r: float = 0.05
    paths: dict = field(default_factory=dict)

    def dump(self, path: Path) -> None:
        payload = dataclasses.asdict(self)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _domain(cfg: RunConfig) -> Domain2D:
    return Domain2D(*cfg.domain)


def _grid(cfg: RunConfig) -> TimeGrid:
    return TimeGrid(T=cfg.horizon, I=cfg.steps, theta=cfg.theta_scheme)


def _fem(cfg: RunConfig):
    space = build_mesh(_domain(cfg), cfg.n_nu, cfg.n_x)
    return space, assemble_blocks(space)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-nu", type=int, default=33, help="mesh intervals in variance")
    p.add_argument("--n-x", type=int, default=33, help="mesh intervals in log-moneyness")
    p.add_argument("--horizon", type=float, default=2.0, help="time-grid horizon in years")
    p.add_argument("--steps", type=int, default=120, help="number of time steps")
    p.add_argument("--rate", type=float, default=0.05, help="risk-free rate")
    p.add_argument("--spot", type=float, default=1.0, help="spot price S0")
    p.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")


def _theta_arg(text: str) -> tuple:
    values = tuple(float(v) for v in text.split(","))
    if len(values) != 5:
        raise argparse.ArgumentTypeError("expected xi,rho,gamma,kappa,nu0")
    return values


def _pseudo_to_quoteset(pseudo, S0, r) -> qio.QuoteSet:
    quotes = [
        qio.Quote(maturity=p.maturity, strike=p.strike, style="european", price=p.pseudo_price)
        for p in pseudo
    ]
    return qio.QuoteSet(quotes=tuple(quotes), S0=S0, r=r)


def _make_backend(cfg: RunConfig, basis_path=None):
    if cfg.backend in ("DetailedAm", "DetailedEu", "DasPde"):
        space, blocks = _fem(cfg)
        return cal.PdeBackend(cfg.backend, space, blocks, _grid(cfg))
    if cfg.backend in ("ReducedAm", "ReducedEu", "DasReduced"):
        if basis_path is None:
            raise ValueError(f"backend {cfg.backend} requires --basis")
        return cal.ReducedBackend(cfg.backend, load_reduced_model(basis_path))
    if cfg.backend == "DasClosedForm":
        return cal.ClosedFormBackend()
    raise ValueError(f"unknown backend {cfg.backend!r}")


# ---------------------------------------------------------------------------
# report emission


def emit_report(report: cal.CalibReport, out_dir: Path, stem: str = "calibration") -> dict:
    """Write summary text, residual CSV, plot-ready error-surface CSV and
    the phase timings.

    The timings go to their own JSON file so that the other three outputs
    are bit-identical for identical inputs.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "summary": out_dir / f"{stem}_summary.txt",
        "residuals": out_dir / f"{stem}_residuals.csv",
        "surface": out_dir / f"{stem}_error_surface.csv",
        "timings": out_dir / f"{stem}_timings.json",
    }
    with open(paths["residuals"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["maturity_years", "strike", "observed", "model", "abs_rel_err"])
        for T, K, po, pm, re in zip(
            report.maturities, report.strikes, report.observed, report.model_prices, report.rel_errors
        ):
            w.writerow([repr(float(T)), repr(float(K)), repr(float(po)), repr(float(pm)), repr(float(re))])
    with open(paths["surface"], "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["maturity_years", "strike", "abs_rel_err"])
        for T, K, re in zip(report.maturities, report.strikes, report.rel_errors):
            w.writerow([repr(float(T)), repr(float(K)), repr(float(re))])
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
    timings = {"preprocess_s": report.time_preprocess, "calibrate_s": report.time_calibrate}
    paths["timings"].write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return paths


def read_residuals_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_mesh_info(args) -> int:
    cfg = RunConfig(command="mesh-info", n_nu=args.n_nu, n_x=args.n_x)
    space = build_mesh(_domain(cfg), cfg.n_nu, cfg.n_x)
    print(f"domain: variance [{space.domain.nu_min}, {space.domain.nu_max}]"
          f" x log-moneyness [{space.domain.x_min}, {space.domain.x_max}]")
    print(f"intervals: {space.n_nu} x {space.n_x}")
    print(f"nodes: {space.n_nodes}")
    print(f"triangles: {space.triangles.shape[0]}")
    print(f"free (interior + variance-wall) DOFs: {space.n_free}")
    print(f"mesh size: h_nu={space.h_nu:.6g}, h_x={space.h_x:.6g}")
    return 0


def cmd_price(args) -> int:
    cfg = RunConfig(
        command="price", n_nu=args.n_nu, n_x=args.n_x, horizon=args.horizon,
        steps=args.steps, backend=args.backend, S0=args.spot, r=args.rate,
    )
    quote = qio.Quote(maturity=args.maturity, strike=args.strike,
                      style="american" if args.backend.endswith("Am") else "european",
                      price=float("nan"))
    backend = _make_backend(cfg, basis_path=args.basis)
    price = float(backend.price_vector(np.asarray(args.theta), [quote], args.spot, args.rate)[0])
    print(f"{price:.10f}")
    return 0


def cmd_build_basis(args) -> int:
    cfg = RunConfig(
        command="build-basis", n_nu=args.n_nu, n_x=args.n_x, horizon=args.horizon,
        steps=args.steps, backend="ReducedAm" if args.style == "american" else "ReducedEu",
        n_max=args.n_max, rb_tol=args.tol, r=args.rate,
        train_counts=tuple(args.train_counts),
    )
    space, blocks = _fem(cfg)
    grid = _grid(cfg)
    train = make_training_grid(DEFAULT_PARAM_BOX, cfg.train_counts, cfg.r)
    log.info("training set: %d distinct PDE parameters", len(train))
    t0 = time.perf_counter()
    model = pod_greedy(args.style, train, space, blocks, grid,
                       GreedyConfig(n_max=cfg.n_max, tol=cfg.rb_tol), progress=True)
    elapsed = time.perf_counter() - t0
    out = args.out_dir / args.output
    args.out_dir.mkdir(parents=True, exist_ok=True)
    save_reduced_model(model, out)
    cfg.paths = {"basis": str(out)}
    cfg.dump(args.out_dir / f"{out.stem}_runconfig.json")
    print(f"basis: dim={model.dim} dual={model.n_dual} "
          f"training-error={model.errors[-1]:.3e} offline-time={elapsed:.1f}s -> {out}")
    return 0


def cmd_deamericanize(args) -> int:
    cfg = RunConfig(command="deamericanize", S0=args.spot, r=args.rate,
                    tree_steps=args.tree_steps)
    raw = qio.read_quotes_csv(args.quotes, S0=args.spot, r=args.rate)
    pre = qio.preprocess_quotes(raw)
    pseudo = deamericanize_set(pre.quotes, args.spot, args.rate, TreeConfig(steps=args.tree_steps))
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / args.output
    with open(out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["maturity_years", "strike", "observed_price", "sigma_star",
                    "pseudo_price", "invertible"])
        for p in pseudo:
            w.writerow([repr(float(p.maturity)), repr(float(p.strike)),
                        repr(float(p.observed_price)), repr(float(p.sigma_star)),
                        repr(float(p.pseudo_price)), int(p.invertible)])
    cfg.paths = {"input": str(args.quotes), "output": str(out)}
    cfg.dump(args.out_dir / f"{out.stem}_runconfig.json")
    print(f"wrote {len(pseudo)} pseudo-European quotes -> {out}")
    return 0


def cmd_synth(args) -> int:
    cfg = RunConfig(
        command="synth", n_nu=args.n_nu, n_x=args.n_x, horizon=args.horizon,
        steps=args.steps, backend=args.backend, r=args.rate, x0=None,
    )
    backend = _make_backend(cfg, basis_path=args.basis)
    style = "american" if cfg.backend in ("DetailedAm", "ReducedAm") else "european"
    qs = qio.generate_synthetic(np.asarray(args.theta), args.rate, style, backend.price_vector)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / args.output
    qio.write_quotes_csv(qs, out)
    cfg.paths = {"output": str(out)}
    cfg.dump(args.out_dir / f"{out.stem}_runconfig.json")
    print(f"wrote {len(qs)} synthetic quotes -> {out}")
    return 0


def cmd_calibrate(args) -> int:
    cfg = RunConfig(
        command="calibrate", n_nu=args.n_nu, n_x=args.n_x, horizon=args.horizon,
        steps=args.steps, backend=args.backend, S0=args.spot, r=args.rate,
        tree_steps=args.tree_steps, max_iter=args.max_iter,
        fix_kappa=args.fix_kappa, feller=args.feller,
        x0=tuple(args.x0) if args.x0 else None,
    )
    raw = qio.read_quotes_csv(args.quotes, S0=args.spot, r=args.rate)
    pre = qio.preprocess_quotes(raw)
    t_pre = 0.0
    american = [q for q in pre.quotes if q.style == "american"]
    if cfg.backend in cal.DAS_VARIANTS and american:
        if len(american) != len(pre.quotes):
            raise ValueError("mixed-style quote sets are not supported by the DAS backends")
        t0 = time.perf_counter()
        pseudo = deamericanize_set(pre.quotes, args.spot, args.rate,
                                   TreeConfig(steps=args.tree_steps))
        pre = _pseudo_to_quoteset(pseudo, args.spot, args.rate)
        t_pre = time.perf_counter() - t0
    box = DEFAULT_CALIB_BOX
    options = cal.OptimizerOptions(max_iter=cfg.max_iter, feller=cfg.feller,
                                   fix_kappa=cfg.fix_kappa)
    if args.refine_basis:
        if cfg.backend != "ReducedAm":
            raise ValueError("--refine-basis requires --backend ReducedAm")
        if args.basis is None:
            raise ValueError("--refine-basis requires a pilot --basis")
        space, blocks = _fem(cfg)
        report, refined, _pilot = cal.calibrate_reduced_refined(
            pre, load_reduced_model(args.basis), space, blocks, _grid(cfg),
            box, DEFAULT_PARAM_BOX,
            greedy_config=GreedyConfig(n_max=args.n_max),
            x0=cfg.x0, options=options,
        )
        args.out_dir.mkdir(parents=True, exist_ok=True)
        refined_path = args.out_dir / f"{args.stem}_refined_basis.npz"
        save_reduced_model(refined, refined_path)
        cfg.paths = {"refined_basis": str(refined_path)}
    else:
        backend = _make_backend(cfg, basis_path=args.basis)
        report = cal.calibrate(pre, backend, box, x0=cfg.x0, options=options,
                               time_preprocess=t_pre)
    paths = emit_report(report, args.out_dir, stem=args.stem)
    cfg.paths = {**cfg.paths, **{k: str(v) for k, v in paths.items()}}
    cfg.dump(args.out_dir / f"{args.stem}_runconfig.json")
    print(paths["summary"].read_text(encoding="utf-8"), end="")
    print(f"time preprocess [s]: {report.time_preprocess:.3f}")
    print(f"time calibrate [s]: {report.time_calibrate:.3f}")
    return 0 if report.status != "feller_infeasible" else 1


def cmd_report(args) -> int:
    rows = read_residuals_csv(args.residuals)
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
    sp.add_argument("--n-nu", type=int, default=33)
    sp.add_argument("--n-x", type=int, default=33)
    sp.set_defaults(func=cmd_mesh_info)

    sp = sub.add_parser("price", help="price one put option")
    _add_common(sp)
    sp.add_argument("--backend", default="DetailedAm",
                    choices=["DetailedAm", "DetailedEu", "ReducedAm", "ReducedEu", "DasClosedForm"])
    sp.add_argument("--theta", type=_theta_arg, required=True, help="xi,rho,gamma,kappa,nu0")
    sp.add_argument("--strike", type=float, required=True)
    sp.add_argument("--maturity", type=float, required=True)
    sp.add_argument("--basis", type=Path, default=None, help="reduced-model .npz file")
    sp.set_defaults(func=cmd_price)

    sp = sub.add_parser("build-basis", help="offline greedy reduced-basis construction")
    _add_common(sp)
    sp.add_argument("--style", choices=["american", "european"], default="american")
    sp.add_argument("--n-max", type=int, default=60)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.add_argument("--train-counts", type=int, nargs=5, default=[3, 3, 3, 3, 3])
    sp.add_argument("--output", default="reduced_model.npz")
    sp.set_defaults(func=cmd_build_basis)

    sp = sub.add_parser("deamericanize", help="transform American quotes to pseudo-European")
    _add_common(sp)
    sp.add_argument("--quotes", type=Path, required=True)
    sp.add_argument("--tree-steps", type=int, default=500)
    sp.add_argument("--output", default="pseudo_quotes.csv")
    sp.set_defaults(func=cmd_deamericanize)

    sp = sub.add_parser("synth", help="generate the synthetic 65-quote ladder")
    _add_common(sp)
    sp.add_argument("--backend", default="DetailedAm",
                    choices=list(cal.PDE_VARIANTS) + ["DasClosedForm"])
    sp.add_argument("--theta", type=_theta_arg, required=True)
    sp.add_argument("--basis", type=Path, default=None)
    sp.add_argument("--output", default="synthetic_quotes.csv")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("calibrate", help="calibrate parameters to a quote CSV")
    _add_common(sp)
    sp.add_argument("--backend", default="DetailedAm", choices=list(cal.ALL_VARIANTS))
    sp.add_argument("--quotes", type=Path, required=True)
    sp.add_argument("--basis", type=Path, default=None)
    sp.add_argument("--tree-steps", type=int, default=500)
    sp.add_argument("--max-iter", type=int, default=200)
    sp.add_argument("--fix-kappa", action="store_true")
    sp.add_argument("--feller", action="store_true")
    sp.add_argument("--x0", type=_theta_arg, default=None)
    sp.add_argument("--stem", default="calibration")
    sp.add_argument("--refine-basis", action="store_true",
                    help="ReducedAm only: after a pilot calibration, rebuild the "
                         "basis on a training grid localized around the pilot "
                         "optimum and re-calibrate (two-stage)")
    sp.add_argument("--n-max", type=int, default=60,
                    help="basis-size cap for the refined basis")
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
