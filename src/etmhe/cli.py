"""Command-line front end: config parsing, experiment subcommands, CSV output."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .certificate import (CertificateError, IossCertificate, check_dissipation,
                          min_horizon, rges_constants)
from .harness import (SimConfig, SimTrace, check_rges, run_alpha_sweep,
                      run_closed_loop, verify_proposition1)
from .mhe import SolverSettings
from .model import Box, ConfigurationError, DisturbanceBounds, batch_reactor

EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_PROPERTY = 3


def trace_columns(n: int, p: int) -> List[str]:
    """trace.csv header for a model with n states and p outputs; a single
    output is named y, several y1..yp."""
    ys = ["y"] if p == 1 else [f"y{i}" for i in range(1, p + 1)]
    return (["t"] + [f"x{i}" for i in range(1, n + 1)]
            + [f"xhat{i}" for i in range(1, n + 1)] + ys
            + ["gamma", "delta", "eps", "d", "err_norm", "rges_bound",
               "solver_iters", "solver_converged", "tx_count"])


class ConfigFileError(Exception):
    """Config file problem with a line-numbered message."""


_SCHEMA = {
    "model": {"name", "k1", "k2", "tau", "x_lower", "x_upper", "w_bounds"},
    "certificate": {"P1", "P2", "Q", "R", "eta"},
    "mhe": {"M", "alpha", "max_iterations", "gradient_tolerance",
            "step_tolerance", "initial_damping", "damping_increase",
            "damping_decrease", "allow_short_horizon"},
    "sim": {"T", "x0", "xhat0", "seed"},
}
_REQUIRED = {
    "model": {"name"},
    "certificate": {"P1", "P2", "Q", "R", "eta"},
    "mhe": {"M", "alpha"},
    "sim": {"T", "x0", "xhat0"},
}


def _read_entries(path: Path) -> Dict[str, Dict[str, Tuple[str, int]]]:
    sections: Dict[str, Dict[str, Tuple[str, int]]] = {}
    current = None
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigFileError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigFileError(f"{path}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigFileError(f"{path}:{lineno}: expected 'key = value'")
        if current is None:
            raise ConfigFileError(f"{path}:{lineno}: entry outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[current]:
            raise ConfigFileError(f"{path}:{lineno}: unknown key '{key}' in [{current}]")
        if key in sections[current]:
            raise ConfigFileError(f"{path}:{lineno}: duplicate key '{key}'")
        sections[current][key] = (value, lineno)
    for section, keys in _REQUIRED.items():
        if section not in sections:
            raise ConfigFileError(f"{path}: missing section [{section}]")
        for key in keys:
            if key not in sections[section]:
                raise ConfigFileError(f"{path}: missing key '{key}' in [{section}]")
    return sections


def _scalar(text: str, path, lineno) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigFileError(f"{path}:{lineno}: bad number '{text}'") from exc


def _vector(text: str, path, lineno) -> np.ndarray:
    return np.array([_scalar(part, path, lineno) for part in text.split(",")])


def _matrix(text: str, path, lineno) -> np.ndarray:
    rows = [[_scalar(p, path, lineno) for p in row.split(",")]
            for row in text.split(";")]
    if len({len(r) for r in rows}) != 1:
        raise ConfigFileError(f"{path}:{lineno}: ragged matrix")
    return np.array(rows)


def parse_config(path) -> SimConfig:
    """Parse and validate a simulation config file."""
    path = Path(path)
    sections = _read_entries(path)

    def get(section, key, default=None):
        return sections[section].get(key, (default, 0))

    model_sec = sections["model"]
    name, lineno = model_sec["name"]
    if name != "batch_reactor":
        raise ConfigFileError(f"{path}:{lineno}: unknown model '{name}'")

    def scalar_opt(section, key, default):
        text, lineno = get(section, key)
        return default if text is None else _scalar(text, path, lineno)

    k1 = scalar_opt("model", "k1", 0.16)
    k2 = scalar_opt("model", "k2", 0.0064)
    tau = scalar_opt("model", "tau", 0.1)
    text, lineno = get("model", "w_bounds", "1e-3, 1e-3, 0.1")
    w_bounds = DisturbanceBounds(_vector(text, path, lineno))
    text, lineno = get("model", "x_lower", "0, 0")
    x_lower = _vector(text, path, lineno)
    text, lineno = get("model", "x_upper", "inf, inf")
    x_upper = _vector(text, path, lineno)

    try:
        model = batch_reactor(k1=k1, k2=k2, tau=tau, w_bounds=w_bounds)
        model = dataclasses.replace(model, x_set=Box(x_lower, x_upper))
        cert_sec = sections["certificate"]
        cert = IossCertificate(
            P1=_matrix(*_with_pos(cert_sec, "P1", path)),
            P2=_matrix(*_with_pos(cert_sec, "P2", path)),
            Q=_matrix(*_with_pos(cert_sec, "Q", path)),
            R=_matrix(*_with_pos(cert_sec, "R", path)),
            eta=_scalar(*_with_pos(cert_sec, "eta", path)))
    except (ConfigurationError, CertificateError) as exc:
        raise ConfigFileError(f"{path}: {exc}") from exc

    solver = SolverSettings(
        max_iterations=int(scalar_opt("mhe", "max_iterations", 100)),
        gradient_tolerance=scalar_opt("mhe", "gradient_tolerance", 1e-10),
        step_tolerance=scalar_opt("mhe", "step_tolerance", 1e-12),
        initial_damping=scalar_opt("mhe", "initial_damping", 1e-3),
        damping_increase=scalar_opt("mhe", "damping_increase", 10.0),
        damping_decrease=scalar_opt("mhe", "damping_decrease", 0.1))
    allow_short = bool(int(scalar_opt("mhe", "allow_short_horizon", 0)))

    sim_sec = sections["sim"]
    try:
        return SimConfig(
            model=model, cert=cert,
            M=int(_scalar(*_with_pos(sections["mhe"], "M", path))),
            alpha=_scalar(*_with_pos(sections["mhe"], "alpha", path)),
            T=int(_scalar(*_with_pos(sim_sec, "T", path))),
            x0=_vector(*_with_pos(sim_sec, "x0", path)),
            xhat0=_vector(*_with_pos(sim_sec, "xhat0", path)),
            w_bounds=w_bounds,
            seed=int(scalar_opt("sim", "seed", 0)),
            solver=solver, allow_short_horizon=allow_short)
    except (ConfigurationError, CertificateError) as exc:
        raise ConfigFileError(f"{path}: {exc}") from exc


def _with_pos(section, key, path):
    text, lineno = section[key]
    return text, path, lineno


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_trace_csv(trace: SimTrace, out_path: Path) -> None:
    lines = [",".join(trace_columns(trace.x.shape[1], trace.y.shape[1]))]
    for t in range(trace.T + 1):
        row = [t, *trace.x[t], *trace.xhat[t], *trace.y[t], trace.gamma[t],
               trace.delta[t], trace.eps[t], trace.d[t], trace.err_norm[t],
               trace.bound[t], trace.solver_iters[t],
               trace.solver_converged[t], trace.tx_count[t]]
        lines.append(",".join(_fmt(v) for v in row))
    out_path.write_text("\n".join(lines) + "\n")


def _cmd_simulate(args) -> int:
    cfg = _load(args)
    trace = run_closed_loop(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, out_dir / "trace.csv")
    frac = trace.event_fraction
    print(f"events {trace.n_events}/{trace.T} (fraction {frac:.4f}), "
          f"final error {trace.err_norm[-1]:.6g}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    alphas = [float(a) for a in args.alphas.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    report = run_alpha_sweep(cfg, alphas, seeds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["alpha,seed,t,gamma"]
    for row in report.rows:
        for t, g in enumerate(row.gamma):
            lines.append(f"{_fmt(row.alpha)},{row.seed},{t},{int(g)}")
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    for row in report.rows:
        print(f"alpha={row.alpha:g} seed={row.seed} "
              f"event_fraction={row.event_fraction:.4f}")
    return 0


def _cmd_min_horizon(args) -> int:
    cfg = _load(args, need_seed=False)
    print(min_horizon(cfg.cert))
    return 0


def _cmd_verify_prop1(args) -> int:
    cfg = _load(args)
    overrides = {}
    if args.horizon is not None:
        overrides.update(M=args.horizon, allow_short_horizon=True)
    if args.steps is not None:
        overrides["T"] = args.steps
    cfg = dataclasses.replace(cfg, **overrides)
    report = verify_proposition1(cfg)
    print(f"max estimate discrepancy {report.max_discrepancy:.3e}, "
          f"max cost relative error {report.max_cost_rel_err:.3e}")
    if report.max_discrepancy > 1e-6:
        return EXIT_PROPERTY
    return 0


def _cmd_check_ioss(args) -> int:
    cfg = _load(args)
    region = _parse_region(args.region)
    rng = np.random.default_rng(args.seed)
    report = check_dissipation(cfg.cert, cfg.model, region, args.samples, rng)
    print(f"samples {report.n_samples}, violations {report.n_violations}, "
          f"fraction {report.violation_fraction:.6f}, "
          f"worst margin {report.worst_margin:.6g}")
    return 0


def _cmd_check_rges(args) -> int:
    cfg = _load(args)
    trace = run_closed_loop(cfg)
    constants = rges_constants(cfg.cert, cfg.alpha, cfg.M)
    report = check_rges(trace, constants)
    print(f"checked {report.n_checked}/{report.n_steps} steps, "
          f"violations {report.n_violations}, "
          f"worst margin {report.worst_margin:.6g}")
    if report.n_violations:
        return EXIT_PROPERTY
    return 0


def _parse_region(text: str) -> Box:
    pairs = [part.split(",") for part in text.split(";")]
    if any(len(p) != 2 for p in pairs):
        raise ConfigFileError(f"bad region '{text}', expected 'lo,hi;lo,hi;...'")
    lower = np.array([float(p[0]) for p in pairs])
    upper = np.array([float(p[1]) for p in pairs])
    return Box(lower, upper)


def _load(args, need_seed: bool = True) -> SimConfig:
    cfg = parse_config(args.config)
    if need_seed and getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etmhe",
        description="Event-triggered moving horizon estimation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", required=True)
        p.set_defaults(func=func)
        return p

    p = add("simulate", _cmd_simulate, help="one closed-loop run -> trace.csv")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("sweep", _cmd_sweep, help="alpha/seed grid -> sweep.csv")
    p.add_argument("--alphas", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--out", required=True)

    add("min-horizon", _cmd_min_horizon, help="print the minimum stable horizon")

    p = add("verify-prop1", _cmd_verify_prop1,
            help="compare event-triggered execution with an always-solve oracle")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)

    p = add("check-ioss", _cmd_check_ioss,
            help="sampled dissipation-inequality check")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("check-rges", _cmd_check_rges, help="error-bound check on one run")
    p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigFileError, ConfigurationError, CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
