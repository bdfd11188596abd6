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
from .model import (BATCH_REACTOR_BOUNDS, Box, ConfigurationError,
                    DisturbanceBounds, batch_reactor)

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
    "mhe": {"M", "alpha", "allow_short_horizon"},
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


def _int(text: str, path, lineno) -> int:
    try:
        return int(text)
    except ValueError:
        value = _scalar(text, path, lineno)
    if not value.is_integer():
        raise ConfigFileError(f"{path}:{lineno}: expected an integer, got '{text}'")
    return int(value)


def _flag(text: str, path, lineno) -> bool:
    if text not in ("0", "1"):
        raise ConfigFileError(f"{path}:{lineno}: expected 0 or 1, got '{text}'")
    return text == "1"


def _bounds(text: str, path, lineno) -> DisturbanceBounds:
    return DisturbanceBounds(_vector(text, path, lineno))


def parse_config(path) -> SimConfig:
    """Parse and validate a simulation config file. Optional keys that the
    file leaves out keep the defaults of the library."""
    path = Path(path)
    sections = _read_entries(path)
    model_sec, cert_sec = sections["model"], sections["certificate"]
    mhe_sec, sim_sec = sections["mhe"], sections["sim"]

    name, lineno = model_sec["name"]
    if name != "batch_reactor":
        raise ConfigFileError(f"{path}:{lineno}: unknown model '{name}'")

    def given(section, convert, *keys):
        """Those of keys that section sets, each parsed by convert."""
        return {key: convert(section[key][0], path, section[key][1])
                for key in keys if key in section}

    try:
        model_kw = {**given(model_sec, _scalar, "k1", "k2", "tau"),
                    **given(model_sec, _bounds, "w_bounds")}
        model = batch_reactor(**model_kw)
        x_box = given(model_sec, _vector, "x_lower", "x_upper")
        model = dataclasses.replace(model, x_set=Box(
            x_box.get("x_lower", model.x_set.lower),
            x_box.get("x_upper", model.x_set.upper)))
        cert = IossCertificate(**given(cert_sec, _matrix, "P1", "P2", "Q", "R"),
                               **given(cert_sec, _scalar, "eta"))
        return SimConfig(
            model=model, cert=cert,
            w_bounds=model_kw.get("w_bounds", BATCH_REACTOR_BOUNDS),
            **given(mhe_sec, _int, "M"), **given(mhe_sec, _scalar, "alpha"),
            **given(mhe_sec, _flag, "allow_short_horizon"),
            **given(sim_sec, _int, "T", "seed"),
            **given(sim_sec, _vector, "x0", "xhat0"))
    except (ConfigurationError, CertificateError) as exc:
        raise ConfigFileError(f"{path}: {exc}") from exc


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
    rows = run_alpha_sweep(cfg, args.alphas, args.seeds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["alpha,seed,t,gamma"]
    for row in rows:
        for t, g in enumerate(row.gamma):
            lines.append(f"{_fmt(row.alpha)},{row.seed},{t},{int(g)}")
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    for row in rows:
        print(f"alpha={row.alpha:g} seed={row.seed} "
              f"event_fraction={row.event_fraction:.4f}")
    return 0


def _cmd_min_horizon(args) -> int:
    cfg = _load(args)
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
    rng = np.random.default_rng(args.seed)
    report = check_dissipation(cfg.cert, cfg.model, args.region, args.samples, rng)
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


# argparse types: the ValueError of a malformed value becomes a usage error.
def _floats(text: str) -> List[float]:
    return [float(v) for v in text.split(",")]


def _ints(text: str) -> List[int]:
    return [int(v) for v in text.split(",")]


def _region(text: str) -> Box:
    """The box 'lo,hi;lo,hi;...'."""
    bounds = np.array([[float(v) for v in pair.split(",")]
                       for pair in text.split(";")])
    if bounds.shape[1:] != (2,) or np.any(bounds[:, 0] > bounds[:, 1]):
        raise ValueError(text)
    return Box(bounds[:, 0], bounds[:, 1])


def _load(args) -> SimConfig:
    cfg = parse_config(args.config)
    if getattr(args, "seed", None) is not None:
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
    p.add_argument("--alphas", required=True, type=_floats)
    p.add_argument("--seeds", required=True, type=_ints)
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
    p.add_argument("--region", required=True, type=_region)
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
