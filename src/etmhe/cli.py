"""Command-line front end: config parsing, experiment subcommands, CSV output."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .certificate import (IossCertificate, RgesConstants, check_dissipation,
                          min_horizon, rges_bound, rges_constants)
from .harness import (SimConfig, SimTrace, check_rges, run_alpha_sweep,
                      run_closed_loop, sweep_configs, verify_proposition1)
from .model import Box, ConfigurationError, batch_reactor

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


def _read_entries(path: Path) -> Dict[str, Dict[str, Tuple[str, int]]]:
    sections: Dict[str, Dict[str, Tuple[str, int]]] = {}
    current = None
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigurationError(f"{path}:{lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        if current is None:
            raise ConfigurationError(f"{path}:{lineno}: entry outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[current]:
            raise ConfigurationError(f"{path}:{lineno}: unknown key '{key}' in [{current}]")
        if key in sections[current]:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key '{key}'")
        sections[current][key] = (value, lineno)
    for section, keys in _SCHEMA.items():
        if section not in sections:
            raise ConfigurationError(f"{path}: missing section [{section}]")
        for key, (_, required) in keys.items():
            if required and key not in sections[section]:
                raise ConfigurationError(f"{path}: missing key '{key}' in [{section}]")
    return sections


def _scalar(text: str, path, lineno) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigurationError(f"{path}:{lineno}: bad number '{text}'") from exc


def _vector(text: str, path, lineno) -> np.ndarray:
    return np.array([_scalar(part, path, lineno) for part in text.split(",")])


def _matrix(text: str, path, lineno) -> np.ndarray:
    rows = [[_scalar(p, path, lineno) for p in row.split(",")]
            for row in text.split(";")]
    if len({len(r) for r in rows}) != 1:
        raise ConfigurationError(f"{path}:{lineno}: ragged matrix")
    return np.array(rows)


def _half_widths(text: str, path, lineno) -> Box:
    """The box [-b, b] of the half-widths b, which must be finite and >= 0."""
    b = _vector(text, path, lineno)
    if not np.all((b >= 0) & np.isfinite(b)):
        raise ConfigurationError(
            f"{path}:{lineno}: w_bounds must be finite and nonnegative, got '{text}'")
    return Box(-b, b)


def _int(text: str, path, lineno) -> int:
    try:
        return int(text)
    except ValueError:
        value = _scalar(text, path, lineno)
    if not value.is_integer():
        raise ConfigurationError(f"{path}:{lineno}: expected an integer, got '{text}'")
    return int(value)


def _model_name(text: str, path, lineno) -> str:
    if text != "batch_reactor":
        raise ConfigurationError(f"{path}:{lineno}: unknown model '{text}'")
    return text


# The config format: each section's keys in parse order, each with its
# parser and whether the file must set it. Of several missing keys or bad
# values, the first in this order is reported.
_SCHEMA = {
    "model": {"name": (_model_name, True), "k1": (_scalar, False),
              "k2": (_scalar, False), "tau": (_scalar, False),
              "w_bounds": (_half_widths, False), "x_lower": (_vector, False),
              "x_upper": (_vector, False)},
    "certificate": {"P1": (_matrix, True), "P2": (_matrix, True),
                    "Q": (_matrix, True), "R": (_matrix, True),
                    "eta": (_scalar, True)},
    "mhe": {"M": (_int, True), "alpha": (_scalar, True)},
    "sim": {"T": (_int, True), "seed": (_int, False), "x0": (_vector, True),
            "xhat0": (_vector, True)},
}


def parse_config(path) -> SimConfig:
    """Parse and validate a simulation config file. Optional keys that the
    file leaves out keep the defaults of the library."""
    path = Path(path)
    sections = _read_entries(path)
    # Parse every value first: a parse error carries its own path:line.
    values = {}
    for section, keys in _SCHEMA.items():
        entries = sections[section]
        values[section] = {key: parse(entries[key][0], path, entries[key][1])
                           for key, (parse, _) in keys.items() if key in entries}
    model_kw = values["model"]
    del model_kw["name"]
    x_lower, x_upper = model_kw.pop("x_lower", None), model_kw.pop("x_upper", None)
    try:
        model = batch_reactor(**model_kw)
        model = dataclasses.replace(model, x_set=Box(
            model.x_set.lower if x_lower is None else x_lower,
            model.x_set.upper if x_upper is None else x_upper))
        return SimConfig(model=model, cert=IossCertificate(**values["certificate"]),
                         **values["mhe"], **values["sim"])
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Write a header line and one line per row, each value through _fmt."""
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_trace_csv(trace: SimTrace, constants: RgesConstants,
                    out_path: Path) -> None:
    """Write trace.csv; the rges_bound column is computed here from constants."""
    bound = rges_bound(constants, trace.err_norm[0], trace.w_norms[:trace.T])
    rows = ([t, *trace.x[t], *trace.xhat[t], *trace.y[t], trace.gamma[t],
             trace.delta[t], trace.eps[t], trace.d[t], trace.err_norm[t],
             bound[t], trace.solver_iters[t], trace.solver_converged[t],
             trace.tx_count[t]] for t in range(trace.T + 1))
    _write_csv(out_path, trace_columns(trace.x.shape[1], trace.y.shape[1]), rows)


def _cmd_simulate(cfg: SimConfig, args) -> int:
    constants = rges_constants(cfg.cert, cfg.alpha, cfg.M)
    trace = run_closed_loop(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, constants, out_dir / "trace.csv")
    frac = trace.event_fraction
    print(f"events {trace.n_events}/{trace.T} (fraction {frac:.4f}), "
          f"final error {trace.err_norm[-1]:.6g}")
    return 0


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sweep_gammas(cfg: SimConfig, alphas, seeds) -> List[np.ndarray]:
    """Each run's gamma of run_alpha_sweep, alpha-major."""
    return [trace.gamma for _, trace in run_alpha_sweep(cfg, alphas, seeds)]


def _sweep_share(config_path: str, alphas, seeds) -> List[np.ndarray]:
    """A worker's share of a sweep. Spawn cannot pickle the model's f and h,
    so the worker parses the config file again."""
    return _sweep_gammas(parse_config(config_path), alphas, seeds)


def _cmd_sweep(cfg: SimConfig, args) -> int:
    alphas, seeds = args.alphas, args.seeds
    grid = sweep_configs(cfg, alphas, seeds)  # every point valid before any run
    # The seeds split into one share per usable CPU, each share over every
    # alpha: alpha-0 runs solve at every step, so an alpha split would be
    # uneven. The parent runs share 0, spawned workers the rest. Each run
    # equals its run_closed_loop trace (the batching contract of
    # SystemModel), so the output does not depend on the split.
    k = min(_usable_cpus(), len(seeds))
    # Spawn starts a worker by re-running the main module, by its name or
    # from its file. A script piped to python - has neither: run it here.
    main_module = sys.modules["__main__"]
    path = getattr(main_module, "__file__", None)
    if (getattr(main_module.__spec__, "name", None) is None and path
            and not os.path.isfile(path)):
        k = 1
    # Contiguous shares, the first ones the larger: workers start up meanwhile.
    size, extra = divmod(len(seeds), k)
    bounds = [i * size + min(i, extra) for i in range(k + 1)]
    shares = [seeds[a:b] for a, b in zip(bounds, bounds[1:])]
    if k == 1:
        results = [_sweep_gammas(cfg, alphas, seeds)]
    else:
        # Imported here: every other command, and import etmhe, skip them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        spawn = multiprocessing.get_context("spawn")
        path = str(Path(args.config).resolve())
        with ProcessPoolExecutor(k - 1, mp_context=spawn) as pool:
            futures = [pool.submit(_sweep_share, path, alphas, share)
                       for share in shares[1:]]
            results = [_sweep_gammas(cfg, alphas, shares[0])]
            results += [future.result() for future in futures]
    gamma = {}
    for share, gammas in zip(shares, results):
        gamma.update(zip([(float(a), s) for a in alphas for s in share], gammas))
    runs = [(run.alpha, run.seed, gamma[run.alpha, run.seed]) for run in grid]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "sweep.csv", ["alpha", "seed", "t", "gamma"],
               ((alpha, seed, t, g) for alpha, seed, gam in runs
                for t, g in enumerate(gam.tolist())))
    for alpha, seed, gam in runs:
        print(f"alpha={alpha:g} seed={seed} "
              f"event_fraction={gam[1:].mean():.4f}")
    return 0


def _cmd_min_horizon(cfg: SimConfig, args) -> int:
    print(min_horizon(cfg.cert))
    return 0


def _cmd_verify_prop1(cfg: SimConfig, args) -> int:
    report = verify_proposition1(cfg)
    print(f"max estimate discrepancy {report.max_discrepancy:.3e}, "
          f"max cost relative error {report.max_cost_rel_err:.3e}")
    if not (report.max_discrepancy <= 1e-6 and report.max_cost_rel_err <= 1e-9):
        return EXIT_PROPERTY
    return 0


def _cmd_check_ioss(cfg: SimConfig, args) -> int:
    rng = np.random.default_rng(args.seed)
    report = check_dissipation(cfg.cert, cfg.model, args.region, args.samples, rng)
    print(f"samples {report.n_samples}, violations {report.n_violations}, "
          f"fraction {report.violation_fraction:.6f}, "
          f"worst margin {report.worst_margin:.6g}")
    return 0


def _cmd_check_rges(cfg: SimConfig, args) -> int:
    constants = rges_constants(cfg.cert, cfg.alpha, cfg.M)
    trace = run_closed_loop(cfg)
    report = check_rges(trace, constants)
    print(f"checked {report.n_checked}/{trace.T + 1} steps, "
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
    """The box 'lo,hi;lo,hi;...'; a NaN bound is malformed."""
    bounds = np.array([[float(v) for v in pair.split(",")]
                       for pair in text.split(";")])
    if bounds.shape[1:] != (2,) or not np.all(bounds[:, 0] <= bounds[:, 1]):
        raise ValueError(text)
    return Box(bounds[:, 0], bounds[:, 1])


def _load(args) -> SimConfig:
    """The config file's SimConfig, with the fields that flags set replaced."""
    cfg = parse_config(args.config)
    overrides = {key: getattr(args, key) for key in ("seed", "M", "T")
                 if getattr(args, key, None) is not None}
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


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
    p.add_argument("--horizon", dest="M", type=int, default=None)
    p.add_argument("--steps", dest="T", type=int, default=None)

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
        return args.func(_load(args), args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
