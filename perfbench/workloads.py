"""The four benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload owns a fixed list of realizations derived from the seed.
Timed pass k runs realization k mod len(list); the accuracy and cost
numbers are summed over the list once, so they describe several
realizations rather than one. Every workload calls the package through
module attributes looked up at call time (``harness.run_closed_loop``,
``cli.main``, ...), so the traced run can wrap those names while untraced
passes run the package unmodified.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
from collections import Counter
from pathlib import Path

import numpy as np

from etmhe import certificate, cli, harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG = ROOT / "configs" / "benchmark.cfg"
OUT_DIR = ROOT / ".perfbench_out"

# seed_sweep and oracle_replay check against outputs recorded from the
# package (reference.json), so their seed picks one of BATTERIES recorded
# batteries, seed mod BATTERIES.
BATTERIES = 32
SWEEP_SEEDS = 6          # battery b sweeps seeds 6b .. 6b+5
SWEEP_ALPHAS = (0.0, 5.0)
ORACLE_REALIZATIONS = 6  # battery b replays seeds 6b .. 6b+5
PROP1_DISC_GATE = 1e-6
PROP1_COST_GATE = 1e-9
WARMUP_T = 50


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def gamma_hex(gamma) -> str:
    """Event sequence gamma_0..gamma_T as a hex number, gamma_0 the top bit."""
    return format(int("".join(str(int(g)) for g in gamma), 2), "x")


def tally(trace, cfg) -> tuple:
    """Sums behind the accuracy and cost metrics for one closed-loop run,
    and the problems found. An RGES violation is a problem: the paper's
    exponential error bound must hold on every checked step."""
    fired = trace.gamma[1:].astype(bool)
    cut = harness.POST_TRANSIENT_START
    report = harness.check_rges(
        trace, certificate.rges_constants(cfg.cert, cfg.alpha, cfg.M))
    sums = {"steps": trace.T, "events": int(fired.sum()),
            "tx": int(trace.tx_count[1:].sum()),
            "converged": int(trace.solver_converged[1:][fired].sum()),
            "checked": report.n_checked,
            "within": report.n_checked - report.n_violations,
            "sq_err": float(np.sum((trace.x[cut:] - trace.xhat[cut:]) ** 2)),
            "n_post": trace.T + 1 - cut}
    problems = []
    if report.n_violations:
        problems.append(f"seed {cfg.seed} alpha {cfg.alpha:g}: RGES bound violated "
                        f"at t={report.violation_times[:5]}")
    return sums, problems


def quality_metrics(total: dict) -> dict:
    """User-facing cost and solver/bound health metrics from summed tallies."""
    return {
        "events_per_step": (total["events"] / total["steps"], "1/step"),
        "tx_per_step": (total["tx"] / total["steps"], "1/step"),
        "solve_ok_frac": (total["converged"] / total["events"], "frac"),
        "rges_ok_frac": (total["within"] / total["checked"], "frac"),
    }


def rmse_post(total: dict) -> float:
    """Post-transient estimation RMSE over all tallied realizations. Printed
    as a note: across seeds it varies too much to carry a bound."""
    return math.sqrt(total["sq_err"] / total["n_post"])


class Workload:
    """A workload: constructed in set-up, then run(k) per timed pass,
    check(k, result) after every pass and tally(k, result) once per
    realization, both outside the timed region."""

    name = ""
    steps = 0            # simulated steps per pass

    def __init__(self, cfgs):
        self.cfgs = cfgs
        self.notes = {}      # printed with the report, not metrics

    @property
    def realizations(self) -> int:
        return len(self.cfgs)

    def warmup(self) -> None:
        harness.run_closed_loop(dataclasses.replace(self.cfgs[0], T=WARMUP_T))

    def run(self, k):
        return harness.run_closed_loop(self.cfgs[k])

    def check(self, k, result) -> list:
        return []

    def tally(self, k, result) -> tuple:
        return tally(result, self.cfgs[k])

    def csv_bytes(self, result) -> int:
        """Size of the CSV a pass wrote; only the sweep writes one."""
        return 0

    def close(self) -> None:
        pass


class AlwaysSolve(Workload):
    """alpha = 0: the trigger fires every step, so every step solves."""

    name = "always_solve"
    T = 200
    N = 4   # realizations: seeds N*seed .. N*seed + N-1

    def __init__(self, base, seed):
        super().__init__([dataclasses.replace(base, alpha=0.0, T=self.T,
                                              seed=self.N * seed + k)
                          for k in range(self.N)])
        self.steps = self.T

    def check(self, k, trace):
        if trace.n_events != self.T:
            return [f"always-solve run fired {trace.n_events} of {self.T} steps"]
        return []


class EventSparse(Workload):
    """alpha = 20, T = 2000: long silences, then the check-rges flow."""

    name = "event_sparse"
    T = 2000
    N = 3   # realizations: seeds N*seed .. N*seed + N-1

    def __init__(self, base, seed):
        super().__init__([dataclasses.replace(base, alpha=20.0, T=self.T,
                                              seed=self.N * seed + k)
                          for k in range(self.N)])
        cfg = self.cfgs[0]
        self.constants = certificate.rges_constants(cfg.cert, cfg.alpha, cfg.M)
        self.steps = self.T

    def warmup(self):
        trace = harness.run_closed_loop(dataclasses.replace(self.cfgs[0], T=WARMUP_T))
        harness.check_rges(trace, self.constants)

    def run(self, k):
        trace = harness.run_closed_loop(self.cfgs[k])
        return trace, harness.check_rges(trace, self.constants)

    def check(self, k, result):
        _, report = result
        if report.n_violations:
            return [f"seed {self.cfgs[k].seed}: RGES bound violated "
                    f"at t={report.violation_times[:5]}"]
        return []

    def tally(self, k, result):
        return tally(result[0], self.cfgs[k])


class SeedSweep(Workload):
    """`etmhe sweep` in-process over alphas 0 and 5 and one seed battery."""

    name = "seed_sweep"

    def __init__(self, base, seed):
        b = seed % BATTERIES
        self.seeds = [SWEEP_SEEDS * b + k for k in range(SWEEP_SEEDS)]
        super().__init__([base])   # one realization: the whole battery
        # Its event-triggered runs are replayed for the event, channel and
        # bound numbers, which the CLI does not report.
        self.replays = [dataclasses.replace(base, alpha=SWEEP_ALPHAS[-1], seed=s)
                        for s in self.seeds]
        self.reference = load_reference()["sweep"]
        self.out = OUT_DIR / f"sweep-{seed}"
        self.steps = len(SWEEP_ALPHAS) * len(self.seeds) * base.T

    def _sweep(self, seeds):
        argv = ["sweep", "--config", str(CONFIG),
                "--alphas", ",".join(f"{a:g}" for a in SWEEP_ALPHAS),
                "--seeds", ",".join(str(s) for s in seeds), "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return rc, (self.out / "sweep.csv").read_text() if rc == 0 else ""

    def warmup(self):
        self._sweep(self.seeds[:1])

    def run(self, k):
        return self._sweep(self.seeds)

    @staticmethod
    def parse(text) -> dict:
        rows = {}
        for line in text.splitlines()[1:]:
            alpha, seed, t, g = line.split(",")
            rows.setdefault((float(alpha), int(seed)), []).append((int(t), int(g)))
        return {key: [g for _, g in sorted(v)] for key, v in rows.items()}

    def check(self, k, result):
        rc, text = result
        if rc != 0:
            return [f"etmhe sweep exited with {rc}"]
        rows = self.parse(text)
        problems = []
        if len(rows) != len(SWEEP_ALPHAS) * len(self.seeds):
            problems.append(f"sweep.csv has {len(rows)} runs")
        for alpha in SWEEP_ALPHAS:
            for seed in self.seeds:
                ref = self.reference[f"{alpha:g}/{seed}"]
                gamma = rows.get((alpha, seed))
                if gamma is None:
                    problems.append(f"alpha {alpha:g} seed {seed}: row missing")
                elif sum(gamma[1:]) != ref["events"] or gamma_hex(gamma) != ref["gamma"]:
                    problems.append(f"alpha {alpha:g} seed {seed}: {sum(gamma[1:])} "
                                    f"events, gamma differs from the reference "
                                    f"({ref['events']} events)")
        return problems

    def tally(self, k, result):
        rows = self.parse(result[1])
        total, problems = Counter(), []
        for cfg in self.replays:
            trace = harness.run_closed_loop(cfg)
            if list(trace.gamma) != rows.get((cfg.alpha, cfg.seed)):
                problems.append(f"seed {cfg.seed}: replayed gamma differs from sweep.csv")
            sums, found = tally(trace, cfg)
            problems += found
            total.update(sums)
        return total, problems

    def csv_bytes(self, result):
        return len(result[1].encode())

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


class OracleReplay(Workload):
    """Prop-1 oracle replay: cold-started solves on windows grown to M+delta."""

    name = "oracle_replay"

    def __init__(self, base, seed):
        b = seed % BATTERIES
        super().__init__([dataclasses.replace(base, seed=ORACLE_REALIZATIONS * b + k)
                          for k in range(ORACLE_REALIZATIONS)])
        reference = load_reference()["prop1"]
        self.reference = [reference[str(cfg.seed)] for cfg in self.cfgs]
        self.steps = base.T

    def warmup(self):
        harness.verify_proposition1(dataclasses.replace(self.cfgs[0], T=WARMUP_T))

    def run(self, k):
        return harness.verify_proposition1(self.cfgs[k])

    def disc_gate(self, k) -> float:
        """PROP1_DISC_GATE, or the recorded package value where that is higher."""
        return max(PROP1_DISC_GATE, self.reference[k]["max_discrepancy"])

    def check(self, k, report):
        problems = []
        seed = self.cfgs[k].seed
        self.notes["prop1_max_disc"] = max(self.notes.get("prop1_max_disc", 0.0),
                                           report.max_discrepancy)
        if report.max_discrepancy > PROP1_DISC_GATE:
            self.notes.setdefault(f"prop1_seeds_over_{PROP1_DISC_GATE:g}", set()).add(seed)
        if not report.max_discrepancy <= self.disc_gate(k):
            problems.append(f"seed {seed}: Prop-1 estimate discrepancy "
                            f"{report.max_discrepancy:.3e} > {self.disc_gate(k):.3e}")
        if not report.max_cost_rel_err <= PROP1_COST_GATE:
            problems.append(f"seed {seed}: Prop-1 cost relative error "
                            f"{report.max_cost_rel_err:.3e} > {PROP1_COST_GATE:g}")
        return problems

    def tally(self, k, report):
        trace = harness.run_closed_loop(self.cfgs[k])
        sums, problems = tally(trace, self.cfgs[k])
        if trace.n_events != report.n_events:
            problems.append(f"seed {self.cfgs[k].seed}: replayed run has "
                            f"{trace.n_events} events, the oracle's {report.n_events}")
        return sums, problems


WORKLOADS = {w.name: w for w in (AlwaysSolve, EventSparse, SeedSweep, OracleReplay)}


def setup(name: str, seed: int) -> Workload:
    """The set-up that setup_s times: parse the config (which validates the
    certificate), check the horizon against min_horizon, build the workload."""
    base = cli.parse_config(CONFIG)
    certificate.min_horizon(base.cert)
    return WORKLOADS[name](base, seed)
