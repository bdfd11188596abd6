"""Shared fixtures: benchmark model, certificate and configuration."""

from pathlib import Path

import numpy as np
import pytest

from etmhe import IossCertificate, batch_reactor, harness
from etmhe.cli import parse_config

CONFIG_PATH = Path(__file__).resolve().parents[1] / "configs" / "benchmark.cfg"

P_BENCH = np.array([[4.539, 4.171], [4.171, 3.834]])
Q_BENCH = np.diag([1e3, 1e4, 1e3])
R_BENCH = np.array([[1e3]])
ETA_BENCH = 0.91


@pytest.fixture(scope="session")
def bench_cert():
    return IossCertificate(P1=P_BENCH, P2=P_BENCH, Q=Q_BENCH, R=R_BENCH,
                           eta=ETA_BENCH)


@pytest.fixture(scope="session")
def bench_model():
    return batch_reactor()


@pytest.fixture(scope="session")
def bench_cfg():
    return parse_config(CONFIG_PATH)


@pytest.fixture
def zero_disturbance(monkeypatch):
    """Make the closed loop's plant draw w = 0 at every step; the model's W,
    which the estimator constrains, is left as it is."""
    monkeypatch.setattr(harness, "sample_disturbance",
                        lambda rng, box, size: np.zeros((size, box.dim)))
