"""Workload definitions for the sparsevote benchmark.

Each workload is an experiment config plus a chunk length: the benchmark
runs the config for ``rounds`` rounds per ``run_experiment`` call, over and
over with a fresh config seed each time, until the measuring time is up.
The configs are fixed here rather than read from ``configs/`` so that an
edit to an example config cannot silently change what the benchmark
measures.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

BANDS_PATH = Path(__file__).with_name("bands.json")

# The quadratic model of configs/quadratic_s3gd.json.
_QUADRATIC = {
    "kind": "quadratic",
    "lipschitz": {"log_min": -1, "log_max": 1},
    "noise_std": 4.0,
    "init": 1.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    rounds: int
    dim: int  # model dimension N the config implies

    def config_for(self, seed: int, chunk: int | str, rounds: int | None = None) -> dict:
        """The config of one chunk: the workload config under a derived seed."""
        cfg = json.loads(json.dumps(self.config))
        cfg["t"] = self.rounds if rounds is None else rounds
        cfg["seed"] = derive_seed(self.name, seed, chunk)
        return cfg


def derive_seed(workload: str, seed: int, chunk: int | str) -> int:
    """Config seed of one chunk, a fixed function of (workload, seed, chunk)."""
    digest = hashlib.sha256(f"{workload}:{seed}:{chunk}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


WORKLOADS = {
    w.name: w
    for w in (
        # configs/logistic_noniid.json on the wire: N=170, M=10, K=17, so
        # per-call overhead dominates: codec on small messages, full-set
        # eval, stream derivation.
        Workload(
            "logistic_noniid_wire",
            {
                "algorithm": "S3GD_MV",
                "m": 10,
                "gamma": 0.1,
                "learning_rate": 0.001,
                "batch_size": 32,
                "cost_mode": "WIRE",
                "model": {"kind": "logistic"},
                "data": {
                    "n_samples": 2000,
                    "d": 16,
                    "num_classes": 10,
                    "separation": 4.0,
                    "mode": "NONIID",
                },
            },
            rounds=100,
            dim=170,  # 10 classes x (16 features + bias)
        ),
        # Quadratic at N=1e5, M=16, gamma=0.1, analytic cost: the dense
        # kernels (gradient draw, top-K, vote) dominate; the codec never runs
        # and eval is ~1%, so codec and eval work should not move it.
        Workload(
            "quad_large",
            {
                "algorithm": "S3GD_MV",
                "m": 16,
                "n": 100000,
                "gamma": 0.1,
                "learning_rate": 0.01,
                "batch_size": 1,
                "cost_mode": "ANALYTIC",
                "model": _QUADRATIC,
            },
            rounds=8,
            dim=100000,
        ),
        # Quadratic at N=1e5, M=16, gamma=0.01 on the wire: the codec on bulk
        # messages (K=1000, vote union ~15k) dominates.
        Workload(
            "quad_large_wire",
            {
                "algorithm": "S3GD_MV",
                "m": 16,
                "n": 100000,
                "gamma": 0.01,
                "learning_rate": 0.01,
                "batch_size": 1,
                "cost_mode": "WIRE",
                "model": _QUADRATIC,
            },
            rounds=5,
            dim=100000,
        ),
    )
}


def load_bands() -> dict:
    """Across-seed band of the final train loss per workload, see record_bands.py."""
    with open(BANDS_PATH) as fh:
        return json.load(fh)
