"""Record the across-seed band of each workload's final train loss.

    python3 perfbench/record_bands.py

Runs one chunk of every workload under BAND_SEEDS seeds the benchmark itself
never uses and writes perfbench/bands.json.  A benchmark run accepts a
chunk's final train loss when it lies within the recorded [min, max] widened
by the width of that range on each side, so a change that alters the
random-stream layout (a new draw from the same distribution) still passes
while a change that breaks training does not.  Re-record only when a
workload's config or chunk length changes, and say so with the change.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import SRC, THREAD_VARS  # noqa: E402
from workloads import BANDS_PATH, WORKLOADS  # noqa: E402

BAND_SEEDS = 40


def main() -> None:
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import sparsevote as sv

    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, cwd=HERE
    ).stdout.strip()
    bands = {}
    for name, workload in WORKLOADS.items():
        finals = []
        for seed in range(BAND_SEEDS):
            cfg = workload.config_for(seed, "band")
            finals.append(sv.run_experiment(sv.ExperimentConfig.from_dict(cfg))[-1].train_loss)
        low, high = min(finals), max(finals)
        width = high - low
        bands[name] = {
            "rounds": workload.rounds,
            "seeds": BAND_SEEDS,
            "recorded_at": commit,
            "mean": statistics.fmean(finals),
            "stdev": statistics.stdev(finals),
            "min": low,
            "max": high,
            "lo": low - width,
            "hi": high + width,
        }
        print(name, json.dumps(bands[name]))
    with open(BANDS_PATH, "w") as fh:
        json.dump(bands, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
