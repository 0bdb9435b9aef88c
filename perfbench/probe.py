"""One set-up measurement in a fresh interpreter: import, config, task, one round.

Started by run.py with the CLOCK_MONOTONIC reading taken just before the
spawn, so that interpreter start-up counts towards the set-up time.  Prints
one JSON object: setup_s, import_s, task_build_s (null unless traced), the
one round's train loss and calib_per_s, the calibration kernel's rate
(run.Calibration) timed right after.  Threads are pinned by the parent's environment.

    python3 perfbench/probe.py <src dir> <workload> <seed> <index> <spawned_at> <trace 0|1>
"""

import json
import statistics
import sys
import time


def main() -> None:
    src, workload, seed, index, spawned_at, trace = sys.argv[1:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import sparsevote

    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS

    raw = WORKLOADS[workload].config_for(int(seed), f"setup{index}", rounds=1)
    cfg = sparsevote.ExperimentConfig.from_dict(raw)
    task_build_s = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer(sparsevote.simulator)
        with tracer:
            metrics = sparsevote.run_experiment(cfg)
        task_build_s = tracer.layer_time("setup")[1]
    else:
        metrics = sparsevote.run_experiment(cfg)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(spawned_at)
    # The host's speed just after the measurement, which run.py scales
    # setup_s by; the median of a few readings, as one can land in a burst.
    import numpy as np
    from run import Calibration

    calib = Calibration(np)
    for _ in range(5):
        calib()
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "import_s": import_s,
                "task_build_s": task_build_s,
                "train_loss": metrics[0].train_loss,
                "calib_per_s": statistics.median(calib.readings),
            }
        )
    )


if __name__ == "__main__":
    main()
