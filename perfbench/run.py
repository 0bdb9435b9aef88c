"""The sparsevote benchmark: one workload, end to end or traced layer by layer.

    python3 perfbench/run.py --workload quad_large --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  A run measures set-up in fresh interpreters (perfbench/probe.py),
then runs the workload through the public API (``ExperimentConfig.from_dict``
then ``run_experiment``) in chunks of a fixed number of rounds until the
measuring time is up, each chunk under its own config seed derived from
``--seed``.  Every chunk's output is checked.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every chunk twice,
untraced and then traced (perfbench/tracer.py), within the same measuring
time, reports the per-layer metrics and writes every span to
perfbench/out/.  A human-readable report
comes first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

rounds_per_s is the run-wide wall-clock rate scaled to a reference host
speed by a calibration kernel timed between the same chunks (see
overall_rate), and setup_s is scaled the same way by the kernel timed in
each probe right after its measurement; the report prints the unscaled
figures beside them.  BLAS and
OpenMP are pinned to one thread, so a run is one process with one compute
thread (plus the set-up probes, which run one at a time).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_RUNS = 5
WARMUP_CHUNKS = 1
# The bit counts are the mean over the rounds of the first BITS_CHUNKS chunks,
# which every run completes, so a seed gives the same counts however fast the host.
BITS_CHUNKS = 4
PROBE_TIMEOUT_S = 120
# Fixed kernel (np.unique of CALIB_N fixed integers, CALIB_REPS times) timed
# before the first chunk and after every chunk, to tell a slow host from a
# slow change.  Of the kernels tried (argpartition, Gaussian draws, a Python
# loop, np.unique) its speed followed all three workloads most closely.
CALIB_N, CALIB_REPS = 16_000, 5
# rounds_per_s and setup_s are scaled to a host that runs the kernel this
# often per second (about this 2-CPU host's usual reading); see overall_rate.
REF_CALIB_PER_S = 350.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Metric names and units, as BENCHMARK.json declares them.
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


@dataclass
class Chunk:
    """One run_experiment call that returned."""

    index: int
    seconds: float
    train_loss: list[float]
    uplink_bits: list[float]
    downlink_bits: list[float]
    other_metrics_finite: bool

    @property
    def rounds(self) -> int:
        return len(self.train_loss)

    @property
    def rate(self) -> float:
        return self.rounds / self.seconds


@dataclass
class Phase:
    """The chunks of one measuring phase, traced or not."""

    chunks: list[Chunk] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def timed(self) -> list[Chunk]:
        return [c for c in self.chunks if c.index >= WARMUP_CHUNKS]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def run_probes(workload: str, seed: int, trace: int) -> tuple[list[dict], list[str]]:
    """Set-up time in SETUP_RUNS fresh interpreters, one after the other."""
    results, problems = [], []
    for i in range(SETUP_RUNS):
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), workload, str(seed), str(i), repr(spawned_at), str(trace)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"set-up probe {i} timed out after {PROBE_TIMEOUT_S} s")
            continue
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            problems.append(f"set-up probe {i} exited {proc.returncode}: {tail[0]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not math.isfinite(result["train_loss"]):
            problems.append(f"set-up probe {i}: non-finite train loss")
        results.append(result)
    return results, problems


def run_chunk(sv, workload, seed: int, index: int, phase: Phase) -> float:
    """One run_experiment call, recorded in ``phase``; returns its wall time."""
    cfg = sv.ExperimentConfig.from_dict(workload.config_for(seed, index))
    phase.attempted += 1
    started = time.perf_counter()
    try:
        metrics = sv.run_experiment(cfg)
    except Exception:
        # A failing run is counted against the attempted ones; the rest go on.
        phase.failed += 1
        traceback.print_exc()
        return time.perf_counter() - started
    elapsed = time.perf_counter() - started
    phase.chunks.append(
        Chunk(
            index,
            elapsed,
            [m.train_loss for m in metrics],
            [m.uplink_bits for m in metrics],
            [m.downlink_bits for m in metrics],
            all(math.isfinite(v) for m in metrics for v in (m.test_metric, m.gbar_l1)),
        )
    )
    return elapsed


def run_chunks(sv, workload, seed: int, seconds: float, calib, tracer=None) -> tuple[Phase, Phase | None]:
    """Run chunks 0, 1, ... until the timed ones add up to ``seconds``, and
    at least BITS_CHUNKS of them.

    Chunk 0 is the warm-up and is not timed.  With a tracer, every chunk
    runs twice, untraced and then traced, so that both see the same host
    conditions and their outputs can be compared.
    """
    untraced = Phase()
    traced = Phase() if tracer is not None else None
    measured = 0.0
    index = 0
    calib()
    while measured < seconds or index < BITS_CHUNKS:
        elapsed = run_chunk(sv, workload, seed, index, untraced)
        if tracer is not None:
            tracer.begin_run(index)
            with tracer:
                elapsed += run_chunk(sv, workload, seed, index, traced)
        if index >= WARMUP_CHUNKS:
            measured += elapsed
        calib()
        index += 1
    return untraced, traced


def check_chunks(chunks: list[Chunk], rounds: int, band: dict) -> list[str]:
    """Output checks: finite, loss falls over the chunk, final loss in the band."""
    problems = []
    for c in chunks:
        where = f"chunk {c.index}"
        values = c.train_loss + c.uplink_bits + c.downlink_bits
        if not (c.other_metrics_finite and all(math.isfinite(v) for v in values)):
            problems.append(f"{where}: non-finite metric")
            continue
        if c.rounds != rounds:
            problems.append(f"{where}: {c.rounds} rounds, expected {rounds}")
            continue
        if not c.train_loss[-1] < c.train_loss[0]:
            problems.append(f"{where}: train loss did not fall ({c.train_loss[0]!r} -> {c.train_loss[-1]!r})")
        if not band["lo"] <= c.train_loss[-1] <= band["hi"]:
            problems.append(
                f"{where}: final train loss {c.train_loss[-1]!r} outside the recorded band "
                f"[{band['lo']!r}, {band['hi']!r}]"
            )
    return problems


class Calibration:
    """Times the calibration kernel each time it is called; kernels per second."""

    def __init__(self, np):
        self._np = np
        self._ints = np.random.default_rng(12345).integers(0, 100_000, CALIB_N)
        self.readings: list[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        for _ in range(CALIB_REPS):
            self._np.unique(self._ints)
        self.readings.append(CALIB_REPS / (time.perf_counter() - t0))


def overall_rate(chunks: list[Chunk]) -> float:
    """Rounds per wall-clock second over all the given chunks together.

    The host's speed switches between levels for seconds at a time; the
    time-weighted rate averages over those phases, where the median chunk
    jumps between them.  It still follows phases that last a whole run, so
    the reported rounds_per_s divides it by the calibration reading taken
    between the same chunks, times REF_CALIB_PER_S.
    """
    return sum(c.rounds for c in chunks) / sum(c.seconds for c in chunks)


def describe_rates(chunks: list[Chunk]) -> str:
    rates = [c.rate for c in chunks]
    text = f"{len(rates)} chunks, chunk median {statistics.median(rates):.6g}"
    if len(rates) >= 2:
        q1, _, q3 = statistics.quantiles(rates, n=4)
        text += f", quartiles {q1:.4g} .. {q3:.4g}"
    # The highest percentile of round time with at least ten chunks beyond it.
    if len(rates) > 10:
        pct = int(100 * (1 - 10 / len(rates)))
        if pct >= 1:
            ms = statistics.quantiles([1e3 / r for r in rates], n=100)[pct - 1]
            text += f", p{pct} {ms:.4g} ms/round"
    return text


def per_layer_metrics(sv, tracer, workload, traced: list[Chunk], untraced: list[Chunk], probes, calib, wrapper_s):
    """Per-layer numbers from the traced chunks; returns (values, absent names).

    ``untraced`` are the timed untraced chunks, each the twin of a traced one.
    A metric whose functions the tracer found none of is absent.  The
    simulator's self time is the traced wall time less the top-level spans,
    the result inspection and ``wrapper_s`` (tracer.wrapper_cost_s) per
    top-level span.
    """
    from tracer import TASK_METHODS

    # role: (layer, which of its functions, the metrics measured on them).
    # A metric whose role finds no wrapped function is absent.
    roles = {
        "rng": ("rng", None, ("rng.streams_per_round", "rng.ms_per_round")),
        "grad": (
            "models",
            lambda n: TASK_METHODS.get(n) == "grad",
            ("models.grad_calls_per_round", "models.grad_ms_per_round"),
        ),
        "eval": ("models", lambda n: TASK_METHODS.get(n) == "eval", ("models.eval_ms_per_round",)),
        "compression": (
            "compression",
            None,
            (
                "compression.calls_per_round",
                "compression.ms_per_round",
                "compression.us_per_call",
                "compression.entries_per_round",
            ),
        ),
        "vote": (
            "aggregation",
            lambda n: "vote" in n,
            ("aggregation.vote_ms_per_round", "aggregation.union_fraction", "aggregation.decisive_fraction"),
        ),
        "count": ("aggregation", lambda n: "count" in n, ("aggregation.count_ms_per_round",)),
        "encode": (
            "codec",
            lambda n: n.startswith("encode"),
            ("codec.encode_ms_per_round", "codec.encode_mbit_per_s"),
        ),
        "decode": (
            "codec",
            lambda n: n.startswith("decode"),
            ("codec.decode_ms_per_round", "codec.decode_mbit_per_s", "codec.format_errors"),
        ),
        "update": ("simulator", None, ("simulator.update_ms_per_round",)),
    }
    rounds = sum(c.rounds for c in traced)
    wall = sum(c.seconds for c in traced)
    top_n, top_s = tracer.top_level()
    counts = tracer.counts
    spans = {role: tracer.layer_time(layer, names) for role, (layer, names, _) in roles.items()}
    absent = {
        metric
        for layer, names, metrics in roles.values()
        if not any(names is None or names(n) for n in tracer.wrapped.get(layer, ()))
        for metric in metrics
    }

    def per_round_ms(role) -> float:
        return spans[role][1] * 1e3 / rounds

    def per_s(count, role) -> float:
        return count / spans[role][1] if spans[role][1] else 0.0

    cfg = workload.config
    k = sv.resolve_k(cfg["gamma"], workload.dim)
    analytic_up, analytic_down = sv.analytic_round_cost(cfg["algorithm"], cfg["m"], workload.dim, k)
    spent = sum(sum(c.uplink_bits) + sum(c.downlink_bits) for c in traced)
    plain = {c.index: c.seconds for c in untraced}
    ratios = [c.seconds / plain[c.index] for c in traced if c.index in plain]
    votes = counts["aggregation.votes"]
    if not votes:
        absent |= {"aggregation.union_fraction", "aggregation.decisive_fraction"}
    builds = [p["task_build_s"] for p in probes if p["task_build_s"]]
    if not builds:
        absent.add("setup.task_build_s")
    values = {
        "rng.streams_per_round": spans["rng"][0] / rounds,
        "rng.ms_per_round": per_round_ms("rng"),
        "models.grad_calls_per_round": spans["grad"][0] / rounds,
        "models.grad_ms_per_round": per_round_ms("grad"),
        "models.eval_ms_per_round": per_round_ms("eval"),
        "compression.calls_per_round": spans["compression"][0] / rounds,
        "compression.ms_per_round": per_round_ms("compression"),
        "compression.us_per_call": (
            spans["compression"][1] * 1e6 / spans["compression"][0] if spans["compression"][0] else 0.0
        ),
        "compression.entries_per_round": counts["compression.entries"] / rounds,
        "aggregation.vote_ms_per_round": per_round_ms("vote"),
        "aggregation.count_ms_per_round": per_round_ms("count"),
        "aggregation.union_fraction": counts["aggregation.union"] / counts["aggregation.dims"] if votes else 0.0,
        "aggregation.decisive_fraction": (
            counts["aggregation.decisive"] / counts["aggregation.union"] if counts["aggregation.union"] else 0.0
        ),
        "codec.encode_ms_per_round": per_round_ms("encode"),
        "codec.decode_ms_per_round": per_round_ms("decode"),
        "codec.encode_mbit_per_s": per_s(counts["codec.encode_bits"] / 1e6, "encode"),
        "codec.decode_mbit_per_s": per_s(counts["codec.decode_bits"] / 1e6, "decode"),
        "codec.bits_over_analytic": spent / (rounds * (analytic_up + analytic_down)),
        "codec.format_errors": sum(n for (_, kind), n in tracer.errors.items() if kind == "FormatError"),
        "simulator.update_ms_per_round": per_round_ms("update"),
        "simulator.self_ms_per_round": (wall - top_s - top_n * wrapper_s - tracer.inspect_s) * 1e3 / rounds,
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "setup.task_build_s": statistics.median(builds) if builds else 0.0,
        "trace.overhead_pct": (statistics.median(ratios) - 1.0) * 100.0,
        "host.calib_per_s": statistics.median(calib.readings),
    }
    for name in absent:
        values[name] = 0.0
    return values, absent


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparsevote" / "__init__.py").is_file():
        print(f"error: no sparsevote package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, load_bands

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    band = load_bands()[workload.name]
    if band["rounds"] != workload.rounds:
        print(f"error: bands.json was recorded at {band['rounds']} rounds per chunk, not {workload.rounds}", file=sys.stderr)
        return 2

    # Pin BLAS/OpenMP before numpy loads; the set-up probes inherit it.
    os.environ.update({var: "1" for var in THREAD_VARS})
    probes, problems = run_probes(workload.name, args.seed, args.trace)

    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import sparsevote as sv

    calib = Calibration(np)
    tracer = None
    if args.trace:
        from tracer import Tracer, wrapper_cost_s

        tracer = Tracer(sv.simulator)
    untraced, traced = run_chunks(sv, workload, args.seed, args.seconds, calib, tracer)
    phases = [p for p in (untraced, traced) if p is not None]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = SETUP_RUNS + sum(p.attempted for p in phases)
    failed = SETUP_RUNS - len(probes) + sum(p.failed for p in phases)
    for phase in phases:
        problems += check_chunks(phase.chunks, workload.rounds, band)
    timed = untraced.timed()
    bit_chunks = [c for c in untraced.chunks if c.index < BITS_CHUNKS]
    if len(bit_chunks) < BITS_CHUNKS:
        problems.append(f"a chunk below {BITS_CHUNKS} failed, so there are no bit counts")
    if not timed:
        problems.append("no timed chunk completed")
    if traced is not None:
        plain = {c.index: c for c in untraced.chunks}
        for c in traced.chunks:
            twin = plain.get(c.index)
            if twin is not None and (c.train_loss, c.uplink_bits, c.downlink_bits) != (
                twin.train_loss,
                twin.uplink_bits,
                twin.downlink_bits,
            ):
                problems.append(f"chunk {c.index}: the traced run differs from the untraced one")
    if traced is not None and not traced.timed():
        problems.append("no timed traced chunk completed")
    if len(probes) < SETUP_RUNS:
        problems.append(f"{SETUP_RUNS - len(probes)} of {SETUP_RUNS} set-up probes failed")
    correct = not problems and failed == 0

    print(
        f"machine: python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
        f"nproc {len(os.sched_getaffinity(0))}, BLAS threads 1, "
        f"host.calib_per_s {statistics.median(calib.readings):.6g} (np.unique of {CALIB_N} fixed integers)"
    )
    print(
        f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
        f"chunks of {workload.rounds} rounds, chunk 0 is the warm-up"
    )
    values, notes, absent = {}, {}, set()
    if len(bit_chunks) == BITS_CHUNKS:
        values["uplink_bits_per_round"] = statistics.fmean(b for c in bit_chunks for b in c.uplink_bits)
        values["downlink_bits_per_round"] = statistics.fmean(b for c in bit_chunks for b in c.downlink_bits)
        rounds = sum(c.rounds for c in bit_chunks)
        notes["uplink_bits_per_round"] = notes["downlink_bits_per_round"] = (
            f"chunks 0-{BITS_CHUNKS - 1}, {rounds} rounds, exact"
        )
    if probes:
        values["setup_s"] = statistics.median(p["setup_s"] * p["calib_per_s"] / REF_CALIB_PER_S for p in probes)
        notes["setup_s"] = (
            f"median of {len(probes)} fresh interpreters, each scaled by its own calibration reading "
            f"to {REF_CALIB_PER_S:g}; unscaled median {statistics.median(p['setup_s'] for p in probes):.6g} s"
        )
    if timed:
        host = statistics.median(calib.readings)
        values["rounds_per_s"] = overall_rate(timed) * REF_CALIB_PER_S / host
        notes["rounds_per_s"] = (
            f"wall clock {overall_rate(timed):.6g} 1/s at host.calib_per_s {host:.6g}, "
            f"scaled to {REF_CALIB_PER_S:g}; {describe_rates(timed)}"
        )
    values["peak_rss_mb"] = peak_rss_mib
    wanted = PER_LAYER if args.trace else END_TO_END
    if traced is not None and traced.timed() and timed and probes:
        chunks = traced.timed()
        print(f"  traced rounds_per_s: {overall_rate(chunks):.6g} ({describe_rates(chunks)})")
        wrapper_s = wrapper_cost_s()
        layer_values, absent = per_layer_metrics(sv, tracer, workload, traced.chunks, timed, probes, calib, wrapper_s)
        values.update(layer_values)
        cfg = workload.config
        notes["simulator.self_ms_per_round"] = f"less {wrapper_s * 1e6:.3g} us of tracer work per top-level span"
        notes["aggregation.union_fraction"] = f"theory.alpha(M, gamma) = {sv.alpha(cfg['m'], cfg['gamma']):.6g}"
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans_{workload.name}_{args.seed}.csv"
        tracer.write(spans_path)
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}")
    # Traced runs also show the end-to-end numbers of their untraced chunks.
    for name, unit in (END_TO_END | wanted).items():
        if name in absent:
            shown = "absent"
        elif name in values:
            shown = f"{values[name]!r} {unit}" if unit == "bit" else f"{values[name]:.6g} {unit}"
        else:
            shown = "not measured"
        note = f" ({notes[name]})" if name in notes else ""
        print(f"  {name:32s} {shown}{note}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items() if name in values}
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"checks: {'ok' if correct else 'FAILED'}; {failed} of {attempted} runs failed")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
