"""The two workloads: inputs made from a seed, a closed loop of in-process
``balance_lab.cli.main`` calls, and the correctness gates on every call.

One caller runs the loop: each call starts when the previous one has
returned. A cycle is a fixed sequence of calls (two at ``--threads 1``, the
serial phase, and one at ``--threads nproc``); cycles repeat until the next
one would overrun ``--seconds``. Every call in a run gets the same inputs and
the same program seed, so every call must produce the same results.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
from statistics import median
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import gates
from .reference import NOMINAL_S, Reference
from .tracing import LAYERS, Tracer

# Monte Carlo replicates per grid cell. desk_scale runs 300; 3 keeps a
# simulate call near 1 s at one worker and 2 s at two, so that a run holds
# about ten calls of each phase.
GRID_REPLICATES = 3
GRID_SHAPE = {
    "imbalance_levels": [0.0, 0.1, 0.2],
    "prognosis_levels": [round(0.05 * k, 2) for k in range(11)],
    "imbalance_covariate": 1,
    "n": 500,
    "p": 3,
    "permutations": 200,
    "alpha": 0.05,
    "statistics": ["uw", "rw", "hotelling"],
}
PERMUTATION_CHUNK = 1024  # balance_lab.permutation draws this many per task
SETUP_SPAWNS = 11

# Per-layer metrics every workload reports. Each time here is non-zero on
# every workload; the rest of the record is printed but not compared.
PER_LAYER_UNITS = {
    "rng.stream.calls": "count",
    "rng.derive_seed.calls": "count",
    "regression.fit_ols.calls": "count",
    "data.standardize.calls": "count",
    "balance.covariate_differences.calls": "count",
    "simulation.pool_starts": "count",
    "permutation.draw_bytes_per_chunk": "bytes",
    "reports.bytes_written": "bytes",
    "permutation.permutation_pvalues.self_s": "s",
    "permutation.perms_per_s": "1/s",
    "regression.fit_ols.s": "s",
    "regression.control_arm_weights.s": "s",
    "data.standardize.s": "s",
    "balance.hotelling_t2.s": "s",
    "reports.write_json.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "variance"},
    "trace.overhead_ratio": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class TestShape:
    n: int
    p: int
    b: int
    weight_policy: str


TEST_SHAPES = {
    # One chunk, no pool; one pivoted QR per permutation.
    "test_refit": TestShape(n=1000, p=5, b=1000, weight_policy="refit"),
}
WORKLOADS = ("grid", *TEST_SHAPES)


def program_seed(seed: int) -> int:
    """The ``--seed`` handed to the program, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, 1]).generate_state(1, np.uint64)[0] >> 2)


def write_test_csv(path: str, shape: TestShape, seed: int) -> None:
    """Balanced complete randomization, Gaussian covariates, and an outcome
    that loads on every covariate."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    n, p = shape.n, shape.p
    z = rng.permutation(np.repeat([1, 0], [n // 2, n - n // 2]))
    x = rng.standard_normal((n, p))
    y = x @ np.linspace(0.5, 0.05, p) + rng.standard_normal(n)
    header = ",".join(["z", "y", *(f"x{j + 1}" for j in range(p))])
    np.savetxt(
        path,
        np.column_stack([z, y, x]),
        fmt=["%d"] + ["%.9g"] * (p + 1),
        delimiter=",",
        header=header,
        comments="",
    )


def write_grid_config(path: str, seed: int) -> None:
    config = dict(GRID_SHAPE, replicates=GRID_REPLICATES, seed=program_seed(seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)


class _ProgressSink(io.TextIOBase):
    """Stands in for stdout during a call; stamps each finished grid cell."""

    def __init__(self):
        self.cell_ends: list[float] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        if "(computed)" in text:
            self.cell_ends.append(perf_counter())
        return len(text)


@dataclass
class Call:
    phase: str
    traced: bool
    seconds: float = 0.0
    cell_s: list = field(default_factory=list)
    trace: dict = field(default_factory=dict)
    bytes_written: int = 0


@dataclass
class Tally:
    """Operations attempted and failed at each level, failures by type."""

    attempted: Counter = field(default_factory=Counter)
    failed: Counter = field(default_factory=Counter)
    failure_types: Counter = field(default_factory=Counter)

    def total(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())


def invoke(argv: list[str], call: Call, tally: Tally):
    """Run ``balance_lab.cli.main(argv)`` in-process and time it.

    Returns the exit code, or ``None`` when the call raised; the exception is
    counted by type and its traceback goes to stderr.
    """
    from balance_lab import cli

    sink = _ProgressSink()
    tally.attempted["calls"] += 1
    code = None
    start = perf_counter()
    tracer = Tracer() if call.traced else contextlib.nullcontext()
    try:
        with tracer, contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # counted and reported, the run then fails
        traceback.print_exc(file=sys.stderr)
        tally.failure_types[type(exc).__name__] += 1
    call.seconds = perf_counter() - start
    if call.traced:
        call.trace = tracer.summary()
    if code is None:
        tally.failed["calls"] += 1
    elif code != 0:
        tally.failed["calls"] += 1
        tally.failure_types[f"exit_{code}"] += 1
    ends = [start, *sink.cell_ends]
    call.cell_s = [b - a for a, b in zip(ends, ends[1:])]
    return code


def _report_bytes(out_dir: str) -> int:
    return sum(
        entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file()
    )


class Workload:
    """Inputs, command line and gates of one workload."""

    def __init__(self, work_dir: str, seed: int):
        self.work_dir = work_dir
        self.seed = seed
        self.reference = None
        self.gate_info: dict = {}

    def argv(self, threads: int, out_dir: str) -> list[str]:
        raise NotImplementedError

    def check(self, out_dir: str, tally: Tally) -> None:
        raise NotImplementedError

    def perms_per_call(self) -> int:
        raise NotImplementedError

    def draw_bytes_per_chunk(self) -> int:
        raise NotImplementedError


class Grid(Workload):
    def __init__(self, work_dir, seed):
        super().__init__(work_dir, seed)
        self.config = os.path.join(work_dir, "study.json")
        write_grid_config(self.config, seed)
        self.cells = len(GRID_SHAPE["imbalance_levels"]) * len(GRID_SHAPE["prognosis_levels"])

    def argv(self, threads, out_dir):
        return ["simulate", "--config", self.config, "--out-dir", out_dir, "--threads", str(threads)]

    def check(self, out_dir, tally):
        attempted, failed = gates.grid_replicates(out_dir)
        tally.attempted["replicates"] += attempted
        tally.failed["replicates"] += failed
        results = os.path.join(out_dir, "results.csv")
        if self.reference is None:
            self.gate_info["null_rejection_rate"] = gates.check_null_size(
                results, GRID_SHAPE["alpha"]
            )
            self.reference = os.path.join(self.work_dir, "results.reference.csv")
            shutil.copyfile(results, self.reference)
        else:
            gates.check_identical(self.reference, results)

    def replicates_per_call(self) -> int:
        return self.cells * GRID_REPLICATES

    def perms_per_call(self):
        return self.replicates_per_call() * GRID_SHAPE["permutations"]

    def draw_bytes_per_chunk(self):
        chunk = min(GRID_SHAPE["permutations"], PERMUTATION_CHUNK)
        return GRID_SHAPE["n"] * chunk * 8


class TestCall(Workload):
    def __init__(self, name, work_dir, seed):
        super().__init__(work_dir, seed)
        self.shape = TEST_SHAPES[name]
        self.input = os.path.join(work_dir, "input.csv")
        write_test_csv(self.input, self.shape, seed)

    def argv(self, threads, out_dir):
        covariates = ",".join(f"x{j + 1}" for j in range(self.shape.p))
        return [
            "test", "--input", self.input, "--treatment", "z", "--outcome", "y",
            "--covariates", covariates, "--statistic", "all",
            "--permutations", str(self.shape.b), "--seed", str(program_seed(self.seed)),
            "--weight-policy", self.shape.weight_policy, "--threads", str(threads),
            "--out-dir", out_dir, "--dump-permutations",
        ]

    def check(self, out_dir, tally):
        checked = gates.check_test_report(out_dir)
        if self.shape.weight_policy == "refit":
            rw = next(row for row in checked["statistics"] if row["name"] == "rw")
            tally.attempted["refit_permutations"] += int(rw["b"])
            tally.failed["refit_permutations"] += int(rw["n_failed"])
        if self.reference is None:
            self.reference = checked["statistics"]
            self.gate_info["variance_ratio"] = checked["variance_ratio"]
        elif checked["statistics"] != self.reference:
            raise gates.GateFailure("statistics differ between calls on the same inputs")

    def perms_per_call(self):
        return self.shape.b

    def draw_bytes_per_chunk(self):
        return self.shape.n * min(self.shape.b, PERMUTATION_CHUNK) * 8


def make_workload(name: str, work_dir: str, seed: int) -> Workload:
    if name == "grid":
        return Grid(work_dir, seed)
    return TestCall(name, work_dir, seed)


def cycle(trace: bool) -> list[tuple[str, int, bool]]:
    """(phase, threads, traced) for the calls of one cycle.

    The untraced cycle times two serial calls, whose times spread most (one
    core, shared with other tenants), and one nproc call. The traced cycle
    is an untraced serial call, a traced serial call, whose spans cover
    every layer, and a traced nproc call, whose spans are parent-side only
    (pool starts, cell times, reports).
    """
    if not trace:
        return [("serial", 1, False), ("serial", 1, False), ("nproc", nproc(), False)]
    return [("serial", 1, False), ("serial", 1, True), ("nproc", nproc(), True)]


def run_loop(
    workload: Workload, seconds: float, trace: bool, tally: Tally, reference: Reference
) -> list[Call]:
    """Repeat cycles until the next would overrun ``seconds``, timing the
    reference kernel after each call. A traced run makes at least two cycles,
    so that its counts can be compared."""
    calls: list[Call] = []
    deadline = perf_counter() + seconds
    min_cycles = 2 if trace else 1
    index = cycles = 0
    while True:
        started = perf_counter()
        for phase, threads, traced in cycle(trace):
            call = Call(phase, traced)
            out_dir = os.path.join(workload.work_dir, f"out-{index}")
            index += 1
            code = invoke(workload.argv(threads, out_dir), call, tally)
            calls.append(call)
            reference.sample_after(call.seconds)
            gates.check_exit(code)
            workload.check(out_dir, tally)
            call.bytes_written = _report_bytes(out_dir)
            shutil.rmtree(out_dir)
        cycles += 1
        now = perf_counter()
        if cycles >= min_cycles and now + (now - started) > deadline:
            return calls


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it has waited for (pool
    workers included), whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def setup_seconds(src_dir: str, spawns: int = SETUP_SPAWNS) -> list[float]:
    """Seconds a fresh interpreter takes to ``import balance_lab.cli``,
    timed inside that interpreter, once per spawn."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    times = []
    for _ in range(spawns):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER],
            env=env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise gates.GateFailure("import balance_lab.cli failed: " + done.stderr)
        times.append(float(done.stdout))
    return times


_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import balance_lab.cli; "
    "print(repr(time.perf_counter() - t))"
)


def end_to_end(
    workload: Workload,
    calls: list[Call],
    setup: list[float],
    rss: float,
    speed: Reference,
) -> tuple[dict, dict]:
    """Contract metrics and the extra end-to-end record of an untraced run.

    Call times are scaled to reference speed by the kernel timed between the
    calls; the record keeps the measured times and the kernel's median.
    Set-up time is reported as measured: import time did not track the
    kernel's speed (scaling it tripled its spread across runs).
    """
    serial = [c.seconds for c in calls if c.phase == "serial"]
    parallel = [c.seconds for c in calls if c.phase == "nproc"]
    run_scale = speed.scale()
    metrics = {
        "setup_s": (median(setup), "s"),
        "latency_p50_s": (median(parallel) * run_scale, "s"),
        "serial_latency_p50_s": (median(serial) * run_scale, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {
        "call_s": {"serial": serial, "nproc": parallel},
        "setup_samples_s": setup,
        "measured": {
            "latency_p50_s": median(parallel),
            "serial_latency_p50_s": median(serial),
        },
        "reference": {
            "nominal_s": NOMINAL_S,
            "kernel_s": median(speed.samples),
            "kernels": len(speed.samples),
        },
    }
    for phase, values in (("serial", serial), ("nproc", parallel)):
        if len(values) >= 100:
            extra[f"{phase}_latency_p90_s"] = statistics.quantiles(values, n=10)[-1] * run_scale
    if isinstance(workload, Grid):
        reps = workload.replicates_per_call()
        extra["reps_per_s"] = reps / (median(parallel) * run_scale)
        extra["serial_reps_per_s"] = reps / (median(serial) * run_scale)
    cells = [s for c in calls if c.phase == "nproc" for s in c.cell_s]
    if cells:
        extra["nproc_cell_s_p50"] = median(cells) * run_scale
    return metrics, extra


def per_layer(workload: Workload, calls: list[Call]) -> tuple[dict, dict]:
    """Contract metrics and the full layer record of a traced run.

    Spans come from the traced serial calls; pool starts and cell times from
    the traced nproc calls, which only see the parent process. Counts must
    repeat exactly across the traced calls of a run.
    """
    traced = [c for c in calls if c.traced and c.phase == "serial"]
    parallel = [c for c in calls if c.traced and c.phase == "nproc"]
    untraced = [c.seconds for c in calls if not c.traced and c.phase == "serial"]

    def counts(call):
        return {name: f["calls"] for name, f in call.trace["functions"].items()}

    for call in traced[1:]:
        if counts(call) != counts(traced[0]):
            raise gates.GateFailure("per-layer call counts differ between traced calls")
    for call in parallel[1:]:
        if call.trace["pool_starts"] != parallel[0].trace["pool_starts"]:
            raise gates.GateFailure("pool starts differ between traced calls")

    record: dict = {}
    names = sorted({name for c in traced for name in c.trace["functions"]})
    for name in names:
        entries = [c.trace["functions"][name] for c in traced]
        record[f"{name}.calls"] = entries[0]["calls"]
        record[f"{name}.s"] = median([e["s"] for e in entries])
        record[f"{name}.self_s"] = median([e["self_s"] for e in entries])
    for layer in LAYERS:
        record[f"{layer}.calls"] = traced[0].trace["layers"][layer]["calls"]
        record[f"{layer}.self_s"] = median([c.trace["layers"][layer]["self_s"] for c in traced])
    for module, starts in parallel[0].trace["pool_starts"].items():
        record[f"{module}.pool_starts"] = starts
    cells = [s for c in parallel for s in c.cell_s]
    if cells:
        record["simulation.cell_s.p50"] = median(cells)
        record["simulation.cell_s.max"] = max(cells)
    for name in ("reports.write_json", "reports.write_csv", "reports.power_curve_svg"):
        if any(name in c.trace["functions"] for c in parallel):
            record[f"{name}.nproc_s"] = median(
                [c.trace["functions"].get(name, {"s": 0.0})["s"] for c in parallel]
            )
    pvalues_s = median([c.trace["functions"]["permutation.permutation_pvalues"]["s"] for c in traced])
    record["permutation.perms_per_s"] = workload.perms_per_call() / pvalues_s
    record["permutation.draw_bytes_per_chunk"] = workload.draw_bytes_per_chunk()
    record["reports.bytes_written"] = traced[0].bytes_written
    record["trace.overhead_ratio"] = median([c.seconds for c in traced]) / median(untraced)

    metrics = {name: (record.get(name, 0), unit) for name, unit in PER_LAYER_UNITS.items()}
    return metrics, record

