"""Closed-loop benchmark of the graphcorners CLI.

    python3 bench/run.py --workload acyclic --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  One job runs at a time, in this
process, through ``graphcorners.cli.main`` with its output captured; the
program sees only the graph files generated from ``--seed``.  Every job's
output is checked by the independent oracles in ``oracles.py``, outside
the timed region.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
See README.md for the workloads, the metrics and the oracles.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 15
# What the reference workload takes on a machine of reference speed; times
# are reported scaled to that speed (see reference_s).
REFERENCE_S = 0.015
IMPORT_PROGRAM = (
    "import sys; sys.path.insert(0, sys.argv[1]); import graphcorners.cli"
)

# Per-layer metric -> span whose self time it reports.
SELF_TIMES = {
    "cli.self_ms": "cli",
    "multigraph.parse_ms": "multigraph.parse",
    "multigraph.serialize_ms": "multigraph.serialize",
    "multigraph.init_ms": "multigraph.init",
    "labelling.from_graph_ms": "labelling.from_graph",
    "labelling.skew_ms": "labelling.skew",
    "labelling.kirchhoff_ms": "labelling.kirchhoff",
    "labelling.loops_ms": "labelling.loops",
    "subtree.tree_ms": "subtree.tree",
    "subtree.validate_ms": "subtree.validate",
    "subtree.descendants_ms": "subtree.descendants",
    "corner.corner_ms": "corner.corner",
    "invariants.kth_ms": "invariants.kth",
    "invariants.snf_ms": "invariants.snf",
}


def import_program():
    """Import graphcorners from this checkout's src/, and nowhere else."""
    if not (SRC / "graphcorners" / "cli.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'graphcorners'}")
    sys.path.insert(0, str(SRC))
    import graphcorners.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "graphcorners":
        sys.exit(f"error: graphcorners imported from {cli.__file__}")
    return cli


def run_job(cli, commands: list[list[str]]):
    """Run each command through the CLI.  Returns the wall time of each
    command and its (exit code, output), the output being stdout, or
    stderr when stdout is empty.  An exception out of the CLI counts as
    exit code -1, so the job fails and the run goes on."""
    times, results = [], []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        begin = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - reported as a failure
                code = -1
                err.write(f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - begin)
        results.append((code, out.getvalue() or err.getvalue()))
    return times, results


class Job:
    """One generated graph, its file, its commands and its oracle data."""

    def __init__(self, workload, seed: int, index: int, directory: Path):
        self.workload = workload
        self.graph = workload.graph(seed, index)
        self.path = directory / f"g{index}.graph"
        self.path.write_text(self.graph.text(), encoding="utf-8")
        self.commands = workload.commands(str(self.path), self.graph)
        self.edges = len(self.graph.edges)
        self.expected = workload.expected(self.graph)
        self.verified: set[bytes] = set()

    def check(self, results: list[tuple[int, str]]) -> tuple[bool, str | None]:
        """(answered, reason): answered is False when a command exited
        non-zero; reason is None when every answer is right.

        The commands are deterministic, so a repeat whose output is byte
        for byte one the oracles already accepted in this run is right.
        """
        digest = hashlib.blake2b(repr(results).encode()).digest()
        if digest in self.verified:
            return True, None
        try:
            answered, reason = self.workload.check(
                self.graph, self.expected, results)
        except oracles.BadOutput as exc:
            answered, reason = True, str(exc)
        if reason is None:
            self.verified.add(digest)
        return answered, reason


def reference_s() -> float:
    """Wall time of a fixed workload that never touches the program.

    A shared virtual machine can swing between speed states about 1.5
    times apart, for spells of up to a minute, in CPU time as much as in
    wall time (see README.md).  Timing this right before every job and
    scaling the job by it takes most of that drift out: a time scaled by
    REFERENCE_S / reference_s() is what the job would take on a machine
    of reference speed.  The work is what the program spends its time
    on: integer arithmetic, then dict updates keyed by formatted strings,
    then a sort.
    """
    begin = time.perf_counter()
    total = 0
    for i in range(100000):
        total += i * i
    counts: dict[str, int] = {}
    for i in range(10000):
        key = f"v{i % 2500}@{i % 7}"
        counts[key] = counts.get(key, 0) + 1
    sorted(counts)
    return time.perf_counter() - begin


def setup_s() -> float:
    """Wall time of a fresh interpreter importing the program."""
    begin = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROGRAM, str(SRC)],
        check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - begin


def measure_peak_rss(job: Job) -> float:
    """Peak RSS (MiB) of a fresh process that runs one job."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--rss-child",
         json.dumps(job.commands)],
        check=True, stdout=subprocess.PIPE, text=True,
    )
    return int(done.stdout.split()[-1]) / 1024


def rss_child(commands: list[list[str]]) -> None:
    cli = import_program()
    with open(os.devnull, "w") as sink:
        with contextlib.redirect_stdout(sink):
            for argv in commands:
                if cli.main(argv) != 0:
                    sys.exit(f"error: {argv[0]} failed")
    print(peak_rss_kib())


def peak_rss_kib() -> int:
    """Peak RSS of this process in KiB (Linux).

    ru_maxrss survives execve, so in a spawned process it starts at the
    RSS of the parent; VmHWM belongs to this process image alone.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: list[str] = []

    def add(self, job: Job, results) -> None:
        self.attempted += 1
        answered, reason = job.check(results)
        if reason is not None:
            self.failed += 1
            self.wrong += answered
            if len(self.reasons) < 5:
                self.reasons.append(f"{job.path.name}: {reason}")


@dataclass
class Samples:
    """What one measured phase recorded.

    ``plain`` and ``traced`` hold the command times of each run of each
    job, ``layers`` the (self ns by span, counts) of each traced run,
    ``reference`` the reference time taken right before each untraced
    run of each job, and ``setup`` the set-up times of an untraced phase.
    """

    plain: list[list[list[float]]]
    traced: list[list[list[float]]]
    layers: list = field(default_factory=list)
    reference: list[list[float]] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)


def measure(cli, jobs: list[Job], seconds: float, tally: Tally,
            recorder=None) -> Samples:
    """Whole rounds over the pool until ``seconds`` of wall time passed.

    With a recorder every job runs both ways, in turn first, so the
    overhead of tracing is measured on the same jobs.  Without one,
    SETUP_REPEATS set-up times are taken at even intervals between jobs,
    so that they and the reference times cover the same spells of the
    machine.
    """
    samples = Samples([[] for _ in jobs], [[] for _ in jobs],
                      reference=[[] for _ in jobs])
    start = time.perf_counter()
    rounds = 0
    while True:
        for i, job in enumerate(jobs):
            if recorder is None:
                modes = (False,)
                due = len(samples.setup) * seconds / SETUP_REPEATS
                if (len(samples.setup) < SETUP_REPEATS
                        and time.perf_counter() - start >= due):
                    samples.setup.append(setup_s())
            else:
                modes = (True, False) if (i + rounds) % 2 else (False, True)
            for with_trace in modes:
                gc.collect()
                if with_trace:
                    recorder.begin_job()
                    recorder.install()
                    try:
                        took, results = run_job(cli, job.commands)
                    finally:
                        recorder.uninstall()
                    samples.traced[i].append(took)
                    samples.layers.append((recorder.self_ns, recorder.counts))
                else:
                    samples.reference[i].append(reference_s())
                    took, results = run_job(cli, job.commands)
                    samples.plain[i].append(took)
                tally.add(job, results)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return samples


def job_times(times: list[list[list[float]]]) -> list[float]:
    """Wall time of every run of every job: the sum of its commands'."""
    return [sum(run) for runs in times for run in runs]


def layer_metrics(samples: Samples) -> dict[str, tuple[float, str]]:
    import tracing

    layers = samples.layers
    metrics = {}
    for metric, span in SELF_TIMES.items():
        values = [self_ns.get(span, 0) / 1e6 for self_ns, _ in layers]
        metrics[metric] = (statistics.median(values), "ms")
    for count in tracing.COUNTS:
        values = [counts[count] for _, counts in layers]
        metrics[count] = (statistics.median(values), "count")
    overhead = statistics.median(job_times(samples.traced)) / \
        statistics.median(job_times(samples.plain))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.rss_child is not None:
        rss_child(json.loads(args.rss_child))
        return 0

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cli = import_program()

    tag = f"{workload.name}-seed{args.seed}"
    directory = WORK / tag
    directory.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    jobs = [Job(workload, args.seed, i, directory)
            for i in range(workload.pool)]

    tally = Tally()
    tally.add(jobs[0], run_job(cli, jobs[0].commands)[1])  # warm-up
    gc.collect()
    gc.freeze()

    report = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "pool": workload.pool}
    if args.trace:
        import tracing

        recorder = tracing.Recorder()
        samples = measure(cli, jobs, args.seconds, tally, recorder)
        spans = RESULTS / f"spans-{tag}.tsv"
        recorder.write_spans(spans)
        metrics = layer_metrics(samples)
        report.update(spans=str(spans.relative_to(ROOT)),
                      traced_command_s=samples.traced)
    else:
        samples = measure(cli, jobs, args.seconds, tally)
        runs = [(job.edges, sum(run), ref)
                for job, job_runs, refs in zip(jobs, samples.plain,
                                               samples.reference)
                for run, ref in zip(job_runs, refs)]
        setup = samples.setup
        # Each job is scaled by the reference timed right before it; the
        # set-up times, by the median reference of the run.
        scaled = [(edges, took * REFERENCE_S / ref)
                  for edges, took, ref in runs]
        setup_scale = REFERENCE_S / statistics.median(
            ref for _, _, ref in runs)
        # The median job's throughput.  Smith normal form times have a
        # heavy tail (one graph in a few hundred takes 30 times the
        # median), so a sum over the pool would follow the seed.
        metrics = {
            "setup_s": (statistics.median(setup) * setup_scale, "s"),
            "job_p50_ms": (
                statistics.median(t for _, t in scaled) * 1e3, "ms"),
            "edges_per_s": (
                statistics.median(e / t for e, t in scaled), "1/s"),
            "peak_rss_mib": (measure_peak_rss(jobs[0]), "MiB"),
        }
        unscaled = {
            "setup_s": statistics.median(setup),
            "job_p50_ms": statistics.median(t for _, t, _ in runs) * 1e3,
            "edges_per_s": statistics.median(e / t for e, t, _ in runs),
        }
        report.update(unscaled=unscaled, setup_scale=setup_scale,
                      setup_s=setup, reference_s=samples.reference)
    report.update(command_s=samples.plain)

    report.update(failures=tally.reasons)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(result)
    suffix = "trace" if args.trace else "e2e"
    (RESULTS / f"{tag}-{suffix}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.4f} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
