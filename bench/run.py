"""radloc benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload track --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; radloc is imported from its
``src`` directory, never from an installed copy. Workloads are closed
loop, one client, single thread: each operation is a ``radloc`` command
run in-process through ``radloc.cli.main`` after the previous one
returned, and its outputs are checked. See ``bench/workloads.json`` for
why each workload exists and which layers it loads.

``--trace 0`` reports the end-to-end metrics: set-up time, cones per
second, per-cone latency of the cone-ingest step, and peak RSS. Times
are the best repetitions of short steps over the passes (see Section).
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics plus the tracing overhead. Generated inputs, outputs,
spans and a full result record go under ``bench/out/``.

The last stdout line is the JSON result. The exit code is 0 only when
every operation passed its check and repeated its counts exactly; a
failed check exits 1, counts that do not repeat abort with 3.
"""

from __future__ import annotations

import os

# two CPUs: keep BLAS single-threaded in this process and its children
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("track", "reconstruct")
SETUP_REPEATS = 5
# passes before an untraced run may stop: each step repeats at least this often
MIN_PASSES = 5


class RepeatMismatch(RuntimeError):
    """An operation's counts or outputs differed between two passes."""


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for checking the benchmark itself")
    return p.parse_args(argv)


def _import_radloc():
    """Import radloc from this checkout's src directory, or exit 2."""
    if not (SRC / "radloc" / "__init__.py").is_file():
        print(f"radloc sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import radloc.cli

    if Path(radloc.cli.__file__).resolve().parent != (SRC / "radloc").resolve():
        print(f"radloc imported from {radloc.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return radloc.cli


def measure_setup(repeats: int) -> list[float]:
    """Wall seconds for a fresh interpreter to import radloc and radloc.cli.

    One untimed import first, so the timed ones do not pay for bytecode
    compilation, which users pay once per install.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))  # carries THREAD_ENV
    cmd = [sys.executable, "-c", "import radloc, radloc.cli"]
    times = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return times


def environment() -> dict:
    import numpy
    import scipy
    import yaml

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "threads": THREAD_ENV,
    }


class StepClock:
    """Time stamps at the boundaries of each cone's steps, kept on untraced.

    Every boundary goes to ``marks``; each cone's own step also gives one
    ``latency`` sample. track: ``SourceEstimator.ingest``, entry and
    return. reconstruct: the world-frame step, from ``interpolate_pose``
    entry to ``transform_cone`` return, and the entries of the pipeline's
    public functions ``io.read_hits_csv``, ``events.cluster_hits``,
    ``events.pair_coincident``, and of each ``events.make_pair`` and
    ``events.build_cone`` call.
    """

    def __init__(self, cli, workload: str) -> None:
        self.marks: list[int] = []
        self.latency: list[int] = []
        self._undo = []
        clock, marks, latency = time.perf_counter_ns, self.marks, self.latency
        if workload == "reconstruct":
            import radloc.events as events
            import radloc.io as rio

            interpolate, transform = cli.interpolate_pose, cli.transform_cone
            started = [0]

            def timed_interpolate(*args, **kwargs):
                started[0] = clock()
                marks.append(started[0])
                return interpolate(*args, **kwargs)

            def timed_transform(*args, **kwargs):
                out = transform(*args, **kwargs)
                end = clock()
                marks.append(end)
                latency.append(end - started[0])
                return out

            self._patch(cli, "interpolate_pose", timed_interpolate)
            self._patch(cli, "transform_cone", timed_transform)
            self._patch(rio, "read_hits_csv", self._entry_mark(rio.read_hits_csv))
            for name in ("cluster_hits", "pair_coincident", "make_pair", "build_cone"):
                self._patch(events, name, self._entry_mark(getattr(events, name)))
        else:
            from radloc.estimator import SourceEstimator as estimator_cls
            ingest = estimator_cls.ingest

            def timed_ingest(*args, **kwargs):
                start = clock()
                out = ingest(*args, **kwargs)
                end = clock()
                marks.extend((start, end))
                latency.append(end - start)
                return out

            self._patch(estimator_cls, "ingest", timed_ingest)

    def _entry_mark(self, fn):
        clock, marks = time.perf_counter_ns, self.marks

        def marked(*args, **kwargs):
            marks.append(clock())
            return fn(*args, **kwargs)

        return marked

    def _patch(self, owner, attr, fn) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Section:
    """Timings of consecutive whole passes over a workload's operations.

    Every operation repeats once per pass on identical inputs, with its
    counts and outputs checked identical. Other tenants of the host slow
    a run down in bursts, some shorter than a millisecond, so a time is
    taken as the best of its repetitions over short steps: an operation
    is cut at the boundaries a StepClock marks, each step keeps its
    fastest repetition, and the operation's time is the sum of its steps.
    A cone's latency is its fastest repetition.
    """

    def __init__(self) -> None:
        self.passes = 0
        self.cones: dict[str, int] = {}
        self.seconds: dict[str, list[float]] = {}
        self.best_steps: dict[str, np.ndarray] = {}
        self.best_latency: dict[str, np.ndarray] = {}
        # per pass: wall seconds, p50 and p99 ms of its own latencies
        self.pass_stats: list[tuple[float, float, float]] = []
        self._pass_latency: list[int] = []
        self._pass_s = 0.0

    def add(self, name: str, cones: int, start_ns: int, end_ns: int,
            marks: list[int], latency: list[int]) -> None:
        steps = np.diff(np.array([start_ns, *marks, end_ns], dtype=np.int64))
        lat = np.array(latency, dtype=np.int64)
        self.cones[name] = cones
        self.seconds.setdefault(name, []).append((end_ns - start_ns) * 1e-9)
        self._pass_latency.extend(latency)
        self._pass_s += (end_ns - start_ns) * 1e-9
        if name not in self.best_steps:
            self.best_steps[name], self.best_latency[name] = steps, lat
            return
        if steps.shape != self.best_steps[name].shape or lat.shape != self.best_latency[name].shape:
            raise RepeatMismatch(f"{name}: {len(marks)} step marks and {len(latency)} timed steps "
                                 f"differ from its first pass")
        np.minimum(self.best_steps[name], steps, out=self.best_steps[name])
        np.minimum(self.best_latency[name], lat, out=self.best_latency[name])

    def end_pass(self) -> None:
        lat = sorted(self._pass_latency) or [0]
        self.pass_stats.append((self._pass_s, _quantile(lat, 0.5) * 1e-6, _quantile(lat, 0.99) * 1e-6))
        self._pass_latency, self._pass_s = [], 0.0
        self.passes += 1

    def cones_per_s(self) -> float:
        best_ns = sum(int(steps.sum()) for steps in self.best_steps.values())
        return sum(self.cones.values()) / (best_ns * 1e-9)

    def median_cones_per_s(self) -> float:
        """Cones over the sum of each operation's median wall time."""
        return sum(self.cones.values()) / sum(statistics.median(v) for v in self.seconds.values())

    def busy_s(self) -> float:
        """Seconds spent inside radloc.cli.main over all passes."""
        return sum(sum(v) for v in self.seconds.values())

    def cone_latencies_ns(self) -> list[int]:
        """Best latency of each distinct cone over the passes, sorted."""
        for name, lat in self.best_latency.items():
            if len(lat) != self.cones[name]:
                raise RepeatMismatch(f"{name}: {len(lat)} timed steps for its {self.cones[name]} cones")
        return sorted(int(v) for lat in self.best_latency.values() for v in lat)


class Runner:
    """Runs passes over a workload's operations and checks every outcome."""

    def __init__(self, cli, workload) -> None:
        self.cli = cli
        self.workload = workload
        self.reference: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.summaries: list[dict] = []
        self.loc_errors: list[float] = []
        self.misses = 0
        self.tracer: tracer.Tracer | None = None
        self.trace_reference: dict[str, dict] = {}

    def run_op(self, op):
        """One operation: returns (outcome, start ns, end ns of radloc.cli.main)."""
        self.attempted += 1
        before = self.tracer.totals() if self.tracer else {}
        stdout = io.StringIO()
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(stdout):
                rc = self.cli.main(op.argv)
        except Exception as exc:  # an escaped exception is a failed operation
            end = time.perf_counter_ns()
            outcome = workloads.Outcome(0, {}, f"raised {type(exc).__name__}: {exc}")
        else:
            end = time.perf_counter_ns()
            outcome = op.check(op, rc)
        if outcome.failure is not None:
            self.failed += 1
            self.failures.append(f"{op.name}: {outcome.failure}")
        elif op.name in self.reference and self.reference[op.name] != outcome.counts:
            raise RepeatMismatch(
                f"{op.name}: counts differ between passes: "
                f"{self.reference[op.name]} vs {outcome.counts}"
            )
        else:
            self.reference.setdefault(op.name, outcome.counts)
        if self.tracer and outcome.failure is None:
            after = self.tracer.totals()
            traced = {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
            if self.trace_reference.setdefault(op.name, traced) != traced:
                raise RepeatMismatch(
                    f"{op.name}: traced counts differ between passes: "
                    f"{self.trace_reference[op.name]} vs {traced}"
                )
        return outcome, start, end

    def run_pass(self, section: Section, clock: StepClock | None, record: bool) -> None:
        """All operations once, cut into steps where ``clock`` marks them."""
        outcomes = []
        for op in self.workload.operations:
            if clock is not None:
                clock.marks.clear()
                clock.latency.clear()
            outcome, start, end = self.run_op(op)
            marks, latency = (clock.marks, clock.latency) if clock is not None else ([], [])
            section.add(op.name, outcome.cones, start, end, marks, latency)
            outcomes.append(outcome)
            if record and op.argv[0] == "simulate" and outcome.failure is None:
                self.summaries.append(json.loads((op.out / "summary.json").read_text()))
        gate_failures = workloads.pass_failures(self.workload.name, outcomes)
        if gate_failures:
            self.failed += gate_failures
            self.failures.append(f"pass below the gate's 80 %: {gate_failures} runs missed 5 m")
        if record and self.workload.name == "track":
            self.loc_errors.extend(o.loc_error_m for o in outcomes if workloads.track_locked(o))
            self.misses += sum(1 for o in outcomes if not workloads.track_locked(o))
        section.end_pass()

    def run_traced_pass(self, section: Section, trace: tracer.Tracer) -> None:
        self.tracer = trace
        trace.install()
        try:
            self.run_pass(section, None, True)
        finally:
            trace.uninstall()
            self.tracer = None

    def run_for(self, seconds: float, min_passes: int, clock: StepClock) -> tuple[Section, float]:
        """Whole passes until ``seconds`` of wall time and ``min_passes`` passed."""
        section = Section()
        start = time.perf_counter()
        while section.passes < min_passes or time.perf_counter() - start < seconds:
            self.run_pass(section, clock, True)
        return section, time.perf_counter() - start


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(section: Section, setup: list[float]) -> dict:
    latencies = section.cone_latencies_ns()
    return {
        "setup_s": (statistics.median(setup), "s"),
        "cones_per_s": (section.cones_per_s(), "1/s"),
        "ingest_p50_ms": (_quantile(latencies, 0.50) * 1e-6, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(trace: tracer.Tracer, plain: Section, traced: Section, runner: Runner) -> dict:
    wall_ns = int(traced.busy_s() * 1e9)
    layer = tracer.layer_metrics(trace, traced.passes, wall_ns, runner.summaries)
    # alternating passes see the same host load, so medians compare them
    layer["trace.throughput_ratio"] = traced.median_cones_per_s() / plain.median_cones_per_s()
    layer["simulator.loc_error_m"] = statistics.median(runner.loc_errors) if runner.loc_errors else 0.0
    track_runs = len(runner.loc_errors) + runner.misses
    layer["simulator.miss_share"] = runner.misses / track_runs if track_runs else 0.0
    return layer


def main(argv=None) -> int:
    args = _parse_args(argv)
    cli = _import_radloc()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = [] if args.trace else measure_setup(1 if args.smoke else SETUP_REPEATS)

    work = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, "smoke" if args.smoke else "full", work)
    workloads.load_check_helpers()
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {workload.name} seed {args.seed} operations {len(workload.operations)} "
          f"input {json.dumps(workload.input_size, sort_keys=True)}")
    record: dict = {"env": env, "workload": workload.name, "seed": args.seed,
                    "seconds": args.seconds, "input_size": workload.input_size}

    runner = Runner(cli, workload)
    # warm-up: one operation, untimed, so lazy imports and caches are in place
    runner.run_op(workload.operations[0])
    try:
        if args.trace == 0:
            clock = StepClock(cli, workload.name)
            try:
                section, wall_s = runner.run_for(args.seconds, MIN_PASSES, clock)
            finally:
                clock.uninstall()
            record.update(passes=section.passes, wall_s=wall_s, setup_samples_s=setup,
                          op_seconds=section.seconds, pass_stats=section.pass_stats,
                          median_cones_per_s=section.median_cones_per_s())
        else:
            # traced and untraced passes alternate, starting and ending traced,
            # so the overhead compares passes made under the same host load;
            # two traced passes at least, so the traced counts repeat too
            plain, traced, trace = Section(), Section(), tracer.Tracer()
            start = time.perf_counter()
            runner.run_traced_pass(traced, trace)
            while traced.passes < 2 or time.perf_counter() - start < args.seconds:
                runner.run_pass(plain, None, False)
                runner.run_traced_pass(traced, trace)
            trace.write(work / "spans.csv")
            record.update(passes=traced.passes, plain_passes=plain.passes, traced_s=traced.busy_s())
        if not runner.failed:
            if args.trace == 0:
                metrics = end_to_end(section, setup)
                names = [m["name"] for m in declared["end_to_end"]]
            else:
                units = {m["name"]: m["unit"] for m in declared["per_layer"]}
                metrics = {n: (v, units.get(n, "?"))
                           for n, v in per_layer(trace, plain, traced, runner).items()}
                names = list(units)
    except RepeatMismatch as exc:
        print(f"abort: {exc}", file=sys.stderr)
        return 3

    print(f"# fail_share {runner.failed}/{runner.attempted}")
    for failure in runner.failures[:20]:
        print(f"# failed {failure}")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": {}}
    if not runner.failed:
        if sorted(metrics) != sorted(names):
            print(f"metric names differ from BENCHMARK.json: {sorted(metrics)}", file=sys.stderr)
            return 4
        if workload.name == "track" and args.trace == 0:
            loc = statistics.median(runner.loc_errors) if runner.loc_errors else float("nan")
            print(f"# loc_error_m {loc:.6g} m (median post-lock planar error over "
                  f"{len(runner.loc_errors)} locked runs; {runner.misses} runs missed 5 m)")
        if args.trace == 0:
            latencies = section.cone_latencies_ns()
            n = len(latencies)
            p99_ms = _quantile(latencies, 0.99) * 1e-6
            record["ingest_p99_ms"] = p99_ms
            print(f"# ingest latency: best of {section.passes} passes for each of n={n} cones")
            # Printed, not a bounded metric: on a shared 2-vCPU host the slowest
            # 1 % of best latencies are the cones that never met an undisturbed
            # repetition, so p99 follows the other tenants' load more than radloc.
            print(f"# ingest_p99_ms {p99_ms:.6g} ms ({n // 100} cones beyond it)")
            print(f"# cones_per_s over median operation wall times: "
                  f"{section.median_cones_per_s():.6g} 1/s")
        for name in names:
            value, unit = metrics[name]
            print(f"{name} {value:.6g} {unit}")
        result["metrics"] = {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names}

    record.update(result=result, failures=runner.failures)
    for sub in ("inputs", "outputs"):
        shutil.rmtree(work / sub, ignore_errors=True)
    (work / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
