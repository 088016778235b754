"""In-memory span tracer installed around radloc's public functions.

Wrappers are installed from the benchmark at the name each caller looks
up (``radloc.estimator.solve``, ``radloc.initializer.distance_to_cone``,
``radloc.cli.interpolate_pose`` ...), so ``src/`` stays untouched and
uninstalling restores the originals.

Two kinds of wrapper keep the overhead bounded:

- a *span* records (id, parent, name, start, end) and becomes the parent
  of the calls made inside it;
- a *leaf* is used for hot functions that call nothing wrapped. It only
  adds its count and duration to per-name totals and charges the
  duration to the enclosing span, so self times stay exact.

A span's self time is its duration minus its child spans and the leaf
time charged to it. Grouping self times by module accounts for the
time spent inside the traced operations, up to the wrappers' own
bookkeeping.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

# (attribute owner, attribute, span name, kind). The span name's prefix
# is the module the wrapped function belongs to.
def _sites():
    import radloc.cli as cli
    import radloc.estimator as estimator
    import radloc.events as events
    import radloc.initializer as initializer
    import radloc.io as rio

    return [
        (cli, "main", "cli.main", "span"),
        (cli, "process_hits", "events.process_hits", "span"),
        (cli, "interpolate_pose", "geometry.interpolate_pose", "span"),
        (cli, "transform_cone", "geometry.transform_cone", "span"),
        (cli, "run_scenario", "simulator.run_scenario", "span"),
        (cli, "sim_metrics", "simulator.metrics", "span"),
        (rio, "read_hits_csv", "io.read_hits_csv", "span"),
        (rio, "read_poses_csv", "io.read_poses_csv", "span"),
        (rio, "sniff_events_format", "io.sniff_events_format", "span"),
        (rio, "load_scenario", "io.load_scenario", "span"),
        (rio, "write_cones_csv", "io.write_cones_csv", "span"),
        (rio, "write_steps_csv", "io.write_steps_csv", "span"),
        (rio, "write_json", "io.write_json", "span"),
        (events, "cluster_hits", "events.cluster_hits", "span"),
        (events, "pair_coincident", "events.pair_coincident", "span"),
        (events, "process_pairs", "events.process_pairs", "span"),
        (events, "make_pair", "events.make_pair", "leaf"),
        (events, "build_cone", "events.build_cone", "leaf"),
        (estimator.SourceEstimator, "ingest", "estimator.ingest", "span"),
        (estimator, "predict", "estimator.predict", "leaf"),
        (estimator, "correct", "estimator.correct", "span"),
        (estimator, "project_to_cone", "cones.project_to_cone", "leaf"),
        (estimator, "surface_normal", "cones.surface_normal", "leaf"),
        (estimator, "solve", "initializer.solve", "span"),
        (initializer, "residuals", "initializer.residuals", "span"),
        (initializer, "cost_and_gradient", "initializer.cost_and_gradient", "span"),
        (initializer, "jacobian", "initializer.jacobian", "span"),
        (initializer, "distance_to_cone", "cones.distance_to_cone", "leaf"),
        (initializer, "minimize", "scipy.minimize", "span"),
    ]


MODULES = ("cli", "io", "events", "geometry", "cones", "initializer", "estimator", "simulator", "scipy")


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.calls: Counter = Counter()  # calls per wrapped name, spans and leaves
        self.leaf_ns: Counter = Counter()
        self.leaf_in: defaultdict = defaultdict(int)  # span id -> leaf ns inside it
        self.results: dict[str, list] = defaultdict(list)  # span name -> inspected results
        self._stack = [0]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --

    def install(self) -> None:
        for owner, attr, name, kind in _sites():
            original = getattr(owner, attr)
            wrapper = self._span(name, original) if kind == "span" else self._leaf(name, original)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _span(self, name: str, fn):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter_ns
        inspect = _INSPECT.get(name)
        results = self.results[name]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if inspect is not None:
                    results.append((parent, inspect(args, kwargs, None, exc)))
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if inspect is not None:
                results.append((parent, inspect(args, kwargs, out, None)))
            return out

        return wrapper

    def _leaf(self, name: str, fn):
        calls, total, inside, stack, clock = (
            self.calls, self.leaf_ns, self.leaf_in, self._stack, time.perf_counter_ns,
        )

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                calls[name] += 1
                total[name] += took
                inside[stack[-1]] += took

        return wrapper

    # -- analysis --

    def totals(self) -> dict[str, int]:
        """Exact counts so far: calls per wrapped name and SLSQP work."""
        starts = [v for _, v in self.results["scipy.minimize"] if v is not None]
        return {**self.calls, "slsqp_nit": sum(v[0] for v in starts),
                "slsqp_nfev": sum(v[1] for v in starts)}

    def _self_ns(self) -> dict[int, int]:
        """Self time of every span: its duration minus child spans and leaves."""
        child_ns: defaultdict = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            child_ns[parent] += end - start
        return {sid: end - start - child_ns[sid] - self.leaf_in[sid]
                for sid, _, _, start, end in self.spans}

    def self_times(self) -> dict[str, int]:
        """Self time in ns per module, spans and leaves together."""
        own = self._self_ns()
        per_module: Counter = Counter()
        for sid, _, name, _, _ in self.spans:
            per_module[name.split(".", 1)[0]] += own[sid]
        for name, ns in self.leaf_ns.items():
            per_module[name.split(".", 1)[0]] += ns
        return {m: per_module.get(m, 0) for m in MODULES}

    def durations(self, name: str) -> list[int]:
        return [end - start for _, _, n, start, end in self.spans if n == name]

    def span_self(self, name: str) -> list[int]:
        own = self._self_ns()
        return [own[sid] for sid, _, n, _, _ in self.spans if n == name]

    def per_parent(self, name: str) -> dict[int, int]:
        """Total duration of ``name`` spans grouped by their parent span id."""
        out: defaultdict = defaultdict(int)
        for _, parent, n, start, end in self.spans:
            if n == name:
                out[parent] += end - start
        return out

    def write(self, path: Path) -> None:
        """Spans as CSV (ns relative to the first span), leaf totals after."""
        origin = min((s[3] for s in self.spans), default=0)
        lines = ["id,parent,name,start_ns,end_ns"]
        lines.extend(f"{i},{p},{n},{s - origin},{e - origin}" for i, p, n, s, e in self.spans)
        lines.append("")
        lines.append("leaf,calls,total_ns")
        lines.extend(f"{n},{self.calls[n]},{self.leaf_ns[n]}" for n in sorted(self.leaf_ns))
        path.write_text("\n".join(lines) + "\n")


def _file_size(args, kwargs, out, exc):
    path = Path(args[0])
    return path.stat().st_size if exc is None and path.is_file() else 0


def _minimize_result(args, kwargs, out, exc):
    if exc is not None:
        return None
    return int(out.nit), int(out.nfev), int(out.nit) >= int(kwargs["options"]["maxiter"])


def _solve_result(args, kwargs, out, exc):
    # None when the solve raised (no feasible start)
    return None if exc is not None else bool(out.degenerate)


def _ingest_result(args, kwargs, out, exc):
    return None if exc is not None else out[1].value


def _len_result(args, kwargs, out, exc):
    return None if exc is not None else len(out)


def _pipeline_result(args, kwargs, out, exc):
    if exc is not None:
        return None
    return len(args[0]), out.pair_count, len(out.cones), out.summary.rejected_pairs


_INSPECT = {
    "scipy.minimize": _minimize_result,
    "initializer.solve": _solve_result,
    "estimator.ingest": _ingest_result,
    "events.cluster_hits": _len_result,
    "events.pair_coincident": _len_result,
    "events.process_hits": _pipeline_result,
    "io.read_hits_csv": _file_size,
    "io.read_poses_csv": _file_size,
    "io.load_scenario": _file_size,
    "io.write_cones_csv": _file_size,
    "io.write_steps_csv": _file_size,
    "io.write_json": _file_size,
}


def _mean(values, scale=1.0) -> float:
    return statistics.fmean(values) * scale if values else 0.0


def layer_metrics(tracer: Tracer, passes: int, wall_ns: int, summaries: list[dict]) -> dict:
    """Per-layer metrics from one traced section of ``passes`` passes.

    Totals are per pass, latencies are per call; a layer the workload
    never enters reports 0. ``summaries`` are the simulate summary.json
    files of the traced passes.
    """
    per_pass = 1.0 / passes
    r = tracer.results
    m: dict[str, float] = {}

    # events
    hits_ns = tracer.durations("events.process_hits")
    pipeline = [v for _, v in r["events.process_hits"] if v is not None]
    hits = sum(v[0] for v in pipeline)
    pairs = sum(v[1] for v in pipeline)
    cones = sum(v[2] for v in pipeline)
    m["events.hits_per_s"] = hits / (sum(hits_ns) * 1e-9) if hits_ns else 0.0
    m["events.cluster_s"] = sum(tracer.durations("events.cluster_hits")) * 1e-9 * per_pass
    m["events.pair_s"] = sum(tracer.durations("events.pair_coincident")) * 1e-9 * per_pass
    calls = tracer.calls["events.make_pair"]
    m["events.make_pair_us"] = tracer.leaf_ns["events.make_pair"] / calls * 1e-3 if calls else 0.0
    m["events.process_pairs_s"] = sum(tracer.durations("events.process_pairs")) * 1e-9 * per_pass
    m["events.tracks"] = sum(v for _, v in r["events.cluster_hits"] if v is not None) * per_pass
    m["events.pairs"] = pairs * per_pass
    m["events.cones"] = cones * per_pass
    m["events.rejected_pairs"] = sum(v[3] for v in pipeline) * per_pass
    m["events.cone_yield"] = cones / pairs if pairs else 0.0

    # geometry
    interp = tracer.durations("geometry.interpolate_pose")
    transform = tracer.durations("geometry.transform_cone")
    m["geometry.interpolate_pose_us"] = _mean(interp, 1e-3)
    m["geometry.transform_cone_us"] = _mean(transform, 1e-3)
    m["geometry.calls"] = (len(interp) + len(transform)) * per_pass

    # io
    read_hits = tracer.durations("io.read_hits_csv")
    m["io.read_hits_s"] = sum(read_hits) * 1e-9 * per_pass
    m["io.read_hits_rows_per_s"] = hits / (sum(read_hits) * 1e-9) if read_hits else 0.0
    m["io.write_cones_s"] = sum(tracer.durations("io.write_cones_csv")) * 1e-9 * per_pass
    m["io.write_steps_s"] = sum(tracer.durations("io.write_steps_csv")) * 1e-9 * per_pass
    read = ("io.read_hits_csv", "io.read_poses_csv", "io.load_scenario")
    written = ("io.write_cones_csv", "io.write_steps_csv", "io.write_json")
    m["io.bytes_read"] = sum(v for n in read for _, v in r[n]) * per_pass
    m["io.bytes_written"] = sum(v for n in written for _, v in r[n]) * per_pass

    # cones, counted at the initializer's and the estimator's call sites
    for short, name in (("distance", "cones.distance_to_cone"), ("project", "cones.project_to_cone")):
        calls = tracer.calls[name]
        m[f"cones.{short}_calls"] = calls * per_pass
        m[f"cones.{short}_ns"] = tracer.leaf_ns[name] / calls if calls else 0.0

    # initializer
    solves = r["initializer.solve"]
    solve_ids = {sid for sid, _, n, _, _ in tracer.spans if n == "initializer.solve"}
    pool = tracer.per_parent("initializer.residuals")
    slsqp = tracer.per_parent("scipy.minimize")
    starts = [v for _, v in r["scipy.minimize"] if v is not None]
    m["initializer.solves"] = len(solves) * per_pass
    solve_ms = tracer.durations("initializer.solve")
    m["initializer.solve_ms"] = statistics.median(solve_ms) * 1e-6 if solve_ms else 0.0
    m["initializer.pool_ms"] = _mean([pool.get(s, 0) for s in solve_ids], 1e-6)
    m["initializer.slsqp_ms"] = _mean([slsqp.get(s, 0) for s in solve_ids], 1e-6)
    m["initializer.slsqp_nit"] = sum(v[0] for v in starts) * per_pass
    m["initializer.slsqp_nfev"] = sum(v[1] for v in starts) * per_pass
    m["initializer.cap_share"] = sum(v[2] for v in starts) / len(starts) if starts else 0.0
    m["initializer.degenerate_share"] = (
        sum(1 for _, v in solves if v) / len(solves) if solves else 0.0
    )

    # estimator
    actions = Counter(v for _, v in r["estimator.ingest"])
    ingests = sum(actions.values())
    accepted = actions["corrected"]
    rejected = actions["rejected"] + actions["reset"]  # a reset follows a rejection
    m["estimator.correct_us"] = _mean(tracer.durations("estimator.correct"), 1e-3)
    calls = tracer.calls["estimator.predict"]
    m["estimator.predict_us"] = tracer.leaf_ns["estimator.predict"] / calls * 1e-3 if calls else 0.0
    m["estimator.ingest_self_us"] = _mean(tracer.span_self("estimator.ingest"), 1e-3)
    m["estimator.accept_share"] = accepted / (accepted + rejected) if accepted + rejected else 0.0
    m["estimator.resets"] = actions["reset"] * per_pass
    m["estimator.solves_per_ingest"] = len(solves) / ingests if ingests else 0.0

    # simulator
    m["simulator.cones_sampled"] = sum(s["cones_total"] for s in summaries) * per_pass

    # self time per module, and how much of the wall time it accounts for
    self_ns = tracer.self_times()
    for module in MODULES:
        m[f"{module}.self_s"] = self_ns[module] * 1e-9 * per_pass
    m["trace.wall_s"] = wall_ns * 1e-9 * per_pass
    m["trace.self_sum_share"] = sum(self_ns.values()) / wall_ns if wall_ns else 0.0
    m["trace.spans"] = len(tracer.spans) * per_pass
    return m
