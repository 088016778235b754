"""Command-line interface.

Four subcommands cover the pipeline: reconstruct (event files to
world-frame cones plus classification stats), estimate (cones to a
tracked hypothesis), simulate (closed-loop scenario runs), and metrics
(error series against ground truth). Exit codes: 0 success, 1 generic
failure, 2 parse error, 3 schema error, 4 ordering violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import io as rio
from .constants import BACKGROUND_THRESHOLD_KEV, CLUSTER_TOA_GAP_NS, COINCIDENCE_WINDOW_NS
from .errors import (
    MalformedInputError,
    OrderingError,
    ParseError,
    PoseExtrapolationError,
    RadlocError,
    SchemaError,
)
from .estimator import NoiseConfig, SourceEstimator
from .events import EventClass, check_positive, process_hits, process_pairs
from .geometry import Frame, interpolate_pose, transform_cone
from .initializer import Mode
from .simulator import metrics as sim_metrics
from .simulator import run_scenario

log = logging.getLogger("radloc")


def _setup_logging() -> None:
    level_name = os.environ.get("RADLOC_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


@functools.cache  # built on the first main call of a process, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radloc",
        description="Compton-cone reconstruction and gamma source localization tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("reconstruct", help="event files to world-frame cones")
    rec.add_argument("--events", required=True, help="hit or pre-paired event CSV")
    rec.add_argument("--poses", required=True, help="pose stream CSV")
    rec.add_argument("--out", required=True, help="output directory")
    rec.add_argument("--window-ns", type=float, default=COINCIDENCE_WINDOW_NS)
    rec.add_argument("--threshold-kev", type=float, default=BACKGROUND_THRESHOLD_KEV)
    rec.add_argument("--toa-gap-ns", type=float, default=CLUSTER_TOA_GAP_NS)
    rec.add_argument("--duration", type=float, default=None, help="stream duration in s for rates")
    rec.add_argument("--drop-ambiguous", action="store_true", help="hit files only")

    est = sub.add_parser("estimate", help="run the estimator over recorded cones")
    est.add_argument("--cones", required=True)
    est.add_argument("--out", required=True)
    # each tuning flag's dest is a NoiseConfig field; a flag left out is
    # not set, so the field's default applies
    unset = argparse.SUPPRESS
    est.add_argument("--mode", choices=[m.value for m in Mode], default=unset)
    est.add_argument("--r", type=float, default=unset)
    est.add_argument("--q", type=float, default=unset)
    est.add_argument("--gate", type=float, default=unset)
    est.add_argument("--init-count", type=int, default=unset)
    est.add_argument("--far", dest="far_variance", type=float, default=unset)
    est.add_argument("--multistart", type=int, default=unset)

    sim = sub.add_parser("simulate", help="run a scenario closed loop")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    met = sub.add_parser("metrics", help="error series of estimates vs ground truth")
    met.add_argument("--estimates", required=True)
    met.add_argument("--truth", required=True)
    met.add_argument("--out", required=True)
    met.add_argument("--threshold", type=float, default=2.0, help="convergence threshold in m")
    return parser


def cmd_reconstruct(args: argparse.Namespace) -> int:
    out = Path(args.out)
    # checked here as well as in clustering and pairing, so that a pairs file refuses them too
    check_positive("window", args.window_ns)
    check_positive("max_toa_gap", args.toa_gap_ns)
    poses = rio.read_poses_csv(args.poses)
    if rio.sniff_events_format(args.events) == "hits":
        hits = rio.read_hits_csv(args.events)
        result = process_hits(
            hits,
            max_toa_gap=args.toa_gap_ns,
            window=args.window_ns,
            threshold=args.threshold_kev,
            drop_ambiguous=args.drop_ambiguous,
            duration=args.duration,
        )
    else:
        pairs = rio.read_pairs_csv(args.events)
        result = process_pairs(pairs, threshold=args.threshold_kev, duration=args.duration)

    world = []
    skipped = 0
    columns = (result.cones.origins, result.cones.axes, result.cones.half_angles, result.times)
    for origin, axis, half_angle, t in zip(*(column.tolist() for column in columns)):
        try:
            pose = interpolate_pose(poses, t)
        except PoseExtrapolationError:
            skipped += 1
            continue
        world.append(transform_cone(origin, axis, half_angle, t, pose))
    rio.write_cones_csv(out / "cones.csv", world)

    summary = result.summary
    rates = summary.rates()
    shares = summary.shares()
    print(f"{'class':<14}{'count':>8}{'rate[1/s]':>12}{'share':>8}")
    for cls in (EventClass.PHOTOELECTRIC, EventClass.COMPTON_CANDIDATE, EventClass.BACKGROUND):
        print(
            f"{cls.value:<14}{summary.counts[cls]:>8}{rates[cls]:>12.3f}{shares[cls]:>8.3f}"
        )
    print(
        f"pairs={result.pair_count} rejected_pairs={summary.rejected_pairs} "
        f"ambiguous={summary.ambiguous} cones={len(world)} outside_pose_range={skipped}"
    )
    rio.write_json(
        out / "summary.json",
        {
            "counts": {c.value: n for c, n in summary.counts.items()},
            "rates_per_s": {c.value: r for c, r in rates.items()},
            "shares": {c.value: s for c, s in shares.items()},
            "duration_s": summary.duration,
            "pairs": result.pair_count,
            "rejected_pairs": summary.rejected_pairs,
            "invalid_scattering": summary.invalid_scattering,
            "degenerate_geometry": summary.degenerate_geometry,
            "ambiguous_tracks": summary.ambiguous,
            "cones_written": len(world),
            "outside_pose_range": skipped,
        },
    )
    if skipped:
        log.warning("%d cones fell outside the pose stream range", skipped)
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    cones = rio.read_cones_csv(args.cones)
    if any(c.frame is not Frame.WORLD for c in cones):
        raise MalformedInputError(
            "estimate requires world-frame cones; run reconstruct with poses first"
        )
    given = vars(args)
    tuning = {f.name: given[f.name] for f in dataclasses.fields(NoiseConfig) if f.name in given}
    session = SourceEstimator(NoiseConfig(**tuning))
    rows = []
    nan9 = (float("nan"),) * 9  # the estimate and the covariance's upper triangle
    for cone in cones:
        state, action = session.ingest(cone)
        if state is None:
            rows.append((cone.timestamp, *nan9, "collecting", action.value))
        else:
            rows.append((cone.timestamp, *state.x, *state.omega, "tracking", action.value))
    rio.write_estimates_csv(out / "estimates.csv", rows)

    state, covariance = session.state, None
    if state is not None:  # summary.json writes the covariance as rows
        xx, xy, xz, yy, yz, zz = state.omega
        covariance = (xx, xy, xz), (xy, yy, yz), (xz, yz, zz)
    summary = {
        "cones": len(cones),
        "init_time_s": session.init_time,
        "initialized": session.init_time is not None,
        "status": "collecting" if state is None else "tracking",
        "final_estimate": None if state is None else state.x,
        "final_covariance": covariance,
        **dataclasses.asdict(session.stats),
        "degenerate": session.last_solution.degenerate if session.last_solution else None,
    }
    rio.write_json(out / "summary.json", summary)
    if state is not None:
        x = state.x
        print(f"status=tracking estimate=({x[0]:.3f}, {x[1]:.3f}, {x[2]:.3f}) m")
    elif session.init_time is not None:  # locked, then reset by a run of gated cones
        print(f"status=collecting (initialized, then reset; {len(cones)} cones)")
    else:
        print(f"status=collecting (uninitialized after {len(cones)} cones)")
    stats = session.stats
    print(
        f"init_time={session.init_time} accepted={stats.accepted} "
        f"rejected={stats.rejected} resets={stats.resets}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    out = Path(args.out)
    scenario = rio.load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    report = run_scenario(scenario)
    rio.write_steps_csv(out / "steps.csv", report)
    summary = sim_metrics(report)
    rio.write_json(out / "summary.json", summary)
    print(
        f"seed={report.seed} cones={summary['cones_total']} "
        f"init_time={summary['time_to_init_s']} resets={summary['resets']} "
        f"degenerate_solves={summary['degenerate_solves']}"
    )
    if summary["post_lock_mean_error_m"] is not None:
        print(
            f"post-lock mean error {summary['post_lock_mean_error_m']:.3f} m "
            f"(max {summary['post_lock_max_error_m']:.3f} m)"
        )
    elif summary["degenerate_only"]:
        print("initialization degenerate: geometry constrains direction only")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    out = Path(args.out)
    check_positive("threshold", args.threshold)
    rows = rio.read_estimates_csv(args.estimates)
    t_truth, truth = rio.read_truth_csv(args.truth)

    # columns: a row is a sample when its estimate is finite and its time within the truth's
    t, *estimate = (np.array([row[k] for row in rows], dtype=float) for k in ("t_s", "x", "y", "z"))
    keep = np.isfinite(estimate).all(axis=0) & (t >= t_truth[0]) & (t <= t_truth[-1])
    if not keep.any():
        raise MalformedInputError(
            "no tracked estimates overlap the truth time range; nothing to compare"
        )
    t = t[keep]
    ex, ey, ez = (column[keep] - np.interp(t, t_truth, truth[:, k]) for k, column in enumerate(estimate))
    # norms element-wise in a fixed order, not through BLAS, so every CPU gives the same bits
    planar = ex * ex + ey * ey
    err_xy, err = np.sqrt(planar), np.sqrt(planar + ez * ez)
    rio.write_errors_csv(out / "error_series.csv", zip(*(c.tolist() for c in (t, ex, ey, ez, err, err_xy))))

    below = np.nonzero(err <= args.threshold)[0]
    summary = {
        "samples": len(t),
        "mean_error_m": float(err.mean()),
        "max_error_m": float(err.max()),
        "mean_planar_error_m": float(err_xy.mean()),
        "max_planar_error_m": float(err_xy.max()),
        "mean_abs_x_m": float(np.abs(ex).mean()),
        "mean_abs_y_m": float(np.abs(ey).mean()),
        "mean_abs_z_m": float(np.abs(ez).mean()),
        "convergence_threshold_m": args.threshold,
        "convergence_time_s": float(t[below[0]]) if below.size else None,
    }
    rio.write_json(out / "summary.json", summary)
    print(
        f"samples={summary['samples']} mean_error={summary['mean_error_m']:.3f} m "
        f"max_error={summary['max_error_m']:.3f} m "
        f"convergence_time={summary['convergence_time_s']}"
    )
    return 0


_DISPATCH = {
    "reconstruct": cmd_reconstruct,
    "estimate": cmd_estimate,
    "simulate": cmd_simulate,
    "metrics": cmd_metrics,
}


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 3
    except OrderingError as exc:
        print(f"ordering error: {exc}", file=sys.stderr)
        return 4
    except RadlocError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
