"""Command-line experiment runner.

Every command writes into one output directory: a manifest.json carrying
the resolved configuration, its hash and the seed, plus the data files.
This module is the only writer of those files, so their formats live
here.  Identical invocations reproduce identical bytes; no timestamps are
embedded.  The default output root comes from CHAOSCPG_OUT (falling back
to ./runs).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path
from statistics import mean, stdev
from typing import Iterable, List, Optional, Sequence

from . import __version__
from .core import (CpgParams, detect_period, lyapunov_estimate,
                   run_controlled)
from .gait import MAX_TRACE_STEPS, STEP_RATE_HZ, gait_trace, render_gait
from .learner import LearnerConfig, learn, plant_evaluator, sweep_beta
from .network import LegId, Morphology
from .plant import PlantConfig, all_fours, config_items, load_config
from .scenarios import battery, search_space_size


def estimate_walltime(trials: int, window: int = 400) -> float:
    """Projected real-robot seconds for a trial count (window / 27 Hz each)."""
    if trials < 0:
        raise ValueError("trials must be >= 0")
    return trials * window / STEP_RATE_HZ


def config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _out_dir(args) -> Path:
    root = Path(args.out if args.out else os.environ.get("CHAOSCPG_OUT", "runs"))
    root.mkdir(parents=True, exist_ok=True)
    return root


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_manifest(out: Path, command: str, doc: dict) -> List[str]:
    """Write manifest.json; returns the header lines of the run's CSVs."""
    doc = dict(doc, command=command, version=__version__)
    h = config_hash(doc)
    doc["config_hash"] = h
    _write_json(out / "manifest.json", doc)
    return [f"config_hash={h}", f"seed={doc.get('seed')}"]


def _write_csv(path: Path, header: Sequence[str], columns: Sequence[str],
               rows: Iterable[Iterable]) -> None:
    """The one CSV layout of a run directory: a `# ` line per header
    entry, the column row, then the data rows."""
    with open(path, "w", newline="") as f:
        f.writelines(f"# {line}\n" for line in header)
        w = csv.writer(f)
        w.writerow(columns)
        w.writerows(rows)


def _periods_label(periods) -> str:
    """A period map as `L1=4 R2=5 ...`, legs in name order."""
    return " ".join(f"{l.value}={p}" for l, p in sorted(
        periods.items(), key=lambda kv: kv[0].value))


def _parse_legs(spec: Optional[str]) -> List[LegId]:
    if not spec:
        return []
    legs = [LegId(tok.strip().upper()) for tok in spec.split(",") if tok.strip()]
    repeated = sorted({l.value for l in legs if legs.count(l) > 1})
    if repeated:
        raise ValueError(f"legs listed more than once: {','.join(repeated)}")
    return legs


def _plant_config(args) -> PlantConfig:
    if getattr(args, "plant_config", None):
        cfg = load_config(args.plant_config)
        if cfg.morphology is not Morphology.from_label(args.morphology):
            raise ValueError("plant config morphology does not match --morphology")
        return cfg
    return PlantConfig(morphology=Morphology.from_label(args.morphology))


# ---------------------------------------------------------------------------
# commands


def cmd_run_cpg(args) -> int:
    out = _out_dir(args)
    init = tuple(float(v) for v in args.init.split(","))
    traj = run_controlled(CpgParams(), args.p, args.steps, init=init,
                          enabled=not args.uncontrolled)
    period = detect_period(traj.x1)
    doc = {"p": args.p, "steps": args.steps, "init": list(init),
           "uncontrolled": args.uncontrolled, "seed": args.seed,
           "detected_period": period, "lock_step": traj.lock_step}
    header = _write_manifest(out, "run-cpg", doc)
    # tolist() gives Python floats, which csv writes as their repr
    columns = (traj.t, traj.x1, traj.x2, traj.c1, traj.c2)
    _write_csv(out / "trajectory.csv", header, ["t", "x1", "x2", "c1", "c2"],
               zip(*(c.tolist() for c in columns)))
    print(f"wrote {out / 'trajectory.csv'} (detected period: {period})")
    return 0


def cmd_lyapunov(args) -> int:
    out = _out_dir(args)
    init = tuple(float(v) for v in args.init.split(","))
    value = lyapunov_estimate(CpgParams(), steps=args.steps, init=init)
    doc = {"steps": args.steps, "init": list(init), "seed": args.seed,
           "lyapunov": value}
    _write_manifest(out, "lyapunov", doc)
    print(f"largest Lyapunov exponent ~ {value:.4f}")
    return 0


def cmd_gait(args) -> int:
    out = _out_dir(args)
    morphology = Morphology.from_label(args.morphology)
    trace = gait_trace(morphology, args.p, steps=args.steps or None)
    doc = {"p": args.p, "morphology": args.morphology,
           "steps": trace.steps, "format": args.format, "seed": args.seed}
    header = _write_manifest(out, "gait", doc)
    if args.format in ("ascii", "svg"):
        text = render_gait(trace, args.format)
        path = out / f"gait.{'txt' if args.format == 'ascii' else 'svg'}"
        path.write_text(text)
    else:
        path = out / "gait.csv"
        _write_csv(path, header, ["leg"] + [str(i) for i in range(trace.steps)],
                   ([leg.value, *map(int, row)]
                    for leg, row in zip(trace.legs, trace.stance)))
    print(f"wrote {path}")
    return 0


def cmd_learn(args) -> int:
    out = _out_dir(args)
    plant = _plant_config(args)
    disabled = _parse_legs(args.disable)
    scenario = all_fours(plant, disabled)
    cfg = LearnerConfig(beta=args.beta, e_req=args.e_req,
                        max_trials=args.max_trials, seed=args.seed)
    trace = learn(plant_evaluator(plant), scenario, cfg)
    doc = {"morphology": args.morphology,
           "disabled": sorted(l.value for l in disabled),
           "beta": args.beta, "e_req": args.e_req,
           "max_trials": args.max_trials, "seed": args.seed,
           "outcome": trace.outcome,
           "total_evaluations": trace.total_evaluations,
           "projected_walltime_s": estimate_walltime(
               trace.total_evaluations, plant.window),
           "plant": config_items(plant)}
    header = _write_manifest(out, "learn", doc)
    legs = plant.morphology.legs
    # one row per trial; a disabled leg carries no period and shows '-'
    _write_csv(out / "trace.csv", header,
               ["trial"] + [l.value for l in legs]
               + ["deviation_deg", "decision"],
               ([rec.n] + [rec.periods.get(l, "-") for l in legs]
                + [repr(float(rec.deviation)), rec.decision.value]
                for rec in trace.records))
    _write_json(out / "trace.json", {
        "seed": trace.seed,
        "disabled": doc["disabled"],
        "initial": {l.value: p for l, p in trace.initial.items()},
        "outcome": trace.outcome,
        "total_evaluations": trace.total_evaluations,
        "duplicate_skips": trace.duplicate_skips,
        "exhausted": trace.exhausted,
        "trials": [{"n": rec.n,
                    "periods": {l.value: p for l, p in rec.periods.items()},
                    "deviation_deg": rec.deviation,
                    "decision": rec.decision.value}
                   for rec in trace.records],
    })
    # the plant evaluations: scenario, periods, trial seed, deviation
    _write_csv(out / "evaluations.csv", header,
               ["disabled", "periods", "seed", "delta_phi_deg"],
               ([":".join(doc["disabled"]), _periods_label(rec.periods), rec.seed,
                 repr(float(rec.deviation))] for rec in trace.records))
    print(f"{trace.outcome} after {trace.total_evaluations} trials "
          f"(final deviation {trace.final.deviation:+.2f} deg)")
    return 0 if trace.converged else 1


def cmd_battery(args) -> int:
    out = _out_dir(args)
    if args.repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {args.repeats}")
    plant = _plant_config(args)
    morphology = plant.morphology
    # one evaluator for every row: its keys carry the disabled set
    evaluate = plant_evaluator(plant)
    rows = []
    any_failed = False
    for disabled in battery(morphology):
        scenario = all_fours(plant, disabled)
        traces = []
        for r in range(args.repeats):
            cfg = LearnerConfig(beta=args.beta, e_req=args.e_req,
                                max_trials=args.max_trials,
                                seed=args.seed + 7919 * r + 13 * len(rows))
            traces.append(learn(evaluate, scenario, cfg))
        converged = [t for t in traces if t.converged]
        counts = [t.total_evaluations for t in traces]
        best = min((t for t in converged),
                   key=lambda t: abs(t.final.deviation), default=None)
        if not converged:
            any_failed = True
        functional = [l.value for l in scenario.functional(plant)]
        rows.append([
            "+".join(sorted(l.value for l in disabled)),
            "+".join(functional),
            _periods_label(best.kept_periods()) if best else "none",
            abs(best.final.deviation) if best else float("nan"),
            mean(counts),
            stdev(counts) if len(counts) > 1 else 0.0,
            f"{len(converged)}/{len(traces)}",
        ])
    doc = {"morphology": morphology.label, "repeats": args.repeats,
           "beta": args.beta, "e_req": args.e_req,
           "max_trials": args.max_trials, "seed": args.seed,
           "rows": len(rows),
           "search_space": search_space_size(morphology),
           "seconds_per_trial": estimate_walltime(1, plant.window),
           "plant": config_items(plant)}
    header = _write_manifest(out, "battery", doc)
    path = out / "battery.csv"
    _write_csv(path, header,
               ["disabled", "functional", "learned", "final_deviation_deg",
                "mean_trials", "sd_trials", "converged"], rows)
    print(f"wrote {path} ({len(rows)} scenarios"
          f"{', some unconverged' if any_failed else ''})")
    return 0


def cmd_sweep_beta(args) -> int:
    out = _out_dir(args)
    plant = _plant_config(args)
    disabled = _parse_legs(args.disable)
    scenario = all_fours(plant, disabled)
    betas = [math.inf if tok.strip() in ("inf", "strict") else float(tok)
             for tok in args.betas.split(",")]
    rows = sweep_beta(plant_evaluator(plant), scenario, betas,
                      runs=args.runs, seed=args.seed, e_req=args.e_req,
                      max_trials=args.max_trials)
    doc = {"morphology": args.morphology,
           "disabled": sorted(l.value for l in disabled),
           "betas": [str(b) for b in betas], "runs": args.runs,
           "e_req": args.e_req, "max_trials": args.max_trials,
           "seed": args.seed, "plant": config_items(plant)}
    header = _write_manifest(out, "sweep-beta", doc)
    path = out / "sweep.csv"
    _write_csv(path, header, list(rows[0]), (row.values() for row in rows))
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, and building it costs far more than a parse."""
    ap = argparse.ArgumentParser(
        prog="chaoscpg",
        description="chaotic-oscillator gait experiments and leg-failure learning")
    ap.add_argument("--out", help="output directory (default: $CHAOSCPG_OUT or ./runs)")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, morphology=True, plant=False):
        p.add_argument("--seed", type=int, default=0)
        if morphology:
            p.add_argument("--morphology", choices=["hexapod", "quadruped"],
                           default="hexapod")
        if plant:
            p.add_argument("--plant-config", help="plant key=value config file")
            p.add_argument("--beta", type=float, default=0.5)
            p.add_argument("--e-req", type=float, default=8.0,
                           help="required deviation magnitude, degrees")
            p.add_argument("--max-trials", type=int, default=200)

    p = sub.add_parser("run-cpg", help="controlled oscillator trajectory")
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--init", default="0.1,0.2")
    p.add_argument("--uncontrolled", action="store_true")
    common(p, morphology=False)
    p.set_defaults(func=cmd_run_cpg)

    p = sub.add_parser("lyapunov", help="largest Lyapunov exponent of the free map")
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--init", default="0.1,0.2")
    common(p, morphology=False)
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("gait", help="render a gait diagram")
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--steps", type=int, default=0,
                   help="diagram length, at most "
                        f"{MAX_TRACE_STEPS} (default: one full pattern)")
    p.add_argument("--format", choices=["ascii", "svg", "csv"], default="ascii")
    common(p)
    p.set_defaults(func=cmd_gait)

    p = sub.add_parser("learn", help="one leg-failure learning session")
    p.add_argument("--disable", required=True, help="e.g. R1 or R1,R3")
    common(p, plant=True)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("battery", help="full scenario battery with repeats")
    p.add_argument("--repeats", type=int, default=10)
    common(p, plant=True)
    p.set_defaults(func=cmd_battery)

    p = sub.add_parser("sweep-beta", help="annealing-factor comparison")
    p.add_argument("--disable", required=True)
    p.add_argument("--betas", default="0,0.25,0.5,1,2,5,10",
                   help="comma list; 'strict' selects strict greedy")
    p.add_argument("--runs", type=int, default=50)
    common(p, plant=True)
    p.set_defaults(func=cmd_sweep_beta)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
