"""Benchmark of the self-testable FSM synthesis system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --check-oracles

A run sets the workload up three times (reporting the median set-up time),
runs whole passes over the workload's grid until ``--seconds`` have passed,
then checks the program's outputs with the independent oracles of
``oracle.py``.  With ``--trace 1`` the first half of the time runs untraced
and the second half traced, and the per-layer metrics come from the traced
half.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
raw and calibrated figures side by side.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
#: A run that has not finished by then stops its workers and fails.
WATCHDOG_S = 170
MIN_KERNEL_SAMPLES = 10

END_TO_END = (
    ("sweep_s", "s"),
    ("cpu_s_per_cell", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _import_program() -> None:
    """Import the program from this checkout's ``src/``, and only from there."""
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    import repro

    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro was imported from {repro.__file__}, not from this checkout")


def _measure(workload: Any, seconds: float, first: int, tracer: Any = None) -> List[Any]:
    """Whole passes until ``seconds`` have passed."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(workload.run_pass(first + len(passes), tracer))
    return passes


def _pass_factors(passes: List[Any]) -> List[float]:
    """Calibration factor of each pass.

    A pass is calibrated by the kernel samples taken around its operations,
    widened to its neighbouring passes until there are ``MIN_KERNEL_SAMPLES``:
    single samples follow the host's speed poorly, their mean over a few
    seconds follows it well.
    """
    from calib import factor

    factors = []
    for index, current in enumerate(passes):
        samples = list(current.kernels)
        low = high = index
        while len(samples) < MIN_KERNEL_SAMPLES and (low > 0 or high < len(passes) - 1):
            if low > 0:
                low -= 1
                samples += passes[low].kernels
            if high < len(passes) - 1:
                high += 1
                samples += passes[high].kernels
        factors.append(factor(samples))
    return factors


def _sweep_s(passes: List[Any]) -> float:
    return statistics.median(p.raw_s * f for p, f in zip(passes, _pass_factors(passes)))


def _per_layer(workload: Any, tracer: Any, untraced: List[Any], traced: List[Any]) -> Dict[str, float]:
    import tracing

    factors = _pass_factors(traced)
    by_key = {op.key: f for p, f in zip(traced, factors) for op in p.ops}
    windows = [(op.start, op.end, f) for p, f in zip(traced, factors) for op in p.ops]

    def main_factor(_: float, op: Any) -> Optional[float]:
        return by_key.get(tuple(op)) if op is not None else None

    def worker_factor(at: float, _: Any) -> Optional[float]:
        return next((f for start, end, f in windows if start <= at <= end), None)

    layers = tracing.aggregate([(tracer.spans, tracer.counts)], main_factor, len(traced))
    # The client's self times add up to its passes; worker processes run
    # concurrently with it, so their layers add to CPU per cell instead.
    accounted = sum(layers[metric] for metric in tracing.SELF_TIME_METRICS.values())
    workers = [tracing.load(path) for path in workload.worker_spans()]
    remote = tracing.aggregate(workers, worker_factor, len(traced))
    for name, value in remote.items():
        if name != "circuit.detect_ratio":
            layers[name] += value
    traced_s = _sweep_s(traced)
    untraced_s = _sweep_s(untraced)
    layers["trace.sweep_s"] = traced_s
    layers["trace.untraced_sweep_s"] = untraced_s
    layers["trace.overhead_s"] = traced_s - untraced_s
    layers["trace.accounted_share"] = accounted / statistics.mean(
        p.raw_s * f for p, f in zip(traced, factors))
    return layers


def run(args: argparse.Namespace) -> int:
    from calib import NOMINAL_S, factor, kernel_seconds
    import tracing
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir, ROOT)
    setups_raw: List[float] = []
    setup_kernels: List[float] = []
    tracer = None
    phases: Dict[str, float] = {}
    mark = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = phases.get(name, 0.0) + now - mark
        mark = now

    try:
        for number in range(SETUP_REPEATS):
            if number:
                workload.teardown()
            phase("teardown")
            setup_kernels.append(kernel_seconds())
            start = workload.clock()
            workload.setup()
            setups_raw.append(workload.clock() - start)
            setup_kernels.append(kernel_seconds())
            phase("setup")
        if args.trace:
            untraced = _measure(workload, args.seconds / 2.0, 0)
            workload.start_trace()
            tracer = tracing.Tracer(workload.clock, "main")
            tracing.install(tracer)
            traced = _measure(workload, args.seconds / 2.0, len(untraced), tracer)
            tracer.uninstall()
            passes = untraced + traced
        else:
            passes = _measure(workload, args.seconds, 0)
        phase("measure")
        workload.teardown()
        phase("teardown")
        errors = workload.verify()
        phase("verify")
    finally:
        signal.alarm(0)  # the teardown below is bounded; let it finish
        if tracer is not None:
            tracer.uninstall()
        workload.teardown()

    cells = sum(p.cells for p in passes)
    factors = _pass_factors(passes)
    raw_sweeps = [p.raw_s for p in passes]
    e2e = {
        "sweep_s": _sweep_s(passes),
        "cpu_s_per_cell": sum(p.cpu_s * f for p, f in zip(passes, factors)) / cells,
        "peak_rss_mb": workload.peak_rss_mb(),
        "setup_s": statistics.median(setups_raw) * factor(setup_kernels),
    }
    if args.trace:
        values = _per_layer(workload, tracer, untraced, traced)
        tracer.dump(str(workdir.parent / f"trace-{args.workload}.jsonl"))
        for path in workload.worker_spans():
            shutil.copy(path, workdir.parent / f"trace-{args.workload}-{Path(path).name}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
        for name, unit in tracing.PER_LAYER:
            print(f"  {args.workload:9s} {name:28s} {values[name]:14.6f} {unit}", file=sys.stderr)
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    shutil.rmtree(workdir, ignore_errors=True)
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "cells": cells,
        "check_errors": len(errors),
        "phases_s": phases,
        "calibrated": e2e,
        "raw": {
            "sweep_s": statistics.median(raw_sweeps),
            "cpu_s_per_cell": sum(p.cpu_s for p in passes) / cells,
            "setup_s": statistics.median(setups_raw),
        },
        "pass_s": {"raw": raw_sweeps},
        "setup_s": {"raw": setups_raw},
        "kernel_s": {"nominal": NOMINAL_S, "setup_mean": statistics.mean(setup_kernels),
                     "pass_mean": [statistics.mean(p.kernels) for p in passes]},
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
    }
    if hasattr(workload, "cached_share"):
        detail["cached_share"] = workload.cached_share()
    print("perfbench " + json.dumps(detail))
    print(json.dumps({"correct": not errors, "attempted": cells, "failed": 0,
                      "metrics": metrics}))
    return 0


def check_oracles() -> int:
    """Feed each oracle a deliberately broken result; each must reject it."""
    from repro.circuit.netlist import netlist_from_controller
    from repro.flow import run_flow
    from workloads import FaultSim, Table3, _flip_check
    import oracle

    workdir = ROOT / ".perfbench_work" / f"check-{os.getpid()}"
    failures: List[str] = []
    try:
        table3 = Table3(0, workdir, ROOT)
        table3.setup()
        for fsm, cfg in table3.cells:
            controller = run_flow(fsm, cfg, materialize=True).controller
            good = oracle.check_controller(controller, netlist_from_controller(controller), 0)
            flipped = _flip_check(controller, 0)
            print(f"{fsm.name:32s} {cfg.structure}  correct controller: "
                  f"{'accepted' if not good else 'REJECTED'}  flipped cover bit: "
                  f"{'rejected' if not flipped else 'ACCEPTED'}")
            failures += good + flipped
        faultsim = FaultSim(0, workdir, ROOT)
        faultsim.setup()
        for op, (fsm, cfg) in enumerate(faultsim.cells):
            result = run_flow(fsm, faultsim.config(cfg, 0), cache=faultsim.cache,
                              materialize=True)
            circuit = netlist_from_controller(result.controller)
            expected, reported = faultsim.fault_sample(result.controller, circuit, op, 0)
            good = oracle.check_fault_sample(expected, reported)
            dropped = oracle.check_fault_sample(expected, oracle.drop_detection(reported))
            print(f"{fsm.name:32s} {cfg.structure}  fault sample: "
                  f"{'agrees' if not good else 'DISAGREES'}  detected fault dropped: "
                  f"{'rejected' if dropped else 'ACCEPTED'}")
            failures += good
            if not dropped:
                failures.append(f"{fsm.name}/{cfg.structure}: dropped detection accepted")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print("oracle check " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("table3", "faultsim", "fleet"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-oracles", action="store_true",
                        help="feed the oracles deliberately broken results and exit")
    args = parser.parse_args()
    if not args.check_oracles and args.workload is None:
        parser.error("--workload is required")
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    def expire(signum: int, frame: Any) -> None:
        raise TimeoutError(f"perfbench run exceeded {WATCHDOG_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(WATCHDOG_S)
    try:
        return check_oracles() if args.check_oracles else run(args)
    except Exception:  # noqa: BLE001 - report and fail the run without a result line
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
