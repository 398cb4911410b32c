"""The benchmark's workloads: ``table3``, ``faultsim`` and ``fleet``.

Each workload sets itself up, then runs *passes*: one pass is one round over
the workload's whole grid, split into timed operations.  The workload seed
(``--seed``) fixes every input the program receives; the program sees only
those inputs.
"""

from __future__ import annotations

import functools
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.circuit.faults import (
    FaultSimulator,
    enumerate_faults,
    random_input_words,
    random_pattern_lane_masks,
)
from repro.circuit.netlist import netlist_from_controller
from repro.flow import ArtifactCache, CoordinatorHandle, FlowConfig, Sweep, run_flow
from repro.flow.net.protocol import CoordinatorError, request_with_retry
from repro.flow.pipeline import resolve_fsm

import oracle
from calib import kernel_seconds
from tracing import Tracer

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: A fleet sweep that has not finished by then fails the run.
SWEEP_TIMEOUT_S = 60.0
#: Workers whose coordinator is gone (the run was killed) exit after this.
WORKER_MAX_IDLE_S = 60.0


@dataclass
class Op:
    """One timed operation of a pass."""

    key: Tuple[int, int]
    start: float  # perf_counter at start (comparable across processes)
    end: float
    raw_s: float
    cpu_s: float  # raw CPU seconds of every process of the workload
    cells: int


@dataclass
class Pass:
    """One round over a workload's grid, with the kernel samples around it.

    A kernel sample is taken before the first operation and after each one.
    """

    ops: List[Op]
    kernels: List[float]

    @property
    def raw_s(self) -> float:
        return sum(op.raw_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)

    @property
    def cells(self) -> int:
        return sum(op.cells for op in self.ops)


class Workload:
    """Set-up, passes and output checks of one workload."""

    #: Clock of the operation times: process CPU time for single-process
    #: workloads, wall time where the user waits on other processes.
    clock: Callable[[], float] = staticmethod(time.process_time)
    root_span = "flow.pipeline"

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.errors: List[str] = []

    # Subclasses implement these.
    def setup(self, traced: bool = False) -> None:
        raise NotImplementedError

    def operations(self, index: int) -> List[Tuple[Callable[[], Any], int]]:
        """The operations of pass ``index``: ``(call, cells)`` pairs."""
        raise NotImplementedError

    def record(self, index: int, op: int, result: Any) -> None:
        """Keep what the output checks need from one operation's result."""
        raise NotImplementedError

    def verify(self) -> List[str]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def start_trace(self) -> None:
        """Prepare the workload's other processes for the traced phase."""

    def worker_spans(self) -> List[str]:
        """Span files written by worker processes during a traced phase."""
        return []

    # Shared by all workloads.
    def cpu(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def run_pass(self, index: int, tracer: Optional[Tracer]) -> Pass:
        ops = []
        kernels = [kernel_seconds()]
        for number, (call, cells) in enumerate(self.operations(index)):
            key = (index, number)
            if tracer is not None:
                tracer.op = key
                call = functools.partial(tracer.call, self.root_span, call)
            cpu0, wall0, t0 = self.cpu(), time.perf_counter(), self.clock()
            result = call()
            t1, wall1, cpu1 = self.clock(), time.perf_counter(), self.cpu()
            if tracer is not None:
                tracer.op = None
            kernels.append(kernel_seconds())
            ops.append(Op(key, wall0, wall1, t1 - t0, cpu1 - cpu0, cells))
            self.record(index, number, result)
        return Pass(ops, kernels)


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _flip_check(controller: Any, seed: int) -> List[str]:
    """The controller check must reject a controller with one flipped bit."""
    broken = oracle.flip_cover_bit(controller)
    if oracle.check_controller(broken, netlist_from_controller(broken), seed):
        return []
    return [f"oracle accepted a flipped cover bit of {controller.fsm.name}"]


# --------------------------------------------------------------- table3


class Table3(Workload):
    """Cold ``run_flow`` (no cache, no fault simulation): the Table 3 study.

    Product terms and literals of PST, DFF and PAT controllers of two
    mid-size seed machines and one generated chain machine, whose DFF
    assignment is a sizeable part of its cell.  ``logic`` (two-level
    minimisation) does most of the work and ``encoding`` most of the rest.
    """

    machines = ("dk16", "donfile", "corpus:chain:states=64,seed=2")
    structures = ("PST", "DFF", "PAT")

    def setup(self, traced: bool = False) -> None:
        self.fsms = [resolve_fsm(name) for name in self.machines]
        self.cells = [(fsm, FlowConfig(structure=s, seed=self.seed))
                      for fsm in self.fsms for s in self.structures]
        self.first: Dict[int, Any] = {}
        self.metrics: Dict[int, Dict[str, Any]] = {}

    def operations(self, index: int) -> List[Tuple[Callable[[], Any], int]]:
        keep = index == 0
        return [((lambda f=fsm, c=cfg: run_flow(f, c, materialize=keep)), 1)
                for fsm, cfg in self.cells]

    def record(self, index: int, op: int, result: Any) -> None:
        summary = {"metrics": result.metrics, "encoding": result.encoding}
        if op not in self.first:
            self.first[op] = result.controller
            self.metrics[op] = summary
        elif summary != self.metrics[op]:
            self.errors.append(f"pass {index} cell {op}: result differs from pass 0")

    def verify(self) -> List[str]:
        errors = list(self.errors)
        for op, controller in self.first.items():
            errors += oracle.check_controller(
                controller, netlist_from_controller(controller), self.seed)
            if controller.product_terms != self.metrics[op]["metrics"]["product_terms"]:
                errors.append(f"cell {op}: cover size differs from reported product terms")
        return errors + _flip_check(self.first[0], self.seed)


# ------------------------------------------------------------- faultsim


class FaultSim(Workload):
    """``run_flow`` with stuck-at fault simulation: the test-length study.

    PST and DFF controllers whose assign/excite/minimize artifacts set-up
    puts into a local :class:`ArtifactCache`; every pass uses a new
    ``fault_seed``, so only the faultsim stage runs (and writes its
    artifact).  ``circuit`` does nearly all the work.
    """

    machines = ("dk16", "donfile", "ex4", "dk512")
    structures = ("PST", "DFF")
    #: Fault-simulation budget: LANES independent reset-started copies of
    #: the circuit, each driven for CYCLES cycles of random input patterns.
    LANES = 64
    CYCLES = 32
    #: Faults per cell re-simulated by the independent evaluator.
    SAMPLE = 8

    def setup(self, traced: bool = False) -> None:
        self.cache = ArtifactCache(_fresh_dir(self.workdir / "cache"))
        self.fsms = [resolve_fsm(name) for name in self.machines]
        # The seed picks the test patterns only: with the state assignment
        # seeded from it too, the circuits (and their fault counts) would
        # differ from seed to seed by several percent.
        self.cells = [(fsm, FlowConfig(structure=s))
                      for fsm in self.fsms for s in self.structures]
        for fsm, cfg in self.cells:
            run_flow(fsm, cfg, cache=self.cache)
        self.controllers: Dict[int, Any] = {}
        self.results: Dict[Tuple[int, int], Any] = {}

    def config(self, cfg: FlowConfig, index: int) -> FlowConfig:
        return cfg.replace(word_width=self.LANES, fault_patterns=self.LANES * self.CYCLES,
                           fault_seed=self.seed * 1000 + index + 1)

    def operations(self, index: int) -> List[Tuple[Callable[[], Any], int]]:
        keep = index == 0
        return [((lambda f=fsm, c=self.config(cfg, index):
                  run_flow(f, c, cache=self.cache, materialize=keep)), 1)
                for fsm, cfg in self.cells]

    def record(self, index: int, op: int, result: Any) -> None:
        if result.controller is not None:
            self.controllers[op] = result.controller
        cached = {stage.name: stage.cached for stage in result.stages}
        if not (cached["assign"] and cached["excite"] and cached["minimize"]):
            self.errors.append(f"pass {index} cell {op}: upstream stages were recomputed")
        if cached["faultsim"]:
            self.errors.append(f"pass {index} cell {op}: faultsim was served from the cache")
        self.results[(index, op)] = (result.metrics["fault_coverage"], result.coverage_curve)

    def verify(self) -> List[str]:
        errors = list(self.errors)
        for coverage, curve in self.results.values():
            errors += oracle.check_coverage_curve(curve, coverage)
        last = max(index for index, _ in self.results)
        samples = []
        for op, controller in self.controllers.items():
            circuit = netlist_from_controller(controller)
            errors += oracle.check_controller(controller, circuit, self.seed)
            for index in sorted({0, last}):
                samples.append(self.fault_sample(controller, circuit, op, index))
                errors += oracle.check_fault_sample(*samples[-1])
        expected, reported = samples[0]
        if not oracle.check_fault_sample(expected, oracle.drop_detection(reported)):
            errors.append("oracle accepted a detected fault reported as undetected")
        return errors + _flip_check(self.controllers[0], self.seed)

    def fault_sample(
        self, controller: Any, circuit: Any, op: int, index: int
    ) -> Tuple[Dict[str, Optional[int]], Dict[str, int]]:
        """Re-simulated and program-reported detection cycles of a fault sample."""
        cfg = self.config(self.cells[op][1], index)
        faults = enumerate_faults(circuit, collapse=cfg.fault_collapse)
        sample = random.Random(f"{self.seed}/{op}/{index}").sample(
            faults, min(self.SAMPLE, len(faults)))
        patterns = self.LANES * self.CYCLES
        program = FaultSimulator(circuit, word_width=cfg.word_width).coverage_for_random_patterns(
            patterns, seed=cfg.fault_seed, faults=sample)
        words, masks = random_pattern_lane_masks(patterns, cfg.word_width)
        stimuli = random_input_words(circuit.primary_inputs, words, cfg.word_width,
                                     seed=cfg.fault_seed)
        stimuli[-1] = {name: word & masks[-1] for name, word in stimuli[-1].items()}
        expected = oracle.fault_detection_cycles(circuit, sample, stimuli, masks, cfg.word_width)
        return expected, dict(program.detection_cycle)


# ---------------------------------------------------------------- fleet


class Fleet(Workload):
    """``Sweep(backend="http")`` against an in-process coordinator and two
    ``repro worker --url`` processes.

    Every pass sweeps small machines x 4 structures over a window of
    ``WINDOW`` seeds that overlaps the previous window by half: half the
    cells are computed and written through the coordinator's cache tier,
    half are read back from it.  Flow transport, the worker loop and the
    remote cache carry the time.
    """

    clock = staticmethod(time.perf_counter)
    root_span = "flow.sweep"
    machines = ("dk512", "ex4", "mark1", "modulo12")
    structures = ("DFF", "PAT", "PST", "SIG")
    WORKERS = 2
    WINDOW = 4

    def __init__(self, seed: int, workdir: Path, root: Path) -> None:
        super().__init__(seed, workdir, root)
        self.handle: Optional[Any] = None
        self.workers: List[subprocess.Popen] = []
        # (machine, structure, seed) -> metrics, served from cache, cache tier
        self.cells: Dict[Tuple[str, str, int], Tuple[Dict[str, Any], bool, Path]] = {}
        self.cached_cells = 0
        self.measured_cells = 0
        self.setups = 0
        self.worker_peak_mb = 0.0
        self.span_files: List[str] = []
        self.next_window = 1

    def window(self, index: int) -> Tuple[int, ...]:
        base = self.seed * 1000 + index * self.WINDOW // 2
        return tuple(range(base, base + self.WINDOW))

    def setup(self, traced: bool = False) -> None:
        self.setups += 1
        self.base_dir = _fresh_dir(self.workdir / f"fleet{self.setups}")
        self.handle = CoordinatorHandle(cache_dir=self.base_dir / "coordinator").start()
        url = self.handle.url
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        for number in range(self.WORKERS):
            local = str(self.base_dir / f"worker{number}")
            if traced:
                spans = str(self.base_dir / f"spans-worker{number}.jsonl")
                self.span_files.append(spans)
                command = [sys.executable, str(Path(__file__).with_name("worker.py")),
                           "--url", url, "--cache-dir", local, "--spans", spans,
                           "--max-idle", str(WORKER_MAX_IDLE_S)]
            else:
                command = [sys.executable, "-m", "repro", "worker", "--url", url,
                           "--cache-dir", local, "--max-idle", str(WORKER_MAX_IDLE_S),
                           "--quiet"]
            log = open(self.base_dir / f"worker{number}.log", "w")
            self.workers.append(subprocess.Popen(
                command, cwd=self.root, env=env, stdout=log, stderr=subprocess.STDOUT))
            log.close()
        deadline = time.monotonic() + 60.0
        while len(self._stats()["workers"]) < self.WORKERS:
            if time.monotonic() > deadline or any(w.poll() is not None for w in self.workers):
                raise RuntimeError("fleet workers did not register")
            time.sleep(0.02)
        self.sweep(self.next_window - 1)

    def _stats(self) -> Dict[str, Any]:
        assert self.handle is not None
        return request_with_retry(f"{self.handle.url}/api/v1/stats", "GET", tries=3)

    def sweep(self, index: int) -> Any:
        assert self.handle is not None
        return Sweep(
            list(self.machines),
            structures=self.structures,
            seeds=self.window(index),
            config=FlowConfig(),
            cache=ArtifactCache(self.base_dir / "client"),
            coordinator_url=self.handle.url,
            queue_timeout=SWEEP_TIMEOUT_S,
        ).run()

    def operations(self, index: int) -> List[Tuple[Callable[[], Any], int]]:
        window = self.next_window
        self.next_window += 1
        cells = len(self.machines) * len(self.structures) * self.WINDOW
        return [((lambda: self.sweep(window)), cells)]

    def record(self, index: int, op: int, result: Any) -> None:
        if result.status != "complete" or result.failed_cells:
            self.errors.append(f"fleet sweep over seeds {result.seeds} is {result.status}")
        if len(result.results) != len(self.machines) * len(self.structures) * self.WINDOW:
            self.errors.append(f"fleet sweep over seeds {result.seeds} lost cells")
        for cell in result.results:
            key = (cell.fsm, cell.structure, cell.config["seed"])
            if key in self.cells and self.cells[key][0] != cell.metrics:
                self.errors.append(f"fleet cell {key} read back differs from its computation")
            self.cells[key] = (cell.metrics, cell.all_cached, self.base_dir / "coordinator")
            self.cached_cells += cell.all_cached
            self.measured_cells += 1

    def cpu(self) -> float:
        total = time.process_time()
        for worker in self.workers:
            with open(f"/proc/{worker.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
        return total

    def peak_rss_mb(self) -> float:
        return max(super().peak_rss_mb(), self.worker_peak_mb)

    def _worker_peak_mb(self) -> float:
        peak = 0.0
        for worker in self.workers:
            try:
                with open(f"/proc/{worker.pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]) / 1024.0)
            except OSError:  # the worker has already exited
                pass
        return peak

    def teardown(self) -> None:
        self.worker_peak_mb = max(self.worker_peak_mb, self._worker_peak_mb())
        if self.handle is not None:
            try:
                request_with_retry(f"{self.handle.url}/api/v1/stop", "POST", body={}, tries=3)
            except CoordinatorError:
                pass
        for worker in self.workers:
            try:
                worker.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
        self.workers = []
        if self.handle is not None:
            self.handle.stop()
            self.handle = None

    def start_trace(self) -> None:
        """Replace the fleet by workers started through ``worker.py``."""
        self.teardown()
        self.setup(traced=True)

    def worker_spans(self) -> List[str]:
        return self.span_files

    def verify(self) -> List[str]:
        errors = list(self.errors)
        # Rebuild every cell's controller from the coordinator's cache tier.
        fsms = {fsm.name: fsm for fsm in (resolve_fsm(m) for m in self.machines)}
        first = None
        for (name, structure, seed), (metrics, _, tier) in sorted(self.cells.items()):
            rebuilt = run_flow(fsms[name], FlowConfig(structure=structure, seed=seed),
                               cache=ArtifactCache(tier), materialize=True)
            if not rebuilt.all_cached:
                errors.append(f"fleet cell {name}/{structure}/{seed} missing from the cache tier")
            elif rebuilt.metrics != metrics:
                errors.append(f"fleet cell {name}/{structure}/{seed} differs from its cache tier")
            controller = rebuilt.controller
            errors += oracle.check_controller(
                controller, netlist_from_controller(controller), self.seed)
            first = first or controller
        return errors + _flip_check(first, self.seed)

    def cached_share(self) -> float:
        """Share of the measured cells that were read back from the cache."""
        return self.cached_cells / self.measured_cells if self.measured_cells else 0.0


WORKLOADS: Dict[str, Callable[[int, Path, Path], Workload]] = {
    "table3": Table3,
    "faultsim": FaultSim,
    "fleet": Fleet,
}
