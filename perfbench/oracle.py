"""Output checks that do not rely on the program's own evaluation.

:class:`Evaluator` is a per-gate evaluator of the program's netlists,
written here and sharing no code with ``repro.circuit``.  Signal values are
Python integers whose bit ``k`` is the value in lane ``k``; lanes are
independent copies of the circuit.

* :func:`check_controller` evaluates a synthesized controller's netlist on
  every specified transition of its FSM (one lane per transition, don't-care
  inputs filled from the workload seed): the flip-flop data lines must carry
  the code of the next state and the primary outputs the specified bits.
* :func:`check_fault_sample` re-simulates a sample of stuck-at faults from
  reset in every lane and compares the detection cycle of each with what the
  program reports.
* :func:`check_coverage_curve` checks a reported coverage curve.
* :func:`flip_cover_bit` and :func:`drop_detection` make deliberately
  broken results, which the checks must reject.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: How many differently filled copies of each transition are evaluated.
FILLS_PER_TRANSITION = 2


class Evaluator:
    """Cycle-by-cycle evaluation of a netlist, one gate at a time."""

    def __init__(self, netlist: Any) -> None:
        self.inputs: List[str] = list(netlist.primary_inputs)
        self.outputs: List[str] = list(netlist.primary_outputs)
        self.flops: List[Tuple[str, str, int]] = [
            (ff.state, ff.data, ff.reset_value) for ff in netlist.flip_flops
        ]
        self.gates: Dict[str, Tuple[str, Tuple[str, ...]]] = {
            name: (gate.kind, tuple(gate.inputs)) for name, gate in netlist.gates.items()
        }
        self.order = self._levelize()

    def _levelize(self) -> List[str]:
        """Gates in an order where every gate follows its inputs (Kahn)."""
        pending = {name: len(set(ins)) for name, (kind, ins) in self.gates.items()
                   if kind != "INPUT"}
        readers: Dict[str, List[str]] = {}
        for name in pending:
            for src in set(self.gates[name][1]):
                readers.setdefault(src, []).append(name)
        ready = [name for name, (kind, _) in self.gates.items() if kind == "INPUT"]
        ready += [name for name, left in pending.items() if left == 0]
        order: List[str] = []
        while ready:
            name = ready.pop()
            if self.gates[name][0] != "INPUT":
                order.append(name)
            for reader in readers.get(name, ()):
                pending[reader] -= 1
                if pending[reader] == 0:
                    ready.append(reader)
        if len(order) != len(pending):
            raise ValueError("netlist has a combinational cycle")
        return order

    def evaluate(
        self,
        inputs: Mapping[str, int],
        state: Mapping[str, int],
        mask: int,
        fault: Any = None,
    ) -> Dict[str, int]:
        """All signal values for one cycle, with ``fault`` injected."""
        stem = fault is not None and fault.gate_input is None
        forced = (mask if fault.value else 0) if fault is not None else 0
        values = {name: inputs[name] & mask for name in self.inputs}
        values.update({name: state[name] & mask for name, _, _ in self.flops})
        if stem and fault.signal in values:
            values[fault.signal] = forced
        for name in self.order:
            kind, sources = self.gates[name]
            operands = [values[src] for src in sources]
            if fault is not None and fault.gate_input == name:
                operands = [forced if src == fault.signal else value
                            for src, value in zip(sources, operands)]
            if kind == "AND":
                value = mask
                for operand in operands:
                    value &= operand
            elif kind == "OR":
                value = 0
                for operand in operands:
                    value |= operand
            elif kind == "XOR":
                value = 0
                for operand in operands:
                    value ^= operand
            elif kind == "NOT":
                value = ~operands[0] & mask
            elif kind == "BUF":
                value = operands[0]
            elif kind == "CONST1":
                value = mask
            elif kind == "CONST0":
                value = 0
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
            values[name] = forced if stem and name == fault.signal else value
        return values

    def next_state(self, values: Mapping[str, int], mask: int, fault: Any = None) -> Dict[str, int]:
        """Flip-flop contents after the clock edge (branch faults included)."""
        state = {}
        for name, data, _ in self.flops:
            value = values[data]
            if fault is not None and fault.gate_input == name and fault.signal == data:
                value = mask if fault.value else 0
            state[name] = value
        return state

    def reset(self, mask: int) -> Dict[str, int]:
        return {name: mask if reset else 0 for name, _, reset in self.flops}

    def observed(self, values: Mapping[str, int]) -> List[int]:
        """Primary outputs, then flip-flop data lines."""
        return [values[name] for name in self.outputs] + [values[d] for _, d, _ in self.flops]


def _transition_lanes(
    fsm: Any, encoding: Any, rng: random.Random
) -> List[Tuple[Any, str, str]]:
    """(transition, filled inputs, present code) for every checked lane."""
    lanes = []
    for transition in fsm.transitions:
        for _ in range(FILLS_PER_TRANSITION):
            filled = "".join(ch if ch != "-" else str(rng.getrandbits(1))
                             for ch in transition.inputs)
            lanes.append((transition, filled, encoding.code_of(transition.present)))
    return lanes


def check_controller(controller: Any, netlist: Any, seed: int) -> List[str]:
    """Mismatches between a controller's netlist and its FSM (empty: correct)."""
    ev = Evaluator(netlist)
    lanes = _transition_lanes(controller.fsm, controller.encoding, random.Random(seed))
    mask = (1 << len(lanes)) - 1
    inputs = {name: 0 for name in ev.inputs}
    state = {name: 0 for name, _, _ in ev.flops}
    for lane, (_, filled, code) in enumerate(lanes):
        for name, bit in zip(ev.inputs, filled):
            inputs[name] |= int(bit) << lane
        for (name, _, _), bit in zip(ev.flops, code):
            state[name] |= int(bit) << lane
    values = ev.evaluate(inputs, state, mask)
    errors: List[str] = []
    for lane, (transition, filled, code) in enumerate(lanes):
        wrong = []
        if transition.next != "*":
            want = controller.encoding.code_of(transition.next)
            got = "".join(str(values[data] >> lane & 1) for _, data, _ in ev.flops)
            if got != want:
                wrong.append(f"next code {got} != {want}")
        for name, bit in zip(ev.outputs, transition.outputs):
            if bit != "-" and values[name] >> lane & 1 != int(bit):
                wrong.append(f"{name}={values[name] >> lane & 1} != {bit}")
        if wrong:
            errors.append(f"{controller.fsm.name}/{controller.structure.value} "
                          f"{transition.present}--{filled}->{transition.next}: "
                          + ", ".join(wrong))
    return errors


def fault_detection_cycles(
    netlist: Any,
    faults: Sequence[Any],
    stimuli: Sequence[Mapping[str, int]],
    lane_masks: Sequence[int],
    width: int,
) -> Dict[str, Optional[int]]:
    """First cycle at which each fault shows at an observation point.

    Every lane starts from reset; a fault is detected in the first cycle in
    which a primary output or flip-flop data line differs from the good
    circuit in a valid lane.  ``None`` marks a fault never detected.
    """
    ev = Evaluator(netlist)
    mask = (1 << width) - 1
    good: List[List[int]] = []
    state = ev.reset(mask)
    for inputs in stimuli:
        values = ev.evaluate(inputs, state, mask)
        good.append(ev.observed(values))
        state = ev.next_state(values, mask)
    cycles: Dict[str, Optional[int]] = {}
    for fault in faults:
        state = ev.reset(mask)
        cycles[fault.describe()] = None
        for cycle, (inputs, valid) in enumerate(zip(stimuli, lane_masks), start=1):
            values = ev.evaluate(inputs, state, mask, fault)
            if any((a ^ b) & valid for a, b in zip(ev.observed(values), good[cycle - 1])):
                cycles[fault.describe()] = cycle
                break
            state = ev.next_state(values, mask, fault)
    return cycles


def check_fault_sample(
    expected: Mapping[str, Optional[int]], reported: Mapping[str, int]
) -> List[str]:
    """Disagreements between re-simulated and reported detection cycles.

    ``reported`` maps each detected fault of the sample to its detection
    cycle, as the program reports it; a fault missing from it is reported
    undetected.
    """
    errors = []
    for fault, cycle in expected.items():
        if reported.get(fault) != cycle:
            errors.append(f"fault {fault}: detected at {reported.get(fault)}, "
                          f"re-simulation says {cycle}")
    return errors


def check_coverage_curve(curve: Sequence[Sequence[float]], coverage: float) -> List[str]:
    """A coverage curve must never decrease and must end at ``coverage``."""
    errors = []
    values = [point[1] for point in curve]
    if any(b < a for a, b in zip(values, values[1:])):
        errors.append("coverage curve decreases")
    if not values or abs(values[-1] - coverage) > 1e-12:
        errors.append(f"coverage curve ends at {values[-1] if values else None}, "
                      f"reported coverage is {coverage}")
    return errors


# ------------------------------------------------------ deliberate breakage


def flip_cover_bit(controller: Any) -> Any:
    """The controller with one output bit of one cube flipped from 0 to 1.

    The bit is chosen from the FSM alone: a cube that contains a specified
    transition (whatever its don't-care inputs are filled with) and a
    primary output that the transition specifies as 0, so the flipped cover
    drives that output to 1 on that transition.
    """
    minimization = controller.minimization
    cover = minimization.cover
    wanted = {"0": 0b01, "1": 0b10, "-": 0b11}
    for transition in controller.fsm.transitions:
        literals = transition.inputs + controller.encoding.code_of(transition.present)
        for index, cube in enumerate(cover.cubes):
            if any(cube.input_literal(var) & wanted[ch] != wanted[ch]
                   for var, ch in enumerate(literals)):
                continue
            for out, bit in enumerate(transition.outputs):
                if bit == "0" and not cube.outputs >> out & 1:
                    cubes = list(cover.cubes)
                    cubes[index] = cube.with_outputs(cube.outputs | 1 << out)
                    broken = type(cover)(cover.num_inputs, cover.num_outputs, cubes)
                    return dataclasses.replace(
                        controller,
                        minimization=dataclasses.replace(minimization, cover=broken),
                    )
    raise ValueError(f"no output bit of {controller.fsm.name} can be flipped observably")


def drop_detection(reported: Mapping[str, int]) -> Dict[str, int]:
    """The detection map with its first detected fault reported undetected."""
    broken = dict(reported)
    broken.pop(sorted(broken)[0])
    return broken
