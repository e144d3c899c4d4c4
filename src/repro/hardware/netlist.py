"""Gate-level netlist container with logic simulation, timing and area.

The netlist plays the role of the synthesised gate-level design in APXPERF's
flow: from it we obtain area (sum of cell areas), delay (longest
combinational path) and — together with :mod:`repro.hardware.power` — an
activity-based power figure.  Netlists are built programmatically by the
operator builders; gates must be appended in topological order (a gate's
inputs are either primary inputs, constants or outputs of earlier gates),
which every builder naturally satisfies.

Simulation is bit-parallel.  Each wire's values over all samples are packed
into one Python int (bit *i* holds sample *i*; ports are packed and unpacked
with ``np.packbits`` / ``np.unpackbits``, little bit order), so every gate
is a single bitwise expression over whole sample streams: inverting kinds
XOR an all-ones mask, ``MAJ3 = (a&b)|(c&(a|b))``, ``MUX2 = (s&in2)|(~s&in1)``.
Timing (arrival time, logic depth, input skew) is one forward pass in gate
order; area and leakage are per-kind lookups summed in gate order.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .technology import PSEUDO_KINDS, GateKind, TechnologyLibrary, TECH_28NM


#: One bitwise expression per gate kind over packed sample streams; ``ones``
#: is the all-ones mask of the stream width.
_PACKED_OPERATIONS: Dict[GateKind, Callable[..., int]] = {
    GateKind.CONST0: lambda ones: 0,
    GateKind.CONST1: lambda ones: ones,
    GateKind.BUF: lambda ones, a: a,
    GateKind.NOT: lambda ones, a: a ^ ones,
    GateKind.AND2: lambda ones, a, b: a & b,
    GateKind.OR2: lambda ones, a, b: a | b,
    GateKind.NAND2: lambda ones, a, b: (a & b) ^ ones,
    GateKind.NOR2: lambda ones, a, b: (a | b) ^ ones,
    GateKind.XOR2: lambda ones, a, b: a ^ b,
    GateKind.XNOR2: lambda ones, a, b: a ^ b ^ ones,
    GateKind.MUX2: lambda ones, s, in1, in2: (s & in2) | (~s & in1),
    GateKind.MAJ3: lambda ones, a, b, c: (a & b) | (c & (a | b)),
    GateKind.AOI21: lambda ones, a, b, c: ((a & b) | c) ^ ones,
}


def unpack_samples(packed: Sequence[int], samples: int) -> np.ndarray:
    """``(len(packed), samples)`` uint8 bit matrix of packed sample streams."""
    width = (samples + 7) // 8
    raw = b"".join(value.to_bytes(width, "little") for value in packed)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(packed), width)
    return np.unpackbits(rows, axis=1, count=samples, bitorder="little")


@dataclass(frozen=True)
class Gate:
    """One primitive cell instance: an output wire driven by input wires."""

    kind: GateKind
    output: int
    inputs: Tuple[int, ...]


class Netlist:
    """A combinational (plus optional I/O register) gate-level design."""

    def __init__(self, name: str, technology: TechnologyLibrary = TECH_28NM) -> None:
        self.name = name
        self.technology = technology
        self._gates: List[Gate] = []
        self._wire_count = 0
        self._ports_in: Dict[str, List[int]] = {}
        self._ports_out: Dict[str, List[int]] = {}
        self._const0: Optional[int] = None
        self._const1: Optional[int] = None
        self._register_bits = 0
        # Memo of timing(); every gate, port bit and constant allocates its
        # wire through new_wire(), which drops it.
        self._timing: Optional[Tuple[List[float], List[float]]] = None

    # ------------------------------------------------------------------ #
    # Construction API (used by the builders)
    # ------------------------------------------------------------------ #
    def new_wire(self) -> int:
        wire = self._wire_count
        self._wire_count += 1
        self._timing = None
        return wire

    def add_input_port(self, name: str, width: int) -> List[int]:
        """Declare a primary input port of ``width`` bits (LSB first)."""
        if name in self._ports_in:
            raise ValueError(f"input port {name!r} already exists")
        wires = []
        for _ in range(width):
            wire = self.new_wire()
            self._gates.append(Gate(GateKind.INPUT, wire, ()))
            wires.append(wire)
        self._ports_in[name] = wires
        return wires

    def set_output_port(self, name: str, wires: Sequence[int]) -> None:
        """Declare a primary output port from existing wires (LSB first)."""
        if name in self._ports_out:
            raise ValueError(f"output port {name!r} already exists")
        self._ports_out[name] = list(wires)

    def const(self, value: int) -> int:
        """Wire holding constant 0 or 1 (created lazily, shared)."""
        if value not in (0, 1):
            raise ValueError("constant must be 0 or 1")
        if value == 0:
            if self._const0 is None:
                self._const0 = self.new_wire()
                self._gates.append(Gate(GateKind.CONST0, self._const0, ()))
            return self._const0
        if self._const1 is None:
            self._const1 = self.new_wire()
            self._gates.append(Gate(GateKind.CONST1, self._const1, ()))
        return self._const1

    def add_gate(self, kind: GateKind, *inputs: int) -> int:
        """Append a gate driven by existing wires; returns its output wire."""
        for wire in inputs:
            if not 0 <= wire < self._wire_count:
                raise ValueError(f"unknown wire {wire}")
        output = self.new_wire()
        self._gates.append(Gate(kind, output, tuple(inputs)))
        return output

    def add_register_bits(self, count: int) -> None:
        """Account for ``count`` D flip-flops (I/O registers of the operator).

        Registers are not simulated (the operators are purely combinational
        between registers); they contribute area, leakage and clock-load
        energy, which is why the paper's small adders still burn tens of
        microwatts.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self._register_bits += count

    # -- small structural helpers shared by many builders ---------------- #
    def full_adder(self, a: int, b: int, cin: int) -> Tuple[int, int]:
        """Accurate full adder; returns ``(sum, carry)`` wires."""
        axb = self.add_gate(GateKind.XOR2, a, b)
        s = self.add_gate(GateKind.XOR2, axb, cin)
        carry = self.add_gate(GateKind.MAJ3, a, b, cin)
        return s, carry

    def half_adder(self, a: int, b: int) -> Tuple[int, int]:
        """Half adder; returns ``(sum, carry)`` wires."""
        s = self.add_gate(GateKind.XOR2, a, b)
        carry = self.add_gate(GateKind.AND2, a, b)
        return s, carry

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def gates(self) -> Sequence[Gate]:
        return tuple(self._gates)

    @property
    def input_ports(self) -> Dict[str, List[int]]:
        return dict(self._ports_in)

    @property
    def output_ports(self) -> Dict[str, List[int]]:
        return dict(self._ports_out)

    @property
    def register_bits(self) -> int:
        return self._register_bits

    def gate_count(self, kind: Optional[GateKind] = None) -> int:
        """Number of logic gates (pseudo-cells excluded), optionally by kind."""
        if kind is None:
            return sum(1 for g in self._gates if g.kind not in PSEUDO_KINDS)
        return sum(1 for g in self._gates if g.kind is kind)

    def gate_histogram(self) -> Dict[str, int]:
        """Cell-count histogram, useful for reports and tests."""
        counts = Counter(g.kind for g in self._gates if g.kind not in PSEUDO_KINDS)
        histogram = {kind.value: count for kind, count in counts.items()}
        if self._register_bits:
            histogram[GateKind.DFF.value] = histogram.get(GateKind.DFF.value, 0) \
                + self._register_bits
        return histogram

    # ------------------------------------------------------------------ #
    # Area and timing
    # ------------------------------------------------------------------ #
    def area_um2(self) -> float:
        """Total cell area, combinational gates plus I/O registers."""
        return self._cell_total("area_um2")

    def leakage_nw(self) -> float:
        """Total leakage power in nanowatts."""
        return self._cell_total("leakage_nw")

    def _cell_total(self, parameter: str) -> float:
        """One cell parameter summed over the gates, then the registers.

        The sum runs left to right in gate order.  (Builtin ``sum`` is
        compensated from Python 3.12 on, which would change the last bits
        between Python versions.)
        """
        per_kind = {kind: getattr(cell, parameter)
                    for kind, cell in self.technology.cell_table().items()}
        total = 0.0
        for gate in self._gates:
            total += per_kind[gate.kind]
        return total + self._register_bits * per_kind[GateKind.DFF]

    def timing(self) -> Tuple[List[float], List[float]]:
        """Arrival time (ns) and input skew (gate levels) of every wire.

        One forward pass in gate order, memoised until the next gate, port
        or constant is added; callers must not mutate the returned lists.
        Arrival assumes zero input arrival.  The skew of a gate is the
        difference between the logic depths (gate counts from the primary
        inputs) of its latest and earliest arriving inputs: the number of
        evaluation waves during which it may glitch before settling.
        """
        if self._timing is None:
            self._timing = self._timing_pass()
        return self._timing

    def _timing_pass(self) -> Tuple[List[float], List[float]]:
        cells = self.technology.cell_table()
        arrival = [0.0] * self._wire_count
        depth = [0] * self._wire_count
        skew = [0.0] * self._wire_count
        for gate in self._gates:
            if gate.kind in PSEUDO_KINDS:
                continue
            depths = sorted(map(depth.__getitem__, gate.inputs)) or [0]
            depth[gate.output] = depths[-1] + 1
            skew[gate.output] = float(depths[-1] - depths[0])
            start = max(map(arrival.__getitem__, gate.inputs), default=0.0)
            arrival[gate.output] = start + cells[gate.kind].delay_ns
        return arrival, skew

    def critical_path_ns(self) -> float:
        """Longest input-to-output combinational delay.

        The clock-to-q / setup overhead of the I/O registers is added when
        registers are present, mirroring what a synthesis report would show.
        """
        arrival, _ = self.timing()
        outputs = [w for wires in self._ports_out.values() for w in wires]
        path = max((arrival[w] for w in outputs), default=0.0)
        if self._register_bits:
            path += self.technology.delay(GateKind.DFF)
        return float(path)

    # ------------------------------------------------------------------ #
    # Logic simulation
    # ------------------------------------------------------------------ #
    def simulate(self, inputs: Dict[str, np.ndarray]) -> Tuple[List[int], int]:
        """Bit-parallel simulation of every wire on integer stimulus.

        ``inputs`` maps port names to arrays of (unsigned or two's-complement)
        integer codes.  Returns ``(wires, samples)``: ``wires[w]`` packs wire
        ``w``'s value on every sample into one int, bit *i* holding sample *i*.
        """
        sizes = {np.asarray(v).size for v in inputs.values()}
        if len(sizes) != 1:
            raise ValueError("all input ports must have the same number of samples")
        samples = sizes.pop()
        ones = (1 << samples) - 1

        values = [0] * self._wire_count
        for port, wires in self._ports_in.items():
            if port not in inputs:
                raise ValueError(f"missing stimulus for input port {port!r}")
            codes = np.asarray(inputs[port], dtype=np.int64).reshape(-1)
            bits = (codes >> np.arange(len(wires), dtype=np.int64)[:, None]) & 1
            packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
            for wire, row in zip(wires, packed):
                values[wire] = int.from_bytes(row.tobytes(), "little")

        for gate in self._gates:
            if gate.kind is GateKind.INPUT:
                continue
            operation = _PACKED_OPERATIONS.get(gate.kind)
            if operation is None:
                raise ValueError(f"unsupported gate kind {gate.kind}")
            values[gate.output] = operation(ones, *[values[w] for w in gate.inputs])
        return values, samples

    def evaluate(self, inputs: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Simulate the netlist and re-assemble each output port.

        Returns the output ports as unsigned integer codes (see
        :meth:`simulate` for the stimulus format).
        """
        values, samples = self.simulate(inputs)
        outputs: Dict[str, np.ndarray] = {}
        for port, wires in self._ports_out.items():
            bits = unpack_samples([values[w] for w in wires], samples)
            codes = np.zeros(samples, dtype=np.int64)
            for bit, row in enumerate(bits):
                codes |= row.astype(np.int64) << bit
            outputs[port] = codes
        return outputs

    def evaluate_signed(self, inputs: Dict[str, np.ndarray],
                        port: str = "y") -> np.ndarray:
        """Evaluate and reinterpret one output port as two's complement."""
        outputs = self.evaluate(inputs)
        wires = self._ports_out[port]
        width = len(wires)
        codes = np.asarray(outputs[port], dtype=np.int64)
        sign_bit = 1 << (width - 1)
        return (codes ^ sign_bit) - sign_bit

    # ------------------------------------------------------------------ #
    # Structural transformations
    # ------------------------------------------------------------------ #
    def prune_unused(self) -> "Netlist":
        """Remove gates with no path to any primary output.

        This mirrors the fanout-free-cone sweeping a synthesis tool performs
        when some product bits are unused (e.g. truncated multiplier outputs).
        Primary inputs are always kept so the port interface is unchanged.
        """
        needed = set()
        for wires in self._ports_out.values():
            needed.update(wires)
        for gate in reversed(self._gates):
            if gate.output in needed:
                needed.update(gate.inputs)

        pruned = Netlist(self.name, self.technology)
        pruned._register_bits = self._register_bits
        wire_map: Dict[int, int] = {}
        for gate in self._gates:
            keep = gate.kind is GateKind.INPUT or gate.output in needed
            if not keep:
                continue
            new_output = pruned.new_wire()
            wire_map[gate.output] = new_output
            new_inputs = tuple(wire_map[w] for w in gate.inputs)
            pruned._gates.append(Gate(gate.kind, new_output, new_inputs))
        pruned._ports_in = {
            port: [wire_map[w] for w in wires] for port, wires in self._ports_in.items()
        }
        pruned._ports_out = {
            port: [wire_map[w] for w in wires] for port, wires in self._ports_out.items()
        }
        if self._const0 is not None and self._const0 in wire_map:
            pruned._const0 = wire_map[self._const0]
        if self._const1 is not None and self._const1 in wire_map:
            pruned._const1 = wire_map[self._const1]
        return pruned
