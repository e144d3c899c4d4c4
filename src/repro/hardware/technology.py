"""Generic standard-cell technology description.

The paper characterises every operator with a commercial 28nm FDSOI library
through Design Compiler / ModelSim / PrimeTime.  That flow is not available
here, so the hardware model uses a small generic cell library whose per-gate
area, delay, switching energy and leakage are of the right order of magnitude
for a 28nm node.  Absolute accuracy is *not* claimed at this level; the
calibration layer (:mod:`repro.hardware.calibration`) anchors the final
operator-level numbers to the values published in the paper, and the
structural netlists provide the relative differences between operators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict


class GateKind(str, Enum):
    """Primitive cells used by the structural netlists."""

    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND2 = "and2"
    OR2 = "or2"
    NAND2 = "nand2"
    NOR2 = "nor2"
    XOR2 = "xor2"
    XNOR2 = "xnor2"
    MUX2 = "mux2"
    MAJ3 = "maj3"
    AOI21 = "aoi21"
    DFF = "dff"


@dataclass(frozen=True)
class CellParameters:
    """Physical characteristics of one primitive cell."""

    area_um2: float
    delay_ns: float
    switch_energy_fj: float
    leakage_nw: float


#: Parameters of the INPUT / CONST pseudo-cells, which cost nothing.
FREE_CELL = CellParameters(0.0, 0.0, 0.0, 0.0)
PSEUDO_KINDS = frozenset({GateKind.INPUT, GateKind.CONST0, GateKind.CONST1})


@dataclass(frozen=True)
class TechnologyLibrary:
    """A complete cell library plus global operating assumptions."""

    name: str
    cells: Dict[GateKind, CellParameters] = field(default_factory=dict)
    #: Nominal supply voltage (V); kept for documentation and scaling studies.
    vdd: float = 1.0
    #: Default clock frequency (Hz) used for power figures, as in the paper.
    default_frequency_hz: float = 100e6

    def cell(self, kind: GateKind) -> CellParameters:
        """Parameters of a cell kind (INPUT/CONST pseudo-cells are free)."""
        if kind in PSEUDO_KINDS:
            return FREE_CELL
        if kind not in self.cells:
            raise KeyError(f"technology {self.name!r} has no cell {kind.value!r}")
        return self.cells[kind]

    def cell_table(self) -> Dict[GateKind, CellParameters]:
        """Every cell of the library plus the free pseudo-cells, for per-gate
        lookups."""
        table = dict(self.cells)
        table.update(dict.fromkeys(PSEUDO_KINDS, FREE_CELL))
        return table

    def area(self, kind: GateKind) -> float:
        return self.cell(kind).area_um2

    def delay(self, kind: GateKind) -> float:
        return self.cell(kind).delay_ns

    def switch_energy(self, kind: GateKind) -> float:
        return self.cell(kind).switch_energy_fj

    def leakage(self, kind: GateKind) -> float:
        return self.cell(kind).leakage_nw

    def scaled(self, area: float = 1.0, delay: float = 1.0, energy: float = 1.0,
               leakage: float = 1.0, name: str | None = None) -> "TechnologyLibrary":
        """Return a copy with every cell parameter scaled (what-if studies)."""
        cells = {
            kind: CellParameters(
                area_um2=p.area_um2 * area,
                delay_ns=p.delay_ns * delay,
                switch_energy_fj=p.switch_energy_fj * energy,
                leakage_nw=p.leakage_nw * leakage,
            )
            for kind, p in self.cells.items()
        }
        return TechnologyLibrary(name=name or f"{self.name}-scaled", cells=cells,
                                 vdd=self.vdd,
                                 default_frequency_hz=self.default_frequency_hz)


def _default_cells() -> Dict[GateKind, CellParameters]:
    """A 28nm-flavoured generic library.

    Areas are in the 0.3-2 um^2 range typical of a 28nm standard-cell library,
    delays in tens of picoseconds, switching energies of a fraction of a
    femtojoule per output transition, and leakage of a few nanowatts.
    """
    return {
        GateKind.BUF: CellParameters(0.33, 0.016, 0.35, 1.2),
        GateKind.NOT: CellParameters(0.26, 0.010, 0.28, 1.0),
        GateKind.AND2: CellParameters(0.46, 0.022, 0.55, 1.6),
        GateKind.OR2: CellParameters(0.46, 0.022, 0.55, 1.6),
        GateKind.NAND2: CellParameters(0.39, 0.014, 0.42, 1.4),
        GateKind.NOR2: CellParameters(0.39, 0.016, 0.42, 1.4),
        GateKind.XOR2: CellParameters(0.72, 0.030, 0.90, 2.4),
        GateKind.XNOR2: CellParameters(0.72, 0.030, 0.90, 2.4),
        GateKind.MUX2: CellParameters(0.66, 0.026, 0.75, 2.0),
        GateKind.MAJ3: CellParameters(0.79, 0.028, 0.85, 2.4),
        GateKind.AOI21: CellParameters(0.52, 0.020, 0.55, 1.7),
        GateKind.DFF: CellParameters(1.70, 0.060, 1.60, 4.5),
    }


#: Default library used by every experiment (28nm-flavoured generic cells).
TECH_28NM = TechnologyLibrary(name="generic-28nm", cells=_default_cells(),
                              vdd=1.0, default_frequency_hz=100e6)
