"""Result containers, serialisation and paper-style table rendering.

APXPERF stores its fused hardware + functional results as MAT files and
ships MATLAB scripts to browse them; here the equivalent is a JSON document
per experiment plus plain-text table rendering that mirrors the layout of the
paper's tables, so a reproduced table can be compared line by line with
the publication.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

Number = Union[int, float]


@dataclass(frozen=True)
class ParetoRecord:
    """One non-dominated sweep point: its objectives, row and sweep index."""

    index: int
    quality: float
    cost: float
    row: Dict[str, object]


class ParetoFront:
    """Incrementally maintained two-objective Pareto front.

    The front accepts sweep rows one at a time (:meth:`update`) — in *any*
    order, e.g. as parallel workers complete — and always converges to the
    same final front as a serial in-order pass: strict-dominance filtering
    of a fixed point set is order-independent, coordinate ties keep every
    tied record, and :attr:`records` is sorted deterministically by
    ``(cost, quality, sweep index)``.  That is the property the design-space
    engine relies on to stream results into the front while a process pool
    is still running.

    ``quality`` is maximised and ``cost`` minimised by default (PSNR / MSSIM
    versus energy); either sense can be flipped.
    """

    def __init__(self, quality: str, cost: str,
                 maximize_quality: bool = True,
                 minimize_cost: bool = True) -> None:
        self.quality_column = str(quality)
        self.cost_column = str(cost)
        self.maximize_quality = bool(maximize_quality)
        self.minimize_cost = bool(minimize_cost)
        self.evaluated = 0
        self._records: List[ParetoRecord] = []

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(cls, rows: Iterable[Dict[str, object]], quality: str,
                  cost: str, maximize_quality: bool = True,
                  minimize_cost: bool = True) -> "ParetoFront":
        """Front of an already-materialised row sequence (serial order)."""
        front = cls(quality, cost, maximize_quality=maximize_quality,
                    minimize_cost=minimize_cost)
        for index, row in enumerate(rows):
            front.update(row, index)
        return front

    @classmethod
    def from_result(cls, result: "ExperimentResult", quality: str, cost: str,
                    maximize_quality: bool = True,
                    minimize_cost: bool = True) -> "ParetoFront":
        """Extract a front from an experiment result after the fact."""
        return cls.from_rows(result.rows, quality, cost,
                             maximize_quality=maximize_quality,
                             minimize_cost=minimize_cost)

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #
    def _objectives(self, row: Dict[str, object]) -> Optional[tuple]:
        """(minimised quality, minimised cost) of a row, None if undefined."""
        try:
            quality = float(row[self.quality_column])  # type: ignore[arg-type]
            cost = float(row[self.cost_column])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            return None
        if math.isnan(quality) or math.isnan(cost):
            return None
        return (-quality if self.maximize_quality else quality,
                cost if self.minimize_cost else -cost)

    def update(self, row: Dict[str, object], index: int) -> bool:
        """Offer one sweep row to the front; True if it is non-dominated.

        Dominated incumbents are evicted; records with identical objective
        coordinates all stay (which keeps the outcome independent of
        arrival order).  Rows with missing or NaN objectives never enter.
        """
        self.evaluated += 1
        objectives = self._objectives(row)
        if objectives is None:
            return False
        for record in self._records:
            held = self._held_objectives(record)
            if _strictly_dominates(held, objectives):
                return False
        self._records = [
            record for record in self._records
            if not _strictly_dominates(objectives,
                                       self._held_objectives(record))
        ]
        quality = float(row[self.quality_column])  # type: ignore[arg-type]
        cost = float(row[self.cost_column])  # type: ignore[arg-type]
        self._records.append(ParetoRecord(index=int(index), quality=quality,
                                          cost=cost, row=dict(row)))
        return True

    def _held_objectives(self, record: ParetoRecord) -> tuple:
        return (-record.quality if self.maximize_quality else record.quality,
                record.cost if self.minimize_cost else -record.cost)

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def key(self) -> str:
        """Identifier of the front among a result's fronts."""
        return f"{self.quality_column}_vs_{self.cost_column}"

    @property
    def records(self) -> List[ParetoRecord]:
        """Front records in deterministic order (cost, quality, index)."""
        return sorted(self._records,
                      key=lambda r: (self._held_objectives(r)[1],
                                     self._held_objectives(r)[0], r.index))

    @property
    def rows(self) -> List[Dict[str, object]]:
        """Front rows in deterministic order."""
        return [dict(record.row) for record in self.records]

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParetoFront):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {
            "quality": self.quality_column,
            "cost": self.cost_column,
            "maximize_quality": self.maximize_quality,
            "minimize_cost": self.minimize_cost,
            "evaluated": self.evaluated,
            "points": [
                {"index": record.index, "quality": record.quality,
                 "cost": record.cost, "row": dict(record.row)}
                for record in self.records
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ParetoFront":
        front = cls(str(data["quality"]), str(data["cost"]),
                    maximize_quality=bool(data.get("maximize_quality", True)),
                    minimize_cost=bool(data.get("minimize_cost", True)))
        for point in data.get("points", []):  # type: ignore[union-attr]
            front._records.append(ParetoRecord(
                index=int(point["index"]), quality=float(point["quality"]),
                cost=float(point["cost"]), row=dict(point["row"])))
        front.evaluated = int(data.get("evaluated", len(front._records)))
        return front

    def save_json(self, path: Union[str, Path]) -> Path:
        """Write the front as a standalone JSON document."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=2, default=_jsonify))
        return target

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ParetoFront {self.key}: {len(self._records)} of "
                f"{self.evaluated} points>")


def _strictly_dominates(a: tuple, b: tuple) -> bool:
    """Whether ``a`` strictly dominates ``b`` (both objectives minimised)."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


@dataclass
class ExperimentResult:
    """One reproduced table or figure: named rows/series of numeric values."""

    experiment: str
    description: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Pareto fronts extracted from the rows, keyed by ``ParetoFront.key``
    #: (e.g. ``"psnr_db_vs_total_energy_pj"``).
    fronts: Dict[str, ParetoFront] = field(default_factory=dict)

    def add_row(self, **values: object) -> None:
        """Append a row; every declared column must be present."""
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise ValueError(f"missing columns {missing} in row for {self.experiment}")
        self.rows.append(dict(values))

    def column(self, name: str) -> List[object]:
        """Extract one column across every row."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        return [row[name] for row in self.rows]

    def row_for(self, key_column: str, key_value: object) -> Dict[str, object]:
        """First row whose ``key_column`` equals ``key_value``."""
        for row in self.rows:
            if row.get(key_column) == key_value:
                return row
        raise KeyError(f"no row with {key_column} == {key_value!r}")

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def front(self, quality: str, cost: str, maximize_quality: bool = True,
              minimize_cost: bool = True) -> ParetoFront:
        """The front over the given axes — attached if present, else derived."""
        key = f"{quality}_vs_{cost}"
        if key in self.fronts:
            return self.fronts[key]
        return ParetoFront.from_result(self, quality, cost,
                                       maximize_quality=maximize_quality,
                                       minimize_cost=minimize_cost)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "experiment": self.experiment,
            "description": self.description,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "metadata": dict(self.metadata),
        }
        if self.fronts:
            data["fronts"] = {key: front.to_dict()
                              for key, front in sorted(self.fronts.items())}
        return data

    def save_json(self, path: Union[str, Path]) -> Path:
        """Write the result as a JSON document and return the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(), indent=2, default=_jsonify))
        return target

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        result = cls(
            experiment=data["experiment"],  # type: ignore[arg-type]
            description=data["description"],  # type: ignore[arg-type]
            columns=list(data["columns"]),  # type: ignore[call-overload]
            metadata=dict(data.get("metadata", {})),  # type: ignore[arg-type]
        )
        for row in data.get("rows", []):  # type: ignore[union-attr]
            result.rows.append(dict(row))
        for key, front in data.get("fronts", {}).items():  # type: ignore[union-attr]
            result.fronts[key] = ParetoFront.from_dict(front)
        return result

    @classmethod
    def load_json(cls, path: Union[str, Path]) -> "ExperimentResult":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------ #
    # Shard merging
    # ------------------------------------------------------------------ #
    @property
    def shard(self) -> Optional[Dict[str, object]]:
        """The shard annotation a sharded Study run left in the metadata."""
        shard = self.metadata.get("shard")
        return shard if isinstance(shard, dict) else None

    @classmethod
    def merge_shards(cls, parts: Sequence["ExperimentResult"]
                     ) -> "ExperimentResult":
        """Fold shard results of one experiment back into the whole.

        Every part carries the global sweep indices of its rows
        (``metadata["shard"]["sweep_indices"]``, written by
        ``Study.shard``); the merge validates that the parts are a
        *disjoint cover* of the full point set, places each row at its
        global index, and recomputes every attached Pareto front over the
        reassembled row list.  Rows, fronts and metadata are bit-identical
        to an unsharded run of the same sweep (``store_hits`` counters, an
        execution detail, are summed).  Parts whose metadata differ in
        anything but ``shard`` and ``store_hits`` come from different runs
        (e.g. a reduced and a full one) and are rejected.  A single
        unsharded result passes through as a copy.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("merge_shards needs at least one result")
        first = parts[0]
        for part in parts[1:]:
            if part.experiment != first.experiment:
                raise ValueError(
                    f"cannot merge different experiments "
                    f"{first.experiment!r} and {part.experiment!r}")
            if part.columns != first.columns:
                raise ValueError(
                    f"{first.experiment}: shard column mismatch "
                    f"({first.columns} vs {part.columns})")
        if all(part.shard is None for part in parts):
            if len(parts) != 1:
                raise ValueError(
                    f"{first.experiment}: multiple unsharded results cannot "
                    f"be merged")
            return cls._copy_of(first)
        if any(part.shard is None for part in parts):
            raise ValueError(
                f"{first.experiment}: mixing sharded and unsharded results")

        for part in parts[1:]:
            differing = sorted(
                key for key in set(first.metadata) | set(part.metadata)
                if key not in ("shard", "store_hits")
                and part.metadata.get(key) != first.metadata.get(key))
            if differing:
                raise ValueError(
                    f"{first.experiment}: shards come from different runs "
                    f"(metadata {differing} differ)")
        totals = {int(part.shard["sweep_points"]) for part in parts}
        if len(totals) != 1:
            raise ValueError(
                f"{first.experiment}: shards disagree on the sweep size "
                f"({sorted(totals)})")
        total = totals.pop()
        rows: List[Optional[Dict[str, object]]] = [None] * total
        for part in parts:
            indices = [int(i) for i in part.shard["sweep_indices"]]
            if len(indices) != len(part.rows):
                raise ValueError(
                    f"{first.experiment}: shard "
                    f"{part.shard.get('index')}/{part.shard.get('count')} "
                    f"has {len(part.rows)} rows for {len(indices)} indices")
            for index, row in zip(indices, part.rows):
                if not 0 <= index < total:
                    raise ValueError(
                        f"{first.experiment}: sweep index {index} out of "
                        f"range for {total} points")
                if rows[index] is not None:
                    raise ValueError(
                        f"{first.experiment}: sweep index {index} covered "
                        f"by more than one shard")
                rows[index] = dict(row)
        missing = [index for index, row in enumerate(rows) if row is None]
        if missing:
            raise ValueError(
                f"{first.experiment}: shards do not cover the sweep — "
                f"missing indices {missing[:8]}"
                f"{'...' if len(missing) > 8 else ''}")

        metadata = {key: value for key, value in first.metadata.items()
                    if key != "shard"}
        if any("store_hits" in part.metadata for part in parts):
            metadata["store_hits"] = sum(
                int(part.metadata.get("store_hits", 0)) for part in parts)

        merged = cls(experiment=first.experiment,
                     description=first.description,
                     columns=list(first.columns), metadata=metadata)
        for row in rows:
            merged.rows.append(row)  # type: ignore[arg-type]
        front_keys = {key for part in parts for key in part.fronts}
        for key in sorted(front_keys):
            template = next(part.fronts[key] for part in parts
                            if key in part.fronts)
            merged.fronts[key] = ParetoFront.from_rows(
                merged.rows, template.quality_column, template.cost_column,
                maximize_quality=template.maximize_quality,
                minimize_cost=template.minimize_cost)
        return merged

    @classmethod
    def _copy_of(cls, result: "ExperimentResult") -> "ExperimentResult":
        copy = cls(experiment=result.experiment,
                   description=result.description,
                   columns=list(result.columns),
                   metadata=dict(result.metadata))
        copy.rows = [dict(row) for row in result.rows]
        copy.fronts = {key: ParetoFront.from_dict(front.to_dict())
                       for key, front in result.fronts.items()}
        return copy

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def to_text(self, float_format: str = "{:.4g}") -> str:
        """Render a fixed-width text table resembling the paper's layout."""
        headers = list(self.columns)
        formatted_rows: List[List[str]] = []
        for row in self.rows:
            formatted_rows.append([_format_cell(row[c], float_format) for c in headers])
        widths = [len(h) for h in headers]
        for cells in formatted_rows:
            for i, cell in enumerate(cells):
                widths[i] = max(widths[i], len(cell))
        lines = [self.experiment + " — " + self.description]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
        for cells in formatted_rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_text()


def _format_cell(value: object, float_format: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return float_format.format(value)
    return str(value)


def _jsonify(value: object) -> object:
    """Best-effort conversion of NumPy scalars/arrays for JSON output."""
    try:
        import numpy as np

        if isinstance(value, np.generic):
            return value.item()
        if isinstance(value, np.ndarray):
            return value.tolist()
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    raise TypeError(f"cannot serialise {type(value).__name__}")


@dataclass
class ResultBundle:
    """Collection of experiment results (e.g. the whole evaluation section)."""

    results: Dict[str, ExperimentResult] = field(default_factory=dict)

    def add(self, result: ExperimentResult) -> None:
        self.results[result.experiment] = result

    def get(self, experiment: str) -> ExperimentResult:
        return self.results[experiment]

    def save_all(self, directory: Union[str, Path]) -> List[Path]:
        """Save every result as ``<experiment>.json`` under ``directory``."""
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        return [result.save_json(base / f"{name}.json")
                for name, result in sorted(self.results.items())]

    @classmethod
    def load_dir(cls, directory: Union[str, Path]) -> "ResultBundle":
        """Load every experiment JSON under ``directory`` into one bundle.

        Files that are not experiment documents (a run manifest, a stray
        artifact) are skipped, so a bundle can be rehydrated straight from
        a ``run_all`` / ``python -m repro run`` output directory.
        """
        bundle = cls()
        for path in sorted(Path(directory).glob("*.json")):
            try:
                data = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if not isinstance(data, dict) or "experiment" not in data \
                    or "columns" not in data:
                continue
            bundle.add(ExperimentResult.from_dict(data))
        return bundle

    @classmethod
    def merge(cls, bundles: Iterable["ResultBundle"]) -> "ResultBundle":
        """Fold shard bundles into one, experiment by experiment.

        Results sharing an experiment name across the bundles are merged
        through :meth:`ExperimentResult.merge_shards` (which validates the
        disjoint-cover property and recomputes the Pareto fronts);
        experiments present in a single bundle pass through unchanged.
        Experiment order follows first appearance.
        """
        groups: Dict[str, List[ExperimentResult]] = {}
        for bundle in bundles:
            for name, result in bundle.results.items():
                groups.setdefault(name, []).append(result)
        merged = cls()
        for name, parts in groups.items():
            merged.add(ExperimentResult.merge_shards(parts))
        return merged

    def summary(self) -> str:
        """Short multi-line listing of the bundled experiments."""
        lines = []
        for name in sorted(self.results):
            result = self.results[name]
            lines.append(f"{name}: {len(result.rows)} rows — {result.description}")
        return "\n".join(lines)
