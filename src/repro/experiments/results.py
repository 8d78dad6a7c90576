"""Tabular view over campaign results.

A :class:`ResultFrame` is a lightweight, dependency-free frame over trial
records: each row flattens a trial's parameters and metrics. It supports
the operations the paper's figures need — filtering, grouping, ratio
columns (e.g. DistTrain-vs-Megatron MFU), and CSV/JSON export — without
pulling in pandas.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.cache import ResultCache
from repro.experiments.runner import TrialRecord
from repro.experiments.spec import KNOWN_PARAMS
from repro.numerics import fold_sum

#: Row keys that come from the record envelope rather than params/metrics.
META_COLUMNS = ("status", "config_hash", "error", "traceback")

Row = Dict[str, Any]


def _flatten(record: Union[TrialRecord, Mapping[str, Any]]) -> Row:
    if isinstance(record, TrialRecord):
        record = record.to_dict()
    row: Row = dict(record.get("params", {}))
    row.update(record.get("metrics", {}))
    row["status"] = record.get("status", "failed")
    row["config_hash"] = record.get("config_hash", "")
    row["error"] = record.get("error", "")
    row["traceback"] = record.get("traceback", "")
    return row


class ResultFrame:
    """An immutable list of flat result rows with frame-style helpers."""

    def __init__(
        self,
        records: Sequence[Union[TrialRecord, Mapping[str, Any]]] = (),
        _rows: Optional[List[Row]] = None,
    ) -> None:
        if _rows is not None:
            self._rows = _rows
        else:
            self._rows = [_flatten(record) for record in records]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_cache(cls, cache: ResultCache) -> "ResultFrame":
        """Every valid record currently in an on-disk cache."""
        return cls(cache.load_all())

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "ResultFrame":
        """Load a frame exported with :meth:`to_json`: a JSON list of
        record objects, or an object whose ``records`` is one. A record's
        ``params`` and ``metrics``, where present, must be objects.

        Raises:
            OSError: The file cannot be read.
            ValueError: It is not JSON, or not in either layout.
        """
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: not JSON ({exc})") from exc
        if isinstance(payload, dict):
            payload = payload.get("records")
        if not isinstance(payload, list) or not all(
            isinstance(record, dict)
            and all(
                isinstance(record.get(key, {}), dict)
                for key in ("params", "metrics")
            )
            for record in payload
        ):
            raise ValueError(
                f"{path}: expected a list of record objects whose params "
                "and metrics are objects, or an object whose 'records' is one"
            )
        return cls(payload)

    def _derive(self, rows: List[Row]) -> "ResultFrame":
        return ResultFrame(_rows=rows)

    # ------------------------------------------------------------------ #
    # Basics
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(dict(row) for row in self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    @property
    def rows(self) -> List[Row]:
        return [dict(row) for row in self._rows]

    @property
    def columns(self) -> List[str]:
        """Union of row keys: parameters first, then metrics, then meta."""
        ordered: List[str] = []
        for row in self._rows:
            for key in row:
                if key not in ordered:
                    ordered.append(key)
        for key in META_COLUMNS:
            if key in ordered:
                ordered.remove(key)
                ordered.append(key)
        return ordered

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def ok(self) -> "ResultFrame":
        """Only successful trials."""
        return self.filter(status="ok")

    def filter(
        self,
        predicate: Optional[Callable[[Row], bool]] = None,
        **criteria: Any,
    ) -> "ResultFrame":
        """Rows matching every ``column=value`` criterion (and predicate)."""
        rows = [
            row
            for row in self._rows
            if all(row.get(key) == value for key, value in criteria.items())
            and (predicate is None or predicate(dict(row)))
        ]
        return self._derive(rows)

    def group_by(self, *keys: str) -> Dict[Tuple[Any, ...], "ResultFrame"]:
        """Partition rows by a key tuple, preserving first-seen order."""
        groups: Dict[Tuple[Any, ...], List[Row]] = {}
        for row in self._rows:
            group = tuple(row.get(key) for key in keys)
            groups.setdefault(group, []).append(row)
        return {
            group: self._derive(rows) for group, rows in groups.items()
        }

    def sort_by(self, *keys: str, reverse: bool = False) -> "ResultFrame":
        rows = sorted(
            self._rows,
            key=lambda row: tuple(
                (row.get(key) is None, row.get(key)) for key in keys
            ),
            reverse=reverse,
        )
        return self._derive(rows)

    # ------------------------------------------------------------------ #
    # Scalars
    # ------------------------------------------------------------------ #
    def values(self, column: str) -> List[Any]:
        return [row.get(column) for row in self._rows]

    def value(self, column: str) -> Any:
        """The column of a single-row frame (asserts exactly one row)."""
        if len(self._rows) != 1:
            raise ValueError(
                f"value() needs exactly one row, frame has {len(self._rows)}"
            )
        return self._rows[0].get(column)

    def mean(self, column: str) -> float:
        values = [
            row[column]
            for row in self._rows
            if isinstance(row.get(column), (int, float))
        ]
        if not values:
            raise ValueError(f"no numeric values in column {column!r}")
        return fold_sum(values) / len(values)

    # ------------------------------------------------------------------ #
    # Derived columns
    # ------------------------------------------------------------------ #
    def with_ratio(
        self,
        metric: str,
        baseline: Mapping[str, Any],
        join: Sequence[str],
        name: Optional[str] = None,
    ) -> "ResultFrame":
        """Add ``row[metric] / baseline_row[metric]`` as a new column.

        For each row, the baseline row is the unique row matching the
        ``baseline`` criteria plus the row's own values on the ``join``
        keys. The canonical use is system speedups grouped by task::

            frame.with_ratio(
                "mfu", baseline={"system": "megatron-lm"},
                join=("model", "gpus", "gbs"),
            )

        Rows without a matching baseline (or with a non-positive baseline
        value) get None; baseline rows themselves get 1.0.
        """
        column = name or f"{metric}_ratio"
        baselines: Dict[Tuple[Any, ...], Optional[float]] = {}
        for row in self._rows:
            if all(row.get(k) == v for k, v in baseline.items()):
                group = tuple(row.get(key) for key in join)
                value = row.get(metric)
                if group in baselines:
                    raise ValueError(
                        f"ambiguous baseline for {group}: add join keys"
                    )
                baselines[group] = (
                    value if isinstance(value, (int, float)) else None
                )
        rows = []
        for row in self._rows:
            updated = dict(row)
            group = tuple(row.get(key) for key in join)
            base = baselines.get(group)
            value = row.get(metric)
            if base and isinstance(value, (int, float)):
                updated[column] = value / base
            else:
                updated[column] = None
            rows.append(updated)
        return self._derive(rows)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def table(
        self,
        columns: Optional[Sequence[str]] = None,
        float_format: str = "{:.4g}",
    ) -> Tuple[List[str], List[List[str]]]:
        """(header, rows) for :func:`repro.core.reports.format_table`."""
        header = list(columns) if columns else self.columns
        rendered = []
        for row in self._rows:
            rendered.append([
                float_format.format(row[key])
                if isinstance(row.get(key), float)
                else ("" if row.get(key) is None else str(row.get(key)))
                for key in header
            ])
        return header, rendered

    def to_csv(self, path: Optional[Union[str, Path]] = None) -> str:
        """Write (or return) the frame as CSV."""
        header = self.columns
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in self._rows:
            writer.writerow([
                "" if row.get(key) is None else row.get(key)
                for key in header
            ])
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        """Write (or return) the rows as a JSON document."""
        text = json.dumps({"records": self.to_records()}, indent=1)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    def to_records(self) -> List[Dict[str, Any]]:
        """Rows re-nested into the cache record layout."""
        records = []
        for row in self._rows:
            params = {}
            metrics = {}
            extra = {}
            for key, value in row.items():
                if key in META_COLUMNS:
                    continue
                if key in KNOWN_PARAMS:
                    params[key] = value
                elif isinstance(value, (int, float)) or value is None:
                    metrics[key] = value
                else:
                    extra[key] = value
            record = {
                "params": params,
                "metrics": metrics,
                "status": row.get("status", "failed"),
                "config_hash": row.get("config_hash", ""),
                "error": row.get("error", ""),
                "traceback": row.get("traceback", ""),
            }
            record.update(extra)
            records.append(record)
        return records
