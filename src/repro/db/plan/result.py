"""Result container returned to clients."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple


@dataclass
class QueryResult:
    """Rows plus column names; also used for DML (rowcount only).

    Behaves like a sequence of row tuples so workload code can write
    ``rows[0][0]`` or iterate directly, mirroring a JDBC ResultSet
    drained into a list.
    """

    columns: Tuple[str, ...] = ()
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    rowcount: int = 0

    def __post_init__(self) -> None:
        if self.rows and not self.rowcount:
            self.rowcount = len(self.rows)

    @classmethod
    def from_columns(
        cls,
        columns: Tuple[str, ...],
        value_columns: Sequence[List[Any]],
    ) -> "QueryResult":
        """Late-materialization boundary: the columnar executor carries
        per-column value lists all the way here; client-visible row
        tuples exist only from this point on."""
        rows: List[Tuple[Any, ...]] = (
            list(zip(*value_columns)) if value_columns else []
        )
        return cls(columns=tuple(columns), rows=rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def __bool__(self) -> bool:
        return bool(self.rows)

    def scalar(self) -> Any:
        """First column of the first row, or None on empty results.

        Matches the common ``SELECT count(*)`` consumption pattern in the
        paper's examples (``partCount = executeQuery(qt)``).
        """
        if not self.rows:
            return None
        return self.rows[0][0]

    def column(self, name: str) -> List[Any]:
        position = self.columns.index(name)
        return [row[position] for row in self.rows]

    def as_dicts(self) -> List[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]
