"""Column types, schemas and row representation.

Rows are plain tuples; a :class:`Schema` maps column names to positions.
Tuples keep the hot row path allocation-light, which matters because the
benchmark workloads scan hundreds of thousands of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Optional, Sequence, Tuple

from .errors import TypeMismatchError, UnknownColumnError

Row = Tuple[Any, ...]


class ColumnType(Enum):
    """Supported column types for the SQL subset."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"

    @classmethod
    def from_name(cls, name: str) -> "ColumnType":
        normalized = name.strip().lower()
        aliases = {
            "int": cls.INT,
            "integer": cls.INT,
            "bigint": cls.INT,
            "float": cls.FLOAT,
            "double": cls.FLOAT,
            "real": cls.FLOAT,
            "text": cls.TEXT,
            "varchar": cls.TEXT,
            "char": cls.TEXT,
            "string": cls.TEXT,
            "bool": cls.BOOL,
            "boolean": cls.BOOL,
        }
        if normalized not in aliases:
            raise TypeMismatchError(f"unknown column type: {name!r}")
        return aliases[normalized]


def coerce_value(value: Any, column_type: ColumnType) -> Any:
    """Coerce ``value`` to ``column_type``, raising on lossy conversions.

    ``None`` is always allowed (SQL NULL).
    """
    if value is None:
        return None
    try:
        if column_type is ColumnType.INT:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            if isinstance(value, str):
                return int(value)
        elif column_type is ColumnType.FLOAT:
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                return float(value)
        elif column_type is ColumnType.TEXT:
            if isinstance(value, str):
                return value
            if isinstance(value, (int, float)):
                return str(value)
        elif column_type is ColumnType.BOOL:
            if isinstance(value, bool):
                return value
            if isinstance(value, int) and value in (0, 1):
                return bool(value)
    except (TypeError, ValueError) as exc:
        raise TypeMismatchError(
            f"cannot coerce {value!r} to {column_type.value}"
        ) from exc
    raise TypeMismatchError(f"cannot coerce {value!r} to {column_type.value}")


@dataclass(frozen=True)
class Column:
    """A single column definition."""

    name: str
    type: ColumnType
    nullable: bool = True

    def coerce(self, value: Any) -> Any:
        if value is None and not self.nullable:
            raise TypeMismatchError(f"column {self.name!r} is NOT NULL")
        return coerce_value(value, self.type)


@dataclass
class Schema:
    """An ordered collection of columns with O(1) name lookup."""

    columns: Sequence[Column]
    _index: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._index = {}
        for position, column in enumerate(self.columns):
            if column.name in self._index:
                raise TypeMismatchError(f"duplicate column name: {column.name!r}")
            self._index[column.name] = position

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def position(self, name: str, table: str = "") -> int:
        """Return the tuple position of column ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownColumnError(name, table) from None

    def column(self, name: str) -> Column:
        return self.columns[self.position(name)]

    def names(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def coerce_row(self, values: Iterable[Any]) -> Row:
        """Coerce an iterable of values into a typed row tuple."""
        values = tuple(values)
        if len(values) != len(self.columns):
            raise TypeMismatchError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        return tuple(
            column.coerce(value) for column, value in zip(self.columns, values)
        )

    def project_positions(self, names: Sequence[str], table: str = "") -> Tuple[int, ...]:
        return tuple(self.position(name, table) for name in names)


def schema_of(*pairs: Tuple[str, str], not_null: Optional[Sequence[str]] = None) -> Schema:
    """Convenience constructor: ``schema_of(("id", "int"), ("name", "text"))``."""
    required = set(not_null or ())
    columns = [
        Column(name, ColumnType.from_name(type_name), nullable=name not in required)
        for name, type_name in pairs
    ]
    return Schema(columns)


def schema_of_defs(definitions) -> Schema:
    """The schema a parsed ``CREATE TABLE`` declares: one column per
    definition (anything with ``name`` / ``type_name`` / ``not_null``)."""
    return schema_of(
        *((definition.name, definition.type_name) for definition in definitions),
        not_null=[d.name for d in definitions if d.not_null],
    )
