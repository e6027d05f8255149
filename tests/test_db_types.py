"""Unit tests: column types, coercion and schemas."""

import pytest

from repro.db.errors import TypeMismatchError, UnknownColumnError
from repro.db.types import Column, ColumnType, coerce_value, schema_of


class TestColumnType:
    def test_aliases(self):
        assert ColumnType.from_name("integer") is ColumnType.INT
        assert ColumnType.from_name("VARCHAR") is ColumnType.TEXT
        assert ColumnType.from_name("Boolean") is ColumnType.BOOL
        assert ColumnType.from_name("double") is ColumnType.FLOAT

    def test_unknown_type(self):
        with pytest.raises(TypeMismatchError):
            ColumnType.from_name("blob")


class TestCoercion:
    def test_none_passes_through(self):
        assert coerce_value(None, ColumnType.INT) is None

    def test_int_from_float_exact(self):
        assert coerce_value(3.0, ColumnType.INT) == 3

    def test_int_from_float_lossy_rejected(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(3.5, ColumnType.INT)

    def test_int_from_string(self):
        assert coerce_value("42", ColumnType.INT) == 42

    def test_int_from_bad_string(self):
        with pytest.raises(TypeMismatchError):
            coerce_value("forty", ColumnType.INT)

    def test_float_from_int(self):
        assert coerce_value(7, ColumnType.FLOAT) == 7.0
        assert isinstance(coerce_value(7, ColumnType.FLOAT), float)

    def test_text_from_number(self):
        assert coerce_value(12, ColumnType.TEXT) == "12"

    def test_bool_from_int(self):
        assert coerce_value(1, ColumnType.BOOL) is True
        assert coerce_value(0, ColumnType.BOOL) is False

    def test_bool_from_other_int_rejected(self):
        with pytest.raises(TypeMismatchError):
            coerce_value(2, ColumnType.BOOL)

    def test_bool_is_int_for_int_columns(self):
        assert coerce_value(True, ColumnType.INT) == 1


class TestColumn:
    def test_not_null_enforced(self):
        column = Column("a", ColumnType.INT, nullable=False)
        with pytest.raises(TypeMismatchError):
            column.coerce(None)

    def test_nullable_allows_none(self):
        assert Column("a", ColumnType.INT).coerce(None) is None


class TestSchema:
    def test_positions(self):
        schema = schema_of(("id", "int"), ("name", "text"))
        assert schema.position("id") == 0
        assert schema.position("name") == 1
        assert "name" in schema
        assert "missing" not in schema

    def test_unknown_column(self):
        schema = schema_of(("id", "int"))
        with pytest.raises(UnknownColumnError):
            schema.position("nope", "t")

    def test_coerce_row(self):
        schema = schema_of(("id", "int"), ("name", "text"))
        assert schema.coerce_row(["5", 3]) == (5, "3")

    def test_coerce_row_wrong_arity(self):
        schema = schema_of(("id", "int"))
        with pytest.raises(TypeMismatchError):
            schema.coerce_row([1, 2])

    def test_not_null_constructor(self):
        schema = schema_of(("id", "int"), ("name", "text"), not_null=["id"])
        with pytest.raises(TypeMismatchError):
            schema.coerce_row([None, "x"])

    def test_names_and_projection(self):
        schema = schema_of(("a", "int"), ("b", "int"), ("c", "int"))
        assert schema.names() == ("a", "b", "c")
        assert schema.project_positions(["c", "a"]) == (2, 0)
