"""SQL type system: data types, typed values, and NULL semantics.

The engine moves plain Python values through plans (ints, strings,
:class:`decimal.Decimal`, :class:`datetime.date`, ``None`` for SQL NULL).
This package supplies the *type* layer on top: declared column types,
coercion, three-valued comparison, and total sort orderings that put NULL
values last in ascending order (DB2's convention, which the paper's plans
assume).
"""

from repro.sqltypes.types import (
    BOOLEAN,
    DATE,
    DOUBLE,
    INTEGER,
    DataType,
    DecimalType,
    TypeFamily,
    VarcharType,
    decimal_type,
    varchar,
)
from repro.sqltypes.values import (
    NULL,
    SqlNull,
    coerce_value,
    group_key,
    group_key_column,
    is_null,
    ordering_key_column,
    sort_key,
    sort_key_column,
    sort_key_elements,
    sql_compare,
    sql_equal,
)

__all__ = [
    "BOOLEAN",
    "DATE",
    "DOUBLE",
    "INTEGER",
    "DataType",
    "DecimalType",
    "TypeFamily",
    "VarcharType",
    "decimal_type",
    "varchar",
    "NULL",
    "SqlNull",
    "coerce_value",
    "group_key",
    "group_key_column",
    "is_null",
    "ordering_key_column",
    "sort_key",
    "sort_key_column",
    "sort_key_elements",
    "sql_compare",
    "sql_equal",
]
