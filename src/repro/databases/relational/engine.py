"""The relational engine and its vendor-flavoured variants."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.databases.base import Database
from repro.databases.relational.expression import ALWAYS, Expression
from repro.databases.relational.schema import (
    PRIMARY_KEY,
    Column,
    Index,
    TableSchema,
)
from repro.databases.relational.storage import TableStorage
from repro.databases.relational.transaction import Transaction, TransactionManager
from repro.errors import (
    SchemaError,
    UnknownTableError,
    UnsupportedOperationError,
)

Row = Dict[str, Any]


class RelationalDatabase(Database):
    """In-memory relational engine: typed tables, indexes, WHERE planner,
    transactions, and (on capable variants) ``RETURNING *``."""

    engine_family = "relational"
    supports_transactions = True

    def __init__(self, name: str, **kwargs: Any) -> None:
        super().__init__(name, **kwargs)
        self._tables: Dict[str, TableStorage] = {}
        self._txns = TransactionManager()

    # ------------------------------------------------------------------ DDL

    def create_table(self, schema: TableSchema) -> None:
        with self._lock:
            if schema.name in self._tables:
                raise SchemaError(f"table {schema.name!r} already exists")
            self._tables[schema.name] = TableStorage(schema)

    def drop_table(self, name: str) -> None:
        with self._lock:
            self._storage(name)
            del self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_schema(self, name: str) -> TableSchema:
        return self._storage(name).schema

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def add_column(self, table: str, column: Column) -> None:
        """ALTER TABLE ADD COLUMN; existing rows get the column's default."""
        with self._lock:
            storage = self._storage(table)
            storage.schema.add_column(column)
            default = column.default_value()
            for row in storage.rows.values():
                row[column.name] = default

    def drop_column(self, table: str, name: str) -> None:
        with self._lock:
            storage = self._storage(table)
            storage.schema.drop_column(name)
            for row in storage.rows.values():
                row.pop(name, None)

    def create_index(self, table: str, index: Index) -> None:
        with self._lock:
            storage = self._storage(table)
            storage.schema.add_index(index)
            storage.rebuild_index(index)

    def drop_index(self, table: str, name: str) -> None:
        with self._lock:
            storage = self._storage(table)
            storage.schema.indexes.pop(name, None)
            storage.drop_index(name)

    # ----------------------------------------------------------------- DML

    def insert(self, table: str, values: Row, returning: bool = False) -> Any:
        """INSERT one row; with ``returning`` echo the written row back,
        else return its primary key (this call's ``lastrowid``)."""
        self._check_returning(returning)
        with self._lock:
            self._charge_write()
            self._log("insert", table)
            storage = self._storage(table)
            row = storage.schema.normalise(dict(values))
            written = storage.insert(row)
            txn = self._txns.current()
            if txn is not None:
                txn.record_insert(table, written[PRIMARY_KEY])
                txn.written.append({"table": table, "op": "insert", "row": dict(written)})
            return dict(written) if returning else written[PRIMARY_KEY]

    def select(
        self,
        table: str,
        where: Expression = ALWAYS,
        columns: Optional[Sequence[str]] = None,
        order_by: Optional[Any] = None,
        limit: Optional[int] = None,
        offset: int = 0,
        distinct: bool = False,
    ) -> List[Row]:
        """SELECT rows matching ``where``; always includes the primary key
        (Synapse injects primary-key selectors into reads, §4.2).

        ``order_by`` is one ``(column, "asc"|"desc")`` pair or a list of
        them; ``distinct`` dedupes on the projected columns (implies a
        projection without the primary key).
        """
        with self._lock:
            self._charge_read()
            self._log("select", f"{table} WHERE {where!r}")
            storage = self._storage(table)
            rows = list(self._plan(storage, where))
        if order_by is not None:
            pairs = order_by if isinstance(order_by, list) else [order_by]
            for column, direction in reversed(pairs):
                rows.sort(key=lambda r: (r.get(column) is None, r.get(column)),
                          reverse=(direction.lower() == "desc"))
        else:
            rows.sort(key=lambda r: r[PRIMARY_KEY])
        if offset:
            rows = rows[offset:]
        if limit is not None:
            rows = rows[:limit]
        if distinct:
            if columns is None:
                raise UnsupportedOperationError(
                    "DISTINCT needs an explicit column projection"
                )
            seen = set()
            out: List[Row] = []
            for row in rows:
                projected = tuple(row.get(c) for c in columns)
                if projected not in seen:
                    seen.add(projected)
                    out.append(dict(zip(columns, projected)))
            return out
        if columns is not None:
            keep = set(columns) | {PRIMARY_KEY}
            rows = [{k: v for k, v in row.items() if k in keep} for row in rows]
        return rows

    def get(self, table: str, row_id: int) -> Optional[Row]:
        """Point lookup by primary key."""
        with self._lock:
            self._charge_read()
            self.stats.index_lookups += 1
            return self._storage(table).get(row_id)

    def count(self, table: str, where: Expression = ALWAYS) -> int:
        """Aggregation — per §4.2 these reads are *not* true dependencies."""
        with self._lock:
            self._charge_read()
            storage = self._storage(table)
            return sum(1 for _ in self._plan(storage, where))

    def update(
        self,
        table: str,
        where: Expression,
        values: Row,
        returning: bool = False,
    ) -> Any:
        """UPDATE matching rows; returns updated rows (or their count)."""
        self._check_returning(returning)
        with self._lock:
            self._charge_write()
            self._log("update", f"{table} WHERE {where!r}")
            storage = self._storage(table)
            patch = storage.schema.normalise(dict(values), partial=True)
            patch.pop(PRIMARY_KEY, None)
            txn = self._txns.current()
            updated: List[Row] = []
            for row in list(self._plan(storage, where)):
                new_row = dict(row)
                new_row.update(patch)
                storage.replace(row[PRIMARY_KEY], new_row)
                if txn is not None:
                    txn.record_replace(table, row[PRIMARY_KEY], row)
                    txn.written.append(
                        {"table": table, "op": "update", "row": dict(new_row)}
                    )
                updated.append(new_row)
            return updated if returning else len(updated)

    def delete(self, table: str, where: Expression, returning: bool = False) -> Any:
        """DELETE matching rows; returns deleted rows (or their count)."""
        self._check_returning(returning)
        with self._lock:
            self._charge_write()
            self._log("delete", f"{table} WHERE {where!r}")
            self.stats.deletes += 1
            storage = self._storage(table)
            txn = self._txns.current()
            deleted: List[Row] = []
            for row in list(self._plan(storage, where)):
                storage.delete(row[PRIMARY_KEY])
                if txn is not None:
                    txn.record_delete(table, row)
                    txn.written.append({"table": table, "op": "delete", "row": dict(row)})
                deleted.append(row)
            return deleted if returning else len(deleted)

    def join(
        self,
        left: str,
        right: str,
        on: Tuple[str, str],
        where: Expression = ALWAYS,
    ) -> List[Tuple[Row, Row]]:
        """Inner hash join; ``on`` is (left_column, right_column).

        The WHERE predicate applies to the left row. Joins are read
        dependencies on every returned row from both tables (§4.2).
        """
        with self._lock:
            self._charge_read()
            left_rows = list(self._plan(self._storage(left), where))
            right_storage = self._storage(right)
            left_col, right_col = on
            by_key: Dict[Any, List[Row]] = {}
            for row in right_storage.scan():
                by_key.setdefault(row.get(right_col), []).append(row)
            out: List[Tuple[Row, Row]] = []
            for lrow in left_rows:
                for rrow in by_key.get(lrow.get(left_col), []):
                    out.append((lrow, rrow))
            return out

    def aggregate(
        self,
        table: str,
        group_by: Optional[str] = None,
        aggregates: Optional[Dict[str, Tuple[str, str]]] = None,
        where: Expression = ALWAYS,
    ) -> List[Row]:
        """GROUP BY with count/sum/avg/min/max aggregates.

        ``aggregates`` maps output alias -> (function, column); use
        column ``"*"`` with ``count``. Returns one row per group (or a
        single row when ``group_by`` is None). Aggregations are not read
        dependencies (§4.2).
        """
        aggregates = aggregates or {"count": ("count", "*")}
        with self._lock:
            self._charge_read()
            storage = self._storage(table)
            groups: Dict[Any, List[Row]] = {}
            for row in self._plan(storage, where):
                key = row.get(group_by) if group_by is not None else None
                groups.setdefault(key, []).append(row)
        out: List[Row] = []
        for key in sorted(groups, key=lambda k: (k is None, str(k))):
            bucket = groups[key]
            result: Row = {}
            if group_by is not None:
                result[group_by] = key
            for alias, (fn, column) in aggregates.items():
                result[alias] = _aggregate(fn, column, bucket)
            out.append(result)
        return out

    def explain(self, table: str, where: Expression = ALWAYS) -> Dict[str, Any]:
        """Planner introspection: which access path a query would take."""
        storage = self._storage(table)
        schema = storage.schema
        candidates = dict(where.equality_candidates())
        if PRIMARY_KEY in candidates:
            return {"access": "primary_key", "column": PRIMARY_KEY}
        best: Optional[Index] = None
        for index in schema.indexes.values():
            if all(column in candidates for column in index.columns):
                if best is None or len(index.columns) > len(best.columns):
                    best = index
        if best is not None:
            return {"access": "index_lookup", "index": best.name,
                    "columns": list(best.columns)}
        return {"access": "full_scan", "rows": len(storage)}

    # -------------------------------------------------------------- planner

    def _plan(self, storage: TableStorage, where: Expression) -> Iterable[Row]:
        """Pick an access path: primary key, then the *widest* matching
        index (composite indexes win over single-column ones when every
        indexed column has a top-level equality), else full scan. The
        complete predicate is always re-checked."""
        schema = storage.schema
        candidates = dict(where.equality_candidates())
        if PRIMARY_KEY in candidates:
            self.stats.index_lookups += 1
            value = candidates[PRIMARY_KEY]
            row = storage.get(value) if isinstance(value, int) else None
            if row is not None and where.matches(row):
                yield row
            return
        best: Optional[Index] = None
        for index in schema.indexes.values():
            if all(column in candidates for column in index.columns):
                if best is None or len(index.columns) > len(best.columns):
                    best = index
        if best is not None:
            self.stats.index_lookups += 1
            key = tuple(candidates[column] for column in best.columns)
            for row_id in storage.ids_for_index_key(best.name, key):
                row = storage.get(row_id)
                if row is not None and where.matches(row):
                    yield row
            return
        self.stats.scans += 1
        for row in storage.scan():
            if where.matches(row):
                yield row

    # --------------------------------------------------------- transactions

    def begin(self) -> Transaction:
        self.stats.transactions += 1
        return self._txns.begin(self)

    def current_transaction(self) -> Optional[Transaction]:
        return self._txns.current()

    def _finish_transaction(self, txn: Transaction) -> None:
        self._txns.finish(txn)

    # Undo callbacks used by Transaction.rollback -------------------------

    def _undo_insert(self, table: str, row_id: int) -> None:
        with self._lock:
            self._storage(table).delete(row_id)

    def _undo_replace(self, table: str, row_id: int, old_row: Row) -> None:
        with self._lock:
            self._storage(table).replace(row_id, dict(old_row))

    def _undo_delete(self, table: str, old_row: Row) -> None:
        with self._lock:
            self._storage(table).insert(dict(old_row))

    # --------------------------------------------------------------- misc

    def _storage(self, table: str) -> TableStorage:
        try:
            return self._tables[table]
        except KeyError:
            raise UnknownTableError(f"no table {table!r} in {self.name!r}") from None

    def _check_returning(self, returning: bool) -> None:
        if returning and not self.supports_returning:
            raise UnsupportedOperationError(
                f"{self.engine_family} ({type(self).__name__}) has no RETURNING"
            )


def _aggregate(fn: str, column: str, rows: List[Row]) -> Any:
    if fn == "count":
        if column == "*":
            return len(rows)
        return sum(1 for r in rows if r.get(column) is not None)
    values = [
        r[column] for r in rows
        if isinstance(r.get(column), (int, float))
        and not isinstance(r.get(column), bool)
    ]
    if fn == "sum":
        return sum(values)
    if fn == "avg":
        return sum(values) / len(values) if values else None
    if fn == "min":
        return min(values) if values else None
    if fn == "max":
        return max(values) if values else None
    raise UnsupportedOperationError(f"unknown aggregate {fn!r}")


class PostgresLike(RelationalDatabase):
    """PostgreSQL stand-in: full transactions and ``RETURNING *``."""

    engine_family = "postgresql"
    supports_returning = True


class OracleLike(RelationalDatabase):
    """Oracle stand-in: same capabilities as PostgreSQL for our purposes."""

    engine_family = "oracle"
    supports_returning = True


class MySQLLike(RelationalDatabase):
    """MySQL stand-in: no ``RETURNING``, forcing Synapse's extra-read
    intercept protocol (§4.1)."""

    engine_family = "mysql"
    supports_returning = False
