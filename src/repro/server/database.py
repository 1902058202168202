"""A minimal in-memory database.

The paper's server "has to collect all information sent by the user
smart[phones] and to insert them in a database the association between
the device and the room where it is located".  This module provides the
storage substrate: auto-increment tables with predicate queries, enough
to model the prototype's SQLite usage without external dependencies.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

__all__ = ["Table", "Database"]

Row = Dict[str, Any]
Predicate = Callable[[Row], bool]


class Table:
    """An auto-increment table of dict rows.

    Rows are stored with an ``id`` column assigned on insert; inserted
    dicts are copied, and query results are copies too, so callers
    cannot mutate stored state by accident.
    """

    def __init__(self, name: str, columns: Optional[List[str]] = None) -> None:
        self.name = name
        self.columns = list(columns) if columns is not None else None
        self._column_set = frozenset(self.columns) if columns is not None else None
        self._rows: Dict[int, Row] = {}
        self._next_id = 1

    def insert(self, row: Row) -> int:
        """Insert a row, returning its assigned id.

        Raises:
            ValueError: when a column list was declared and the row
                contains unknown keys.
        """
        known = self._column_set
        if known is not None and not known.issuperset(row):
            unknown = set(row) - known
            raise ValueError(f"table {self.name!r} has no columns {sorted(unknown)}")
        row_id = self._next_id
        self._next_id += 1
        stored = dict(row)
        stored["id"] = row_id
        self._rows[row_id] = stored
        return row_id

    def get(self, row_id: int) -> Optional[Row]:
        """The row with ``row_id``, or ``None``."""
        row = self._rows.get(row_id)
        return dict(row) if row is not None else None

    def select(self, where: Optional[Predicate] = None) -> List[Row]:
        """Rows matching the predicate, in insertion order."""
        rows = (dict(r) for r in self._rows.values())
        if where is None:
            return list(rows)
        return [r for r in rows if where(r)]

    def update(self, row_id: int, changes: Row) -> bool:
        """Apply ``changes`` to a row; True when the row existed."""
        if row_id not in self._rows:
            return False
        if "id" in changes and changes["id"] != row_id:
            raise ValueError("cannot change a row's id")
        self._rows[row_id].update(changes)
        return True

    def delete(self, where: Predicate) -> int:
        """Delete matching rows, returning the count removed."""
        doomed = [rid for rid, row in self._rows.items() if where(row)]
        for rid in doomed:
            del self._rows[rid]
        return len(doomed)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.select())


class Database:
    """A named collection of tables."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}

    def create_table(self, name: str, columns: Optional[List[str]] = None) -> Table:
        """Create a table.

        Raises:
            ValueError: the table already exists.
        """
        if name in self._tables:
            raise ValueError(f"table {name!r} already exists")
        table = Table(name, columns)
        self._tables[name] = table
        return table

    def attach(self, table: Table) -> None:
        """Hold ``table``, which another database also holds, under its name.

        Raises:
            ValueError: a table of that name already exists.
        """
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        """The table named ``name``.

        Raises:
            KeyError: unknown table.
        """
        if name not in self._tables:
            raise KeyError(f"no table {name!r}; known: {sorted(self._tables)}")
        return self._tables[name]

    @property
    def table_names(self) -> List[str]:
        """Names of all tables, sorted."""
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables
