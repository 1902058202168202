"""Tests for the in-memory database."""

import pytest

from repro.server.database import Database, Table


class TestTable:
    def test_insert_assigns_incrementing_ids(self):
        table = Table("t")
        assert table.insert({"a": 1}) == 1
        assert table.insert({"a": 2}) == 2

    def test_get_returns_copy(self):
        table = Table("t")
        rid = table.insert({"a": 1})
        row = table.get(rid)
        row["a"] = 99
        assert table.get(rid)["a"] == 1

    def test_get_missing_returns_none(self):
        assert Table("t").get(42) is None

    def test_insert_copies_input(self):
        table = Table("t")
        source = {"a": 1}
        rid = table.insert(source)
        source["a"] = 99
        assert table.get(rid)["a"] == 1

    def test_declared_columns_enforced(self):
        table = Table("t", columns=["a"])
        with pytest.raises(ValueError):
            table.insert({"b": 1})

    def test_unknown_columns_are_rejected_and_named(self):
        table = Table("sightings", columns=("device", "room", "time"))
        table.insert({"device": "d", "room": "r", "time": 1.0})
        table.insert({"room": "r"})  # a subset of the columns is fine
        with pytest.raises(
            ValueError, match=r"^table 'sightings' has no columns \['beacon', 'rssi'\]$"
        ):
            table.insert({"rssi": -60, "device": "d", "beacon": "1-1"})
        with pytest.raises(ValueError, match=r"has no columns \['x'\]"):
            Table("empty", columns=[]).insert({"x": 1})
        assert len(table) == 2
        assert table.columns == ["device", "room", "time"]

    def test_select_all(self):
        table = Table("t")
        table.insert({"a": 1})
        table.insert({"a": 2})
        assert [r["a"] for r in table.select()] == [1, 2]

    def test_select_with_predicate(self):
        table = Table("t")
        table.insert({"a": 1})
        table.insert({"a": 2})
        assert len(table.select(lambda r: r["a"] > 1)) == 1

    def test_update_existing(self):
        table = Table("t")
        rid = table.insert({"a": 1})
        assert table.update(rid, {"a": 5})
        assert table.get(rid)["a"] == 5

    def test_update_missing_returns_false(self):
        assert not Table("t").update(7, {"a": 1})

    def test_update_cannot_change_id(self):
        table = Table("t")
        rid = table.insert({"a": 1})
        with pytest.raises(ValueError):
            table.update(rid, {"id": 99})

    def test_delete_returns_count(self):
        table = Table("t")
        table.insert({"a": 1})
        table.insert({"a": 2})
        assert table.delete(lambda r: r["a"] == 1) == 1
        assert len(table) == 1

    def test_iteration(self):
        table = Table("t")
        table.insert({"a": 1})
        assert [r["a"] for r in table] == [1]


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        db.create_table("x")
        assert db.table("x").name == "x"

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table("x")
        with pytest.raises(ValueError):
            db.create_table("x")

    def test_missing_table_raises(self):
        with pytest.raises(KeyError):
            Database().table("nope")

    def test_contains(self):
        db = Database()
        db.create_table("x")
        assert "x" in db
        assert "y" not in db

    def test_table_names_sorted(self):
        db = Database()
        db.create_table("zz")
        db.create_table("aa")
        assert db.table_names == ["aa", "zz"]
