"""Every field of the package's records is read somewhere as an attribute.

A value the loop, the planner or the tracker stores in a record but that no
code reads costs work every frame for no one. The records are every dataclass
the package's modules define, found by importing them. This scans the syntax
trees of `src/viewsched` and of `perfbench/*.py` (read as text, never
imported) for attribute loads, `x.field`, and fails on a field that none of
them loads, unless `UNREAD` names it with the reason it stays.
The scan matches names, not owners: `device.fixed_ms` counts as a read of
any record's `fixed_ms`, so a field named like another object's attribute
can go unread without this test seeing it: the scene's object ids,
`GroundTruthFrame.ids`, went unread for a long time behind `TrackTable.ids`
before they were removed.
"""

import ast
import importlib
import inspect
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import viewsched

PACKAGE = Path(viewsched.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RECORDS = sorted(
    (obj for path in PACKAGE.glob("*.py")
     for obj in vars(importlib.import_module(f"viewsched.{path.stem}")).values()
     if inspect.isclass(obj) and is_dataclass(obj) and obj.__module__ == f"viewsched.{path.stem}"),
    key=lambda record: (record.__module__, record.__name__))

# (record, field) pairs that no code reads but that stay, each for its reason
UNREAD = {
    # perfbench builds `EgoPose` positionally, time included, so the field
    # goes only together with a change to the bench
    ("EgoPose", "t"),
}


def attributes_read(paths):
    """The name of every attribute that the modules at `paths` load."""
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _read():
    return attributes_read([*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")])


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_every_field_of_a_record_is_read(record):
    read = _read()
    assert [f.name for f in fields(record)
            if f.name not in read and (record.__name__, f.name) not in UNREAD] == []


def test_the_unread_fields_are_still_fields_and_unread():
    # a field that leaves its record, or gets a reader, leaves the list
    names = {(r.__name__, f.name) for r in RECORDS for f in fields(r)}
    read = _read()
    assert {(record, name) for record, name in UNREAD
            if (record, name) in names and name not in read} == UNREAD


def test_the_records_are_every_dataclass_the_source_defines():
    # read from the syntax trees, the second way of finding them; names are
    # unique, so `UNREAD` can name a record by its class name
    defined = [node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text("utf-8")))
               if isinstance(node, ast.ClassDef)
               and any("dataclass" in ast.unparse(d) for d in node.decorator_list)]
    assert sorted(r.__name__ for r in RECORDS) == sorted(set(defined)) == sorted(defined)


def test_the_scan_finds_only_loaded_attributes(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(log, plan):\n"
        "    log.stored = plan.kept\n"
        "    del log.gone\n"
        "    return 'named', log.frames[0].outputs\n"
    )
    assert attributes_read([module]) == {"kept", "frames", "outputs"}
