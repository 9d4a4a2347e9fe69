"""Every field of the loop's records is read somewhere as an attribute.

A value the loop, the planner or the tracker stores in a record but that no
code reads costs work every frame for no one. This scans the syntax trees of
`src/viewsched` and of `perfbench/*.py` (read as text, never imported) for
attribute loads, `x.field`, and fails on a field that none of them loads.
The scan matches names, not owners: `device.fixed_ms` counts as a read of
any record's `fixed_ms`, so a field named like another object's attribute
can go unread without this test seeing it: the scene's object ids,
`GroundTruthFrame.ids`, went unread for a long time behind `TrackTable.ids`
before they were removed.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

import viewsched
from viewsched.cli import RunManifest
from viewsched.core import BoxRows
from viewsched.scheduler import FrameForecast, FramePlan, ScheduleDecision
from viewsched.simulator import EpisodeLog, FrameLog, GroundTruthFrame, SystemConfig
from viewsched.tracker import TrackTable

PACKAGE = Path(viewsched.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
RECORDS = (FrameLog, EpisodeLog, FrameForecast, FramePlan, ScheduleDecision, TrackTable,
           RunManifest, SystemConfig, BoxRows, GroundTruthFrame)


def attributes_read(paths):
    """The name of every attribute that the modules at `paths` load."""
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
def test_every_field_of_a_record_is_read(record):
    read = attributes_read([*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")])
    assert [f.name for f in fields(record) if f.name not in read] == []


def test_the_scan_finds_only_loaded_attributes(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(log, plan):\n"
        "    log.stored = plan.kept\n"
        "    del log.gone\n"
        "    return 'named', log.frames[0].outputs\n"
    )
    assert attributes_read([module]) == {"kept", "frames", "outputs"}
