"""Tracker helpers shared by the tests."""

from dataclasses import replace

import numpy as np

from viewsched.core import CLASSES, NO_BOXES, concat_boxes
from viewsched.tracker import TrackState, update


def join(boxes):
    """Box rows joined into one `BoxRows`, in order; none gives no boxes."""
    return concat_boxes([NO_BOXES, *boxes])


def states(table):
    """Each row of a `TrackTable` as a `TrackState`: `TrackTable.of` undone."""
    return [
        TrackState(track_id=i, mean=m, covariance=c, cls=CLASSES[code], confidence=conf)
        for i, code, conf, m, c in zip(
            table.ids.tolist(), table.classes.tolist(), table.confidences.tolist(), table.means,
            table.covariances)
    ]


def fold(table, detections, model):
    """`tracker.update` of detection row i into track row i, every row at
    once; the other columns stay as they are."""
    means, covs = update(table.means, table.covariances, detections.rows, model, table.ids)
    return replace(table, means=means, covariances=covs)


def track_frame(tracker, detections, dt, observed=None):
    """One tracker frame, forecast then step, as the closed loop runs it;
    `detections` is a list of box rows, joined in order. No `observed` flags
    means every forecast row was observed."""
    forecast = tracker.forecast(dt)
    if observed is None:
        observed = np.ones(len(forecast), dtype=bool)
    return tracker.step(join(detections), observed)
