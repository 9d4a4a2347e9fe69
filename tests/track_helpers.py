"""Tracker helpers shared by the tests."""

from dataclasses import replace

import numpy as np

from viewsched.core import CLASSES, BoxRows, concat_boxes
from viewsched.tracker import TrackState, forecast_all, update

NO_BOXES = BoxRows.of((), (), (), ())


def join(boxes):
    """Box rows joined into one `BoxRows`, in order; none gives no boxes."""
    return concat_boxes([NO_BOXES, *boxes])


def states(table):
    """Each row of a `TrackTable` as a `TrackState`: `TrackTable.of` undone."""
    return [
        TrackState(track_id=i, mean=m, covariance=c, cls=CLASSES[code], confidence=conf,
                   misses=misses, age=age, yaw=yaw)
        for i, code, conf, misses, age, yaw, m, c in zip(
            table.ids.tolist(), table.classes.tolist(), table.confidences.tolist(),
            table.misses.tolist(), table.ages.tolist(), table.yaws.tolist(), table.means,
            table.covariances)
    ]


def fold(table, detections, model):
    """`tracker.update` of detection row i into track row i, every row at
    once; the other columns stay as they are."""
    means, covs = update(table.means, table.covariances, detections.rows, model, table.ids)
    return replace(table, means=means, covariances=covs)


def track_frame(tracker, detections, dt, observed=None):
    """One tracker frame on its own forecast, as the closed loop runs it;
    `detections` is a list of box rows, joined in order. No `observed` flags
    means every forecast row was observed."""
    if observed is None:
        observed = np.ones(len(tracker.tracks), dtype=bool)
    return tracker.step(
        join(detections), dt, forecast_all(tracker.tracks, dt, tracker.model), observed
    )
