"""Tracker helpers shared by the tests."""

from dataclasses import replace

from viewsched.core import BoxRows, concat_boxes
from viewsched.tracker import forecast_all

NO_BOXES = BoxRows.of((), (), (), ())


def join(boxes):
    """Box rows joined into one `BoxRows`, in order; none gives no boxes."""
    return concat_boxes([NO_BOXES, *boxes])


def states(table):
    """Each row of a `TrackTable` as a `TrackState` with the row's state."""
    return [
        replace(t, mean=m, covariance=c)
        for t, m, c in zip(table.tracks, table.means, table.covariances)
    ]


def forecast(track, dt, model):
    """One track through the batched forecast."""
    return states(forecast_all([track], dt, model))[0]


def track_frame(tracker, detections, dt, observed=None):
    """One tracker frame on its own forecast, as the closed loop runs it;
    `detections` is a list of box rows, joined in order."""
    return tracker.step(
        join(detections), dt, forecast_all(tracker.tracks, dt, tracker.model), observed
    )
