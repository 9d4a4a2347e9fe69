"""Capability profiles shared by the tests."""

from viewsched.core import NUM_DISTANCE_LEVELS, NUM_SIZE_LEVELS, NUM_VELOCITY_LEVELS
from viewsched.simulator import _BACKBONES, _MODIFIER_KEYS, CapabilityProfile


def perfect_capability() -> CapabilityProfile:
    """Recall 1, zero noise, no false positives; for oracle-bound tests."""
    ones = dict.fromkeys(_BACKBONES, 1.0)
    return CapabilityProfile.from_dict({
        "name": "perfect",
        "recall_by_backbone": dict.fromkeys(_BACKBONES, [1.0] * NUM_DISTANCE_LEVELS),
        "position_sigma": {
            "base_by_distance": [0.0] * NUM_DISTANCE_LEVELS,
            "backbone_factor": ones,
            "dense_factor": 1.0,
        },
        "velocity_sigma": {
            "base_by_vlevel": [0.0] * NUM_VELOCITY_LEVELS,
            "distance_factor": [1.0] * NUM_DISTANCE_LEVELS,
        },
        "velocity_modifiers": dict.fromkeys(_MODIFIER_KEYS, 1.0),
        "size_sigma": {"base_by_slevel": [0.0] * NUM_SIZE_LEVELS, "backbone_factor": ones},
        "false_positives": {"rate_by_backbone": dict.fromkeys(_BACKBONES, 0.0)},
        "confidence": {"tp_mean": 0.9, "tp_sd": 0.0, "fp_mean": 0.3, "fp_sd": 0.0},
    })
