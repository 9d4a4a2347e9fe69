"""Inference branch catalog and device latency/memory profiles.

Seventeen branches: sixteen detector variants (4 backbones x 2 depth heads
x temporal fusion on/off) plus the zero-latency tracker branch at index 0,
which serves a view purely from forecast tracks. A device profile prices
each branch as a sum of module latencies; modules marked `fixed` run once
per frame regardless of the assignment (shared head, duplicate removal),
everything else is a per-view marginal cost.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

logger = logging.getLogger(__name__)


class ProfileError(Exception):
    """Raised when a device profile is malformed or cannot satisfy a target."""


class BackboneKind(Enum):
    R34 = ("r34", (256, 448))
    R50 = ("r50", (400, 704))
    R101 = ("r101", (544, 960))
    R152 = ("r152", (720, 1280))

    @property
    def key(self) -> str:
        return self.value[0]

    @property
    def input_hw(self) -> Tuple[int, int]:
        return self.value[1]


class DepthNetKind(Enum):
    SPARSE = "sparse"
    DENSE = "dense"


@dataclass(frozen=True)
class BranchConfig:
    """One entry of the branch catalog; `index` is stable package-wide."""

    index: int
    backbone: Optional[BackboneKind]
    depthnet: Optional[DepthNetKind]
    temporal_fusion: bool

    @property
    def is_tracker(self) -> bool:
        return self.backbone is None

    @property
    def label(self) -> str:
        if self.is_tracker:
            return "tracker"
        assert self.backbone is not None and self.depthnet is not None
        name = f"{self.backbone.key}-{self.depthnet.value}"
        return name + "+tf" if self.temporal_fusion else name


@lru_cache(maxsize=1)
def enumerate_branches() -> Tuple[BranchConfig, ...]:
    """All 17 branches in canonical order (tracker first, then detectors
    by backbone size, depth head, fusion flag)."""
    out: List[BranchConfig] = [BranchConfig(0, None, None, False)]
    idx = 1
    for backbone in BackboneKind:
        for depthnet in DepthNetKind:
            for fusion in (False, True):
                out.append(BranchConfig(idx, backbone, depthnet, fusion))
                idx += 1
    return tuple(out)


NUM_BRANCHES = 17
TRACKER_BRANCH_INDEX = 0


def branch_by_label(label: str) -> BranchConfig:
    for b in enumerate_branches():
        if b.label == label:
            return b
    raise KeyError(f"no branch labeled {label!r}")


@dataclass(frozen=True)
class ModuleProfile:
    name: str
    latency_ms: float
    memory_mb: float
    fixed: bool = False
    synthetic: bool = True


@dataclass(frozen=True)
class FrameAnchor:
    """Known full-frame latency for one branch run on every view."""

    label: str
    views: int
    frame_ms: float
    synthetic: bool = False


class DeviceProfile:
    """Module table plus branch->module paths for one target device."""

    def __init__(
        self,
        name: str,
        memory_limit_mb: float,
        modules: Sequence[ModuleProfile],
        branch_modules: Mapping[int, Sequence[str]],
        update_slope_ms_per_track: float,
        update_intercept_ms: float,
        anchors: Sequence[FrameAnchor] = (),
    ):
        self.name = name
        self.memory_limit_mb = float(memory_limit_mb)
        self.modules: Dict[str, ModuleProfile] = {m.name: m for m in modules}
        self.branch_modules: Dict[int, Tuple[str, ...]] = {
            int(i): tuple(names) for i, names in branch_modules.items()
        }
        self.update_slope_ms_per_track = float(update_slope_ms_per_track)
        self.update_intercept_ms = float(update_intercept_ms)
        self.anchors = tuple(anchors)
        self._validate()

    def _validate(self) -> None:
        if len(self.modules) != len(set(self.modules)):
            raise ProfileError("duplicate module names")
        if not 0 < self.memory_limit_mb < math.inf:
            raise ProfileError("memory limit must be positive and finite")
        if self.update_slope_ms_per_track < 0 or self.update_intercept_ms < 0:
            raise ProfileError("update latency coefficients must be non-negative")
        for m in self.modules.values():
            if m.latency_ms < 0 or m.memory_mb < 0:
                raise ProfileError(f"module {m.name}: negative latency or memory")
        fixed_mb = sum(m.memory_mb for m in self.modules.values() if m.fixed)
        if fixed_mb > self.memory_limit_mb:
            raise ProfileError(
                f"fixed modules alone need {fixed_mb:.0f} MB, limit is {self.memory_limit_mb:.0f} MB"
            )
        for branch in enumerate_branches():
            if branch.index not in self.branch_modules:
                raise ProfileError(f"branch {branch.index} ({branch.label}) has no module path")
            names = self.branch_modules[branch.index]
            if branch.is_tracker and names:
                raise ProfileError("tracker branch must have an empty module path")
            for n in names:
                if n not in self.modules:
                    raise ProfileError(f"branch {branch.label} references unknown module {n!r}")
        for anchor in self.anchors:
            branch = branch_by_label(anchor.label)
            got = anchor.views * branch_latency(branch, self) + fixed_latency(self)
            if not math.isclose(got, anchor.frame_ms, rel_tol=0, abs_tol=1e-6):
                raise ProfileError(
                    f"anchor mismatch for {anchor.label}: profile gives {got:.6f} ms, "
                    f"anchor says {anchor.frame_ms} ms"
                )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "name": self.name,
            "memory_limit_mb": self.memory_limit_mb,
            "update_latency": {
                "slope_ms_per_track": self.update_slope_ms_per_track,
                "intercept_ms": self.update_intercept_ms,
                "synthetic": True,
            },
            "modules": [
                {
                    "name": m.name,
                    "latency_ms": m.latency_ms,
                    "memory_mb": m.memory_mb,
                    "fixed": m.fixed,
                    "synthetic": m.synthetic,
                }
                for m in self.modules.values()
            ],
            "anchors": [
                {
                    "label": a.label,
                    "views": a.views,
                    "frame_ms": a.frame_ms,
                    "synthetic": a.synthetic,
                }
                for a in self.anchors
            ],
            "branches": [
                {"index": i, "modules": list(names)}
                for i, names in sorted(self.branch_modules.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DeviceProfile":
        try:
            modules = [
                ModuleProfile(
                    name=m["name"],
                    latency_ms=float(m["latency_ms"]),
                    memory_mb=float(m["memory_mb"]),
                    fixed=bool(m.get("fixed", False)),
                    synthetic=bool(m.get("synthetic", True)),
                )
                for m in data["modules"]
            ]
            anchors = [
                FrameAnchor(
                    label=a["label"],
                    views=int(a["views"]),
                    frame_ms=float(a["frame_ms"]),
                    synthetic=bool(a.get("synthetic", False)),
                )
                for a in data.get("anchors", [])
            ]
            update = data["update_latency"]
            return cls(
                name=data["name"],
                memory_limit_mb=float(data["memory_limit_mb"]),
                modules=modules,
                branch_modules={int(b["index"]): b["modules"] for b in data["branches"]},
                update_slope_ms_per_track=float(update["slope_ms_per_track"]),
                update_intercept_ms=float(update["intercept_ms"]),
                anchors=anchors,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfileError(f"malformed device profile: {exc}") from exc


def branch_latency(branch: BranchConfig, device: DeviceProfile) -> float:
    """Per-view marginal latency of one branch in ms.

    Sum of the branch's non-fixed module latencies; the tracker branch costs
    nothing. Fixed modules are charged once per frame via `fixed_latency`.
    """
    if branch.is_tracker:
        return 0.0
    try:
        names = device.branch_modules[branch.index]
    except KeyError as exc:
        raise ProfileError(f"branch {branch.label} not in profile") from exc
    total = 0.0
    for n in names:
        mod = device.modules.get(n)
        if mod is None:
            raise ProfileError(f"branch {branch.label} references unknown module {n!r}")
        if not mod.fixed:
            total += mod.latency_ms
    return total


def fixed_latency(device: DeviceProfile) -> float:
    """Per-frame cost of the fixed modules (shared head etc.)."""
    return sum(m.latency_ms for m in device.modules.values() if m.fixed)


def group_cost(marginal_ms: float, count: int, alpha: float = 1.0) -> float:
    """Latency of running one branch on `count` views as a batch.

    alpha = 1 means no batching benefit (cost is linear in the view count);
    alpha < 1 discounts every view after the first.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if count == 0:
        return 0.0
    return marginal_ms * (1.0 + alpha * (count - 1))


def _branch_module_set(device: DeviceProfile, indices: Sequence[int]) -> set:
    names: set = set()
    for i in indices:
        names.update(device.branch_modules[i])
    return names


def adapt(device: DeviceProfile, target_latency_ms: float) -> Tuple[BranchConfig, ...]:
    """Reduce the catalog to the branches deployable on this device/target.

    Memory pass first: while the loaded module set (fixed modules plus
    everything the surviving detection branches need) exceeds the limit,
    evict the largest non-fixed module (ties broken by name) and drop the
    branches that needed it. Then the latency pass removes every branch whose
    single-view marginal plus the fixed per-frame cost already exceeds the
    target. The tracker branch always survives.
    """
    if target_latency_ms <= 0:
        raise ProfileError("target latency must be positive")
    catalog = enumerate_branches()
    alive = [b.index for b in catalog if not b.is_tracker]

    fixed_names = {m.name for m in device.modules.values() if m.fixed}
    while True:
        needed = _branch_module_set(device, alive) | fixed_names
        used = sum(device.modules[n].memory_mb for n in needed)
        if used <= device.memory_limit_mb:
            break
        # the fixed modules fit (`DeviceProfile` checks), so something is left to evict
        victim = max(needed - fixed_names, key=lambda n: (device.modules[n].memory_mb, n))
        alive = [i for i in alive if victim not in device.branch_modules[i]]

    fixed_ms = fixed_latency(device)
    surviving = [catalog[TRACKER_BRANCH_INDEX]]
    for i in alive:
        branch = catalog[i]
        if branch_latency(branch, device) + fixed_ms <= target_latency_ms:
            surviving.append(branch)
    if len(surviving) == 1:
        logger.warning(
            "target %.1f ms leaves only the tracker branch deployable", target_latency_ms
        )
    return tuple(sorted(surviving, key=lambda b: b.index))


def default_device_profile() -> DeviceProfile:
    """The bundled Orin-like profile."""
    text = resources.files("viewsched").joinpath("data/device_orin.json").read_text("utf-8")
    return DeviceProfile.from_dict(json.loads(text))
