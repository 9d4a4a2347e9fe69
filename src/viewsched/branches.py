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
from typing import Dict, List, Optional, Sequence, Tuple

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


# -- configuration files ------------------------------------------------------
#
# Every configuration file (manifest, scenario, device and capability profile)
# is read by these rules, so a value means the same wherever it appears.


def json_object(what: str, value: object, keys: frozenset) -> dict:
    """A JSON object whose keys all lie in `keys`."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object, got {value!r}")
    if not keys.issuperset(value):
        raise ValueError(f"unknown {what} keys {sorted(set(value) - keys)}")
    return value


def json_file(what: str, value: object, keys: frozenset) -> dict:
    """A file's top-level JSON object: its keys all lie in `keys`, and its
    `version`, when given, is 1, the only format there is."""
    d = json_object(what, value, keys)
    version = d.get("version", 1)
    if type(version) is not int or version != 1:
        raise ValueError(f"{what} version must be 1, got {version!r}")
    return d


def json_number(key: str, value: object, nonnegative: bool = False) -> float:
    """A finite JSON int or float, not a boolean or a string, as a float."""
    if (type(value) is float or type(value) is int) and (
        0.0 <= value < math.inf if nonnegative else -math.inf < value < math.inf
    ):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    sign = "non-negative " if nonnegative else ""
    raise ValueError(f"{key} must be a finite {sign}number, got {value!r}")


def json_count(key: str, value: object) -> int:
    """A JSON int >= 0, not a boolean."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{key} must be a non-negative integer, got {value!r}")
    return value


def json_flag(key: str, value: object) -> bool:
    """A JSON boolean."""
    if type(value) is not bool:
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


# -- device profile -----------------------------------------------------------


_DEVICE_KEYS = frozenset(("version", "name", "memory_limit_mb", "update_latency", "modules",
                          "anchors", "branches"))
_UPDATE_KEYS = frozenset(("slope_ms_per_track", "intercept_ms", "synthetic"))
_MODULE_KEYS = frozenset(("name", "latency_ms", "memory_mb", "fixed", "synthetic"))
_ANCHOR_KEYS = frozenset(("label", "views", "frame_ms", "synthetic"))
_PATH_KEYS = frozenset(("index", "modules"))


def _read_module(m: object) -> dict:
    m = json_object("module", m, _MODULE_KEYS)
    return {
        "name": m["name"],
        "latency_ms": json_number("module latency_ms", m["latency_ms"], nonnegative=True),
        "memory_mb": json_number("module memory_mb", m["memory_mb"], nonnegative=True),
        "fixed": json_flag("module fixed", m.get("fixed", False)),
        "synthetic": json_flag("module synthetic", m.get("synthetic", True)),
    }


def _read_anchor(a: object) -> dict:
    a = json_object("anchor", a, _ANCHOR_KEYS)
    return {
        "label": a["label"],
        "views": json_count("anchor views", a["views"]),
        "frame_ms": json_number("anchor frame_ms", a["frame_ms"], nonnegative=True),
        "synthetic": json_flag("anchor synthetic", a.get("synthetic", False)),
    }


def _read_paths(entries: list) -> List[dict]:
    """Exactly one module path per catalog index, in index order."""
    paths: List[Optional[list]] = [None] * NUM_BRANCHES
    for entry in entries:
        entry = json_object("branches entry", entry, _PATH_KEYS)
        i = json_count("branch index", entry["index"])
        if i >= NUM_BRANCHES or paths[i] is not None:
            raise ProfileError(f"branch index {i} is not in the catalog or is listed twice")
        paths[i] = list(entry["modules"])
    if None in paths:
        raise ProfileError(f"branch {paths.index(None)} has no module path")
    return [{"index": i, "modules": names} for i, names in enumerate(paths)]


class DeviceProfile:
    """Module table, one module path per catalog branch, and each branch's
    price for one target device. `from_dict` reads the device file."""

    def __init__(self, canonical: dict):
        # `from_dict`'s reading of the file, shared and never changed: the
        # manifest fingerprint hashes it as is
        self.canonical = canonical
        self.memory_limit_mb: float = canonical["memory_limit_mb"]
        update = canonical["update_latency"]
        self.update_slope_ms_per_track: float = update["slope_ms_per_track"]
        self.update_intercept_ms: float = update["intercept_ms"]
        # name -> the module's canonical entry
        self.modules: Dict[str, dict] = {m["name"]: m for m in canonical["modules"]}
        if len(self.modules) != len(canonical["modules"]):
            raise ProfileError("duplicate module names")
        if self.memory_limit_mb <= 0:
            raise ProfileError("memory limit must be positive")
        fixed_mb = sum(m["memory_mb"] for m in self.modules.values() if m["fixed"])
        if fixed_mb > self.memory_limit_mb:
            raise ProfileError(
                f"fixed modules alone need {fixed_mb:.0f} MB, limit is {self.memory_limit_mb:.0f} MB"
            )
        # indexed by catalog index, like `marginal_ms`
        self.branch_modules: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(b["modules"]) for b in canonical["branches"]
        )
        if self.branch_modules[TRACKER_BRANCH_INDEX]:
            raise ProfileError("tracker branch must have an empty module path")
        marginal = []
        for branch, names in zip(enumerate_branches(), self.branch_modules):
            total = 0.0
            for n in names:
                mod = self.modules.get(n)
                if mod is None:
                    raise ProfileError(f"branch {branch.label} references unknown module {n!r}")
                if not mod["fixed"]:
                    total += mod["latency_ms"]
            marginal.append(total)
        self.marginal_ms: Tuple[float, ...] = tuple(marginal)
        self.fixed_ms: float = sum(m["latency_ms"] for m in self.modules.values() if m["fixed"])
        for anchor in canonical["anchors"]:
            branch = branch_by_label(anchor["label"])
            got = anchor["views"] * branch_latency(branch, self) + fixed_latency(self)
            if not math.isclose(got, anchor["frame_ms"], rel_tol=0, abs_tol=1e-6):
                raise ProfileError(
                    f"anchor mismatch for {anchor['label']}: profile gives {got:.6f} ms, "
                    f"anchor says {anchor['frame_ms']} ms"
                )

    @classmethod
    def from_dict(cls, data: object) -> "DeviceProfile":
        """Read a device file: only known keys, every number finite and
        non-negative, `fixed`/`synthetic` JSON booleans, anchor `views` a
        JSON int, one module path per catalog index; then the memory, path
        and anchor checks."""
        try:
            d = json_file("device profile", data, _DEVICE_KEYS)
            update = json_object("update_latency", d["update_latency"], _UPDATE_KEYS)
            json_flag("update_latency.synthetic", update.get("synthetic", True))
            return cls({
                "version": 1,
                "name": d["name"],
                "memory_limit_mb": json_number(
                    "memory_limit_mb", d["memory_limit_mb"], nonnegative=True
                ),
                "update_latency": {
                    "slope_ms_per_track": json_number(
                        "update_latency.slope_ms_per_track", update["slope_ms_per_track"],
                        nonnegative=True,
                    ),
                    "intercept_ms": json_number(
                        "update_latency.intercept_ms", update["intercept_ms"], nonnegative=True
                    ),
                    "synthetic": True,
                },
                "modules": [_read_module(m) for m in d["modules"]],
                "anchors": [_read_anchor(a) for a in d.get("anchors", [])],
                "branches": _read_paths(d["branches"]),
            })
        except (KeyError, TypeError, ValueError) as exc:
            raise ProfileError(f"malformed device profile: {exc}") from exc


def branch_latency(branch: BranchConfig, device: DeviceProfile) -> float:
    """Per-view marginal latency of one branch in ms.

    Sum of the branch's non-fixed module latencies, taken once at load; the
    tracker branch costs nothing. Fixed modules are charged once per frame
    via `fixed_latency`.
    """
    return device.marginal_ms[branch.index]


def fixed_latency(device: DeviceProfile) -> float:
    """Per-frame cost of the fixed modules (shared head etc.)."""
    return device.fixed_ms


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

    fixed_names = {n for n, m in device.modules.items() if m["fixed"]}
    while True:
        needed = _branch_module_set(device, alive) | fixed_names
        used = sum(device.modules[n]["memory_mb"] for n in needed)
        if used <= device.memory_limit_mb:
            break
        # the fixed modules fit (`DeviceProfile` checks), so something is left to evict
        victim = max(needed - fixed_names, key=lambda n: (device.modules[n]["memory_mb"], n))
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
