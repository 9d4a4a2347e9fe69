"""Oracles for the device and capability profile readers.

Each profile file is read once into a canonical form, kept as `.canonical`,
and the per-branch prices and detector rows are built from it. The classes
in the first section are verbatim copies of the readers that came before: a
device profile that summed a branch's module path on every price, and a
13-argument capability constructor with per-box lookups. They stay as
references. On the bundled, perfect and perturbed profiles whose numbers are
all finite, non-negative floats, the readers must accept what they accepted
and agree with them in canonical form, prices, rows and synthetic
detections, compared with `==`.
"""

import copy
import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from viewsched.branches import (
    BackboneKind,
    BranchConfig,
    DepthNetKind,
    DeviceProfile,
    ProfileError,
    branch_by_label,
    branch_latency,
    enumerate_branches,
    fixed_latency,
)
import box_oracles
from box_oracles import Box3D, CategoryLevel, categorize, to_boxes, to_rows
from capability_helpers import perfect_capability
from viewsched.core import (
    NUM_DISTANCE_LEVELS,
    NUM_SIZE_LEVELS,
    NUM_VELOCITY_LEVELS,
    CameraRig,
    ObjectClass,
    category_levels,
    wrap_angle,
)
from viewsched.simulator import (
    CLASS_DIMS,
    CapabilityError,
    CapabilityProfile,
    ConfidenceParams,
    rng_stream,
    synth_detect,
)

# -- the earlier readers, verbatim --------------------------------------------


@dataclass(frozen=True)
class _ReferenceModuleProfile:
    name: str
    latency_ms: float
    memory_mb: float
    fixed: bool = False
    synthetic: bool = True


@dataclass(frozen=True)
class _ReferenceFrameAnchor:
    """Known full-frame latency for one branch run on every view."""

    label: str
    views: int
    frame_ms: float
    synthetic: bool = False


class _ReferenceDeviceProfile:
    """Module table plus branch->module paths for one target device."""

    def __init__(
        self,
        name: str,
        memory_limit_mb: float,
        modules: Sequence[_ReferenceModuleProfile],
        branch_modules: Mapping[int, Sequence[str]],
        update_slope_ms_per_track: float,
        update_intercept_ms: float,
        anchors: Sequence[_ReferenceFrameAnchor] = (),
    ):
        self.name = name
        self.memory_limit_mb = float(memory_limit_mb)
        self.modules: Dict[str, _ReferenceModuleProfile] = {m.name: m for m in modules}
        if len(self.modules) != len(modules):
            raise ProfileError("duplicate module names")
        self.branch_modules: Dict[int, Tuple[str, ...]] = {
            int(i): tuple(names) for i, names in branch_modules.items()
        }
        self.update_slope_ms_per_track = float(update_slope_ms_per_track)
        self.update_intercept_ms = float(update_intercept_ms)
        self.anchors = tuple(anchors)
        self._validate()

    def _validate(self) -> None:
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
            got = anchor.views * _reference_branch_latency(branch, self) + _reference_fixed_latency(self)
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
    def from_dict(cls, data: Mapping) -> "_ReferenceDeviceProfile":
        try:
            modules = [
                _ReferenceModuleProfile(
                    name=m["name"],
                    latency_ms=float(m["latency_ms"]),
                    memory_mb=float(m["memory_mb"]),
                    fixed=bool(m.get("fixed", False)),
                    synthetic=bool(m.get("synthetic", True)),
                )
                for m in data["modules"]
            ]
            anchors = [
                _ReferenceFrameAnchor(
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


def _reference_branch_latency(branch: BranchConfig, device: _ReferenceDeviceProfile) -> float:
    """Per-view marginal latency of one branch in ms.

    Sum of the branch's non-fixed module latencies; the tracker branch costs
    nothing. Fixed modules are charged once per frame via `_reference_fixed_latency`.
    """
    total = 0.0
    for n in device.branch_modules[branch.index]:
        mod = device.modules[n]
        if not mod.fixed:
            total += mod.latency_ms
    return total


def _reference_fixed_latency(device: _ReferenceDeviceProfile) -> float:
    """Per-frame cost of the fixed modules (shared head etc.)."""
    return sum(m.latency_ms for m in device.modules.values() if m.fixed)


_REFERENCE_MODIFIER_KEYS = ("sparse_plain", "sparse_fused", "dense_plain", "dense_fused")


class _ReferenceCapabilityProfile:
    """Synthetic detector capability tables, parameterized per branch family.

    Recall depends on (backbone, distance level); noise sigmas factor into a
    per-level base times branch-family modifiers. Ordering constraints are
    validated on construction: recall never improves with distance, bigger
    backbones never have worse recall, and the dense depth head never has
    worse position noise than the sparse one. Profiles that declare ratio
    anchors additionally pin the far-distance recall ratio and the
    fused-vs-plain velocity-noise ratio.
    """

    def __init__(
        self,
        name: str,
        recall_by_backbone: Mapping[str, Sequence[float]],
        pos_base: Sequence[float],
        pos_backbone_factor: Mapping[str, float],
        pos_dense_factor: float,
        vel_base: Sequence[float],
        vel_distance_factor: Sequence[float],
        vel_modifiers: Mapping[str, float],
        size_base: Sequence[float],
        size_backbone_factor: Mapping[str, float],
        fp_rate_by_backbone: Mapping[str, float],
        confidence: ConfidenceParams = ConfidenceParams(),
        ratio_anchors: Optional[Mapping[str, float]] = None,
    ):
        self.name = name
        self.recall_by_backbone = {k: tuple(float(x) for x in v) for k, v in recall_by_backbone.items()}
        self.pos_base = tuple(float(x) for x in pos_base)
        self.pos_backbone_factor = {k: float(v) for k, v in pos_backbone_factor.items()}
        self.pos_dense_factor = float(pos_dense_factor)
        self.vel_base = tuple(float(x) for x in vel_base)
        self.vel_distance_factor = tuple(float(x) for x in vel_distance_factor)
        self.vel_modifiers = {k: float(vel_modifiers[k]) for k in _REFERENCE_MODIFIER_KEYS}
        self.size_base = tuple(float(x) for x in size_base)
        self.size_backbone_factor = {k: float(v) for k, v in size_backbone_factor.items()}
        self.fp_rate_by_backbone = {k: float(v) for k, v in fp_rate_by_backbone.items()}
        self.confidence = confidence
        self.ratio_anchors = dict(ratio_anchors) if ratio_anchors else None
        self.validate()

    # lookups take the real BranchConfig so callers cannot mix up families

    def recall(self, branch: BranchConfig, level: CategoryLevel) -> float:
        self._require_detection(branch)
        return self.recall_by_backbone[branch.backbone.value][level.distance_level]

    def sigma_pos(self, branch: BranchConfig, level: CategoryLevel) -> float:
        self._require_detection(branch)
        s = self.pos_base[level.distance_level] * self.pos_backbone_factor[branch.backbone.value]
        if branch.depthnet is DepthNetKind.DENSE:
            s *= self.pos_dense_factor
        return s

    def sigma_vel(self, branch: BranchConfig, level: CategoryLevel) -> float:
        self._require_detection(branch)
        key = ("dense" if branch.depthnet is DepthNetKind.DENSE else "sparse") + (
            "_fused" if branch.temporal_fusion else "_plain"
        )
        return (
            self.vel_base[level.velocity_level]
            * self.vel_distance_factor[level.distance_level]
            * self.vel_modifiers[key]
        )

    def sigma_size(self, branch: BranchConfig, level: CategoryLevel) -> float:
        self._require_detection(branch)
        return self.size_base[level.size_level] * self.size_backbone_factor[branch.backbone.value]

    def fp_rate(self, branch: BranchConfig) -> float:
        self._require_detection(branch)
        return self.fp_rate_by_backbone[branch.backbone.value]

    @staticmethod
    def _require_detection(branch: BranchConfig) -> None:
        if branch.is_tracker:
            raise ValueError("the tracker branch has no detector capability")

    def validate(self) -> None:
        keys = [b.value for b in BackboneKind]
        # the lookups below index every backbone and every level `categorize` returns
        by_backbone = {
            "recall_by_backbone": self.recall_by_backbone,
            "position_sigma.backbone_factor": self.pos_backbone_factor,
            "size_sigma.backbone_factor": self.size_backbone_factor,
            "false_positives.rate_by_backbone": self.fp_rate_by_backbone,
        }
        for table, values in by_backbone.items():
            missing = [k for k in keys if k not in values]
            if missing:
                raise CapabilityError(f"{table} is missing backbone {missing[0]}")
        by_level = {
            "position_sigma.base_by_distance": (self.pos_base, NUM_DISTANCE_LEVELS),
            "velocity_sigma.distance_factor": (self.vel_distance_factor, NUM_DISTANCE_LEVELS),
            "velocity_sigma.base_by_vlevel": (self.vel_base, NUM_VELOCITY_LEVELS),
            "size_sigma.base_by_slevel": (self.size_base, NUM_SIZE_LEVELS),
            **{f"recall_by_backbone.{k}": (self.recall_by_backbone[k], NUM_DISTANCE_LEVELS)
               for k in keys},
        }
        for table, (values, levels) in by_level.items():
            if len(values) != levels:
                raise CapabilityError(f"{table} needs {levels} entries, got {len(values)}")
        for k in keys:
            row = self.recall_by_backbone[k]
            if any(not 0.0 <= p <= 1.0 for p in row):
                raise CapabilityError(f"recall out of [0,1] for {k}")
            # (a) recall never improves with distance
            if any(row[i] < row[i + 1] for i in range(len(row) - 1)):
                raise CapabilityError(f"recall must be non-increasing in distance for {k}")
        # (b) bigger backbone never worse, per distance level
        for d in range(len(self.pos_base)):
            col = [self.recall_by_backbone[k][d] for k in keys]
            if any(col[i] > col[i + 1] for i in range(len(col) - 1)):
                raise CapabilityError(f"backbone recall ordering violated at distance level {d}")
        if any(s < 0 for s in self.pos_base + self.vel_base + self.size_base):
            raise CapabilityError("noise sigmas must be non-negative")
        if any(v < 0 for v in self.vel_distance_factor):
            raise CapabilityError("velocity distance factors must be non-negative")
        # (e) dense never worse than sparse for position noise
        if self.pos_dense_factor > 1.0:
            raise CapabilityError("dense depth head must not increase position noise")
        for k in _REFERENCE_MODIFIER_KEYS:
            if self.vel_modifiers[k] < 0:
                raise CapabilityError("velocity modifiers must be non-negative")
        if any(self.fp_rate_by_backbone[k] < 0 for k in keys):
            raise CapabilityError("false-positive rates must be non-negative")
        c = self.confidence
        if not (0.0 <= c.clip_lo < c.clip_hi <= 1.0):
            raise CapabilityError("confidence clip bounds must satisfy 0 <= lo < hi <= 1")

        if self.ratio_anchors:
            far = len(self.pos_base) - 2  # the anchored far bin (one below open-ended)
            want = self.ratio_anchors.get("recall_far_ratio")
            if want is not None:
                small = self.recall_by_backbone[keys[0]][far]
                big = self.recall_by_backbone[keys[-1]][far]
                if small <= 0 or abs(big / small - want) > 0.01:
                    raise CapabilityError(
                        f"far-bin recall ratio {big}/{small} misses anchor {want}"
                    )
            want = self.ratio_anchors.get("vel_fused_ratio")
            if want is not None:
                got = self.vel_modifiers["sparse_plain"] / self.vel_modifiers["dense_fused"]
                if abs(got - want) > 0.01:
                    raise CapabilityError(
                        f"velocity modifier ratio {got:.3f} misses anchor {want}"
                    )

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "name": self.name,
            "recall_by_backbone": {"synthetic": True, **{k: list(v) for k, v in self.recall_by_backbone.items()}},
            "position_sigma": {
                "synthetic": True,
                "base_by_distance": list(self.pos_base),
                "backbone_factor": dict(self.pos_backbone_factor),
                "dense_factor": self.pos_dense_factor,
            },
            "velocity_sigma": {
                "synthetic": True,
                "base_by_vlevel": list(self.vel_base),
                "distance_factor": list(self.vel_distance_factor),
            },
            "velocity_modifiers": {"synthetic": False, **dict(self.vel_modifiers)},
            "size_sigma": {
                "synthetic": True,
                "base_by_slevel": list(self.size_base),
                "backbone_factor": dict(self.size_backbone_factor),
            },
            "false_positives": {"synthetic": True, "rate_by_backbone": dict(self.fp_rate_by_backbone)},
            "confidence": {
                "synthetic": True,
                "tp_mean": self.confidence.tp_mean,
                "tp_sd": self.confidence.tp_sd,
                "fp_mean": self.confidence.fp_mean,
                "fp_sd": self.confidence.fp_sd,
                "clip_lo": self.confidence.clip_lo,
                "clip_hi": self.confidence.clip_hi,
            },
            "ratio_anchors": (
                {"synthetic": False, **self.ratio_anchors} if self.ratio_anchors else None
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "_ReferenceCapabilityProfile":
        def block(name: str) -> dict:
            b = dict(data[name])
            b.pop("synthetic", None)
            return b

        try:
            conf = block("confidence")
            anchors = data.get("ratio_anchors")
            if anchors:
                anchors = {k: v for k, v in anchors.items() if k != "synthetic"}
            return cls(
                name=data["name"],
                recall_by_backbone=block("recall_by_backbone"),
                pos_base=data["position_sigma"]["base_by_distance"],
                pos_backbone_factor=data["position_sigma"]["backbone_factor"],
                pos_dense_factor=data["position_sigma"]["dense_factor"],
                vel_base=data["velocity_sigma"]["base_by_vlevel"],
                vel_distance_factor=data["velocity_sigma"]["distance_factor"],
                vel_modifiers=block("velocity_modifiers"),
                size_base=data["size_sigma"]["base_by_slevel"],
                size_backbone_factor=data["size_sigma"]["backbone_factor"],
                fp_rate_by_backbone=data["false_positives"]["rate_by_backbone"],
                confidence=ConfidenceParams(**conf),
                ratio_anchors=anchors,
            )
        except (KeyError, TypeError) as exc:
            raise CapabilityError(f"malformed capability profile: {exc}") from exc


def _reference_perfect_capability() -> _ReferenceCapabilityProfile:
    """Recall 1, zero noise, no false positives; for oracle-bound tests."""
    ones = [1.0] * 5
    return _ReferenceCapabilityProfile(
        name="perfect",
        recall_by_backbone={b.value: ones for b in BackboneKind},
        pos_base=[0.0] * 5,
        pos_backbone_factor={b.value: 1.0 for b in BackboneKind},
        pos_dense_factor=1.0,
        vel_base=[0.0] * 4,
        vel_distance_factor=[1.0] * 5,
        vel_modifiers={k: 1.0 for k in _REFERENCE_MODIFIER_KEYS},
        size_base=[0.0] * 4,
        size_backbone_factor={b.value: 1.0 for b in BackboneKind},
        fp_rate_by_backbone={b.value: 0.0 for b in BackboneKind},
        confidence=ConfidenceParams(tp_mean=0.9, tp_sd=0.0, fp_mean=0.3, fp_sd=0.0),
    )


def _reference_synth_detect(
    branch: BranchConfig,
    boxes: Sequence[Box3D],
    capability: _ReferenceCapabilityProfile,
    rng: np.random.Generator,
    sector: Tuple[float, float],
    max_range_m: float = 60.0,
) -> List[Box3D]:
    """Stand-in for running one detector branch on one view.

    Each ground-truth box survives with its category recall, then gets
    position/velocity/size noise per the profile; Poisson false positives are
    placed uniformly over the sector's area. Deterministic given the rng
    stream. The tracker branch detects nothing by definition.
    """
    if branch.is_tracker:
        raise ValueError("synth_detect is undefined for the tracker branch")
    out: List[Box3D] = []
    for box in boxes:
        level = categorize(box)
        if rng.random() >= capability.recall(branch, level):
            continue
        sp = capability.sigma_pos(branch, level)
        sv = capability.sigma_vel(branch, level)
        ss = capability.sigma_size(branch, level)
        dx, dy = (rng.normal(0.0, sp, 2) if sp > 0 else (0.0, 0.0))
        dvx, dvy = (rng.normal(0.0, sv, 2) if sv > 0 else (0.0, 0.0))
        dsize = rng.normal(0.0, ss, 3) if ss > 0 else np.zeros(3)
        size = tuple(max(float(s + d), 0.05) for s, d in zip(box.size, dsize))
        c = capability.confidence
        conf = float(np.clip(rng.normal(c.tp_mean, c.tp_sd) if c.tp_sd > 0 else c.tp_mean,
                             c.clip_lo, c.clip_hi))
        out.append(
            Box3D(
                center=(box.center[0] + float(dx), box.center[1] + float(dy), box.center[2]),
                size=size,  # type: ignore[arg-type]
                velocity=(box.velocity[0] + float(dvx), box.velocity[1] + float(dvy), box.velocity[2]),
                cls=box.cls,
                confidence=conf,
            )
        )

    lam = capability.fp_rate(branch)
    n_fp = int(rng.poisson(lam)) if lam > 0 else 0
    lo, hi = sector
    width = hi - lo
    if width <= 0:
        width += 2.0 * math.pi
    classes = sorted(CLASS_DIMS, key=lambda c_: c_.value)
    for _ in range(n_fp):
        r = math.sqrt(rng.uniform((2.0 / max_range_m) ** 2, 1.0)) * max_range_m
        theta = wrap_angle(lo + rng.uniform(0.0, width))
        cls_ = classes[int(rng.integers(0, len(classes)))]
        dims = CLASS_DIMS[cls_]
        heading = rng.uniform(-math.pi, math.pi)
        speed = rng.uniform(0.0, 3.0)
        c = capability.confidence
        conf = float(np.clip(rng.normal(c.fp_mean, c.fp_sd) if c.fp_sd > 0 else c.fp_mean,
                             c.clip_lo, c.clip_hi))
        out.append(
            Box3D(
                center=(r * math.cos(theta), r * math.sin(theta), dims[1] / 2.0),
                size=dims,
                velocity=(speed * math.cos(heading), speed * math.sin(heading), 0.0),
                cls=cls_,
                confidence=conf,
            )
        )
    return out


# -- documents ------------------------------------------------------------------


def _bundled(name):
    return json.loads(resources.files("viewsched").joinpath(f"data/{name}.json").read_text("utf-8"))


_DETECTORS = [b for b in enumerate_branches() if not b.is_tracker]
_LEVELS = [
    CategoryLevel(d, v, s)
    for d in range(NUM_DISTANCE_LEVELS)
    for v in range(NUM_VELOCITY_LEVELS)
    for s in range(NUM_SIZE_LEVELS)
]


def _float_paths(doc, path=()):
    """The path (keys and list indices) to every float in a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _float_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _float_paths(value, path + (i,))
    elif type(doc) is float:
        yield path


def _with(doc, changes):
    doc = copy.deepcopy(doc)
    for path, value in changes:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


@st.composite
def capability_documents(draw):
    """The bundled or the perfect profile (as files give them: every number
    a float, but the format version the JSON int 1 that the reader requires
    and the earlier one ignored), some numbers replaced by floats in [0, 2],
    anchors kept or dropped. Replacements can break an ordering or an
    anchor; both readers must then reject the document."""
    doc = draw(st.sampled_from([
        {**json.loads(json.dumps(_bundled("capability_default")), parse_int=float), "version": 1},
        perfect_capability().canonical,
    ]))
    paths = list(_float_paths(doc))
    doc = _with(doc, draw(st.lists(st.tuples(st.sampled_from(paths), st.floats(0.0, 2.0)),
                                   max_size=4)))
    if draw(st.booleans()):
        doc.pop("ratio_anchors")
    return doc


@st.composite
def device_documents(draw):
    """The bundled device file with some numbers replaced by floats in
    [0, 1e4], some `fixed` flags flipped, its branch entries in any order,
    anchors kept or dropped."""
    doc = json.loads(json.dumps(_bundled("device_orin")))
    for m in doc["modules"]:
        m["latency_ms"], m["memory_mb"] = float(m["latency_ms"]), float(m["memory_mb"])
    doc["memory_limit_mb"] = float(doc["memory_limit_mb"])
    paths = list(_float_paths(doc))
    doc = _with(doc, draw(st.lists(st.tuples(st.sampled_from(paths), st.floats(0.0, 1e4)),
                                   max_size=4)))
    for i in draw(st.lists(st.integers(0, len(doc["modules"]) - 1), max_size=2)):
        doc["modules"][i]["fixed"] = not doc["modules"][i]["fixed"]
    doc["branches"] = draw(st.permutations(doc["branches"]))
    if draw(st.booleans()):
        doc.pop("anchors")
    return doc


def _read_both(doc, reader, reference_reader, errors):
    try:
        want = reference_reader(copy.deepcopy(doc))
    except errors:
        want = None
    try:
        got = reader(doc)
    except errors:
        got = None
    assert (got is None) == (want is None)
    return got, want


# -- oracles ----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@example(doc=_bundled("capability_default"))
@given(doc=capability_documents())
def test_capability_reads_as_the_earlier_reader_did(doc):
    got, want = _read_both(doc, CapabilityProfile.from_dict, _ReferenceCapabilityProfile.from_dict,
                           (CapabilityError, ZeroDivisionError))
    if got is None:
        return
    assert got.canonical == want.to_dict()
    assert got.confidence == want.confidence
    for branch in _DETECTORS:
        row = got.row(branch)
        assert row.fp_rate == want.fp_rate(branch)
        for level in _LEVELS:
            d, v, s = level.distance_level, level.velocity_level, level.size_level
            assert row.recall[d] == want.recall(branch, level)
            assert row.sigma_pos[d] == want.sigma_pos(branch, level)
            assert row.sigma_vel[v][d] == want.sigma_vel(branch, level)
            assert row.sigma_size[s] == want.sigma_size(branch, level)


def test_perfect_capability_is_the_earlier_perfect_profile():
    assert perfect_capability().canonical == _reference_perfect_capability().to_dict()


@st.composite
def ground_truth_boxes(draw):
    cls = draw(st.sampled_from(sorted(ObjectClass, key=lambda c: c.value)))
    coordinate = st.floats(-70.0, 70.0)
    speed = st.floats(-20.0, 20.0)
    return Box3D(
        center=(draw(coordinate), draw(coordinate), 0.8),
        size=draw(st.sampled_from([CLASS_DIMS[cls], (0.4, 0.4, 0.4), (3.0, 4.0, 14.0)])),
        velocity=(draw(speed), draw(speed), 0.0),
        cls=cls,
        confidence=1.0,
    )


@settings(max_examples=150, deadline=None)
@given(
    doc=capability_documents(),
    branch=st.sampled_from(_DETECTORS),
    boxes=st.lists(ground_truth_boxes(), max_size=8),
    seed=st.integers(0, 2**32 - 1),
    view=st.integers(0, CameraRig.default().view_count - 1),
)
def test_synth_detect_draws_as_the_per_box_lookups_did(doc, branch, boxes, seed, view):
    got, want = _read_both(doc, CapabilityProfile.from_dict, _ReferenceCapabilityProfile.from_dict,
                           (CapabilityError, ZeroDivisionError))
    if got is None:  # a rejected perturbation: compare on the bundled profile instead
        doc = _bundled("capability_default")
        got, want = CapabilityProfile.from_dict(doc), _ReferenceCapabilityProfile.from_dict(doc)
    sector = CameraRig.default().sectors[view]
    want_boxes = _reference_synth_detect(branch, boxes, want, rng_stream(seed, "oracle"), sector)
    rows = to_rows(boxes)
    got_boxes = to_boxes(synth_detect(branch, rows, got, rng_stream(seed, "oracle"), sector))
    assert repr(got_boxes) == repr(want_boxes)
    assert got_boxes == box_oracles.synth_detect(
        branch, boxes, got, rng_stream(seed, "oracle"), sector)
    # levels computed once by the caller, as the training set does per view
    levels = category_levels(rows.rows)
    assert levels.tolist() == [[lv.distance_level, lv.velocity_level, lv.size_level]
                               for lv in map(categorize, boxes)]
    assert to_boxes(synth_detect(
        branch, rows, got, rng_stream(seed, "oracle"), sector, levels=levels
    )) == want_boxes


@settings(max_examples=200, deadline=None)
@example(doc=_bundled("device_orin"))
@given(doc=device_documents())
def test_device_reads_and_prices_as_the_earlier_reader_did(doc):
    got, want = _read_both(doc, DeviceProfile.from_dict, _ReferenceDeviceProfile.from_dict,
                           ProfileError)
    if got is None:
        return
    assert got.canonical == want.to_dict()
    assert fixed_latency(got) == _reference_fixed_latency(want)
    for branch in enumerate_branches():
        assert branch_latency(branch, got) == _reference_branch_latency(branch, want)
        assert got.branch_modules[branch.index] == want.branch_modules[branch.index]
    assert (got.memory_limit_mb, got.update_slope_ms_per_track, got.update_intercept_ms) == (
        want.memory_limit_mb, want.update_slope_ms_per_track, want.update_intercept_ms
    )
