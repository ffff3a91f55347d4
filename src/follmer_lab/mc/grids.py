"""Time grids with log-densified refinement near burn-in windows."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import GridError


@dataclass(frozen=True)
class GridSpec:
    """Strictly increasing grid on [0, t_max].

    ``base_step`` spaces the backbone; each ``refinement`` (anchor, length,
    points) adds log-spaced times densifying toward the anchor from
    anchor - length, which is how burn-in windows get resolved without a
    globally fine grid.  ``extra_points`` are included verbatim.
    """

    t_max: float
    base_step: float
    refinements: Tuple[Tuple[float, float, int], ...] = ()
    extra_points: Tuple[float, ...] = ()

    def __post_init__(self):
        if not (self.t_max > 0 and self.base_step > 0):
            raise GridError(
                f"need t_max > 0 and base_step > 0, got {self.t_max}, {self.base_step}"
            )

    def points(self) -> np.ndarray:
        pts = list(np.arange(0.0, self.t_max, self.base_step))
        pts.append(float(self.t_max))
        for anchor, length, n in self.refinements:
            if length <= 0 or n < 1:
                raise GridError(f"bad refinement ({anchor}, {length}, {n})")
            # log-spaced toward the anchor: anchor - length * r^j
            ratio = math.exp(-math.log(1e6) / n)  # shrink by 1e-6 over n points
            for j in range(n + 1):
                t = anchor - length * ratio**j
                if 0.0 <= t <= self.t_max:
                    pts.append(t)
            if 0.0 <= anchor <= self.t_max:
                pts.append(float(anchor))
        for t in self.extra_points:
            if not 0.0 <= t <= self.t_max:
                raise GridError(f"extra point {t} outside [0, {self.t_max}]")
            pts.append(float(t))
        arr = np.unique(np.asarray(pts, dtype=np.float64))
        if arr.size < 2:
            raise GridError("degenerate grid")
        return arr

    def to_dict(self) -> dict:
        return {
            "t_max": self.t_max,
            "base_step": self.base_step,
            "refinements": [list(r) for r in self.refinements],
            "extra_points": list(self.extra_points),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        return cls(
            t_max=float(data["t_max"]),
            base_step=float(data["base_step"]),
            refinements=tuple(
                (float(a), float(l), int(n)) for a, l, n in data.get("refinements", [])
            ),
            extra_points=tuple(float(t) for t in data.get("extra_points", [])),
        )


def step_value(times: np.ndarray, values: np.ndarray, t: float) -> float:
    """Value at t of a step path sampled at ``times``: the value at the last time <= t.

    Times before the first sample read the first value.
    """
    idx = np.searchsorted(times, t, side="right") - 1
    return float(values[max(idx, 0)])


def window_grid_indices(times: np.ndarray, start: float, anchor: float) -> np.ndarray:
    """Indices of grid times inside [start, anchor); empty means too coarse."""
    return np.nonzero((times >= start) & (times < anchor))[0]
