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
        try:
            pts = list(np.arange(0.0, self.t_max, self.base_step))
        except (ValueError, MemoryError):  # numpy refuses the backbone's size
            raise GridError(f"cannot allocate t_max={self.t_max} / base_step={self.base_step} backbone points") from None
        pts.append(float(self.t_max))
        for anchor, length, n in self.refinements:
            if length <= 0 or n < 1:
                raise GridError(f"bad refinement ({anchor}, {length}, {n})")
            # log-spaced toward the anchor: anchor - length * r^j
            ratio = math.exp(-math.log(1e6) / n)  # shrink by 1e-6 over n points
            for j in range(n + 1):
                # scalar on purpose: numpy's vector power can differ from ** in the last bit
                t = anchor - length * ratio**j
                if 0.0 <= t <= self.t_max:
                    pts.append(t)
            if 0.0 <= anchor <= self.t_max:
                pts.append(float(anchor))
        for t in self.extra_points:
            if not 0.0 <= t <= self.t_max:
                raise GridError(f"extra point {t} outside [0, {self.t_max}]")
            pts.append(float(t))
        return np.unique(np.asarray(pts, dtype=np.float64))


def step_values(times: np.ndarray, values: np.ndarray, ts, side: str = "right") -> np.ndarray:
    """Values at every time in ``ts`` of a step path sampled at ``times``.

    ``side="right"`` reads the value at the last sample time <= t, and
    ``side="left"`` the one at the last sample time < t, the left limit.
    Times before the first sample read the first value.
    """
    idx = np.searchsorted(times, ts, side=side) - 1
    return np.asarray(values)[np.maximum(idx, 0)]


def grid_index(times: np.ndarray, t: float) -> int:
    """Index of the one grid time within 1e-12 of t; GridError if there is none or several."""
    idx = np.nonzero(np.isclose(times, t, rtol=0.0, atol=1e-12))[0]
    if idx.size == 0:
        raise GridError(f"time {t} is not a grid point")
    if idx.size > 1:
        raise GridError(f"time {t} is not a grid point: it is within 1e-12 of {idx.size} grid times")
    return int(idx[0])


def window_grid_indices(times: np.ndarray, start: float, anchor: float) -> slice:
    """The grid times inside [start, anchor), as a slice of the sorted grid; empty means too coarse.

    ``times`` increases strictly, as ``GridSpec.points`` returns it, so the
    times of any interval are one contiguous run of it.
    """
    return slice(*np.searchsorted(times, (start, anchor)).tolist())
