"""Constructive measure extension on finite spaces, and the dyadic demo.

Outer content over a finite sub-algebra, the one-set extension that
assigns a new set its outer content (via the minimal measurable cover), and
the dyadic-interval family of atomic measures that agree with a reference
measure on every finite level of the dyadic filtration while loading full
mass onto a countable set of representatives.

The dyadic intervals nest: every interval of level <= n is a union of
level-n intervals.  So a level-n measure that puts each level-n interval's
reference weight on a point inside that interval agrees with the reference
measure on every coarser level too, and ``dyadic_demo`` checks agreement
with one comparison per representative instead of scanning intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from .trees import frac


@dataclass(frozen=True)
class FiniteMeasurableSpace:
    """Disjoint nonempty blocks of atoms, one rational mass per block; the atoms are their union."""

    blocks: Tuple[FrozenSet[str], ...]
    mass: Tuple[Fraction, ...]

    def __post_init__(self):
        seen: set = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if seen & b:
                raise ValueError(f"blocks overlap at {sorted(seen & b)}")
            seen |= b
        if len(self.mass) != len(self.blocks):
            raise ValueError("need one mass per block")
        if any(m < 0 for m in self.mass):
            raise ValueError("negative block mass")
        if sum(self.mass, Fraction(0)) != 1:
            raise ValueError("block masses must sum to 1")

    @classmethod
    def build(cls, blocks: Sequence[Iterable[str]], mass) -> "FiniteMeasurableSpace":
        return cls(tuple(frozenset(map(str, b)) for b in blocks), tuple(frac(m) for m in mass))

    @property
    def atoms(self) -> Tuple[str, ...]:
        """The union of the blocks, sorted."""
        return tuple(sorted(set().union(*self.blocks)))

    def measure(self, block_union: FrozenSet[str]) -> Fraction:
        """Mass of a union of blocks (must be measurable)."""
        total = Fraction(0)
        rest = set(block_union)
        for b, m in zip(self.blocks, self.mass):
            if b <= rest:
                total += m
                rest -= b
            elif b & rest:
                raise ValueError("set is not a union of blocks")
        if rest:
            raise ValueError(f"unknown atoms {sorted(rest)}")
        return total


def outer_content(space: FiniteMeasurableSpace, a: Iterable[str]) -> Fraction:
    """Minimal mass of a block-union covering ``a``: blocks meeting ``a``."""
    a = set(a)
    _check_atoms(space, a)
    return sum(
        (m for b, m in zip(space.blocks, space.mass) if b & a), Fraction(0)
    )


def _check_atoms(space: FiniteMeasurableSpace, a: set) -> None:
    unknown = a - set(space.atoms)
    if unknown:
        raise ValueError(f"unknown atoms {sorted(unknown)}")


def bierlein_extend(space: FiniteMeasurableSpace, a: Iterable[str]) -> FiniteMeasurableSpace:
    """One-set extension giving ``a`` its outer content.

    The extension lives on the algebra generated by the blocks and ``a``,
    so the returned space's blocks are its atoms, the nonempty pieces
    block-and-A and block-minus-A.  It uses the minimal measurable cover:
    a block meeting ``a`` is charged on its A-part and its rest gets mass 0,
    and a block outside the cover stays whole.  So the extension restricts
    to mu on the blocks and gives ``a`` its outer content.
    """
    a = frozenset(str(x) for x in a)
    _check_atoms(space, set(a))
    blocks: List[FrozenSet[str]] = []
    mass: List[Fraction] = []
    for b, m in zip(space.blocks, space.mass):
        inside = b & a or b
        blocks.append(inside)
        mass.append(m)
        if inside != b:
            blocks.append(b - inside)
            mass.append(Fraction(0))
    return FiniteMeasurableSpace(tuple(blocks), tuple(mass))


# -- dyadic representative measures -------------------------------------------


def _representative(n: int, k: int) -> Fraction:
    """The rational in (k/2^n, (k+1)/2^n] with the smallest denominator, then numerator.

    At denominator q the smallest numerator above k/2^n is floor(q k/2^n) + 1;
    the first q at which it stays <= (k+1)/2^n is at most 2^n, and the
    fraction found there is already in lowest terms.
    """
    q = 1
    while (q * k // 2**n + 1) * 2**n > q * (k + 1):
        q += 1
    return Fraction(q * k // 2**n + 1, q)


@dataclass
class DyadicLevel:
    """One level n of the demo; ``DyadicDemoReport.levels`` lists n = 1, 2, ... in order."""

    agrees_on_level_algebra: bool
    representative_set_mass: Fraction


@dataclass
class DyadicDemoReport:
    levels: List[DyadicLevel]

    @property
    def ok(self) -> bool:
        return all(
            lv.agrees_on_level_algebra and lv.representative_set_mass == 1
            for lv in self.levels
        )


def dyadic_demo(n_max: int, weights: Sequence) -> DyadicDemoReport:
    """Run the agreement/disagreement demo across all levels.

    It illustrates that agreement on every finite level of a filtration does
    not pin a measure down: each level measure matches the reference measure
    on the dyadic intervals up to its level, yet all of them charge only a
    countable set of representatives.

    The reference measure lives on the level-``n_max`` dyadic partition of
    (0, 1]: ``weights`` are its 2^n_max interval masses, exact, nonnegative
    and summing to 1, and n_max is at least 1; anything else is refused
    with a ``ValueError``.  For each n <= n_max the level-n measure puts the
    mass of each level-n interval, the sum of the weights inside it, onto
    that interval's representative: the rational inside it with the
    smallest denominator, then the smallest numerator
    (:func:`_representative`).

    The dyadic intervals nest (module docstring), so the level-n measure
    gives every dyadic interval of level <= n its reference weight once
    each level-n representative lies in its own level-n interval: one check
    per representative.  Each level-n atom is a representative, so the
    representative set carries the sum of the level-n weights.  The
    reference measure is known only through its interval weights, which do
    not determine its mass on a finite set, so no such mass is reported.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    weights = [frac(w) for w in weights]
    if len(weights) != 2**n_max:
        raise ValueError(f"need {2 ** n_max} interval weights at level {n_max}, got {len(weights)}")
    if any(w < 0 for w in weights) or sum(weights, Fraction(0)) != 1:
        raise ValueError("weights must be a probability vector")
    levels: List[DyadicLevel] = []
    for n in range(1, n_max + 1):
        span = 2 ** (n_max - n)  # level-n_max intervals in one level-n interval
        agrees = all(k < _representative(n, k) * 2**n <= k + 1 for k in range(2**n))
        masses = (sum(weights[k * span : (k + 1) * span], Fraction(0)) for k in range(2**n))
        levels.append(DyadicLevel(agrees, sum(masses, Fraction(0))))
    return DyadicDemoReport(levels)
