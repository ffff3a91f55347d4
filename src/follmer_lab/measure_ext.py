"""Constructive measure extension on finite spaces, and the dyadic demo.

Inner/outer content over a finite sub-algebra, the one-set extension that
assigns a new set its outer content (via the minimal measurable cover), and
the dyadic-interval family of atomic measures that agree with a reference
measure on every finite level of the dyadic filtration while loading full
mass onto a countable set of representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .trees import frac


@dataclass(frozen=True)
class FiniteMeasurableSpace:
    """Finitely many atoms, a partition into blocks, one rational mass per block."""

    atoms: Tuple[str, ...]
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
        if seen != set(self.atoms):
            raise ValueError("blocks do not partition the atoms")
        if len(self.mass) != len(self.blocks):
            raise ValueError("need one mass per block")
        if any(m < 0 for m in self.mass):
            raise ValueError("negative block mass")
        if sum(self.mass, Fraction(0)) != 1:
            raise ValueError("block masses must sum to 1")

    @classmethod
    def build(cls, blocks: Sequence[Iterable[str]], mass) -> "FiniteMeasurableSpace":
        bl = tuple(frozenset(map(str, b)) for b in blocks)
        atoms = tuple(sorted(set().union(*bl)))
        return cls(atoms, bl, tuple(frac(m) for m in mass))

    def block_of(self, atom: str) -> int:
        for i, b in enumerate(self.blocks):
            if atom in b:
                return i
        raise KeyError(atom)

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


def inner_content(space: FiniteMeasurableSpace, a: Iterable[str]) -> Fraction:
    """Maximal mass of a block-union inside ``a``: blocks contained in ``a``."""
    a = set(a)
    _check_atoms(space, a)
    return sum(
        (m for b, m in zip(space.blocks, space.mass) if b <= a), Fraction(0)
    )


def _check_atoms(space: FiniteMeasurableSpace, a: set) -> None:
    unknown = a - set(space.atoms)
    if unknown:
        raise ValueError(f"unknown atoms {sorted(unknown)}")


@dataclass(frozen=True)
class OneSetExtension:
    """The extension of mu to the algebra generated by the blocks and one set A.

    Atoms of the generated algebra are the nonempty pieces block-and-A and
    block-minus-A; ``piece_mass`` carries their masses.  By construction the
    extension restricts to mu on the blocks and gives A its outer content.
    """

    space: FiniteMeasurableSpace
    new_set: FrozenSet[str]
    piece_mass: Dict[FrozenSet[str], Fraction]

    def measure(self, s: Iterable[str]) -> Fraction:
        """Mass of any union of generated atoms."""
        s = frozenset(s)
        total = Fraction(0)
        covered: set = set()
        for piece, m in self.piece_mass.items():
            if piece <= s:
                total += m
                covered |= piece
            elif piece & s:
                raise ValueError("set not measurable in the generated algebra")
        if covered != set(s):
            raise ValueError(f"unknown atoms {sorted(set(s) - covered)}")
        return total

    def generated_atoms(self) -> List[FrozenSet[str]]:
        return list(self.piece_mass)


def bierlein_extend(space: FiniteMeasurableSpace, a: Iterable[str]) -> OneSetExtension:
    """One-set extension giving ``a`` its outer content.

    Uses the minimal measurable cover: pieces of blocks inside the cover are
    charged on their A-part, pieces outside on their complement part, so the
    block masses are preserved and the new set receives the outer content.
    """
    a = frozenset(str(x) for x in a)
    _check_atoms(space, set(a))
    piece_mass: Dict[FrozenSet[str], Fraction] = {}
    for b, m in zip(space.blocks, space.mass):
        inside = b & a
        outside = b - a
        if inside:  # block belongs to the minimal cover
            piece_mass[inside] = m
            if outside:
                piece_mass[outside] = Fraction(0)
        else:
            piece_mass[b] = m
    return OneSetExtension(space, a, piece_mass)


# -- dyadic representative measures -------------------------------------------


def default_dense_sequence(count: int) -> List[Fraction]:
    """An enumeration of rationals in (0, 1]: 1/1, 1/2, 1/3, 2/3, 1/4, 3/4, ...

    Ordered by denominator then numerator, in lowest terms.
    """
    out: List[Fraction] = []
    q = 1
    while len(out) < count:
        for p in range(1, q + 1):
            f = Fraction(p, q)
            if f.denominator == q:
                out.append(f)
                if len(out) >= count:
                    break
        q += 1
    return out


@dataclass
class DyadicLevel:
    level: int
    representatives: List[Fraction]  # one per interval (k 2^-n, (k+1) 2^-n]
    agrees_on_level_algebra: bool
    representative_set_mass: Fraction


@dataclass
class DyadicDemoReport:
    n_max: int
    levels: List[DyadicLevel]

    @property
    def ok(self) -> bool:
        return all(
            lv.agrees_on_level_algebra and lv.representative_set_mass == 1
            for lv in self.levels
        )


class DyadicFamily:
    """Atomic measures matching a reference measure on each dyadic level.

    The reference measure lives on the level-``n_max`` dyadic partition of
    (0, 1] via exact interval weights.  For each n <= n_max the level-n
    measure puts the mass of each level-n interval onto that interval's
    representative: the first member of a fixed countable dense sequence that
    falls inside it.
    """

    def __init__(
        self,
        n_max: int,
        weights: Sequence,
        dense_picks: Optional[Sequence] = None,
    ):
        if n_max < 1:
            raise ValueError("need n_max >= 1")
        self.n_max = n_max
        self.weights = [frac(w) for w in weights]
        if len(self.weights) != 2**n_max:
            raise ValueError(
                f"need {2 ** n_max} interval weights at level {n_max}, "
                f"got {len(self.weights)}"
            )
        if any(w < 0 for w in self.weights) or sum(self.weights, Fraction(0)) != 1:
            raise ValueError("weights must be a probability vector")
        if dense_picks is None:
            picks = default_dense_sequence(4 ** n_max + 64)
        else:
            picks = [frac(p) for p in dense_picks]
        self._picks = picks
        # first-hit representative per interval per level
        self.reps: Dict[int, List[Fraction]] = {}
        for n in range(1, n_max + 1):
            row: List[Fraction] = []
            for k in range(2**n):
                lo = Fraction(k, 2**n)
                hi = Fraction(k + 1, 2**n)
                rep = next((x for x in picks if lo < x <= hi), None)
                if rep is None:
                    raise ValueError(
                        f"no representative available in ({lo}, {hi}] at level {n}"
                    )
                row.append(rep)
            self.reps[n] = row

    def interval_weight(self, n: int, k: int) -> Fraction:
        """Reference mass of the level-n interval k (aggregated from level n_max)."""
        span = 2 ** (self.n_max - n)
        return sum(self.weights[k * span : (k + 1) * span], Fraction(0))

    def level_measure_of_points(self, n: int, points: Iterable[Fraction]) -> Fraction:
        pts = {frac(p) for p in points}
        return sum(
            (
                self.interval_weight(n, k)
                for k, rep in enumerate(self.reps[n])
                if rep in pts
            ),
            Fraction(0),
        )

    def level_measure_of_dyadic(self, n: int, level: int, k: int) -> Fraction:
        """Level-n measure of the dyadic interval (k 2^-level, (k+1) 2^-level]."""
        if level > n:
            raise ValueError("interval finer than the level measure")
        lo = Fraction(k, 2**level)
        hi = Fraction(k + 1, 2**level)
        return sum(
            (
                self.interval_weight(n, j)
                for j, rep in enumerate(self.reps[n])
                if lo < rep <= hi
            ),
            Fraction(0),
        )

    def reference_measure_of_dyadic(self, level: int, k: int) -> Fraction:
        span = 2 ** (self.n_max - level)
        return sum(self.weights[k * span : (k + 1) * span], Fraction(0))


def dyadic_demo(
    n_max: int,
    weights: Sequence,
    dense_picks: Optional[Sequence] = None,
) -> DyadicDemoReport:
    """Run the agreement/disagreement demo across all levels.

    Checks exact agreement of the level-n measure with the reference measure
    on every dyadic interval of every level <= n, and that the set of all
    representatives carries level mass one.  The reference measure is known
    only through its interval weights, which do not determine its mass on a
    finite set, so no such mass is reported.
    """
    fam = DyadicFamily(n_max, weights, dense_picks)
    all_reps = {r for row in fam.reps.values() for r in row}
    levels: List[DyadicLevel] = []
    for n in range(1, n_max + 1):
        agrees = all(
            fam.level_measure_of_dyadic(n, lv, k)
            == fam.reference_measure_of_dyadic(lv, k)
            for lv in range(1, n + 1)
            for k in range(2**lv)
        )
        rep_mass = fam.level_measure_of_points(n, all_reps)
        levels.append(DyadicLevel(n, fam.reps[n], agrees, rep_mass))
    return DyadicDemoReport(n_max, levels)
