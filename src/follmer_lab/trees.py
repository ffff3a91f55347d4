"""Finite filtered probability spaces with exact rational arithmetic.

A :class:`FilteredTree` is a finite-horizon tree whose nodes at depth t are
the atoms of F_t.  Transition probabilities are exact ``fractions.Fraction``
values, strictly positive, summing to one over each sibling block; null
branches are modeled by omitting them.  F_0 is trivial: there is a single
root.  All processes, stopping times and conditional expectations on such a
tree are exact, so identities can be tested as equalities rather than up to
tolerances.

A tree file (:meth:`FilteredTree.from_json`) is valid exactly when the one
breadth-first walk of :class:`FilteredTree` accepts it; each broken rule is
a :class:`TreeValidationError` naming the node where there is one:

- the top level is an object with a ``nodes`` list and a ``horizon`` that
  is an integer >= 0 (not a boolean);
- each node is an object with an ``id``, unique among the nodes; exactly
  one node has a null ``parent``, and every other parent names a node;
- ``state`` is absent, a string or null;
- ``prob`` (required below the root) and ``z`` are an integer or a
  rational string that :func:`frac` reads (``num/den``, or a decimal such
  as ``1.5`` or ``2e3`` whose exponent is within Python's digit limit for
  integers), never a boolean or a float;
- every node is reachable from the root, each sibling block has
  probabilities > 0 summing to exactly 1, and every leaf sits at the
  horizon;
- ``z`` is given at every node.

Faults are reported in this order: the top level and the horizon; node
entries, ids, states and ``prob`` values in file order as the nodes are
read; the root, unknown parents, the breadth-first walk (sibling blocks
and leaf depths) and unreachable nodes; then ``z`` values in file order
and missing ones.  A fault that concerns many nodes names the first five
and the total count.

Each distinct rational *string* is parsed once per file, probabilities and
process values each keeping one map from raw string to ``Fraction``; only
strings are looked up, since ``1``, ``1.0`` and ``True`` are equal and hash
alike but only the first is a valid value.  The hot checks run on integer
numerators and denominators instead of ``Fraction`` operations: a sibling
block's probabilities are summed as one numerator over a running
denominator, positivity and negativity are read from the numerator's sign,
and the supermartingale verdict at a node compares the cross-products
num * b and a * den of its one-step mean num/den and its value a/b.  Where
the mean equals Z[n], the stored mean *is* Z[n]'s value object, so readers
of the means skip the arithmetic of a martingale step by an identity test.

Each node id is one object.  The walk links every child to its parent's
own id object and keys the children by the ids it walks, so the tree holds
no second copy of an id and looking a node up is an identity hit.  Children
are tuples in file order, and every leaf's is the one empty tuple.
:meth:`FilteredTree.from_json` owns the document it parses, so it feeds the
build a node list that it consumes: each entry and its strings are freed as
the build takes them, and the document is never whole beside the tree.

Path probabilities are shared objects.  The walk reads each parsed
probability's numerator and denominator once, and computes a path
probability once per pair of objects (the parent's path probability, the
edge probability).  On a tree whose edges at a depth carry one string, all
nodes at a depth share one ``Fraction``: the depth-13 binary tree makes 13
products instead of 8,191.

:func:`write_json` writes the library's one JSON format, the bytes of
``json.dumps(obj, indent=1, sort_keys=True)`` plus a final newline.  With
an indent, ``json`` encodes in pure Python, piece by piece.  So the writer
walks the nested containers itself, sorting each dict's items as
``sorted(d.items())``, and hands every *leaf* container (one whose values
are all strings, numbers, booleans or null) to the C encoder.  That
encoder is built with the indent of the leaf's items as its item
separator.  A list of non-empty leaf dicts, such as a pair's outcome rows
or a tree's nodes, goes to the C encoder as a list, and the writer then
puts each row's brackets on lines of their own.  The C encoder keeps every
piece of its output as a string until it joins them, several times the
text's size.  So each call gets at most ``_CHUNK`` items or rows, and no
whole-document string or list of fragments is ever built.

Stopping times are represented extensionally: an antichain of nodes plus the
paths that never stop.  A stopping time is *finite* when every leaf passes
through a stop node.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .errors import EnumerationCapError, FollmerLabError, NotSupermartingaleError, TreeValidationError

DEFAULT_ENUMERATION_CAP = 10**6


# the exponent of a decimal string, as ``Fraction(str)`` reads it
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def frac(x) -> Fraction:
    """Parse a rational from an int, Fraction, or rational string.

    Plain ASCII ``digits/digits`` strings, the form :func:`frac_str` writes
    for nonnegative values, are split and read with ``int``; every other
    string goes through ``Fraction(str)``, so decimals such as ``"1.5"``
    and ``"2e3"`` are read too.  An exponent of magnitude above
    ``sys.get_int_max_str_digits()`` is a ``ValueError`` before any work:
    ``Fraction`` would compute 10^e, and :func:`frac_str` could not print
    the result.  Anything else, booleans included, is a ``TypeError``.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        if slash and x.isascii() and num.isdigit() and den.isdigit():
            return Fraction(int(num), int(den))
        exp, limit = _EXPONENT.search(x), sys.get_int_max_str_digits()
        if exp and limit and abs(int(exp[1])) > limit:
            raise ValueError(f"exponent {exp[1]} is beyond the {limit}-digit limit for integers")
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _node_rational(x, node: str, what: str) -> Fraction:
    """:func:`frac` for a value read from a tree file, naming the node and the reason on failure.

    A value of the wrong type (a float, a boolean) gets the form to write
    it in; a string that :func:`frac` refuses gets the refusal's reason.
    """
    try:
        return frac(x)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, TypeError):
            reason = "write it as an integer or a 'num/den' string"
        elif isinstance(exc, ZeroDivisionError):
            reason = "its denominator is 0"
        else:
            reason = str(exc)
        raise TreeValidationError(
            f"{what} at node {node!r} is not an exact rational: {x!r} ({reason})",
            node=node,
        ) from exc


def _some_ids(ids: List[str], total: int) -> str:
    """``k of total nodes: 'a', 'b', ...``, naming at most the first five of ``ids``."""
    shown = ", ".join(repr(n) for n in ids[:5])
    return f"{len(ids)} of {total} nodes: {shown}{', ...' if len(ids) > 5 else ''}"


def frac_str(x: Fraction) -> str:
    """Serialize a rational as a decimal-free 'num/den' string (bit-exact)."""
    return f"{x.numerator}/{x.denominator}"


def _frac_strs(values: Dict[str, Fraction]) -> Dict[str, str]:
    """``{n: frac_str(v)}`` in ``values``' order, formatting each value object once.

    Processes share one ``Fraction`` object across many nodes.  ``values``
    keeps every object alive for the call, so its ``id`` names it.
    """
    text: Dict[int, str] = {}
    out = {}
    for n, v in values.items():
        s = text.get(id(v))
        if s is None:
            s = text[id(v)] = frac_str(v)
        out[n] = s
    return out


def read_json(path: str):
    """The JSON value in the file at ``path``.

    A value nested too deeply for the parser is refused as a
    :class:`FollmerLabError` naming the file, not left as a
    ``RecursionError`` that would pass for a program fault.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise FollmerLabError(f"{path}: JSON nested too deeply to read") from None


def write_json(path: str, obj) -> None:
    """Write ``obj`` as the library's one JSON format: indent 1, sorted keys, final newline.

    The bytes are those of ``json.dumps(obj, indent=1, sort_keys=True)``
    and a newline; the module docstring says how they are produced.
    """
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh.write, obj, 0, "")
        fh.write("\n")


# Items (or rows) per C-encoder call: bounds what the writer holds at once.
_CHUNK = 64
# The value types the C encoder writes in place; a leaf container holds only these.
_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.lru_cache(maxsize=None)
def _encoder(level: int, sort_keys: bool) -> Callable[[object], str]:
    """One-shot (C) encoding that starts each item on a line indented ``level`` spaces."""
    return json.JSONEncoder(separators=(",\n" + " " * level, ": "), sort_keys=sort_keys).encode


def _is_rows(obj) -> bool:
    """True for a list of non-empty dicts whose values are all scalars."""
    return (
        {dict}.issuperset(map(type, obj))
        and all(obj)
        and _SCALARS.issuperset(map(type, chain.from_iterable(map(dict.values, obj))))
    )


def _write_json(write, obj, level: int, lead: str) -> None:
    """Write ``lead``, then ``obj`` laid out as ``json.dump(indent=1, sort_keys=True)`` at ``level``."""
    if isinstance(obj, dict):
        items, values, opening, closing = sorted(obj.items()), obj.values(), "{", "}"
    elif isinstance(obj, (list, tuple)):
        items = values = obj
        opening, closing = "[", "]"
    else:
        write(lead + _encoder(0, False)(obj))
        return
    if not items:
        write(lead + opening + closing)
        return
    inner, deeper = "\n" + " " * (level + 1), "\n" + " " * (level + 2)
    lead += opening + inner
    if _SCALARS.issuperset(map(type, values)):
        # a leaf container: the encoder writes its items, one chunk per call
        encode = _encoder(level + 1, False)
        for i in range(0, len(items), _CHUNK):
            chunk = items[i : i + _CHUNK]
            write(lead + encode(dict(chunk) if opening == "{" else chunk)[1:-1])
            lead = "," + inner
    elif opening == "[" and _is_rows(obj):
        # rows: the encoder writes a chunk of rows as one list whose only
        # "},<line break>{" are the row breaks (a string holds no raw line
        # break), and each break gets the lines the rows' brackets stand on
        encode = _encoder(level + 2, True)
        row_break = "}," + deeper + "{"
        for i in range(0, len(obj), _CHUNK):
            rows = encode(obj[i : i + _CHUNK])[2:-2]
            rows = rows.replace(row_break, inner + "}," + inner + "{" + deeper)
            write(lead + "{" + deeper + rows + inner + "}")
            lead = "," + inner
    else:
        for item in items:
            if opening == "{":
                key, item = item
                lead += _key(key) + ": "
            _write_json(write, item, level + 1, lead)
            lead = "," + inner
    write("\n" + " " * level + closing)


def _key(key) -> str:
    """A dict key as ``json`` writes it: a string, or the JSON text of a number, bool or null, quoted."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        key = _encoder(0, False)(key)
    return _encoder(0, False)(key)


class FilteredTree:
    """Finite filtered tree: nodes, parent links, exact edge probabilities.

    Node ids are strings, one object per node.  The root has depth 0 and no
    parent; every leaf has depth ``horizon``; every internal node has at
    least one child whose edge probabilities are > 0 and sum to exactly 1.
    ``children`` maps each node to a tuple of its children in file order
    (``()`` at a leaf).  Nodes may carry a state label from a finite
    alphabet (used by freeze-state constructions).

    The constructor fixes the breadth-first node order and the start of
    each depth level in it, and every walk reads those; processes and pairs
    memoise their verdicts and survivor masses per tree object.  So
    instances must not be mutated after construction; they are safe to
    share.
    """

    def __init__(self, horizon: int, nodes: Iterable[dict]):
        if isinstance(horizon, bool) or not isinstance(horizon, int):
            raise TreeValidationError(f"horizon must be an integer, got {horizon!r}")
        if horizon < 0:
            raise TreeValidationError(f"horizon must be >= 0, got {horizon}")
        self.horizon = horizon
        # every parent link is set by the walk, to the parent's own id object
        self.parent: Dict[str, Optional[str]] = {}
        self.prob: Dict[str, Fraction] = {}
        self.state: Dict[str, Optional[str]] = {}
        parent, prob, state_of = self.parent, self.prob, self.state
        # each parent's children in file order, keyed by the parent id as the
        # first child's entry spells it, only until the walk reaches the parent
        kids_of: Dict[str, List[str]] = {}
        # each distinct probability string parsed once, and each parsed
        # value's numerator and denominator read once, keyed by its id
        seen: Dict[str, Fraction] = {}
        parts: Dict[int, Tuple[int, int]] = {}
        one = Fraction(1)
        roots: List[str] = []
        for k, spec in enumerate(nodes):
            if not isinstance(spec, dict) or "id" not in spec:
                raise TreeValidationError(
                    f"node entry {k} must be an object with an 'id', got {spec!r}"
                )
            nid = spec["id"]
            if type(nid) is not str:
                nid = str(nid)
            if nid in parent:
                raise TreeValidationError(f"duplicate node id {nid!r}", node=nid)
            par = spec.get("parent")
            if par is not None and type(par) is not str:
                par = str(par)
            state = spec.get("state")
            if state is not None and not isinstance(state, str):
                raise TreeValidationError(
                    f"state at node {nid!r} must be a string or null, got {state!r}",
                    node=nid,
                )
            parent[nid] = None
            state_of[nid] = state
            if par is None:
                prob[nid] = one
                roots.append(nid)
                continue
            raw = spec.get("prob")
            if raw is None:
                raise TreeValidationError(
                    f"non-root node {nid!r} needs an edge probability", node=nid
                )
            p = seen.get(raw) if type(raw) is str else None
            if p is None:
                p = _node_rational(raw, nid, "edge probability")
                parts[id(p)] = p.numerator, p.denominator
                if type(raw) is str:
                    seen[raw] = p
            prob[nid] = p
            kids = kids_of.get(par)
            if kids is None:
                kids_of[par] = [nid]
            else:
                kids.append(nid)
        if len(roots) != 1:
            raise TreeValidationError(f"need exactly one root, got {len(roots)}")
        if not kids_of.keys() <= parent.keys():
            nid, par = next((c, p) for p, kids in kids_of.items() if p not in parent for c in kids)
            raise TreeValidationError(
                f"node {nid!r} references unknown parent {par!r}", node=nid
            )

        # One breadth-first walk fixes the node order, the start of each
        # depth level in it, the depths, parent links, children, path
        # probabilities and leaves, and checks each sibling block and each
        # leaf's depth as it reaches them.
        root = self.root = roots[0]
        depth: Dict[str, int] = {root: 0}
        path_prob: Dict[str, Fraction] = {root: one}
        children: Dict[str, Tuple[str, ...]] = {}
        leaves: List[str] = []
        order: List[str] = [root]
        levels: List[int] = [0]
        # path probability per (parent's path-probability object, edge
        # probability object), both alive in the tree while the walk runs:
        # equal strings parse to one object, so a uniform level shares one
        # product and one object
        products: Dict[Tuple[int, int], Fraction] = {}
        for n in order:  # grows as the walk appends children
            kids = kids_of.pop(n, None)
            d = depth[n]
            if kids is None:
                if d != horizon:
                    raise TreeValidationError(
                        f"leaf {n!r} has depth {d}, horizon is {horizon}", node=n
                    )
                children[n] = ()
                leaves.append(n)
                continue
            kids = children[n] = tuple(kids)
            if len(levels) == d + 1:
                levels.append(len(order))
            # the block's sum as num/den over a running denominator
            pp, below = path_prob[n], d + 1
            num, den, last = 0, 1, None
            for c in kids:
                p = prob[c]
                if p is not last:  # a run of siblings of one parsed value skips this
                    a, b = parts[id(p)]
                    if a <= 0:
                        raise TreeValidationError(
                            f"edge probability into {c!r} must be > 0, got {p}", node=c
                        )
                    last, key = p, (id(pp), id(p))
                    q = products.get(key)
                    if q is None:
                        q = products[key] = pp * p
                if b == den:
                    num += a
                else:
                    num, den = num * b + a * den, den * b
                parent[c] = n
                depth[c] = below
                path_prob[c] = q
                order.append(c)
            if num != den:
                raise TreeValidationError(
                    f"child probabilities at {n!r} sum to {Fraction(num, den)}, not 1",
                    node=n,
                )
        levels.append(len(order))
        self.children, self.depth, self.path_prob, self.leaves = children, depth, path_prob, leaves
        self._order, self._levels = order, levels
        if len(order) != len(parent):
            missing = sorted(set(parent) - set(depth))
            raise TreeValidationError(
                f"{_some_ids(missing, len(parent))} unreachable from root",
                node=missing[0],
            )

    # -- structure helpers -------------------------------------------------

    def iter_nodes(self) -> Iterator[str]:
        """Nodes in breadth-first (nondecreasing depth) order."""
        return iter(self._order)

    def nodes_at_depth(self, t: int) -> List[str]:
        """The depth-t nodes in breadth-first order; empty outside 0..horizon."""
        if not 0 <= t < len(self._levels) - 1:
            return []
        return self._order[self._levels[t] : self._levels[t + 1]]

    def is_leaf(self, n: str) -> bool:
        return not self.children[n]

    def path_to(self, n: str) -> List[str]:
        """Node ids from the root down to ``n`` inclusive."""
        path = [n]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        path.reverse()
        return path

    def ancestor_at(self, n: str, t: int) -> str:
        """The depth-t node on the path of ``n`` (t <= depth(n))."""
        if t > self.depth[n]:
            raise ValueError(f"node {n!r} has depth {self.depth[n]} < {t}")
        while self.depth[n] > t:
            n = self.parent[n]
        return n

    # -- serialization -----------------------------------------------------

    def to_dict(self, z: "AdaptedProcess") -> dict:
        nodes = []
        for n in self.iter_nodes():
            entry: dict = {"id": n, "parent": self.parent[n]}
            if self.parent[n] is not None:
                entry["prob"] = frac_str(self.prob[n])
            if self.state[n] is not None:
                entry["state"] = self.state[n]
            entry["z"] = frac_str(z[n])
            nodes.append(entry)
        return {"horizon": self.horizon, "nodes": nodes}

    @classmethod
    def from_json(cls, path: str) -> Tuple["FilteredTree", "AdaptedProcess"]:
        """The tree and process in the tree file at ``path``.

        The parsed document is this call's own, so the build consumes its
        node list: each entry and its strings are freed as the build takes
        them, and the whole document never sits beside the whole tree.
        """
        data = read_json(path)
        if not isinstance(data, dict) or not isinstance(data.get("nodes"), list):
            raise TreeValidationError("a tree file must be an object with a 'nodes' list")
        nodes = data["nodes"]
        # z is parsed once the tree has accepted every entry, so its faults
        # come after every tree fault, in file order
        raw_z = [spec.get("z") if isinstance(spec, dict) else None for spec in nodes]
        # the entries reversed above a stop mark, popped in file order
        end = object()
        nodes.append(end)
        nodes.reverse()
        tree = cls(data.get("horizon"), iter(nodes.pop, end))
        # the tree accepted every entry, so its parent map lists their ids
        # in file order
        seen: Dict[str, Fraction] = {}
        zvals: Dict[str, Fraction] = {}
        for nid, raw in zip(tree.parent, raw_z):
            if raw is None:
                continue
            v = seen.get(raw) if type(raw) is str else None
            if v is None:
                v = _node_rational(raw, nid, "process value")
                if type(raw) is str:
                    seen[raw] = v
            zvals[nid] = v
        if len(zvals) != len(raw_z):
            missing = [n for n in tree._order if n not in zvals]
            raise TreeValidationError(
                f"process values missing at {_some_ids(missing, len(tree.parent))}",
                node=missing[0],
            )
        return tree, AdaptedProcess(zvals)

    def to_json(self, path: str, z: "AdaptedProcess") -> None:
        write_json(path, self.to_dict(z))


@dataclass(frozen=True)
class AdaptedProcess:
    """One exact rational per node; adaptedness is structural.

    The one-step means and the supermartingale verdict are memoised per
    tree on the instance (see :func:`require_supermartingale`), so ``values``
    must not be mutated after construction: build a new process instead.
    """

    values: Dict[str, Fraction]
    _one_step: Dict[
        "FilteredTree", Tuple[Dict[str, Fraction], "SupermartingaleReport"]
    ] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getitem__(self, node: str) -> Fraction:
        return self.values[node]

    def to_dict(self) -> Dict[str, str]:
        return _frac_strs(self.values)


@dataclass(frozen=True)
class PredictableProcess:
    """Values attach one step early: the time-(t+1) value lives on the depth-t node.

    ``initial`` is the time-0 value (root); ``steps[n]`` is the process value
    at time depth(n)+1, shared by all children of ``n`` — predictability is
    structural in this encoding.
    """

    initial: Fraction
    steps: Dict[str, Fraction]

    def value_on(self, tree: FilteredTree, node: str) -> Fraction:
        """Process value at time depth(node) along the path through ``node``."""
        par = tree.parent[node]
        return self.initial if par is None else self.steps[par]

    def to_dict(self) -> dict:
        return {
            "initial": frac_str(self.initial),
            "steps": _frac_strs(self.steps),
        }


@dataclass(frozen=True)
class StoppingTime:
    """An antichain of stop nodes; paths missing the antichain never stop."""

    nodes: frozenset

    @classmethod
    def constant(cls, tree: FilteredTree, t: int) -> "StoppingTime":
        if not 0 <= t <= tree.horizon:
            raise ValueError(f"time {t} outside [0, {tree.horizon}]")
        return cls(frozenset(tree.nodes_at_depth(t)))


# -- operations -------------------------------------------------------------


def one_step_expectation(tree: FilteredTree, x: AdaptedProcess, node: str) -> Fraction:
    """E[X_{t+1} | F_t] at an internal node: probability-weighted child average.

    ``x`` may be any node-indexed map of rationals.  The sum is accumulated
    as one integer numerator over one integer denominator and normalised
    once, which is the same exact value as summing the ``Fraction`` terms.
    """
    return Fraction(*_one_step_sum(tree, x, node))


def _one_step_sum(tree: FilteredTree, x, node: str) -> Tuple[int, int]:
    """The one-step mean at ``node`` as unreduced integers (num, den > 0), zero terms skipped."""
    num, den = 0, 1
    prob = tree.prob
    for c in tree.children[node]:
        v = x[c]
        a = v.numerator
        if a:
            p = prob[c]
            d = p.denominator * v.denominator
            if d == den:
                num += p.numerator * a
            else:
                num, den = num * d + p.numerator * a * den, den * d
    return num, den


@dataclass(frozen=True)
class SupermartingaleReport:
    is_martingale: bool
    first_violation_node: Optional[str] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.first_violation_node is None


def is_supermartingale(tree: FilteredTree, z: AdaptedProcess) -> SupermartingaleReport:
    """Check Z >= 0, Z_0 = 1 and E[Z_{t+1}|F_t] <= Z_t at every internal node.

    Exact comparisons throughout; ``is_martingale`` reports equality at every
    internal node.  The first negative value (breadth-first) is reported
    before a wrong initial value, and that before the first one-step
    violation.  The verdict is memoised with the one-step means that
    :func:`require_supermartingale` returns.
    """
    return _one_step(tree, z)[1]


def require_supermartingale(tree: FilteredTree, z: AdaptedProcess) -> Dict[str, Fraction]:
    """E[Z_{t+1} | F_t] at every internal node, in breadth-first order.

    Raises :class:`NotSupermartingaleError` unless Z is a supermartingale.
    Computed once per (tree, z), in the pass that decides
    :func:`is_supermartingale`, and memoised with that verdict on ``z``.
    Where the mean equals Z[n] the value is ``z.values[n]`` itself, so
    ``means[n] is z.values[n]`` exactly at the martingale steps.  The dict
    is shared: callers must not mutate it.
    """
    rep = is_supermartingale(tree, z)
    if not rep.ok:
        raise NotSupermartingaleError(
            f"not a supermartingale: {rep.reason} at node {rep.first_violation_node!r}",
            node=rep.first_violation_node,
        )
    return _one_step(tree, z)[0]


def _one_step(
    tree: FilteredTree, z: AdaptedProcess
) -> Tuple[Dict[str, Fraction], SupermartingaleReport]:
    """The one-step means and the verdict, from one pass over the nodes (memoised on z).

    Signs and comparisons are read from integers: the mean num/den at n
    against Z[n] = a/b by num * b and a * den.  Where they are equal the mean
    stored is Z[n]'s own value and no ``Fraction`` is built.
    """
    memo = z._one_step.get(tree)
    if memo is not None:
        return memo
    means: Dict[str, Fraction] = {}
    negative = exceeded = None
    martingale = True
    vals, children = z.values, tree.children
    for n in tree._order:
        v = vals[n]
        a = v.numerator
        if a < 0 and negative is None:
            negative = n
        if children[n]:
            num, den = _one_step_sum(tree, vals, n)
            lhs, rhs = num * v.denominator, a * den
            if lhs == rhs:
                means[n] = v
                continue
            means[n] = Fraction(num, den)
            martingale = False
            if lhs > rhs and exceeded is None:
                exceeded = n
    root = tree.root
    if negative is not None:
        rep = SupermartingaleReport(False, negative, "negative value")
    elif vals[root].numerator != vals[root].denominator:
        rep = SupermartingaleReport(False, root, f"initial value {z[root]} != 1")
    elif exceeded is not None:
        reason = f"one-step mean {means[exceeded]} exceeds {z[exceeded]}"
        rep = SupermartingaleReport(False, exceeded, reason)
    else:
        rep = SupermartingaleReport(martingale)
    z._one_step[tree] = means, rep
    return means, rep


def count_stopping_times(tree: FilteredTree) -> int:
    """Number of antichain stopping times, by the product recursion.

    Independent of the enumeration: a node's count is 1 (stop here) plus the
    product of its children's counts; a leaf contributes 2.
    """
    counts: Dict[str, int] = {}
    for n in reversed(list(tree.iter_nodes())):
        if tree.is_leaf(n):
            counts[n] = 2
        else:
            prod = 1
            for c in tree.children[n]:
                prod *= counts[c]
            counts[n] = 1 + prod
    return counts[tree.root]


def enumerate_stopping_times(
    tree: FilteredTree, cap: int = DEFAULT_ENUMERATION_CAP
) -> List[StoppingTime]:
    """All antichain stopping times, duplicate-free, including constants and never.

    Exponential in the tree size: the library certifies per node instead,
    and this list is the oracle those certificates are tested against on
    small trees.  Refuses with :class:`EnumerationCapError` when the exact
    count exceeds ``cap`` (computed up front, without enumerating).
    """
    count = count_stopping_times(tree)
    if count > cap:
        raise EnumerationCapError(count, cap)

    # bottom-up over the breadth-first order, each node's antichains built
    # from its children's: no recursion, so long chains cannot overflow
    below: Dict[str, List[frozenset]] = {}
    for n in reversed(tree._order):
        partial: List[frozenset] = [frozenset()]
        for c in tree.children[n]:
            child_choices = below.pop(c)
            partial = [p | q for p in partial for q in child_choices]
        partial.append(frozenset([n]))
        below[n] = partial
    return [StoppingTime(s) for s in below[tree.root]]
