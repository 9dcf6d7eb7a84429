"""Group catalog with unique normal forms, Cayley balls, and their coset
families (``CayleyBall.cosets``).

Supported groups: free groups, free abelian groups, the discrete Heisenberg
group, and free products of those.  Each has a decidable canonical normal
form, so equality, multiplication and ball generation are exact.  An
element is its normal-form key, a hashable tuple, and equal keys are equal
elements:

* free(k)          freely reduced words, stored as (generator, exponent) runs
* free_abelian(d)  exponent vectors
* heisenberg       triples (p, q, r) for a^p b^q c^r with central c = [a, b];
                   multiplication law (p1,q1,r1)(p2,q2,r2) =
                   (p1+p2, q1+q2, r1+r2 - p2*q1)
* free_product     alternating nonempty (factor, factor key) syllables from
                   distinct factors

``GroupSpec.multiply`` and ``inverse`` validate their keys; a ball holds
its elements' keys in ball order (``CayleyBall.keys``), and ``index`` maps
a key to its ball index.

Ball labels write normal forms in the grammar

    word     := "e" | term (" " term)*
    term     := name | name "^" int          (int nonzero, may be negative)
    element  := word (" | " word)*           ("|" separates product syllables)
"""

from __future__ import annotations

import math
import operator
import re
from array import array
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import BUDGETS, InputError, ResourceLimitError
from .graph import Graph, SubgraphFamily

# Default generator letters; "e" is reserved for the identity.
_LETTERS = "abcdfghijklmnopqrstuvwxyz"

DEFAULT_BALL_BUDGET = 200_000

# Largest code range, per ball element, that a free abelian ball looks its
# translations up in through a dense table rather than a sorted search.
_DENSE_CODES_PER_ELEMENT = 16

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")

# The keys a JSON group description may hold besides its kind's own.
_JSON_KEYS = {"free": {"names"}, "free_abelian": {"names"}, "heisenberg": {"names"}, "free_product": set()}


def _default_names(count: int, start: int = 0) -> tuple[str, ...]:
    names = []
    for i in range(start, start + count):
        names.append(_LETTERS[i] if i < len(_LETTERS) else f"x{i}")
    return tuple(names)


def _check_names(names: Sequence[str] | None, count: int) -> tuple[str, ...]:
    """``count`` generator names: ``names``, or the default letters when
    None.  Each must be valid and distinct."""
    names = _default_names(count) if names is None else tuple(names)
    if len(names) != count:
        raise InputError(f"the group has {count} generators, but {len(names)} names are given")
    seen = set()
    for nm in names:
        if not _NAME_RE.match(nm) or nm == "e":
            raise InputError(f"bad generator name {nm!r}")
        if nm in seen:
            raise InputError(f"duplicate generator name {nm!r}")
        seen.add(nm)
    return names


@dataclass(frozen=True)
class GroupSpec:
    """Description of one catalog group.  Immutable and hashable."""

    kind: str  # "free" | "free_abelian" | "heisenberg" | "free_product"
    rank: int = 0
    generator_names: tuple[str, ...] = ()
    factors: tuple["GroupSpec", ...] = ()
    include_central: bool = False  # heisenberg: expose c^±1 as ball generators

    # -- elements: normal-form keys -------------------------------------

    def identity(self):
        if self.kind == "free_abelian":
            return (0,) * self.rank
        if self.kind == "heisenberg":
            return (0, 0, 0)
        return ()

    def multiply(self, x, y):
        """x·y, after validating that both are normal forms."""
        self._validate(x)
        self._validate(y)
        return self._mul(x, y)

    def inverse(self, x):
        self._validate(x)
        return self._inv(x)

    def generators(self) -> list[tuple[str, object]]:
        """Symmetric generating set as (display name, key), closed under
        formal inversion; order is declaration order with g before g^-1."""
        out = []
        for name, key in self._generator_keys():
            out += [(name, key), (f"{name}^-1", self._inv(key))]
        return out

    def format(self, key) -> str:
        """The normal form ``key`` as ball-label text."""
        if self.kind == "free":
            if not key:
                return "e"
            return " ".join(_term(self.generator_names[g], e) for g, e in key)
        if self.kind in ("free_abelian", "heisenberg"):
            terms = [_term(nm, e) for nm, e in zip(self.generator_names, key) if e]
            return " ".join(terms) if terms else "e"
        if not key:
            return "e"
        return " | ".join(self.factors[i].format(k) for i, k in key)

    # -- JSON form -------------------------------------------------------

    def to_json(self) -> dict:
        if self.kind == "free":
            return {"free": self.rank, "names": list(self.generator_names)}
        if self.kind == "free_abelian":
            return {"free_abelian": self.rank, "names": list(self.generator_names)}
        if self.kind == "heisenberg":
            return {
                "heisenberg": {"include_central": self.include_central},
                "names": list(self.generator_names),
            }
        return {"free_product": [f.to_json() for f in self.factors]}

    @classmethod
    def from_json(cls, obj: dict) -> "GroupSpec":
        """The group ``obj`` describes, as ``to_json`` writes it.  Unknown
        keys, a ``names`` list of the wrong length and a ``heisenberg``
        value that is not an object of known options are refused, so that a
        description never builds a group other than the one it names."""
        kinds = set(obj) & set(_JSON_KEYS) if isinstance(obj, dict) else set()
        if len(kinds) != 1:
            raise InputError(f"not a group description: {obj!r}")
        kind = kinds.pop()
        unknown = sorted(set(obj) - {kind} - _JSON_KEYS[kind])
        if unknown:
            raise InputError(f"unknown key {unknown[0]!r} in {kind} group description")
        names = obj.get("names")
        if names is not None and not (isinstance(names, list) and all(isinstance(nm, str) for nm in names)):
            raise InputError(f"group names must be a list of strings: {names!r}")
        if kind == "free_product":
            if not isinstance(obj[kind], list):
                raise InputError(f"free_product must be a list of groups: {obj[kind]!r}")
            return free_product(*[cls.from_json(f) for f in obj[kind]])
        if kind == "heisenberg":
            opts = obj[kind]
            if not isinstance(opts, dict) or set(opts) - {"include_central"} \
                    or not isinstance(opts.get("include_central", False), bool):
                raise InputError(f"heisenberg takes an object with an optional boolean include_central: {opts!r}")
            return heisenberg(include_central=opts.get("include_central", False), names=names)
        rank = obj[kind]
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise InputError(f"{kind} rank must be an integer: {rank!r}")
        if rank > 0 and 2 * rank * (2 * rank + 1) > BUDGETS["count"]:
            raise ResourceLimitError(f"{kind} rank {rank}: the generator table of its radius-1 "
                                     f"ball exceeds the count budget of {BUDGETS['count']} cells")
        return (free if kind == "free" else free_abelian)(rank, names=names)

    # -- kind-specific internals ----------------------------------------

    def _generator_keys(self) -> list[tuple[str, object]]:
        if self.kind == "free":
            return [(nm, ((i, 1),)) for i, nm in enumerate(self.generator_names)]
        if self.kind == "free_abelian":
            out = []
            for i, nm in enumerate(self.generator_names):
                vec = [0] * self.rank
                vec[i] = 1
                out.append((nm, tuple(vec)))
            return out
        if self.kind == "heisenberg":
            a, b, c = self.generator_names
            gens = [(a, (1, 0, 0)), (b, (0, 1, 0))]
            if self.include_central:
                gens.append((c, (0, 0, 1)))
            return gens
        out = []
        for i, factor in enumerate(self.factors):
            for nm, key in factor._generator_keys():
                out.append((nm, ((i, key),)))
        return out

    def _mul(self, xk, yk):
        if self.kind == "free":
            word = list(xk)
            for letter in yk:
                if word and word[-1][0] == letter[0]:
                    exp = word[-1][1] + letter[1]
                    word.pop()
                    if exp:
                        word.append((letter[0], exp))
                else:
                    word.append(letter)
            return tuple(word)
        if self.kind == "free_abelian":
            return tuple(map(operator.add, xk, yk))
        if self.kind == "heisenberg":
            p1, q1, r1 = xk
            p2, q2, r2 = yk
            return (p1 + p2, q1 + q2, r1 + r2 - p2 * q1)
        # free product: merge at the seam, cancelling identity syllables; only
        # the syllables that meet there are touched, the rest are tuple slices
        end, start = len(xk), 0
        while end and start < len(yk) and xk[end - 1][0] == yk[start][0]:
            i = yk[start][0]
            merged = self.factors[i]._mul(xk[end - 1][1], yk[start][1])
            end -= 1
            start += 1
            if merged != self.factors[i].identity():
                return xk[:end] + ((i, merged),) + yk[start:]
        return xk[:end] + yk[start:]

    def _inv(self, xk):
        if self.kind == "free":
            return tuple((g, -e) for g, e in reversed(xk))
        if self.kind == "free_abelian":
            return tuple(-a for a in xk)
        if self.kind == "heisenberg":
            p, q, r = xk
            return (-p, -q, -r - p * q)
        return tuple((i, self.factors[i]._inv(k)) for i, k in reversed(xk))

    def _validate(self, key) -> None:
        ok = True
        if self.kind == "free":
            ok = (
                isinstance(key, tuple)
                and all(isinstance(t, tuple) and len(t) == 2 for t in key)
                and all(0 <= g < self.rank and isinstance(e, int) and e != 0 for g, e in key)
                and all(key[i][0] != key[i + 1][0] for i in range(len(key) - 1))
            )
        elif self.kind == "free_abelian":
            ok = isinstance(key, tuple) and len(key) == self.rank and all(isinstance(a, int) for a in key)
        elif self.kind == "heisenberg":
            ok = isinstance(key, tuple) and len(key) == 3 and all(isinstance(a, int) for a in key)
        else:
            ok = isinstance(key, tuple) and all(
                isinstance(s, tuple) and len(s) == 2 and 0 <= s[0] < len(self.factors) for s in key
            )
            if ok:
                ok = all(key[i][0] != key[i + 1][0] for i in range(len(key) - 1))
            if ok:
                for i, sub in key:
                    if sub == self.factors[i].identity():
                        ok = False
                        break
                    self.factors[i]._validate(sub)
        if not ok:
            raise InputError(f"malformed normal form for {self.kind}: {key!r}")

    def describe(self) -> str:
        if self.kind == "free":
            return f"free({self.rank})"
        if self.kind == "free_abelian":
            return f"free_abelian({self.rank})"
        if self.kind == "heisenberg":
            return "heisenberg"
        return " * ".join(f.describe() for f in self.factors)


def _term(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


# -- public constructors --------------------------------------------------


def free(rank: int, names: Sequence[str] | None = None) -> GroupSpec:
    if rank < 1:
        raise InputError("free group rank must be >= 1")
    return GroupSpec("free", rank=rank, generator_names=_check_names(names, rank))


def free_abelian(rank: int, names: Sequence[str] | None = None) -> GroupSpec:
    if rank < 1:
        raise InputError("free abelian rank must be >= 1")
    return GroupSpec("free_abelian", rank=rank, generator_names=_check_names(names, rank))


def heisenberg(include_central: bool = False, names: Sequence[str] | None = None) -> GroupSpec:
    return GroupSpec("heisenberg", rank=3, generator_names=_check_names(names, 3), include_central=include_central)


def free_product(*factors: GroupSpec) -> GroupSpec:
    """Free product of catalog groups.

    Nested products are flattened.  Factor generators are relabeled with
    fresh letters in positional order so names stay unique across factors;
    the whole product is generated by the union of the factor generators.
    """
    flat: list[GroupSpec] = []
    for f in factors:
        flat.extend(f.factors if f.kind == "free_product" else [f])
    if len(flat) < 2:
        raise InputError("free product needs >= 2 factors")
    relabeled = []
    cursor = 0
    for f in flat:
        count = len(f.generator_names)
        fresh = _default_names(count, start=cursor)
        cursor += count
        relabeled.append(GroupSpec(f.kind, rank=f.rank, generator_names=fresh,
                                   factors=f.factors, include_central=f.include_central))
    names = tuple(nm for f in relabeled for nm in f.generator_names)
    return GroupSpec("free_product", generator_names=_check_names(names, len(names)), factors=tuple(relabeled))


# -- Cayley balls ----------------------------------------------------------


@dataclass(frozen=True)
class CayleyBall:
    """Radius-``radius`` word-metric ball around the identity.

    Vertices are numbered by (word length, lexicographic normal form), so the
    identity is vertex 0 and graph distance from it equals word length.
    ``generator_table`` is the (n, |S|) int32 generator table: row g,
    column j holds the ball index of g·s_j, or -1 where the product leaves
    the ball, for the generators s_j of ``spec.generators()`` in that order.
    Every product is computed once, by the BFS that builds the ball, or for
    a free product by index arithmetic over its factor balls (``tree``);
    the graph edges and the generator right translations are read from this
    one table, and a free product's coset families from its ``tree``.
    """

    spec: GroupSpec
    radius: int
    graph: Graph
    keys: tuple
    word_lengths: tuple[int, ...]
    generator_table: np.ndarray = field(compare=False, repr=False)
    tree: FactorTree | None = field(default=None, compare=False, repr=False)

    @property
    def index(self) -> dict:
        """The ball index of each normal-form key."""
        if not hasattr(self, "_index"):
            object.__setattr__(self, "_index", {k: i for i, k in enumerate(self.keys)})
        return self._index

    def right_translations(self, ids: Sequence[int]) -> np.ndarray:
        """Right translation by the ball elements ``ids``: row i holds the
        ball index of g·s, s the element at ``ids[i]``, for every ball
        element g, in ball order, or -1 where g·s leaves the ball; a
        (len(ids), n) int32 array.

        A free abelian ball does all rows in one array pass over its
        coordinate table: the code of g·s is code(g) + code(s) - code(e)
        wherever every coordinate of g·s stays in its range, and it is
        looked up through ``_coordinate_codes``.  Other balls copy a
        generator's ``generator_table`` column, and multiply any other
        element on keys, one ball element at a time."""
        n = len(self.keys)
        ids = np.asarray(ids, dtype=np.int64)
        if ((ids < 0) | (ids >= n)).any():
            raise InputError(f"ball ids lie in [0, {n})")
        out = np.full((len(ids), n), -1, dtype=np.int32)
        codes = self._coordinate_codes()
        if codes is None:
            columns = {s: j for j, s in enumerate(self.generator_table[0].tolist())}
            mul, get = self.spec._mul, self.index.get
            for i, s in enumerate(ids.tolist()):
                j = columns.get(s)
                if j is not None:
                    out[i] = self.generator_table[:, j]
                else:
                    sk = self.keys[s]
                    out[i] = np.fromiter((get(mul(g, sk), -1) for g in self.keys), dtype=np.int32, count=n)
            return out
        coords, lo, hi, radix, code, lookup = codes
        shift = coords[ids]
        inside = np.ones(out.shape, dtype=bool)
        for c in range(len(lo)):
            moved = coords[:, c] + shift[:, c, None]
            inside &= (moved >= lo[c]) & (moved <= hi[c])
        moved = (code + (shift @ radix)[:, None])[inside]
        if isinstance(lookup, np.ndarray):
            out[inside] = lookup[moved]
        else:
            sorted_codes, order = lookup
            pos = np.minimum(np.searchsorted(sorted_codes, moved), n - 1)
            out[inside] = np.where(sorted_codes[pos] == moved, order[pos], -1)
        return out

    def _coordinate_codes(self):
        """For a free abelian ball, built once: the (n, rank) int64
        coordinate table, each coordinate's range [lo, hi] over the ball,
        the mixed-radix weights that code an in-range vector exactly, each
        element's code, and the code -> ball index lookup.  The lookup is a
        dense int32 table (-1 off the ball) while the code range is at most
        ``_DENSE_CODES_PER_ELEMENT`` times the ball, and otherwise the sorted
        codes with their ball indices.  None for other groups, and where
        the code range does not fit in an int64."""
        if not hasattr(self, "_codes"):
            table = None
            if self.spec.kind == "free_abelian":
                keys = self.keys
                lo = [min(c) for c in zip(*keys)]
                hi = [max(c) for c in zip(*keys)]
                bases = [b - a + 1 for a, b in zip(lo, hi)]
                size = math.prod(bases)
                if size <= 2**63 - 1:
                    coords = np.array(keys, dtype=np.int64)
                    radix = np.array([math.prod(bases[i + 1:]) for i in range(len(bases))],
                                     dtype=np.int64)
                    code = (coords - lo) @ radix
                    if size <= _DENSE_CODES_PER_ELEMENT * len(keys):
                        lookup = np.full(size, -1, dtype=np.int32)
                        lookup[code] = np.arange(len(keys), dtype=np.int32)
                    else:
                        order = np.argsort(code).astype(np.int32)
                        lookup = (code[order], order)
                    table = (coords, lo, hi, radix, code, lookup)
            object.__setattr__(self, "_codes", table)
        return self._codes

    @property
    def cosets(self) -> SubgraphFamily:
        """Every coset g·H_i of every factor inside a free-product ball, read
        off ``tree`` once.  Factor by factor, the cosets come in ball order of
        their representatives r, the elements with no trailing factor-i
        syllable.  Coset r·H_i meets the ball in r·B_{H_i}(ρ), ρ = radius -
        |r|: its members are r and r's children in factor i, in factor-ball
        order, which is ball order too, and its edges are the factor ball's
        edges inside B_{H_i}(ρ).  That factor ball is the member's template,
        numbered i·(radius + 1) + ρ."""
        if self.tree is None:
            raise InputError("coset families are defined for free products only")
        if not hasattr(self, "_cosets"):
            object.__setattr__(self, "_cosets", _cosets(self))
        return self._cosets

    @property
    def coset_factors(self) -> np.ndarray:
        """The factor index of each member of ``cosets``."""
        return self.cosets.template // (self.radius + 1)


@dataclass(frozen=True)
class FactorTree:
    """A free-product ball as a tree of factor balls.  Every element g other
    than e is p·h with h its last syllable, a nontrivial element of factor
    ``last[g]``, and p its prefix, at ball index ``parent[g]``; both are -1
    at e."""

    factor_balls: tuple[CayleyBall, ...]
    parent: np.ndarray
    last: np.ndarray


def cayley_ball(spec: GroupSpec, radius: int, max_vertices: int = DEFAULT_BALL_BUDGET) -> CayleyBall:
    """BFS over word length (free products: ``_free_product_ball``).  Layer
    k is expanded in its final order, and each product g·s is computed once:
    it either finds its ball element, discovers a new one of layer k + 1,
    or (from the sphere) leaves the ball.  Elements of a new layer get
    consecutive discovery ids; the layer is then sorted by normal form,
    formatted once per element for both the sort and the label, and the
    table is renumbered at the end.  A free or free abelian ball, or a free
    product with such factors, is refused from its closed-form size before
    any element is built (``check_ball_size``)."""
    if radius < 1:
        raise InputError("radius must be >= 1")
    check_ball_size(spec, radius, max_vertices)
    if spec.kind == "free_product":
        return _free_product_ball(spec, radius, max_vertices)
    gen_keys = [s for _, s in spec.generators()]
    mul, fmt = spec._mul, spec.format
    identity = spec.identity()

    ids = {identity: 0}  # normal-form key -> discovery id
    keys, labels, word_lengths = [identity], [fmt(identity)], [0]
    discovered = [0]  # ball index -> discovery id
    raw = array("i")  # generator table in ball row order, discovery-id entries
    get = ids.get
    layer_start = 0
    for length in range(radius + 1):
        layer = keys[layer_start:]
        if length == radius:  # the sphere: products that leave the ball are -1
            for gk in layer:
                raw.extend([get(mul(gk, sk), -1) for sk in gen_keys])
            break
        new = []
        for gk in layer:
            for sk in gen_keys:
                hk = mul(gk, sk)
                d = get(hk)
                if d is None:
                    d = len(ids)
                    if d >= max_vertices:
                        raise _over_budget(spec, radius, max_vertices)
                    ids[hk] = d
                    new.append(hk)
                raw.append(d)
        if not new:
            break
        layer_start = len(keys)
        names = [fmt(hk) for hk in new]
        order = sorted(range(len(new)), key=names.__getitem__)
        discovered.extend(layer_start + o for o in order)
        keys.extend(new[o] for o in order)
        labels.extend(names[o] for o in order)
        word_lengths.extend([length + 1] * len(new))
    del ids, get  # not held while the table and the graph are built

    # discovery id -> ball index, with a trailing -1 that raw's -1 entries pick
    final = np.append(np.argsort(discovered), -1).astype(np.int32)
    table = final[np.frombuffer(raw, dtype=np.int32)].reshape(len(keys), len(gen_keys))
    return _ball(spec, radius, keys, labels, word_lengths, table)


def _ball(spec: GroupSpec, radius: int, keys: list, labels: list[str], word_lengths: list[int],
          table: np.ndarray, tree: FactorTree | None = None) -> CayleyBall:
    """The ball over its elements in ball order; its graph edges are the
    entries of the generator table above their row."""
    n = len(keys)
    table.setflags(write=False)
    rows = np.broadcast_to(np.arange(n, dtype=np.int32)[:, None], table.shape)
    upper = table > rows
    graph = Graph(n, np.stack([rows[upper], table[upper]], axis=1), labels=labels,
                  metadata={"group": spec.to_json(), "radius": radius})
    return CayleyBall(spec=spec, radius=radius, graph=graph,
                      keys=tuple(keys),
                      word_lengths=tuple(word_lengths), generator_table=table, tree=tree)


def _free_product_ball(spec: GroupSpec, radius: int, max_vertices: int) -> CayleyBall:
    """A free-product ball as a tree of factor balls.

    Normal forms are unique and word length adds over syllables, so every
    element g other than e is p·h: p its prefix, one syllable shorter, h a
    nontrivial element of a factor H_i that p does not end in, and |g| =
    |p| + |h|.  The children of p in factor i are therefore p·h for h in
    B_{H_i}(radius - |p|) minus e, the start of the factor ball's order.
    Each factor ball is built once, by ``cayley_ball``; the product's
    elements are expanded one syllable at a time as arrays of (prefix,
    factor, factor-ball index), with the children of one prefix in one
    factor contiguous and in factor-ball order.

    A product g·s by a generator s of factor i is index arithmetic: it moves
    inside g's last syllable h when that is in H_i (the factor ball's table
    gives h·s, and h·s = e gives the prefix), and otherwise appends the
    syllable s.  A label is the prefix's label, " | " and the factor label,
    the normal form the BFS formats, so one sort by (word length, label)
    gives the BFS's order.  The exact size is counted from the factor
    spheres before any array of the product's size is allocated.
    """
    try:
        # a factor ball is the identity coset, so it is no larger than the ball
        factor_balls = tuple(cayley_ball(f, radius, max_vertices) for f in spec.factors)
    except ResourceLimitError:
        raise _over_budget(spec, radius, max_vertices) from None
    lengths = [np.asarray(b.word_lengths, dtype=np.int64) for b in factor_balls]
    spheres = [np.bincount(w, minlength=radius + 1).tolist() for w in lengths]
    n = _free_product_size([sphere.__getitem__ for sphere in spheres], radius, max_vertices)
    if n > max_vertices:
        raise _over_budget(spec, radius, max_vertices)

    # creation order: one syllable count after another; element 0 is e
    parent = np.full(n, -1, dtype=np.int64)
    last = np.full(n, -1, dtype=np.int64)
    syllable = np.zeros(n, dtype=np.int64)  # factor-ball index of the last syllable
    wl = np.zeros(n, dtype=np.int64)
    first = np.full((n, len(factor_balls)), -1, dtype=np.int64)  # the child of factor-ball index 1
    upto = [np.cumsum(sphere) for sphere in spheres]  # upto[i][rho] = |B_{H_i}(rho)|
    keys, labels = [()], ["e"]
    lo, hi = 0, 1  # the elements one syllable shorter than those being made
    while lo < hi:
        end = hi
        for i, b in enumerate(factor_balls):
            p = np.arange(lo, hi)
            p = p[(last[p] != i) & (wl[p] < radius)]
            counts = upto[i][radius - wl[p]] - 1
            starts = end + np.cumsum(counts) - counts
            first[p, i] = starts
            new = slice(end, end + int(counts.sum()))
            parent[new] = np.repeat(p, counts)
            syllable[new] = np.arange(new.stop - new.start) - np.repeat(starts - end, counts) + 1
            last[new] = i
            wl[new] = wl[parent[new]] + lengths[i][syllable[new]]
            names, fk = b.graph.labels, b.keys
            if lo == 0:  # the children of e are single syllables
                hs = syllable[new].tolist()
                labels.extend([names[h] for h in hs])
                keys.extend([((i, fk[h]),) for h in hs])
            else:
                pairs = list(zip(parent[new].tolist(), syllable[new].tolist()))
                labels.extend([f"{labels[q]} | {names[h]}" for q, h in pairs])
                keys.extend([keys[q] + ((i, fk[h]),) for q, h in pairs])
            end = new.stop
        lo, hi = hi, end

    by_label = sorted(range(n), key=labels.__getitem__)
    order = np.asarray(by_label)[np.argsort(wl[by_label], kind="stable")]
    rank = np.empty(n + 1, dtype=np.int64)  # creation id -> ball index; rank[-1] = -1
    rank[order] = np.arange(n)
    rank[n] = -1

    raw = np.empty((n, len(spec.generators())), dtype=np.int64)  # creation ids
    col = 0
    for i, b in enumerate(factor_balls):
        mine, others = np.nonzero(last == i)[0], np.nonzero(last != i)[0]
        p = parent[mine]
        reach = np.append(lengths[i], radius + 1)  # index -1, outside the factor ball, never fits
        for j in range(b.generator_table.shape[1]):
            h = b.generator_table[syllable[mine], j].astype(np.int64)
            fits = wl[p] + reach[h] <= radius
            raw[mine, col] = np.where(h == 0, p, np.where(fits, first[p, i] + h - 1, -1))
            s = int(b.generator_table[0, j])  # the factor-ball index of the generator
            raw[others, col] = np.where(wl[others] < radius, first[others, i] + s - 1, -1)
            col += 1

    order_list = order.tolist()
    tree = FactorTree(factor_balls, rank[parent[order]], last[order])
    return _ball(spec, radius, [keys[c] for c in order_list], [labels[c] for c in order_list],
                 wl[order].tolist(), rank[raw[order]].astype(np.int32), tree)


def _over_budget(spec: GroupSpec, radius: int, max_vertices: int) -> ResourceLimitError:
    return ResourceLimitError(f"ball of {spec.describe()} at radius {radius} exceeds the "
                              f"budget of {max_vertices} vertices")


def check_ball_size(spec: GroupSpec, radius: int, max_vertices: int = DEFAULT_BALL_BUDGET) -> None:
    """Refuse the ball of ``spec`` at ``radius`` over ``max_vertices``
    before any element is built, from the closed-form sizes of free and
    free abelian balls: its own, a free product's from such factors' sphere
    sizes, or each such factor's.  Heisenberg balls are checked as
    ``cayley_ball`` grows them."""
    def size(f: GroupSpec, r: int) -> int:
        """|B(r)| of a free or free abelian group of rank k, exact up to
        ``max_vertices``: Σ_j 2^j·C(k, j)·C(r, j) exponent vectors of l1
        norm at most r (2r + 1 elements for k = 1, free or not), or
        1 + k((2k - 1)^r - 1)/(k - 1) reduced words, r capped at the bit
        length b of ``max_vertices``: radius b already has over
        2^b > ``max_vertices`` elements, and a free product's count stops
        by then."""
        k = f.rank
        if f.kind == "free_abelian" or k == 1:
            return sum(2**j * math.comb(k, j) * math.comb(r, j) for j in range(k + 1))
        return 1 + k * ((2 * k - 1) ** min(r, max_vertices.bit_length()) - 1) // (k - 1)

    parts = spec.factors or (spec,)
    closed = [f for f in parts if f.kind != "heisenberg"]
    if len(closed) == len(parts) > 1:
        spheres = [lambda l, f=f: size(f, l) - (size(f, l - 1) if l else 0) for f in parts]
        n = _free_product_size(spheres, radius, max_vertices)
    else:
        n = max((size(f, radius) for f in closed), default=0)
    if n > max_vertices:
        raise _over_budget(spec, radius, max_vertices)


def _free_product_size(spheres: Sequence[Callable[[int], int]], radius: int, cap: int) -> int:
    """|B(radius)| of a free product from its factors' sphere sizes,
    ``spheres[i](l)``, or a partial count over ``cap``: of the elements of
    length l, ``ending[i][l]`` end in a syllable of factor i, one of length
    l - m after each element of length m that does not."""
    total, ending, count = [1], [[0] for _ in spheres], 1
    for length in range(1, radius + 1):
        if count > cap:
            break
        for i, sphere in enumerate(spheres):
            ending[i].append(sum((total[m] - ending[i][m]) * sphere(length - m) for m in range(length)))
        total.append(sum(e[length] for e in ending))
        count += total[length]
    return count


def _cosets(ball: CayleyBall) -> SubgraphFamily:
    """``CayleyBall.cosets``: per factor, the children of each
    representative in that factor are the elements whose last syllable is
    in it, grouped by parent in ball order."""
    r = ball.radius
    wl = np.asarray(ball.word_lengths, dtype=np.int64)
    parent, last = ball.tree.parent, ball.tree.last
    sizes, vertices, template, templates = [], [], [], []
    for i, b in enumerate(ball.tree.factor_balls):
        upto = np.searchsorted(b.word_lengths, np.arange(r + 1), side="right")  # |B_{H_i}(rho)|
        templates.extend(b.graph.edges[b.graph.edges[:, 1] < s] for s in upto.tolist())
        reps = np.nonzero(last != i)[0]
        rho = r - wl[reps]
        size = upto[rho]
        kids = np.nonzero(last == i)[0]
        kids = kids[np.argsort(parent[kids], kind="stable")]
        is_rep = np.zeros(int(size.sum()), dtype=bool)
        is_rep[np.cumsum(size) - size] = True
        block = np.empty(len(is_rep), dtype=np.int64)
        block[is_rep] = reps
        block[~is_rep] = kids
        sizes.append(size)
        vertices.append(block)
        template.append(i * (r + 1) + rho)
    sizes = np.concatenate(sizes)
    return SubgraphFamily(offsets=np.concatenate([[0], np.cumsum(sizes)]), vertices=np.concatenate(vertices),
                          template=np.concatenate(template), templates=tuple(templates))
