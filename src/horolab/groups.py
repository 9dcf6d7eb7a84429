"""Group catalog with unique normal forms, Cayley balls, and coset families.

Supported groups: free groups, free abelian groups, the discrete Heisenberg
group, and free products of those.  Each has a decidable canonical normal
form, so equality, multiplication and ball generation are exact:

* free(k)          freely reduced words, stored as (generator, exponent) runs
* free_abelian(d)  exponent vectors
* heisenberg       triples (p, q, r) for a^p b^q c^r with central c = [a, b];
                   multiplication law (p1,q1,r1)(p2,q2,r2) =
                   (p1+p2, q1+q2, r1+r2 - p2*q1)
* free_product     alternating nonempty syllables from distinct factors

Serialized normal forms use the grammar

    word     := "e" | term (" " term)*
    term     := name | name "^" int          (int nonzero, may be negative)
    element  := word (" | " word)*           ("|" separates product syllables)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, ResourceLimitError
from .graph import Graph

# Default generator letters; "e" is reserved for the identity.
_LETTERS = "abcdfghijklmnopqrstuvwxyz"

DEFAULT_BALL_BUDGET = 200_000

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


def _default_names(count: int, start: int = 0) -> tuple[str, ...]:
    names = []
    for i in range(start, start + count):
        names.append(_LETTERS[i] if i < len(_LETTERS) else f"x{i}")
    return tuple(names)


def _check_names(names: Sequence[str]) -> tuple[str, ...]:
    names = tuple(names)
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

    # -- construction of elements --------------------------------------

    def identity(self) -> "GroupElement":
        if self.kind == "free":
            return GroupElement(self, ())
        if self.kind == "free_abelian":
            return GroupElement(self, (0,) * self.rank)
        if self.kind == "heisenberg":
            return GroupElement(self, (0, 0, 0))
        return GroupElement(self, ())

    def element(self, key) -> "GroupElement":
        """Wrap a raw key after validating it is a normal form."""
        self._validate(key)
        return GroupElement(self, key)

    def multiply(self, x: "GroupElement", y: "GroupElement") -> "GroupElement":
        for z in (x, y):
            if z.spec != self:
                raise InputError("element does not belong to this group")
            self._validate(z.key)
        return GroupElement(self, self._mul(x.key, y.key))

    def inverse(self, x: "GroupElement") -> "GroupElement":
        if x.spec != self:
            raise InputError("element does not belong to this group")
        self._validate(x.key)
        return GroupElement(self, self._inv(x.key))

    def generators(self) -> list[tuple[str, "GroupElement"]]:
        """Symmetric generating set as (display name, element), closed under
        formal inversion; order is declaration order with g before g^-1."""
        out = []
        for name, key in self._generator_keys():
            out.append((name, GroupElement(self, key)))
            out.append((f"{name}^-1", GroupElement(self, self._inv(key))))
        return out

    # -- normal form text ------------------------------------------------

    def format(self, x: "GroupElement") -> str:
        return self._format_key(x.key)

    def parse(self, text: str) -> "GroupElement":
        key = self._parse_key(text.strip())
        self._validate(key)
        return GroupElement(self, key)

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
        if not isinstance(obj, dict) or len(set(obj) & {"free", "free_abelian", "heisenberg", "free_product"}) != 1:
            raise InputError(f"not a group description: {obj!r}")
        names = obj.get("names")
        if "free" in obj:
            return free(int(obj["free"]), names=names)
        if "free_abelian" in obj:
            return free_abelian(int(obj["free_abelian"]), names=names)
        if "heisenberg" in obj:
            opts = obj["heisenberg"] if isinstance(obj["heisenberg"], dict) else {}
            return heisenberg(include_central=bool(opts.get("include_central", False)), names=names)
        return free_product(*[cls.from_json(f) for f in obj["free_product"]])

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

    def _identity_key(self):
        return self.identity().key

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
            return tuple(a + b for a, b in zip(xk, yk))
        if self.kind == "heisenberg":
            p1, q1, r1 = xk
            p2, q2, r2 = yk
            return (p1 + p2, q1 + q2, r1 + r2 - p2 * q1)
        # free product: merge at the seam, cancelling identity syllables
        xs = list(xk)
        ys = list(yk)
        while xs and ys and xs[-1][0] == ys[0][0]:
            i = xs[-1][0]
            merged = self.factors[i]._mul(xs[-1][1], ys[0][1])
            xs.pop()
            ys.pop(0)
            if merged != self.factors[i]._identity_key():
                xs.append((i, merged))
                break
        return tuple(xs + ys)

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
                    if sub == self.factors[i]._identity_key():
                        ok = False
                        break
                    self.factors[i]._validate(sub)
        if not ok:
            raise InputError(f"malformed normal form for {self.kind}: {key!r}")

    def _format_key(self, key) -> str:
        if self.kind == "free":
            if not key:
                return "e"
            return " ".join(_term(self.generator_names[g], e) for g, e in key)
        if self.kind == "free_abelian":
            terms = [_term(nm, e) for nm, e in zip(self.generator_names, key) if e]
            return " ".join(terms) if terms else "e"
        if self.kind == "heisenberg":
            terms = [_term(nm, e) for nm, e in zip(self.generator_names, key) if e]
            return " ".join(terms) if terms else "e"
        if not key:
            return "e"
        return " | ".join(self.factors[i]._format_key(k) for i, k in key)

    def _parse_key(self, text: str):
        if self.kind == "free_product":
            if text == "e":
                return ()
            syllables = []
            for chunk in text.split("|"):
                chunk = chunk.strip()
                word = _parse_terms(chunk)
                owner = self._owning_factor(word)
                key = self.factors[owner]._key_from_terms(word)
                if key == self.factors[owner]._identity_key():
                    raise InputError(f"identity syllable in {text!r}")
                if syllables and syllables[-1][0] == owner:
                    raise InputError(f"consecutive syllables from one factor in {text!r}")
                syllables.append((owner, key))
            return tuple(syllables)
        if text == "e":
            return self._identity_key()
        return self._key_from_terms(_parse_terms(text))

    def _owning_factor(self, word: list[tuple[str, int]]) -> int:
        owners = set()
        for nm, _ in word:
            for i, factor in enumerate(self.factors):
                if nm in factor.generator_names:
                    owners.add(i)
                    break
            else:
                raise InputError(f"unknown generator {nm!r}")
        if len(owners) != 1:
            raise InputError(f"syllable mixes factors: {word!r}")
        return owners.pop()

    def _key_from_terms(self, word: list[tuple[str, int]]):
        index = {nm: i for i, nm in enumerate(self.generator_names)}
        for nm, _ in word:
            if nm not in index:
                raise InputError(f"unknown generator {nm!r}")
        key = self._identity_key()
        for nm, exp in word:
            step = self._gen_power(index[nm], exp)
            key = self._mul(key, step)
        return key

    def _gen_power(self, gen_index: int, exp: int):
        if self.kind == "free":
            return ((gen_index, exp),)
        if self.kind == "free_abelian":
            vec = [0] * self.rank
            vec[gen_index] = exp
            return tuple(vec)
        # heisenberg: a^exp, b^exp, c^exp in coordinates
        vec = [0, 0, 0]
        vec[gen_index] = exp
        return tuple(vec)

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


def _parse_terms(text: str) -> list[tuple[str, int]]:
    word = []
    for token in text.split():
        if token == "e":
            continue
        if "^" in token:
            name, _, raw = token.partition("^")
            try:
                exp = int(raw)
            except ValueError as exc:
                raise InputError(f"bad exponent in {token!r}") from exc
            if exp == 0:
                continue
        else:
            name, exp = token, 1
        if not _NAME_RE.match(name):
            raise InputError(f"bad generator token {token!r}")
        word.append((name, exp))
    return word


@dataclass(frozen=True)
class GroupElement:
    """An element in normal form.  Equal keys are equal elements."""

    spec: GroupSpec
    key: object

    def __str__(self) -> str:
        return self.spec.format(self)

    def __repr__(self) -> str:
        return f"<{self.spec.format(self)}>"

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.spec.multiply(self, other)

    def inverse(self) -> "GroupElement":
        return self.spec.inverse(self)

    def is_identity(self) -> bool:
        return self.key == self.spec._identity_key()

    def __hash__(self) -> int:
        # Equality still compares the spec too; hashing it as well would walk
        # the whole GroupSpec on every set or dict lookup.
        return hash(self.key)


# -- public constructors --------------------------------------------------


def free(rank: int, names: Sequence[str] | None = None) -> GroupSpec:
    if rank < 1:
        raise InputError("free group rank must be >= 1")
    return GroupSpec("free", rank=rank,
                     generator_names=_check_names(names or _default_names(rank)))


def free_abelian(rank: int, names: Sequence[str] | None = None) -> GroupSpec:
    if rank < 1:
        raise InputError("free abelian rank must be >= 1")
    return GroupSpec("free_abelian", rank=rank,
                     generator_names=_check_names(names or _default_names(rank)))


def heisenberg(include_central: bool = False, names: Sequence[str] | None = None) -> GroupSpec:
    nm = _check_names(names or _default_names(3))
    if len(nm) != 3:
        raise InputError("heisenberg needs exactly 3 generator names (a, b, central c)")
    return GroupSpec("heisenberg", rank=3, generator_names=nm, include_central=include_central)


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
    return GroupSpec("free_product", generator_names=_check_names(names), factors=tuple(relabeled))


# -- Cayley balls ----------------------------------------------------------


@dataclass(frozen=True)
class CayleyBall:
    """Radius-``radius`` word-metric ball around the identity.

    Vertices are numbered by (word length, lexicographic normal form), so the
    identity is vertex 0 and graph distance from it equals word length.
    """

    spec: GroupSpec
    radius: int
    graph: Graph
    elements: tuple[GroupElement, ...]
    word_lengths: tuple[int, ...]
    basepoint: int = 0

    @property
    def index(self) -> dict[GroupElement, int]:
        if not hasattr(self, "_index"):
            object.__setattr__(self, "_index", {g: i for i, g in enumerate(self.elements)})
        return self._index

    def vertex_of(self, g: GroupElement) -> int:
        try:
            return self.index[g]
        except KeyError:
            raise InputError(f"element {g!r} is outside the ball") from None


def cayley_ball(spec: GroupSpec, radius: int, max_vertices: int = DEFAULT_BALL_BUDGET) -> CayleyBall:
    if radius < 1:
        raise InputError("radius must be >= 1")
    gens = spec.generators()
    identity = spec.identity()

    layers: list[list[GroupElement]] = [[identity]]
    seen = {identity: 0}
    for _ in range(radius):
        frontier = []
        for g in layers[-1]:
            for _, s in gens:
                h = GroupElement(spec, spec._mul(g.key, s.key))
                if h not in seen:
                    seen[h] = -1
                    frontier.append(h)
        if len(seen) > max_vertices:
            raise ResourceLimitError(
                f"ball of {spec.describe()} at radius {radius} exceeds the "
                f"budget of {max_vertices} vertices"
            )
        if not frontier:
            break
        frontier.sort(key=spec.format)
        layers.append(frontier)

    elements: list[GroupElement] = []
    word_lengths: list[int] = []
    for length, layer in enumerate(layers):
        for g in layer:
            seen[g] = len(elements)
            elements.append(g)
            word_lengths.append(length)

    edges = []
    for i, g in enumerate(elements):
        for _, s in gens:
            h = GroupElement(spec, spec._mul(g.key, s.key))
            j = seen.get(h, -1)
            if j > i:
                edges.append((i, j))
    labels = [spec.format(g) for g in elements]
    graph = Graph(len(elements), edges, labels=labels,
                  metadata={"group": spec.to_json(), "radius": radius})
    return CayleyBall(spec=spec, radius=radius, graph=graph,
                      elements=tuple(elements), word_lengths=tuple(word_lengths))


# -- coset subgraph families (free products) -------------------------------


@dataclass(frozen=True)
class CosetSubgraph:
    """One left coset g·H_i intersected with a ball, with its factor edges."""

    factor_index: int
    representative: GroupElement
    members: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def coset_representative(spec: GroupSpec, g: GroupElement, factor_index: int) -> GroupElement:
    """Strip the trailing factor-``factor_index`` syllable: the shortest
    element of g·H_i, which identifies the coset."""
    key = g.key
    if key and key[-1][0] == factor_index:
        key = key[:-1]
    return GroupElement(spec, key)


def coset_family(ball: CayleyBall, factor_index: int) -> list[CosetSubgraph]:
    spec = ball.spec
    if spec.kind != "free_product":
        raise InputError("coset families are defined for free products only")
    if not 0 <= factor_index < len(spec.factors):
        raise InputError(f"factor index {factor_index} out of range")

    groups: dict[GroupElement, list[int]] = {}
    for vid, g in enumerate(ball.elements):
        rep = coset_representative(spec, g, factor_index)
        groups.setdefault(rep, []).append(vid)

    factor_gens = [
        GroupElement(spec, ((factor_index, key),))
        for _, key in spec.factors[factor_index]._generator_keys()
    ]
    factor_gens += [g.inverse() for g in factor_gens]

    out = []
    # A representative is the shortest member of its coset, so it always lies
    # inside the ball; order families by (word length, normal form).
    reps = sorted(groups, key=lambda r: (ball.word_lengths[ball.index[r]], spec.format(r)))
    for rep in reps:
        members = sorted(groups[rep])
        member_set = set(members)
        edges = set()
        for vid in members:
            g = ball.elements[vid]
            for s in factor_gens:
                h = GroupElement(spec, spec._mul(g.key, s.key))
                w = ball.index.get(h)
                if w is not None and w in member_set and w > vid:
                    edges.add((vid, w))
        out.append(CosetSubgraph(factor_index=factor_index, representative=rep,
                                 members=tuple(members), edges=tuple(sorted(edges))))
    return out
