"""Group normal forms, Cayley balls, coset families."""

from __future__ import annotations

import itertools
import random
import re

import numpy as np
import pytest

from horolab import (
    InputError,
    ResourceLimitError,
    cayley_ball,
    free,
    free_abelian,
    free_product,
    heisenberg,
)
from horolab.groups import GroupSpec

from oracles import (
    bfs_distances,
    coset_representative,
    heis_from_matrix,
    heis_matmul,
    heis_matrix,
    reference_cayley_ball,
    reference_coset_family,
    reference_generator_table,
    reference_product,
    subgraphs,
)


Z2 = free_abelian(2)
F2 = free(2)
H3 = heisenberg()
Z2xZ2 = free_product(free_abelian(2), free_abelian(2))


def random_element(spec, rng, size=4):
    g = spec.identity()
    gens = spec.generators()
    for _ in range(rng.randrange(0, size * 2)):
        g = spec.multiply(g, rng.choice(gens)[1])
    return g


# -- normal forms and the group law -----------------------------------------


def test_identity_is_right_neutral():
    rng = random.Random(0)
    for spec in (Z2, F2, H3, Z2xZ2):
        e = spec.identity()
        for _ in range(20):
            x = random_element(spec, rng)
            assert spec.multiply(x, e) == x
            assert spec.multiply(e, x) == x


def test_free_inverse_cancels():
    f1 = free(1)
    a = f1.generators()[0][1]
    assert f1.multiply(a, f1.inverse(a)) == f1.identity()


def test_heisenberg_commutator_convention():
    a, b = H3.generators()[0][1], H3.generators()[2][1]
    ba = H3.multiply(b, a)
    assert H3.format(ba) == "a b c^-1"
    # round-trip through the 3x3 unitriangular matrix representation
    m = heis_matmul(heis_matrix(0, 1, 0), heis_matrix(1, 0, 0))
    assert heis_from_matrix(m) == ba


def test_heisenberg_central_element_commutes():
    rng = random.Random(5)
    c = (0, 0, 1)
    for _ in range(30):
        x = random_element(H3, rng)
        assert H3.multiply(x, c) == H3.multiply(c, x)


@pytest.mark.parametrize("spec", [Z2, F2, H3, Z2xZ2], ids=lambda s: s.describe())
def test_group_axioms_against_independent_representations(spec):
    rng = random.Random(42)
    for _ in range(1000):
        x, y, z = (random_element(spec, rng, 3) for _ in range(3))
        xy = spec.multiply(x, y)
        assert spec.multiply(xy, z) == spec.multiply(x, spec.multiply(y, z))
        assert spec.multiply(x, spec.inverse(x)) == spec.identity()
        if spec is H3:
            mx, my = heis_matrix(*x), heis_matrix(*y)
            assert heis_from_matrix(heis_matmul(mx, my)) == xy
        if spec is Z2:
            assert xy == tuple(a + b for a, b in zip(x, y))
        if spec is F2:
            # independent check: reduce the concatenation letter by letter
            letters = [(g, 1 if e > 0 else -1) for g, e in x for _ in range(abs(e))]
            letters += [(g, 1 if e > 0 else -1) for g, e in y for _ in range(abs(e))]
            stack = []
            for l in letters:
                if stack and stack[-1][0] == l[0] and stack[-1][1] == -l[1]:
                    stack.pop()
                else:
                    stack.append(l)
            flat = [(g, s) for g, e in xy for s in [1 if e > 0 else -1] for _ in range(abs(e))]
            assert stack == flat


def test_multiply_validates_normal_forms():
    bad = (1, 2, 3)  # wrong arity for Z^2
    with pytest.raises(InputError):
        Z2.multiply(bad, Z2.identity())
    with pytest.raises(InputError):
        Z2.multiply(Z2.identity(), bad)
    with pytest.raises(InputError):
        Z2.inverse(bad)


def test_free_product_flattens_and_relabels():
    triple = free_product(Z2, free_product(Z2, free(1)))
    assert len(triple.factors) == 3
    assert triple.generator_names == ("a", "b", "c", "d", "f")


# -- cayley balls --------------------------------------------------------------


def test_z2_ball_counts():
    ball = cayley_ball(Z2, 2)
    assert ball.graph.num_vertices == 13  # 1 + 4 + 8
    assert ball.word_lengths[0] == 0  # the basepoint is vertex 0
    assert ball.keys[0] == Z2.identity()


def test_free2_ball_counts():
    ball = cayley_ball(F2, 2)
    assert ball.graph.num_vertices == 17  # 1 + 4 + 4*3


def test_ball_distance_equals_word_length():
    for spec, radius in ((Z2, 3), (F2, 3), (Z2xZ2, 3), (H3, 3)):
        ball = cayley_ball(spec, radius)
        dist = bfs_distances(ball.graph.num_vertices, ball.graph.edges, 0)
        assert list(dist) == list(ball.word_lengths)


def test_independent_word_lengths_free_and_abelian():
    ball = cayley_ball(Z2, 3)
    for vid, g in enumerate(ball.keys):
        assert ball.word_lengths[vid] == sum(abs(a) for a in g)
    ball = cayley_ball(F2, 3)
    for vid, g in enumerate(ball.keys):
        assert ball.word_lengths[vid] == sum(abs(e) for _, e in g)


def test_heisenberg_ball_against_word_enumeration():
    """Oracle: enumerate raw generator words, push through the matrix
    representation, dedupe, and compare layer sizes."""
    radius = 3
    ball = cayley_ball(H3, radius)

    mats = {("a", 1): heis_matrix(1, 0, 0), ("a", -1): heis_matrix(-1, 0, 0),
            ("b", 1): heis_matrix(0, 1, 0), ("b", -1): heis_matrix(0, -1, 0)}
    seen = {}
    for length in range(radius + 1):
        for word in itertools.product(mats.values(), repeat=length):
            m = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
            for step in word:
                m = heis_matmul(m, step)
            seen.setdefault(heis_from_matrix(m), length)
    assert len(seen) == ball.graph.num_vertices
    for vid, g in enumerate(ball.keys):
        assert seen[g] == ball.word_lengths[vid]


def test_ball_numbering_is_deterministic():
    b1 = cayley_ball(Z2xZ2, 3)
    b2 = cayley_ball(Z2xZ2, 3)
    assert b1.graph.labels == b2.graph.labels
    lengths = list(b1.word_lengths)
    assert lengths == sorted(lengths)
    # within a layer, labels sort lexicographically
    for l in range(4):
        layer = [b1.graph.labels[i] for i in range(len(lengths)) if lengths[i] == l]
        assert layer == sorted(layer)


def test_ball_budget_error_mentions_bound():
    with pytest.raises(ResourceLimitError, match="37"):
        cayley_ball(F2, 4, max_vertices=37)


def test_ball_budget_is_checked_while_a_layer_grows(monkeypatch):
    # F2 at radius 4 has 161 elements: the budget is the ball size, exactly
    assert cayley_ball(F2, 4, max_vertices=161).graph.num_vertices == 161
    with pytest.raises(ResourceLimitError, match="160"):
        cayley_ball(F2, 4, max_vertices=160)
    # Heisenberg balls have no closed-form size, so they are checked as
    # they grow.  Layers 0, 1, 2 take 4, 16 and 48 products and reach 5, 17
    # and 53 elements.  The 38th element turns up inside layer 2, and the
    # ball stops there, even at a radius far past the budget.
    products = []
    mul = GroupSpec._mul
    monkeypatch.setattr(GroupSpec, "_mul", lambda self, x, y: products.append(1) or mul(self, x, y))
    with pytest.raises(ResourceLimitError, match="at radius 50 exceeds the budget of 37 vertices"):
        cayley_ball(H3, 50, max_vertices=37)
    assert 4 + 16 < len(products) < 4 + 16 + 48


@pytest.mark.parametrize("spec", [Z2, F2], ids=["Z2", "F2"])
def test_closed_form_balls_are_refused_before_any_product(monkeypatch, spec):
    def no_product(self, x, y):
        raise AssertionError("a product was computed")

    monkeypatch.setattr(GroupSpec, "_mul", no_product)
    message = f"ball of {spec.describe()} at radius {2**70} exceeds the budget of 200000 vertices"
    with pytest.raises(ResourceLimitError, match=re.escape(message)):
        cayley_ball(spec, 2**70)


BALL_CASES = [
    (Z2xZ2, 4), (free_product(free_abelian(2), free_abelian(1)), 5), (free_product(F2, H3), 3),
    (free_product(free_abelian(1), free_abelian(1), free_abelian(1)), 4), (free_product(F2, Z2), 3),
    (Z2xZ2, 1), (free_product(heisenberg(include_central=True), free_abelian(1)), 3),
    (free_product(free_abelian(1), F2, Z2), 3),
]
BALL_IDS = ["Z2*Z2-r4", "Z2*Z-r5", "F2*Heis-r3", "Z*Z*Z-r4", "F2*Z2-r3",
            "Z2*Z2-r1", "Heis-central*Z-r3", "Z*F2*Z2-r3"]


@pytest.mark.parametrize("spec,radius", BALL_CASES, ids=BALL_IDS)
def test_ball_and_coset_families_match_the_references(spec, radius):
    ball = cayley_ball(spec, radius)
    reference = reference_cayley_ball(spec, radius)
    assert ball.keys == reference["keys"]
    assert ball.word_lengths == reference["word_lengths"]
    assert ball.graph.labels == reference["labels"]
    assert ball.graph.edges.tolist() == [list(e) for e in reference["edges"]]
    assert ball.generator_table.tolist() == reference_generator_table(spec, reference["keys"])
    # the cosets, factor after factor, each led by its representative
    cosets = [c for factor in range(len(spec.factors)) for c in reference_coset_family(ball, factor)]
    assert [(f, ball.keys[m.vertices[0]], m.vertices, m.edges)
            for f, m in zip(ball.coset_factors.tolist(), subgraphs(ball.cosets))] == [
        (c.factor_index, c.representative, c.members, c.edges) for c in cosets]


def test_free_product_balls_multiply_only_inside_the_factors(monkeypatch):
    """A free-product ball is built from its factor balls, whose BFS
    multiplies factor keys; no free-product key is ever multiplied."""
    kinds = []
    mul = GroupSpec._mul
    monkeypatch.setattr(GroupSpec, "_mul", lambda self, x, y: kinds.append(self.kind) or mul(self, x, y))
    for spec, radius in BALL_CASES:
        cayley_ball(spec, radius)
    assert kinds and "free_product" not in kinds


def test_free_product_budget_is_checked_before_the_product_is_built():
    n = cayley_ball(Z2xZ2, 3).graph.num_vertices
    assert cayley_ball(Z2xZ2, 3, max_vertices=n).graph.num_vertices == n
    message = "ball of {} at radius {} exceeds the budget of {} vertices"
    with pytest.raises(ResourceLimitError, match=re.escape(message.format(Z2xZ2.describe(), 3, n - 1))):
        cayley_ball(Z2xZ2, 3, max_vertices=n - 1)
    # a factor ball over the budget (Z^2 at radius 3 has 25 elements) names the product
    with pytest.raises(ResourceLimitError, match=re.escape(message.format(Z2xZ2.describe(), 3, 24))):
        cayley_ball(Z2xZ2, 3, max_vertices=24)
    # Z*Z at radius 40 has 4·3^39 elements on its sphere alone: the count
    # from the factor spheres refuses it before any array of that size exists
    z_z = free_product(free_abelian(1), free_abelian(1))
    with pytest.raises(ResourceLimitError, match=re.escape(message.format(z_z.describe(), 40, 10**6))):
        cayley_ball(z_z, 40, max_vertices=10**6)


def test_free_product_product_matches_the_reference():
    for spec in (Z2xZ2, free_product(F2, H3), free_product(free_abelian(1), free_abelian(1), F2)):
        for xk, yk in itertools.product(cayley_ball(spec, 2).keys, repeat=2):
            assert spec._mul(xk, yk) == reference_product(spec, xk, yk)


def test_ball_radius_validation():
    with pytest.raises(InputError):
        cayley_ball(Z2, 0)


# -- coset families -------------------------------------------------------------


def cosets_of(ball, factor: int) -> list:
    """The members of ``ball.cosets`` in factor ``factor``, in order; each
    leads with its representative."""
    return [m for m, f in zip(subgraphs(ball.cosets), ball.coset_factors.tolist()) if f == factor]


def test_identity_coset_is_factor_ball():
    ball = cayley_ball(Z2xZ2, 2)
    ident = cosets_of(ball, 0)[0]
    assert ball.keys[ident.vertices[0]] == Z2xZ2.identity()
    assert len(ident.vertices) == 13  # factor-0 ball of radius 2
    member_labels = {ball.graph.labels[v] for v in ident.vertices}
    assert "e" in member_labels and "a" in member_labels and "c" not in member_labels


def test_cosets_are_disjoint_and_cover():
    ball = cayley_ball(Z2xZ2, 3)
    for factor in (0, 1):
        seen = set()
        for c in cosets_of(ball, factor):
            assert not (seen & set(c.vertices))
            seen.update(c.vertices)
        assert seen == set(range(ball.graph.num_vertices))


def test_coset_count_against_partition_refinement():
    """Union-find over factor-0 edges must produce the same partition."""
    ball = cayley_ball(free_product(free_abelian(2), free_abelian(1)), 4)
    fam = cosets_of(ball, 0)

    parent = list(range(ball.graph.num_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in fam:
        pass  # oracle must not read the family; build edges independently
    spec = ball.spec
    gens = [((0, key),) for _, key in spec.factors[0]._generator_keys()]
    gens += [spec.inverse(g) for g in gens]
    for vid, g in enumerate(ball.keys):
        for s in gens:
            w = ball.index.get(spec.multiply(g, s))
            if w is not None:
                ra, rb = find(vid), find(w)
                if ra != rb:
                    parent[ra] = rb
    classes = {find(v) for v in range(ball.graph.num_vertices)}
    assert len(classes) == len(fam)
    # representatives are exactly the elements whose normal form has no
    # trailing factor-0 syllable
    expected_reps = {
        g for g in ball.keys
        if coset_representative(g, 0) == g
    }
    assert {ball.keys[c.vertices[0]] for c in fam} == expected_reps


def test_coset_edges_use_only_factor_generators():
    ball = cayley_ball(Z2xZ2, 3)
    fam = cosets_of(ball, 1)
    factor1 = Z2xZ2.factors[1]
    gen_keys = {key for _, key in factor1._generator_keys()}
    gen_keys |= {factor1._inv(k) for k in gen_keys}
    for c in fam:
        for u, v in c.edges:
            step = Z2xZ2.multiply(Z2xZ2.inverse(ball.keys[u]), ball.keys[v])
            assert step and step[0][0] == 1
            assert step[0][1] in gen_keys


def test_coset_family_rejects_non_products():
    with pytest.raises(InputError, match="free products only"):
        cayley_ball(Z2, 2).cosets


def test_group_spec_json_roundtrip():
    for spec in (Z2, F2, heisenberg(include_central=True), Z2xZ2):
        assert GroupSpec.from_json(spec.to_json()) == spec
    spec = GroupSpec.from_json({"free_product": [{"free_abelian": 2}, {"free_abelian": 2}]})
    assert spec == Z2xZ2
    with pytest.raises(InputError):
        GroupSpec.from_json({"nonsense": 1})


@pytest.mark.parametrize("spec", [Z2xZ2, free_product(free_abelian(2), free_abelian(1)),
                                  free_product(free(2), heisenberg())],
                         ids=["Z2*Z2", "Z2*Z", "F2*Heis"])
def test_coset_edges_match_per_element_products(spec):
    ball = cayley_ball(spec, 3)
    for factor in range(len(spec.factors)):
        gens = [g for _, g in spec.generators() if g[0][0] == factor]
        for c in cosets_of(ball, factor):
            members = set(c.vertices)
            expected = set()
            for u in c.vertices:
                for s in gens:
                    w = ball.index.get(spec.multiply(ball.keys[u], s))
                    if w is not None and w in members and w > u:
                        expected.add((u, w))
            assert c.edges == tuple(sorted(expected))


# -- right translation ----------------------------------------------------------


@pytest.mark.parametrize("spec,radius", [
    (Z2, 4), (H3, 3), (F2, 3), (free_product(free_abelian(2), free_abelian(1)), 3),
    (free_abelian(1), 5), (free_abelian(3), 3), (free_abelian(40), 1),
], ids=["Z2", "Heis", "F2", "Z2*Z", "Z1", "Z3", "Z40"])
def test_right_translation_matches_products(spec, radius):
    """One-row calls of ``right_translations``, one per ball element."""
    ball = cayley_ball(spec, radius)
    outside = 0
    for s, sk in enumerate(ball.keys):
        col = ball.right_translations([s])
        assert col.dtype == np.int32 and col.shape == (1, len(ball.keys))
        for g, j in zip(ball.keys, col[0].tolist()):
            expected = ball.index.get(spec.multiply(g, sk), -1)
            outside += expected == -1
            assert j == expected
    assert outside > 0


@pytest.mark.parametrize("spec,radius", [(Z2, 5), (F2, 4), (heisenberg(include_central=True), 3),
                                         (Z2xZ2, 3)], ids=["Z2", "F2", "Heis-central", "Z2*Z2"])
def test_generator_columns_match_per_element_products(spec, radius):
    ball = cayley_ball(spec, radius)
    gens = spec.generators()
    assert ball.generator_table.shape == (len(ball.keys), len(gens))
    assert ball.generator_table.dtype == np.int32
    for j, (_, s) in enumerate(gens):
        expected = [ball.index.get(reference_product(spec, g, s), -1) for g in ball.keys]
        column = ball.right_translations([ball.index[s]])[0]
        assert column.dtype == np.int32 and column.tolist() == expected
        assert ball.generator_table[:, j].tolist() == expected
        column[:] = 0  # a copy: the table stays as it was
        assert ball.generator_table[:, j].tolist() == expected
    assert (ball.generator_table == -1).any()


def test_free_abelian_codes_fall_back_where_int64_overflows():
    # radius-1 coordinates take 3 values each: 3**39 codes fit in an int64,
    # 3**40 do not, so Z^40 takes the per-element products
    assert cayley_ball(free_abelian(39), 1)._coordinate_codes() is not None
    assert cayley_ball(free_abelian(40), 1)._coordinate_codes() is None
    assert cayley_ball(Z2, 2)._coordinate_codes() is not None
    assert cayley_ball(H3, 2)._coordinate_codes() is None


def test_right_translation_rejects_ids_outside_the_ball():
    for spec in (Z2, F2):  # the coordinate-code path and the generic one
        ball = cayley_ball(spec, 2)
        for bad in (-1, len(ball.keys)):
            with pytest.raises(InputError):
                ball.right_translations([1, bad])


@pytest.mark.parametrize("spec,radius", [
    (Z2, 5), (free_abelian(3), 3), (free_abelian(39), 1), (F2, 3), (H3, 3), (Z2xZ2, 3),
], ids=["Z2", "Z3", "Z39", "F2", "Heis", "Z2*Z2"])
def test_right_translations_equal_the_per_element_products(spec, radius):
    """The whole table in one call, with elements repeated and out of ball
    order.  Z^2 and Z^3 look codes up in a dense table; Z^39 at radius 1
    has 3^39 codes for 79 elements and searches the sorted codes instead."""
    ball = cayley_ball(spec, radius)
    ids = list(reversed(range(len(ball.keys)))) + [3, 0]
    table = ball.right_translations(ids)
    assert table.dtype == np.int32 and table.shape == (len(ids), len(ball.keys))
    for s, row in zip(ids, table.tolist()):
        assert row == [ball.index.get(reference_product(spec, g, ball.keys[s]), -1) for g in ball.keys]
    if spec.kind == "free_abelian":
        lookup = ball._coordinate_codes()[-1]
        assert isinstance(lookup, np.ndarray) == (spec.rank < 39)
    assert ball.right_translations([]).shape == (0, len(ball.keys))
