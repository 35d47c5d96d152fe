"""W-classes of orthogonal sets: the canonical form, the census, the
W-invariance of `classify` and the second routes of its two decisions.

`classify` labels each offender by its coefficient pattern and decides
sphericality by height. The affine-diagram label and the per-family pattern
verdict (tests/oracles.py) are checked against them on every W-class of
orthogonal sets of every supported system of rank at most 8, and on seeded
sets of rank 11 and 12.
"""

import random
from functools import lru_cache

import pytest

from weylorbits.nilpotent import OrthogonalSet, classify, is_spherical
from weylorbits.roots import build_root_system

from oracles import (
    ALL_SYSTEMS,
    CanonicalForm,
    census,
    label_by_diagram,
    orthogonal_subsets,
    random_orthogonal_set,
    spherical_by_pattern,
    up_to_sign,
)

# classes of nonempty orthogonal sets by size, 434 in all
CLASS_COUNTS = {
    ("A", 1): [1], ("A", 2): [1], ("A", 3): [1, 1], ("A", 4): [1, 1],
    ("A", 5): [1, 1, 1], ("A", 6): [1, 1, 1], ("A", 7): [1, 1, 1, 1], ("A", 8): [1, 1, 1, 1],
    ("B", 2): [2, 2], ("B", 3): [2, 3, 2], ("B", 4): [2, 4, 4, 3], ("B", 5): [2, 4, 5, 5, 3],
    ("B", 6): [2, 4, 6, 7, 6, 4], ("B", 7): [2, 4, 6, 8, 8, 7, 4],
    ("B", 8): [2, 4, 6, 9, 10, 10, 8, 5],
    ("D", 3): [1, 1], ("D", 4): [1, 3, 1, 1], ("D", 5): [1, 2, 1, 1],
    ("D", 6): [1, 2, 3, 2, 1, 1], ("D", 7): [1, 2, 2, 2, 1, 1],
    ("D", 8): [1, 2, 2, 4, 2, 2, 1, 1],
    ("E", 6): [1, 1, 1, 1], ("E", 7): [1, 1, 2, 2, 1, 1, 1], ("E", 8): [1, 1, 1, 2, 1, 1, 1, 1],
    ("F", 4): [2, 3, 4, 3], ("G", 2): [2, 1],
}
CLASS_COUNTS.update({("C", n): CLASS_COUNTS[("B", n)] for n in range(2, 9)})

UNION_FIND_SYSTEMS = (
    [("A", 3), ("A", 5), ("A", 6), ("A", 7)]
    + [(f, n) for f in "BC" for n in range(2, 6)]
    + [("D", n) for n in range(3, 7)]
    + [("E", 6), ("F", 4), ("G", 2)]
)


@lru_cache(maxsize=None)
def _census(family, rank):
    """The system, its canonical form and its census, built once per run."""
    rs = build_root_system(family, rank)
    canonical = CanonicalForm(rs)
    return rs, canonical, census(rs, canonical)


def _invariants(oset):
    report = classify(oset)
    return (
        report.rationally_orthogonal,
        frozenset(c.case for c in report.cases),
        report.height,
        report.spherical,
        report.dynkin_labels,
        report.orbit_type_rank,
    )


def _signed_shuffle(thetas, rng):
    out = [t if rng.random() < 0.5 else tuple(-x for x in t) for t in thetas]
    rng.shuffle(out)
    return tuple(out)


@pytest.mark.parametrize("family,rank", UNION_FIND_SYSTEMS)
def test_canonical_form_separates_the_w_classes(family, rank):
    # the classes under the simple reflections, by union-find over every
    # orthogonal set up to sign, are exactly the fibres of the canonical form
    rs = build_root_system(family, rank)
    sets = orthogonal_subsets(rs, rank)
    index = {frozenset(s): k for k, s in enumerate(sets)}
    parent = list(range(len(sets)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for k, s in enumerate(sets):
        for i in range(rank):
            image = index[frozenset(up_to_sign(rs.reflect_simple(t, i)) for t in s)]
            parent[find(k)] = find(image)
    canonical = CanonicalForm(rs)
    by_form, by_orbit = {}, {}
    for k, s in enumerate(sets):
        by_form.setdefault(canonical(s), set()).add(k)
        by_orbit.setdefault(find(k), set()).add(k)
    assert sorted(map(sorted, by_form.values())) == sorted(map(sorted, by_orbit.values()))


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_class_counts(family, rank):
    _, _, levels = _census(family, rank)
    assert [len(level) for level in levels] == CLASS_COUNTS[(family, rank)]


@pytest.mark.parametrize("family,rank", [("B", 4), ("C", 4), ("F", 4), ("D", 5), ("E", 6)])
def test_classify_is_constant_on_every_class(family, rank):
    # every orthogonal set, as listed and with seeded signs and order; the
    # Levi report is left out: it reads h as given, not its dominant conjugate
    rs = build_root_system(family, rank)
    canonical = CanonicalForm(rs)
    rng = random.Random(rank)
    seen = {}
    for s in orthogonal_subsets(rs, rank):
        for thetas in (s, _signed_shuffle(s, rng)):
            fields = _invariants(OrthogonalSet(rs, thetas))
            assert seen.setdefault(canonical(thetas), fields) == fields, thetas


@pytest.mark.parametrize("rank", [7, 8])
def test_classify_is_constant_on_exceptional_conjugates(rank):
    # three conjugates per class, by random simple-reflection words with
    # random signs and order
    rs, canonical, levels = _census("E", rank)
    rng = random.Random(rank)
    for rep in (s for level in levels for s in level):
        fields = _invariants(OrthogonalSet(rs, rep))
        for _ in range(3):
            thetas = rep
            for _ in range(rng.randint(5, 40)):
                i = rng.randrange(rank)
                thetas = tuple(rs.reflect_simple(t, i) for t in thetas)
            thetas = _signed_shuffle(thetas, rng)
            assert canonical(thetas) == canonical(rep)
            assert _invariants(OrthogonalSet(rs, thetas)) == fields, thetas


def _assert_routes_agree(oset):
    for label in oset.offenders:
        assert label_by_diagram(oset, label) == label.case, (oset.thetas, label)
    assert spherical_by_pattern(oset) == is_spherical(oset).spherical, oset.thetas


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_second_routes_agree_on_every_class(family, rank):
    rs, _, levels = _census(family, rank)
    for rep in (s for level in levels for s in level):
        _assert_routes_agree(OrthogonalSet(rs, rep))


@pytest.mark.parametrize("family,rank", [("A", 11), ("B", 12), ("C", 12), ("D", 12)])
def test_second_routes_agree_above_rank_8(family, rank):
    # an offender touches at most 4 roots, so the census covers every label;
    # sphericality belongs to the whole set and is sampled here
    rs = build_root_system(family, rank)
    rng = random.Random(rank)
    for _ in range(200):
        _assert_routes_agree(random_orthogonal_set(rs, rng.randint(1, 4), rng))
