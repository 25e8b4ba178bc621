"""Unit and property tests for the torus-link calculus."""

import hashlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projlink.links import (
    AmbientSpace,
    Direction,
    InvalidInput,
    InvalidN,
    Relation,
    SpaceMismatch,
    TorusLink,
    WrongSpace,
    _MOVES,
    _move,
    classify,
    ClassificationKind,
    component_count,
    isotopic,
    lift,
    make_link,
    normal_form,
    verify_chain,
)

S3 = AmbientSpace.SPHERE3
RP3 = AmbientSpace.RP3

spaces = st.sampled_from([S3, RP3])
coeffs = st.integers(min_value=-200, max_value=200)
triples = st.builds(make_link, spaces, coeffs, coeffs, st.integers(0, 2))
big = st.integers(min_value=-10**18, max_value=10**18)


@st.composite
def big_triples(draw):
    """Triples up to 10^18, most of them built so that R3 or R4 applies."""
    space = draw(spaces)
    n = draw(st.integers(0, 2))
    k = draw(st.integers(1, 10**9))
    m = draw(st.integers(-10**9, 10**9))
    shape = draw(st.sampled_from(["any", "k|p,q", "R4 in RP3"]))
    if shape == "any":
        p, q = draw(big), draw(big)
    elif shape == "k|p,q":
        p, q = draw(st.permutations([k, k * m]))
    else:  # -p + 2q = k divides q
        q = k * m
        p = 2 * q - k
    return make_link(space, p, q, n)


class TestMakeLink:
    def test_constructor_passthrough(self):
        assert make_link(S3, 2, 3, 0) == TorusLink(S3, 2, 3, 0)
        assert make_link(RP3, 0, 0, 1) == TorusLink(RP3, 0, 0, 1)

    def test_out_of_range_n(self):
        with pytest.raises(InvalidN):
            make_link(S3, 1, 1, 3)
        with pytest.raises(InvalidN):
            make_link(S3, 1, 1, -1)

    def test_non_integer_rejected(self):
        with pytest.raises(InvalidN):
            make_link(S3, 1.5, 1, 0)


class TestComponentCount:
    def test_hopf_link_has_two_components(self):
        assert component_count(make_link(S3, 2, 2, 0)) == 2

    def test_unknot(self):
        assert component_count(make_link(S3, 0, 0, 1)) == 1

    def test_parallel_copies_plus_cores(self):
        assert component_count(make_link(S3, 6, 4, 2)) == 4

    def test_empty_family(self):
        assert component_count(make_link(RP3, 0, 0, 0)) == 0

    # `classify` counts components on the normal form: R1 and R2 keep
    # gcd(p, q), and R3 and R4 trade one parallel copy for a core.
    @pytest.mark.parametrize("space", [S3, RP3])
    def test_the_normal_form_keeps_the_count_at_bound_30(self, space):
        for p, q, n in product(range(-30, 31), range(-30, 31), range(3)):
            link = make_link(space, p, q, n)
            assert component_count(normal_form(link)[0]) == component_count(link)


class TestApplicability:
    def test_dividing_p_enables_r3(self):
        assert _move(S3, Relation.R3, Direction.FORWARD, 2, 2, 0) == (1, 1, 1)

    def test_degenerate_triple_has_only_involutions(self):
        assert [m for m in _MOVES if _move(S3, *m, 0, 0, 0) is not None] == [
            (Relation.R1, Direction.FORWARD),
            (Relation.R2, Direction.FORWARD),
        ]

    def test_rp3_handlebody_swap(self):
        assert _move(RP3, Relation.R2, Direction.FORWARD, 1, 3, 0) == (5, 3, 0)

    def test_no_swap_with_one_core(self):
        assert _move(S3, Relation.R2, Direction.FORWARD, 3, 2, 1) is None


class TestApplyRelation:
    """Single moves, applied by `_move`."""

    @pytest.mark.parametrize("space,before,rel,after", [
        (S3, (2, 2, 0), Relation.R3, (1, 1, 1)),
        (S3, (1, 1, 1), Relation.R4, (0, 0, 2)),
        (RP3, (3, 3, 0), Relation.R3, (2, 2, 1)),
        (RP3, (2, 2, 1), Relation.R4, (1, 1, 2)),
    ])
    def test_forward_reductions(self, space, before, rel, after):
        assert _move(space, rel, Direction.FORWARD, *before) == after

    def test_not_applicable(self):
        assert _move(S3, Relation.R3, Direction.FORWARD, 2, 3, 0) is None
        assert _move(S3, Relation.R2, Direction.FORWARD, 2, 2, 1) is None

    @given(triples | big_triples())
    def test_backward_inverts_forward(self, link):
        space, p, q, n = link
        for rel in (Relation.R3, Relation.R4):
            after = _move(space, rel, Direction.FORWARD, p, q, n)
            if after is None:
                continue
            back = _move(space, rel, Direction.BACKWARD, *after)
            assert back is not None
            # The backward map may pick a different canonical preimage only
            # at the degenerate triples (0,0;1) and (0,0;2).
            if after[:2] != (0, 0):
                assert back == (p, q, n)

    @given(triples | big_triples())
    def test_forward_inverts_backward(self, link):
        space, p, q, n = link
        for rel in (Relation.R3, Relation.R4):
            back = _move(space, rel, Direction.BACKWARD, p, q, n)
            if back is None:
                continue
            assert _move(space, rel, Direction.FORWARD, *back) == (p, q, n)


# Per space: SHA-256 of one line per triple with |p|, |q| <= 40, listing its
# applicable moves and the image of every relation in both directions ("-"
# where `_move` gives None).  Recorded before the moves were rewritten on
# one integer function, so it pins every move the calculus makes.
MOVE_DIGESTS_BOUND_40 = {
    S3: "89b573419d009c6e4effb5e58ad0881959192d247d4d31910cfcaf68338b4e07",
    RP3: "5c982b17f261c93874bdec8e956fbf2fe7ab0b7749b2e9219755145ecd68d0c7",
}


@pytest.mark.parametrize("space", [S3, RP3])
def test_every_move_at_bound_40_is_unchanged(space):
    digest = hashlib.sha256()
    for p in range(-40, 41):
        for q in range(-40, 41):
            for n in (0, 1, 2):
                listed = " ".join(f"{r.value}{d.value}" for r, d in _MOVES
                                  if _move(space, r, d, p, q, n) is not None)
                images = []
                for relation in Relation:
                    for direction in Direction:
                        after = _move(space, relation, direction, p, q, n)
                        images.append("-" if after is None else ",".join(map(str, after)))
                digest.update(f"{p},{q},{n} {listed} {' '.join(images)}\n".encode())
    assert digest.hexdigest() == MOVE_DIGESTS_BOUND_40[space]


class TestNormalForm:
    def test_hopf_from_two_minus_two(self):
        nf, chain = normal_form(make_link(S3, 2, -2, 0))
        assert nf == normal_form(make_link(S3, 0, 0, 2))[0]
        assert len(chain) >= 2
        assert verify_chain(chain, make_link(S3, 2, -2, 0), nf)

    def test_unknot_family(self):
        assert normal_form(make_link(S3, 1, 7, 0))[0] == \
            normal_form(make_link(S3, 0, 0, 1))[0]

    def test_rp3_four_zero(self):
        assert normal_form(make_link(RP3, 4, 0, 0))[0] == \
            normal_form(make_link(RP3, 2, 0, 2))[0]

    @given(triples)
    @settings(max_examples=300)
    def test_idempotent(self, link):
        nf, _ = normal_form(link)
        assert normal_form(nf)[0] == nf

    @given(triples)
    @settings(max_examples=300)
    def test_witness_replays(self, link):
        nf, chain = normal_form(link)
        assert verify_chain(chain, link, nf)

    @given(triples)
    @settings(max_examples=300)
    def test_component_count_is_invariant(self, link):
        nf, chain = normal_form(link)
        assert component_count(nf) == component_count(link)
        for step in chain:
            assert component_count(step.before) == component_count(step.after)

    @given(triples)
    @settings(max_examples=300)
    def test_forward_reductions_shrink(self, link):
        space, p, q, n = link
        for rel in (Relation.R3, Relation.R4):
            after = _move(space, rel, Direction.FORWARD, p, q, n)
            if after is not None:
                assert abs(after[0]) + abs(after[1]) < abs(p) + abs(q)


class TestIsotopic:
    def test_swap(self):
        ok, chain = isotopic(make_link(S3, 3, 5, 0), make_link(S3, 5, 3, 0))
        assert ok
        assert verify_chain(chain, make_link(S3, 3, 5, 0), make_link(S3, 5, 3, 0))

    def test_rp3_double_reduction(self):
        ok, _ = isotopic(make_link(RP3, 3, 3, 0), make_link(RP3, 1, 1, 2))
        assert ok

    def test_distinct_torus_links(self):
        # Derived from the bounded closure oracle at bound 50 (disjoint orbits).
        ok, chain = isotopic(make_link(S3, 2, 3, 0), make_link(S3, 2, 5, 0))
        assert not ok
        assert chain is None

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            isotopic(make_link(S3, 1, 1, 0), make_link(RP3, 1, 1, 0))

    @given(triples, triples)
    @settings(max_examples=200)
    def test_positive_verdicts_carry_valid_chains(self, a, b):
        if a.space is not b.space:
            return
        ok, chain = isotopic(a, b)
        if ok:
            assert verify_chain(chain, a, b)


class TestLift:
    @pytest.mark.parametrize("before,after", [
        ((1, 1, 0), (1, 1, 0)),
        ((0, 1, 0), (0, 2, 0)),
        ((2, 1, 1), (2, 0, 1)),
    ])
    def test_formula(self, before, after):
        assert lift(make_link(RP3, *before)) == make_link(S3, *after)

    def test_wrong_space(self):
        with pytest.raises(WrongSpace):
            lift(make_link(S3, 1, 1, 0))

    @given(st.builds(make_link, st.just(RP3), coeffs, coeffs, st.integers(0, 2)))
    @settings(max_examples=200)
    def test_relations_lift_to_isotopies(self, link):
        for rel, direction in _MOVES:
            after = _move(RP3, rel, direction, link.p, link.q, link.n)
            if after is None:
                continue
            ok, _ = isotopic(lift(link), lift(TorusLink(RP3, *after)))
            assert ok, (link, rel, direction)


class TestClassify:
    @pytest.mark.parametrize("space,triple,kind", [
        (S3, (0, 2, 0), ClassificationKind.NON_SEIFERT_SPLIT),
        (RP3, (2, 1, 1), ClassificationKind.NON_SEIFERT_SPLIT),
        (S3, (2, 3, 0), ClassificationKind.SEIFERT_COMPLEMENT),
        (S3, (0, 0, 0), ClassificationKind.EMPTY),
        (S3, (0, 0, 1), ClassificationKind.SEIFERT_COMPLEMENT),
        (RP3, (0, 3, 0), ClassificationKind.NON_SEIFERT_SPLIT),
        (RP3, (4, 2, 1), ClassificationKind.NON_SEIFERT_SPLIT),
        (RP3, (0, 0, 0), ClassificationKind.EMPTY),
    ])
    def test_examples(self, space, triple, kind):
        assert classify(make_link(space, *triple)).kind == kind

    @given(triples)
    @settings(max_examples=200)
    def test_classification_is_a_class_invariant(self, link):
        nf, _ = normal_form(link)
        assert classify(link).kind == classify(nf).kind


class TestInvalidInput:
    @pytest.mark.parametrize("args", [(1.5, 1, 0), (1, "1", 0), (1, 1, True), (1, 1, 0.0)])
    def test_non_integer_is_invalid_input(self, args):
        with pytest.raises(InvalidInput) as exc:
            make_link(S3, *args)
        assert exc.value.code == "INVALID_INPUT"

    def test_integer_n_out_of_range_stays_invalid_n(self):
        with pytest.raises(InvalidN) as exc:
            make_link(S3, 1, 1, 3)
        assert not isinstance(exc.value, InvalidInput)
        assert exc.value.code == "INVALID_N"

    # A TorusLink built without make_link: the kernel reads a space that is
    # not an AmbientSpace as RP^3, and TorusLink's repr cannot print it, so
    # neither SpaceMismatch nor WrongSpace can name the link.
    @pytest.mark.parametrize("query", [normal_form, classify,
                                       lambda link: isotopic(link, make_link(S3, 0, 3, 0)),
                                       lambda link: isotopic(make_link(S3, 0, 3, 0), link),
                                       lift],
                             ids=["normal_form", "classify",
                                  "isotopic_first", "isotopic_second", "lift"])
    def test_a_hand_built_link_in_no_space_is_invalid_input(self, query):
        with pytest.raises(InvalidInput, match="space must be an AmbientSpace, got 's3'"):
            query(TorusLink("s3", 0, 3, 0))
