"""Permutation arithmetic against brute-force references."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rp2cover import kernels
from rp2cover import perm as perm_module
from rp2cover.perm import Permutation, canonical_of_type, format_cycles, parse_permutation

from helpers import INT_DIGITS, all_perms, needs_int_digit_limit, partitions_of, random_perm


def test_composition_is_left_to_right():
    p = Permutation.from_cycles(4, [(1, 2), (3, 4)])
    q = Permutation.from_cycles(4, [(2, 3), (4, 1)])
    assert str(p * q) == "(1 3)(2 4)"
    # x^(pq) = (x^p)^q pointwise
    rng = random.Random(1)
    for _ in range(50):
        a, b = random_perm(5, rng), random_perm(5, rng)
        for x in range(1, 6):
            assert (a * b).apply(x) == b.apply(a.apply(x))


def test_squaring_a_three_cycle():
    r = Permutation.from_cycles(3, [(1, 2, 3)])
    assert str(r * r) == "(1 3 2)"


def test_identity_behaviour():
    e = Permutation.identity(4)
    assert e.is_identity()
    assert str(e) == "()"
    p = Permutation.from_cycles(4, [(1, 3, 2)])
    assert p * e == p
    assert e * p == p
    assert p * p.inverse() == e


def test_inverse_by_table():
    rng = random.Random(2)
    for _ in range(50):
        p = random_perm(6, rng)
        inv = p.inverse()
        for x in range(1, 7):
            assert inv.apply(p.apply(x)) == x


def test_conjugation_relabels_cycles():
    p = Permutation.from_cycles(3, [(1, 2)])
    lam = Permutation.from_cycles(3, [(1, 3)])
    assert str(p.conjugate(lam)) == "(2 3)"
    # lam * p * lam^-1 spelled out
    assert p.conjugate(lam) == lam * p * lam.inverse()


def test_conjugation_preserves_type_and_products():
    rng = random.Random(3)
    for _ in range(50):
        p, q, lam = (random_perm(6, rng) for _ in range(3))
        assert p.conjugate(lam).cycle_type() == p.cycle_type()
        assert (p * q).conjugate(lam) == p.conjugate(lam) * q.conjugate(lam)


def test_cycle_round_trips():
    for p in all_perms(4):
        assert Permutation.from_cycles(4, p.cycles()) == p
        assert parse_permutation(format_cycles(p), 4) == p
    rng = random.Random(4)
    for _ in range(40):
        p = random_perm(7, rng)
        assert Permutation.from_cycles(7, p.cycles()) == p
        assert parse_permutation(str(p), 7) == p


def test_cycle_type_is_sorted_partition():
    for p in all_perms(4):
        t = p.cycle_type()
        assert sum(t) == 4
        assert list(t) == sorted(t, reverse=True)


def test_defect_counts_cycles():
    assert Permutation.from_cycles(4, [(1, 2, 3)]).defect() == 2
    assert Permutation.identity(5).defect() == 0
    assert Permutation.from_cycles(6, [(1, 2), (3, 4, 5, 6)]).defect() == 4


def test_defect_parity_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(100):
        p, q = random_perm(6, rng), random_perm(6, rng)
        assert (p * q).defect() % 2 == (p.defect() + q.defect()) % 2


def test_canonical_of_type_layout():
    p = canonical_of_type(6, (3, 2, 1))
    assert str(p) == "(1 2 3)(4 5)"
    assert p.cycle_type() == (3, 2, 1)
    q = canonical_of_type(5, (1, 4))
    assert str(q) == "(1 2 3 4)"
    with pytest.raises(ValueError):
        canonical_of_type(5, (3, 3))


def test_canonical_of_type_covers_all_types():
    for d in (1, 4, 6):
        for parts in partitions_of(d):
            assert canonical_of_type(d, parts).cycle_type() == tuple(
                sorted(parts, reverse=True)
            )


def test_apply_and_degree():
    p = Permutation.from_cycles(5, [(2, 4)])
    assert p.degree == 5
    assert p.apply(2) == 4
    assert p.apply(1) == 1


def test_validation_rejects_bad_images():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 2, 1))
    with pytest.raises(ValueError):
        Permutation(())


def test_from_cycles_rejects_bad_cycles():
    with pytest.raises(ValueError):
        Permutation.from_cycles(3, [(1, 4)])
    with pytest.raises(ValueError):
        Permutation.from_cycles(4, [(1, 2), (2, 3)])


def test_degree_mismatch_is_an_error():
    with pytest.raises(ValueError):
        Permutation.identity(3) * Permutation.identity(4)
    with pytest.raises(ValueError):
        Permutation.identity(3).conjugate(Permutation.identity(4))


def test_parse_permutation_forms():
    assert parse_permutation("(1 2)(3 4)", 5).images == (2, 1, 4, 3, 5)
    assert parse_permutation("(1,2)(3,4)", 4) == parse_permutation("(1 2)(3 4)", 4)
    assert parse_permutation("()", 3) == Permutation.identity(3)
    assert parse_permutation("  (2 3) ", 3) == Permutation.from_cycles(3, [(2, 3)])
    for bad in ["(1 2", "1 2)", "(x)", "()()", "(1 2)(2 3)"]:
        with pytest.raises(ValueError):
            parse_permutation(bad, 4)


def test_parse_permutation_reads_only_decimal_points():
    # int() would read these as 10, 3 and -1
    for token in ("1_0", "+3", "-1", "3.0", "0x2"):
        with pytest.raises(ValueError, match="non-integer point in cycle at position 0"):
            parse_permutation(f"({token} 2)", 12)
    # any Unicode decimal digit is a digit, as in branch data
    assert parse_permutation("(\uff11 2)", 3) == parse_permutation("(1 2)", 3)
    assert parse_permutation("(01, 002)", 3) == parse_permutation("(1 2)", 3)


def test_parse_permutation_quotes_a_long_text_by_its_start():
    text = "(1 2)(3" + " 4" * 40  # 87 characters
    with pytest.raises(ValueError) as info:
        parse_permutation(text, 4)
    assert str(info.value) == f"unclosed cycle at position 5 in {text[:80]!r}... (87 characters)"
    # a text of at most 80 characters is quoted whole
    text = text[:80]
    with pytest.raises(ValueError) as info:
        parse_permutation(text, 4)
    assert str(info.value) == f"unclosed cycle at position 5 in {text!r}"


def test_parse_permutation_reports_a_malformed_cycle_before_a_bad_point():
    # the out-of-range point 9 comes first, but the text must parse whole
    with pytest.raises(ValueError, match="non-integer"):
        parse_permutation("(1 9)(x)", 4)
    with pytest.raises(ValueError, match="unclosed"):
        parse_permutation("(1 1)(2", 4)
    with pytest.raises(ValueError, match="point 9 outside 1..4"):
        parse_permutation("(1 9)(2 2)", 4)
    with pytest.raises(ValueError, match="point 2 appears in two cycles"):
        parse_permutation("(1 2)(2 9)", 4)


# ---------------------------------------------------------------------------
# differential checks against the reader as it was before it took each point
# once: `_OldPermutation` and `_old_parse_permutation` are verbatim copies of
# that validation, `from_cycles` and `parse_permutation`.  The validation and
# `from_cycles` are unchanged; their tests guard them against a later rewrite.


@dataclass(frozen=True)
class _OldPermutation:
    images: tuple

    def __post_init__(self):
        d = len(self.images)
        if d < 1:
            raise ValueError("degree must be at least 1")
        seen = [False] * (d + 1)
        for v in self.images:
            if not isinstance(v, int) or not 1 <= v <= d or seen[v]:
                raise ValueError(f"not a bijection of 1..{d}: {self.images!r}")
            seen[v] = True

    @classmethod
    def identity(cls, d):
        return cls(kernels.identity(d))

    @classmethod
    def from_cycles(cls, d, cycles):
        images = list(range(1, d + 1))
        used = set()
        for cyc in cycles:
            for x in cyc:
                if not 1 <= x <= d:
                    raise ValueError(f"point {x} outside 1..{d}")
                if x in used:
                    raise ValueError(f"point {x} appears in two cycles")
                used.add(x)
            for i, x in enumerate(cyc):
                images[x - 1] = cyc[(i + 1) % len(cyc)]
        return cls(tuple(images))


def _old_parse_permutation(text, degree):
    s = text.strip()
    if s == "()":
        return _OldPermutation.identity(degree)
    cycles = []
    i = 0
    n = len(s)
    while i < n:
        if s[i].isspace():
            i += 1
            continue
        if s[i] != "(":
            raise ValueError(f"expected '(' at position {i} in {text!r}")
        j = s.find(")", i)
        if j < 0:
            raise ValueError(f"unclosed cycle at position {i} in {text!r}")
        body = s[i + 1 : j].replace(",", " ").split()
        if not body:
            raise ValueError(f"empty cycle at position {i} in {text!r}")
        try:
            cyc = tuple(int(w) for w in body)
        except ValueError:
            raise ValueError(f"non-integer point in cycle at position {i} in {text!r}") from None
        cycles.append(cyc)
        i = j + 1
    return _OldPermutation.from_cycles(degree, cycles)


def _outcome(f, *args):
    """Images built, or the type and text of the exception raised."""
    try:
        return "ok", f(*args).images
    except Exception as e:  # noqa: BLE001 - the exception itself is compared
        return type(e).__name__, str(e)


_ODD_POINTS = st.one_of(
    st.booleans(), st.sampled_from([2.0, 1.5, -1.0, None, "1"])
)


def _points(d):
    return st.one_of(st.integers(-1, d + 2), _ODD_POINTS)


@st.composite
def _image_tuples(draw):
    d = draw(st.integers(0, 8))
    images = list(draw(st.permutations(range(1, d + 1))))
    for _ in range(draw(st.integers(0, 2))):
        if images:
            images[draw(st.integers(0, d - 1))] = draw(_points(d))
    if images and draw(st.booleans()):
        # True and False stand for 1 and 0
        images = [True if v == 1 else v for v in images]
    return draw(st.sampled_from([tuple, list]))(images)


@settings(max_examples=400, deadline=None)
@given(_image_tuples())
@example((1, 2, 3))
@example((1, 1, 3))
@example((0, 2, 1))
@example((2, 4, 1))
@example((2, True, 3))
@example((2.0, 1))
@example(())
def test_permutation_validation_matches_the_point_loop(images):
    assert _outcome(Permutation, images) == _outcome(_OldPermutation, images)


@st.composite
def _cycle_lists(draw):
    d = draw(st.integers(0, 8))
    points = list(draw(st.permutations(range(1, d + 1))))
    cycles = []
    while points and draw(st.integers(0, 3)):
        k = draw(st.integers(1, len(points)))
        cycles.append(points[:k])
        points = points[k:]
    for _ in range(draw(st.integers(0, 2))):
        if cycles and draw(st.booleans()):
            cyc = draw(st.sampled_from(cycles))
            cyc.insert(draw(st.integers(0, len(cyc))), draw(_points(d)))
        elif cycles:
            # a point repeated from an earlier cycle or this one
            src = draw(st.sampled_from(cycles))
            draw(st.sampled_from(cycles)).append(draw(st.sampled_from(src)))
    return d, [tuple(c) for c in cycles]


@settings(max_examples=400, deadline=None)
@given(_cycle_lists())
@example((4, [(2.0, 3, 9)]))
@example((4, [(2, 3), (2.0,)]))
@example((4, [(True, 2), (1, 3)]))
@example((3, [(1, 4)]))
@example((4, [(1, 2), (2, 3)]))
@example((0, []))
def test_from_cycles_matches_the_set_check(case):
    d, cycles = case
    assert _outcome(Permutation.from_cycles, d, cycles) == _outcome(_OldPermutation.from_cycles, d, cycles)


# tokens that int() and the decimal rule read alike
_TOKENS = ["1", "2", "3", "4", "5", "9", "0", "01", "12", "\uff13", "x", "1.5", "2a", "", "\u00b2"]


@st.composite
def _cycle_texts(draw):
    d = draw(st.integers(0, 8))
    if d and draw(st.booleans()):
        # a well-formed text, perhaps with commas and extra spaces
        text = format_cycles(Permutation(tuple(draw(st.permutations(range(1, d + 1))))))
        if draw(st.booleans()):
            text = text.replace(" ", draw(st.sampled_from([",", " , ", "  "])))
        return " " * draw(st.integers(0, 2)) + text, d
    pieces = st.one_of(st.sampled_from(["(", ")", " ", ",", ")("]), st.sampled_from(_TOKENS))
    return "".join(draw(st.lists(pieces, max_size=14))), d


# every drawn text is shorter than 80 characters, so the messages of both
# readers quote it whole
@settings(max_examples=600, deadline=None)
@given(_cycle_texts())
@example(("(1 9)(x)", 4))
@example(("(1 1)(2", 4))
@example(("(1 2)(2 9)", 4))
@example(("()", 0))
@example(("(1)", 0))
@example(("()()", 3))
@example(("(1 2", 3))
@example(("1 2)", 3))
@example(("(1 2) (3 4)", 4))
@example(("(1 2),(3 4)", 4))
@example(("(1 2)()(3 4)", 4))
@example(("((1 2)", 4))
@example(("(1 2))(3 4)", 4))
@example(("(01 2)(3 4)", 4))
@example(("(1 2)(2 3)", 4))
@example(("(3)(1 2)", 3))
@example((")1 2)(3 4(", 4))
def test_parse_permutation_matches_the_old_reader(case):
    text, d = case
    assert _outcome(parse_permutation, text, d) == _outcome(_old_parse_permutation, text, d)


def _fullwidth(token):
    return "".join(chr(0xFF10 + int(c)) for c in token)


@st.composite
def _long_cycle_texts(draw):
    """Texts of degree up to 600 that the old reader takes without a syntax
    fault: well-formed cycles with comma and space variants, points with
    leading zeros or fullwidth digits, 0 and d + 1, repeats, and degrees of
    0 and below.  Returns (text, degree, table size to start from)."""
    rng = draw(st.randoms(use_true_random=False))
    d = draw(st.one_of(st.integers(-2, 600), st.integers(-2, 3), st.integers(250, 600)))
    points = list(range(1, max(d, 0) + 1))
    rng.shuffle(points)
    cycles = []
    while points:
        k = min(len(points), rng.choice([1, 2, 2, 3, rng.randint(1, 600)]))
        cycles.append(points[:k])
        points = points[k:]
    if rng.random() < 0.5:
        # a few cycles only, so a large point may lie past the table
        cycles = rng.sample(cycles, min(len(cycles), rng.randint(0, 3)))
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        bad = rng.choice([0, max(d, 0) + 1, max(d, 0) + 1, max(d, 0) + rng.randint(1, 10**6)])
        if rng.random() < 0.3 and cycles:
            # a repeat in a later cycle than the out-of-range point
            cycles.append([rng.choice(rng.choice(cycles))])
            cycles.insert(rng.randrange(len(cycles)), [bad])
        elif cycles:
            rng.choice(cycles).insert(0, bad)
        else:
            cycles.append([bad])
    if cycles and rng.random() < 0.2:
        src = rng.choice(cycles)
        rng.choice(cycles).append(rng.choice(src))
    sep = rng.choice([" ", ",", " , ", "  "])
    gap = rng.choice(["", "", " "])

    def token(x):
        t = str(x)
        r = rng.random()
        if r < 0.05:
            return "0" * rng.randint(1, 3) + t
        if r < 0.1:
            return _fullwidth(t)
        return t

    text = gap.join("(" + sep.join(map(token, c)) + ")" for c in cycles)
    if not cycles:
        text = rng.choice(["", "()", " () ", "  "])
    return text, d, rng.choice([0, 5, max(d, 0) // 2, max(d, 0) + 1, 700])


_TRANSPOSITIONS_600 = "".join(f"({x} {x + 1})" for x in range(1, 600, 2))


# The messages of both readers agree here: no drawn text has a syntax
# fault, and every point has fewer than 80 digits.
@settings(max_examples=300, deadline=None)
@given(_long_cycle_texts())
@example((_TRANSPOSITIONS_600, 600, 0))
@example((_TRANSPOSITIONS_600, 600, 700))
@example(("(1 2)(3 4)", 600, 0))
@example(("(1 500)", 600, 0))
@example(("(01 2)(３ 4)", 4, 0))
@example(("(1 0)(2 1)", 4, 700))
@example(("(1 5)(2 1)", 4, 0))
@example(("(1 2)(3 5)", 4, 700))
@example(("(3 4)(5)(3)", 4, 700))
@example(("(1 2)", 0, 0))
@example(("(1 2)", -1, 0))
@example(("()", 0, 700))
@example(("", -2, 0))
@example(("", 3, 700))
def test_parse_permutation_matches_the_old_reader_on_long_texts(case):
    text, d, table = case
    # the table only saves work: start from a table shorter or longer than
    # the text needs
    perm_module._POINTS.clear()
    perm_module._point_table(table)
    got = _outcome(parse_permutation, text, d)
    assert got == _outcome(_old_parse_permutation, text, d)
    if got[0] == "ok":
        p, want = parse_permutation(text, d), Permutation(got[1])
        assert p == want and hash(p) == hash(want)
        assert p.cycle_type() == kernels.cycle_lengths(want.images)


@st.composite
def _accepted_texts(draw):
    """Texts of degree up to 64 that a reader accepts, with the permutation
    they name: `format_cycles` output, or its cycles with some 1-cycles
    written out, each rotated, in any order, joined with commas or spaces
    and perhaps with spaces between cycles.  Returns (text, permutation,
    table size to start from)."""
    rng = draw(st.randoms(use_true_random=False))
    d = draw(st.integers(1, 64))
    p = random_perm(d, rng) if draw(st.integers(0, 7)) else Permutation.identity(d)
    table = rng.choice([0, 5, d // 2, d + 1, 700])
    if draw(st.booleans()):
        return format_cycles(p), p, table
    cycles = [c for c in p.cycles() if len(c) > 1 or rng.random() < 0.3]
    rng.shuffle(cycles)
    sep = rng.choice([" ", ",", " , ", "  "])
    gap = rng.choice(["", "", " ", "  "])  # a space between cycles goes to the scanner
    rotated = (c[k:] + c[:k] for c in cycles for k in [rng.randrange(len(c))])
    text = gap.join("(" + sep.join(map(str, c)) + ")" for c in rotated)
    return text or "()", p, table


@settings(max_examples=400, deadline=None)
@given(_accepted_texts())
@example(("()", Permutation.identity(1), 0))
@example(("()", Permutation.identity(5), 700))
@example(("(5)", Permutation.identity(5), 0))
@example(("(2)(1)", Permutation.identity(3), 700))
@example(("(3 1) (5)(2,4)", Permutation.from_cycles(6, [(1, 3), (2, 4)]), 0))
@example(("(4 1 2)", Permutation.from_cycles(4, [(1, 2, 4)]), 2))
def test_parse_permutation_stores_the_type_a_walk_finds(case):
    text, p, table = case
    perm_module._POINTS.clear()
    perm_module._point_table(table)
    got = parse_permutation(text, p.degree)
    assert got.images == p.images
    assert got.cycle_type() == kernels.cycle_lengths(p.images)
    # the stored lengths leave equality, hash and repr to the images alone
    assert got == p and hash(got) == hash(p) and repr(got) == repr(p)


def test_only_parsed_permutations_store_a_type():
    # the engines keep their permutations, so a stored type would cost memory
    p = parse_permutation("(1 2 3)", 5)
    built = [p * p, p.inverse(), p.conjugate(p), Permutation(p.images)]
    assert all("_lengths" not in vars(q) for q in built)
    assert [q.cycle_type() for q in built] == [(3, 1, 1)] * 4
    assert all("_lengths" not in vars(q) for q in built)


def test_parse_permutation_reads_format_cycles_text_without_the_scanner(monkeypatch):
    # the identity's "()" is the one such text the scanner reads; a text
    # with a point its own length does not reach, such as "(1 9)", needs a
    # table that already holds that point
    def scan(*args):
        raise AssertionError(f"scanned {args[0]!r}")

    monkeypatch.setattr(perm_module, "_POINTS", {})
    perm_module._point_table(64)
    monkeypatch.setattr(perm_module, "_scan", scan)
    rng = random.Random(0)
    for _ in range(300):
        p = random_perm(rng.randint(2, 64), rng)
        if not p.is_identity():
            assert parse_permutation(format_cycles(p), p.degree) == p


def test_parse_permutation_quotes_a_long_point_by_its_first_digits():
    short = "9" * 80
    with pytest.raises(ValueError) as info:
        parse_permutation(f"(1 {short})", 4)
    assert str(info.value) == f"point {short} outside 1..4"
    long = "9" * 81
    with pytest.raises(ValueError) as info:
        parse_permutation(f"(1 2)(3 {long})", 4)
    assert str(info.value) == f"point {short}... (81 digits) outside 1..4"


def test_parse_permutation_grows_its_table_only_as_far_as_the_text(monkeypatch):
    monkeypatch.setattr(perm_module, "_POINTS", {})
    p = parse_permutation("(1 2)", 10**6)
    assert p.images[:3] == (2, 1, 3) and p.degree == 10**6
    assert len(perm_module._POINTS) <= len("(1 2)")


def test_parse_permutation_refuses_a_degree_above_the_limit(monkeypatch):
    # 10**20 points cannot be listed at all; the claim alone is refused
    with pytest.raises(ValueError) as info:
        parse_permutation("(1 2)", 10**20)
    assert str(info.value) == (
        f"degree {10**20} exceeds the largest supported degree, {perm_module.MAX_DEGREE}"
    )
    monkeypatch.setattr(perm_module, "MAX_DEGREE", 8)
    assert parse_permutation("(1 2)", 8).images == (2, 1, 3, 4, 5, 6, 7, 8)
    with pytest.raises(ValueError, match="^degree 9 exceeds the largest supported degree, 8$"):
        parse_permutation("(1 2)", 9)
    # a fault in the text is still reported first
    with pytest.raises(ValueError, match="^point 0 outside 1..9$"):
        parse_permutation("(0 2)", 9)


@needs_int_digit_limit
def test_parse_permutation_names_a_degree_too_long_for_str():
    # str() of a degree past the digit limit (5000 digits at the default
    # limit) raised Python's own ValueError, which names no degree
    degree = 10 ** (INT_DIGITS + 700)
    limit = f"(more than {INT_DIGITS} digits)"
    with pytest.raises(ValueError) as info:
        parse_permutation("(1 2)", degree)
    assert str(info.value) == (
        f"degree {limit} exceeds the largest supported degree, {perm_module.MAX_DEGREE}"
    )
    with pytest.raises(ValueError) as info:
        parse_permutation("(0 2)", degree)
    assert str(info.value) == f"point 0 outside 1..{limit}"
