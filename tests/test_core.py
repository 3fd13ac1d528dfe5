"""Instance parsing, Gale-Shapley, the dominance lattice, and weights."""

from __future__ import annotations

import random
from fractions import Fraction

import families
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    IDENTITY_THREE_TEXT,
    TWO_BY_TWO_TEXT,
    family_instance,
    identity_three,
    instances,
    random_instance,
    tie_weights,
    two_by_two,
)
from stablecut import (
    Instance,
    Matching,
    ParseError,
    WeightFunction,
    all_stable_matchings,
    blocking_pairs,
    dominates,
    format_scaled,
    gale_shapley,
    is_stable,
    join,
    matching_weight,
    meet,
    parse_instance,
    parse_weights,
    preset_desirable_undesirable,
    preset_egalitarian,
)
from stablecut.core import MAX_N, _content_lines, _parse_decimal, _parse_pref_row


def test_parse_two_by_two():
    inst = parse_instance(TWO_BY_TWO_TEXT)
    assert inst.boy_prefs == ((0, 1), (1, 0))
    assert inst.girl_prefs == ((1, 0), (0, 1))


def test_parse_identity_three():
    inst = parse_instance(IDENTITY_THREE_TEXT)
    assert inst.n == 3
    assert inst.boy_prefs == ((0, 1, 2),) * 3
    assert inst.girl_prefs == inst.boy_prefs


def test_parse_skips_comments_and_blank_lines():
    text = "# header\n\n2\n1 2\n# boys done soon\n2 1\n\n2 1\n1 2\n"
    assert parse_instance(text) == two_by_two()


def test_parse_rejects_duplicate_entry():
    with pytest.raises(ParseError, match="not a permutation"):
        parse_instance("2\n1 1\n2 1\n2 1\n1 2\n")
    with pytest.raises(ParseError, match="line 2: malformed boy preference row"):
        parse_instance("2\n1 x\n2 1\n2 1\n1 2\n")


def test_parse_rejects_size_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_instance("0\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_instance("5001\n")


def test_parse_rejects_non_integer_size():
    with pytest.raises(ParseError, match="must be an integer"):
        parse_instance("two\n")


def test_parse_rejects_missing_rows():
    with pytest.raises(ParseError, match="expected 4 preference rows"):
        parse_instance("2\n1 2\n2 1\n2 1\n")
    with pytest.raises(ParseError, match="line 1: missing instance size"):
        parse_instance("# no instance here\n")


def test_parse_rejects_extra_rows():
    with pytest.raises(ParseError, match="unexpected content"):
        parse_instance(TWO_BY_TWO_TEXT + "1 2\n")


def test_instance_rejects_mismatched_sides():
    with pytest.raises(ValueError, match="same size"):
        Instance(((0, 1), (1, 0)), ((0, 1),))


def test_instance_rejects_no_boys():
    with pytest.raises(ValueError, match="at least one boy"):
        Instance((), ())


def test_instance_rejects_a_row_that_is_not_a_permutation():
    with pytest.raises(ValueError, match=r"girl 2: preference row is not a permutation of 1\.\.2"):
        Instance(((0, 1), (1, 0)), ((0, 1), (1, 1)))


def test_matching_rejects_non_bijection():
    with pytest.raises(ValueError, match="bijection"):
        Matching((0, 0))


def test_matching_inverse():
    m = Matching((2, 0, 1))
    assert m.partner_of_girl == (1, 2, 0)
    assert list(m.pairs()) == [(0, 2), (1, 0), (2, 1)]


def test_parse_weights_mixed_decimals():
    w = parse_weights("1 0.5\n-0.25 2\n", 2)
    assert w.scale == 100
    assert w.table == ((100, 50), (-25, 200))


def test_parse_weights_integer_table_keeps_scale_one():
    w = parse_weights("3 2\n2 1\n", 2)
    assert w.scale == 1
    assert w.table == ((3, 2), (2, 1))


def test_parse_weights_rejects_long_fractions():
    with pytest.raises(ParseError, match="fraction digits"):
        parse_weights("0.0123456789 0\n0 0\n", 2)


def test_parse_weights_rejects_wrong_shape():
    with pytest.raises(ParseError, match="expected 2 weight rows"):
        parse_weights("1 2\n", 2)
    with pytest.raises(ParseError, match="expected 2 weights"):
        parse_weights("1 2 3\n4 5 6\n", 2)


def test_parse_weights_rejects_garbage():
    with pytest.raises(ParseError, match="not a decimal"):
        parse_weights("1 x\n2 3\n", 2)


def test_weight_function_rejects_a_scale_below_one():
    with pytest.raises(ValueError, match="scale must be a positive integer"):
        WeightFunction(((1,),), 0)


@pytest.mark.parametrize("scale", [2, 3, 20, 99, 1001])
def test_scales_must_be_powers_of_ten(scale):
    with pytest.raises(ValueError, match=f"scale {scale} is not a power of ten"):
        WeightFunction(((1,),), scale)
    with pytest.raises(ValueError, match=f"scale {scale} is not a power of ten"):
        format_scaled(5, scale)


def test_format_scaled_rejects_a_scale_below_one():
    with pytest.raises(ValueError, match="scale must be a positive integer"):
        format_scaled(5, 0)


def test_weight_function_rejects_a_non_square_table():
    with pytest.raises(ValueError, match="weight table must be square"):
        WeightFunction(((1, 2), (3,)))


def test_parse_decimal_values_and_fraction_digits():
    assert _parse_decimal("+.5") == (5, 1)
    assert _parse_decimal("-0") == (0, 0)
    assert _parse_decimal("007.0100") == (70100, 4)
    assert _parse_decimal("5.") == (5, 0)
    assert _parse_decimal("-.25") == (-25, 2)


def test_parse_decimal_names_a_long_fraction_without_its_sign():
    with pytest.raises(ValueError) as err:
        _parse_decimal("-1.0123456789")
    assert str(err.value) == "'1.0123456789' has more than 9 fraction digits"


def test_parse_decimal_refuses_more_digits_than_a_64_bit_weight():
    with pytest.raises(ValueError) as err:
        _parse_decimal("-" + "1" * 4300 + ".5")
    assert str(err.value) == "a weight of 4301 digits exceeds the 64-bit range"
    with pytest.raises(ValueError, match="a weight of 20 digits exceeds"):
        _parse_decimal("1" * 20)
    # Leading zeros are not significant, however many there are.
    assert _parse_decimal("0" * 4300 + "7") == (7, 0)
    assert _parse_decimal("٠" * 30 + "٣") == (3, 0)
    assert _parse_decimal("-" + "0" * 30 + "12.50") == (-1250, 2)
    assert _parse_decimal("9" * 19) == (10**19 - 1, 0)


def test_weight_entries_must_fit_64_bits():
    with pytest.raises(ValueError, match="64-bit"):
        WeightFunction(((2**63, 0), (0, 0)))
    with pytest.raises(ParseError, match="line 1: weight exceeds the 64-bit range after scaling"):
        parse_weights("9223372036854775807 0.1\n0 0\n", 2)


# Test-only referees: the parsers that read a file token by token and
# checked each preference row twice.  On every input below, the row
# parsers must return an equal Instance or WeightFunction, or raise a
# ParseError with the identical message.  The weight referee reads every
# token with _parse_decimal, so a token with more significant digits than
# a 64-bit weight fails at that token, in line order, before any row is
# scaled; the row parser must give up its fast path on such a row.


def referee_parse_instance(text: str) -> Instance:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("line 1: missing instance size")
    lineno, head = lines[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"line {lineno}: instance size must be an integer") from None
    if not 1 <= n <= MAX_N:
        raise ParseError(f"line {lineno}: instance size {n} out of range [1, {MAX_N}]")
    rows = lines[1:]
    if len(rows) < 2 * n:
        raise ParseError(f"expected {2 * n} preference rows, found {len(rows)}")
    if len(rows) > 2 * n:
        raise ParseError(f"line {rows[2 * n][0]}: unexpected content after the girl rows")
    boys = tuple(
        _parse_pref_row(lineno, line, n, "boy", i) for i, (lineno, line) in enumerate(rows[:n])
    )
    girls = tuple(
        _parse_pref_row(lineno, line, n, "girl", i) for i, (lineno, line) in enumerate(rows[n:])
    )
    return Instance(boys, girls)


def referee_parse_weights(text: str, n: int) -> WeightFunction:
    lines = _content_lines(text)
    if len(lines) != n:
        raise ParseError(f"expected {n} weight rows, found {len(lines)}")
    raw = []
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != n:
            raise ParseError(f"line {lineno}: expected {n} weights, found {len(tokens)}")
        row = []
        for token in tokens:
            try:
                row.append(_parse_decimal(token))
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        raw.append((lineno, row))
    digits = max((d for _, row in raw for _, d in row), default=0)
    table = []
    for lineno, row in raw:
        scaled_row = []
        for value, d in row:
            scaled = value * 10 ** (digits - d)
            if abs(scaled) > 2**63 - 1:
                raise ParseError(f"line {lineno}: weight exceeds the 64-bit range after scaling")
            scaled_row.append(scaled)
        table.append(tuple(scaled_row))
    return WeightFunction(tuple(table), 10**digits)


def _outcome(parse, *args):
    try:
        return "parsed", parse(*args)
    except ParseError as exc:
        return "error", str(exc)


# Tokens at the edges of the decimal grammar and of int(): "٣" is a \d
# digit that int() reads, "1_0" is refused although int() alone takes it.
EDGE_WEIGHT_TOKENS = (
    "5.", ".5", "+.5", "-0", "007.0100", "-.25", "٣", "1_0", ".", "-", "1.2.3", "1e3",
    "0.0123456789", "0.123456789", "9223372036854775807", "-9223372036854775808",
    "922337203685477580.7", "1" * 4301, "1" * 20, "0" * 19 + "5", "0" * 4300 + "7",
)
EDGE_PREF_TOKENS = ("x", "٣", "1_0", "01", "+1", "0", "1.0", "-1", "9" * 4301)

EDGE_WEIGHT_FILES = [
    ("1 0.5\n-0.25 2\n", 2),
    ("5. .5\n+.5 -0\n", 2),
    ("007.0100 1\n2 3\n", 2),
    ("٣ 1\n2 ٣.5\n", 2),
    ("1_0 1\n2 3\n", 2),
    ("1\t2.5\n3\t\t4.5\n", 2),
    ("1.5\t2.5\n3.5 \t 4.5\n", 2),
    ("1.5\u00a02.5\n3.5\u30004.5\n", 2),
    ("0.0123456789 0\n0 0\n", 2),
    # Fine as written, over 2**63 - 1 once line 2's one digit scales it.
    ("922337203685477581 0\n0 0.1\n", 2),
    ("0 0.1\n0 922337203685477581\n", 2),
    ("9223372036854775808 0\n0 0\n", 2),
    ("1 2 3\n4 5\n", 2),
    ("1 2\n4 5 6\n", 2),
    ("1.0 2.0 3.0\n4 5\n", 2),
    ("1 2\n", 2),
    ("# c\n\n1 2\n# d\n3 4\n", 2),
]

EDGE_INSTANCE_FILES = [
    # Boy row 2 (line 3) is no permutation and girl row 2 (line 6) is
    # malformed: the error in file order wins.
    "3\n1 2 3\n1 1 3\n1 2 3\n1 2 3\n1 x 3\n1 2 3\n",
    "3\n1 2 3\n1 x 3\n1 2 3\n1 2 3\n1 1 3\n1 2 3\n",
    "2\n01 +2\n2 1\n2 ٢\n1 2\n",
    "2\n1_0 1\n2 1\n2 1\n1 2\n",
    "2\n1\t2\n2 1\n2 1\n1 2\n",
    "2\n1 2 1\n2 1\n2 1\n1 2\n",
    "2\n1\n2 1\n2 1\n1 2\n",
    "2\n1 2\n2 1\n2 1\n1 3\n",
]


def _random_weight_file(rng: random.Random) -> tuple[str, int]:
    n = rng.randint(1, 4)
    rows = []
    for _ in range(n):
        digits = rng.randint(0, 3)
        tokens = []
        for _ in range(n):
            if rng.random() < 0.15:
                tokens.append(rng.choice(EDGE_WEIGHT_TOKENS))
                continue
            d = digits if rng.random() < 0.8 else rng.randint(0, 3)
            tokens.append(families.format_fixed(rng.randint(-10**5, 10**5), d))
        if rng.random() < 0.05:
            tokens.pop()
        elif rng.random() < 0.05:
            tokens.append("7")
        rows.append(rng.choice((" ", "\t", "  ")).join(tokens))
    if rng.random() < 0.05:
        rows.pop()
    return "\n".join(rows) + "\n", n


def _random_instance_file(rng: random.Random) -> str:
    n = rng.randint(1, 5)
    rows = [[str(x) for x in rng.sample(range(1, n + 1), n)] for _ in range(2 * n)]
    for _ in range(rng.randint(0, 2)):
        row = rng.choice(rows)
        if not row:
            continue
        i = rng.randrange(len(row))
        op = rng.randrange(4)
        if op == 0:
            row[i] = rng.choice(EDGE_PREF_TOKENS)
        elif op == 1:
            row[i] = row[rng.randrange(len(row))]
        elif op == 2:
            row.pop(i)
        else:
            row.insert(i, str(rng.randint(1, n)))
    return f"{n}\n" + "\n".join(rng.choice((" ", "\t")).join(row) for row in rows) + "\n"


def test_row_parsers_agree_with_the_token_referees():
    rng = random.Random(16)
    weight_files = EDGE_WEIGHT_FILES + [_random_weight_file(rng) for _ in range(3000)]
    instance_files = EDGE_INSTANCE_FILES + [_random_instance_file(rng) for _ in range(3000)]
    for text, n in weight_files:
        assert _outcome(parse_weights, text, n) == _outcome(referee_parse_weights, text, n), text
    for text in instance_files:
        assert _outcome(parse_instance, text) == _outcome(referee_parse_instance, text), text
    # The corpus reaches both answers of both parsers.
    outcomes = [_outcome(parse_weights, *f)[0] for f in weight_files]
    outcomes += [_outcome(parse_instance, text)[0] for text in instance_files]
    assert outcomes.count("parsed") > 1000 and outcomes.count("error") > 1000


def test_row_parsers_keep_the_token_parsers_messages():
    assert _outcome(parse_weights, "922337203685477581 0\n0 0.1\n", 2) == (
        "error",
        "line 1: weight exceeds the 64-bit range after scaling",
    )
    assert _outcome(parse_weights, "1_0 1\n2 3\n", 2) == (
        "error",
        "line 1: '1_0' is not a decimal number",
    )
    assert parse_weights("٣ 1\n2 ٣.5\n", 2) == WeightFunction(((30, 10), (20, 35)), 10)
    # A 20-digit weight on line 1 fails there, before line 2's bad token.
    for parse in (parse_weights, referee_parse_weights):
        assert _outcome(parse, f"{'1' * 20} 0\n0 x\n", 2) == (
            "error",
            "line 1: a weight of 20 digits exceeds the 64-bit range",
        )
        assert _outcome(parse, f"{'1' * 4301} 0\n0 0\n", 2) == (
            "error",
            "line 1: a weight of 4301 digits exceeds the 64-bit range",
        )
        assert parse(f"{'0' * 4300}7 0\n0 0\n", 2) == WeightFunction(((7, 0), (0, 0)))
    assert _outcome(parse_instance, EDGE_INSTANCE_FILES[0]) == (
        "error",
        "line 3: boy 2 preference row is not a permutation of 1..3",
    )


def test_format_scaled():
    assert format_scaled(4, 1) == "4"
    assert format_scaled(-25, 100) == "-0.25"
    assert format_scaled(200, 100) == "2"
    assert format_scaled(50, 100) == "0.5"
    assert format_scaled(105, 100) == "1.05"
    assert format_scaled(0, 1000) == "0"


@given(st.integers(-10**6, 10**6), st.integers(0, 6))
def test_format_scaled_round_trips_through_fractions(value, digits):
    scale = 10**digits
    assert Fraction(format_scaled(value, scale)) == Fraction(value, scale)


def test_gale_shapley_two_by_two_poles():
    inst = two_by_two()
    assert gale_shapley(inst, "boys").partner_of_boy == (0, 1)
    assert gale_shapley(inst, "girls").partner_of_boy == (1, 0)


def test_gale_shapley_identity_three():
    inst = identity_three()
    diag = (0, 1, 2)
    assert gale_shapley(inst, "boys").partner_of_boy == diag
    assert gale_shapley(inst, "girls").partner_of_boy == diag


def test_boys_proposing_gale_shapley_leaves_the_inverse_to_the_cache():
    rng = random.Random(19)
    cases = [random_instance(rng, n) for n in (1, 2, 5, 30, 80)]
    cases += [family_instance(family, n) for family in ("cyclic", "doubling") for n in (4, 16, 32)]
    for inst in cases:
        m = gale_shapley(inst, "boys")
        assert "partner_of_girl" not in m.__dict__  # built on first read
        fresh = Matching(m.partner_of_boy)
        # Equality and hashing see only the boys' partners, with the
        # fresh matching's inverse not yet built and then built.
        assert m == fresh and hash(m) == hash(fresh)
        assert m.partner_of_girl == fresh.partner_of_girl
        assert m == fresh and {m, fresh} == {fresh}


def test_gale_shapley_rejects_unknown_side():
    with pytest.raises(ValueError, match="proposing_side"):
        gale_shapley(two_by_two(), "nobody")


def test_blocking_pairs_on_stable_matchings():
    inst = two_by_two()
    assert blocking_pairs(inst, Matching((0, 1))) == set()
    assert blocking_pairs(inst, Matching((1, 0))) == set()


def test_blocking_pair_found():
    # Swapping the first two couples of the identity profile leaves boy 1
    # and girl 1 each other's top choice but unmatched.
    inst = identity_three()
    found = blocking_pairs(inst, Matching((1, 0, 2)))
    assert (0, 0) in found
    assert not is_stable(inst, Matching((1, 0, 2)))


def test_matching_weight_tie_table():
    w = tie_weights()
    assert matching_weight(Matching((0, 1)), w) == 4
    assert matching_weight(Matching((1, 0)), w) == 4


def test_meet_join_two_by_two():
    inst = two_by_two()
    top, bottom = Matching((0, 1)), Matching((1, 0))
    assert meet(top, bottom, inst) == top
    assert join(top, bottom, inst) == bottom


def test_dominates_two_by_two():
    inst = two_by_two()
    top, bottom = Matching((0, 1)), Matching((1, 0))
    assert dominates(top, bottom, inst)
    assert not dominates(bottom, top, inst)
    assert dominates(top, top, inst)


def test_preset_desirable_undesirable():
    w = preset_desirable_undesirable(two_by_two(), {(0, 0)}, {(1, 0)})
    assert w.table == ((1, 0), (-1, 0))
    assert w.scale == 1


def test_preset_rejects_overlapping_pairs():
    with pytest.raises(ValueError, match=r"\(1, 1\) is both"):
        preset_desirable_undesirable(two_by_two(), {(0, 0)}, {(0, 0)})


def test_preset_rejects_out_of_range_pairs():
    with pytest.raises(ValueError, match="out of range"):
        preset_desirable_undesirable(two_by_two(), {(0, 5)}, set())


def test_preset_egalitarian_two_by_two():
    # Every pairing sums ranks to 3 in this profile.
    w = preset_egalitarian(two_by_two(), "minimize")
    assert w.table == ((-3, -3), (-3, -3))
    assert preset_egalitarian(two_by_two(), "maximize").table == ((3, 3), (3, 3))


def test_preset_egalitarian_identity_three_diagonal():
    w = preset_egalitarian(identity_three(), "minimize")
    assert tuple(w.table[i][i] for i in range(3)) == (-2, -4, -6)


def test_preset_egalitarian_rejects_unknown_sense():
    with pytest.raises(ValueError, match="sense"):
        preset_egalitarian(two_by_two(), "balance")


@settings(max_examples=60, deadline=None)
@given(instances(max_n=6))
def test_gale_shapley_is_stable_from_both_sides(inst):
    top = gale_shapley(inst, "boys")
    bottom = gale_shapley(inst, "girls")
    assert is_stable(inst, top)
    assert is_stable(inst, bottom)
    assert dominates(top, bottom, inst)


@settings(max_examples=40, deadline=None)
@given(instances(max_n=5))
def test_meet_join_close_over_stable_matchings(inst):
    """meet picks boy-wise better partners, join boy-wise worse, and both
    stay stable for stable inputs."""
    stable = all_stable_matchings(inst)
    for m1 in stable:
        for m2 in stable:
            lo = meet(m1, m2, inst)
            hi = join(m1, m2, inst)
            assert is_stable(inst, lo)
            assert is_stable(inst, hi)
            assert dominates(lo, m1, inst) and dominates(lo, m2, inst)
            assert dominates(m1, hi, inst) and dominates(m2, hi, inst)
    assert meet(stable[0], stable[0], inst) == stable[0]


@settings(max_examples=40, deadline=None)
@given(instances(max_n=6))
def test_girl_side_proposal_matches_dominance_minimum(inst):
    """The girl-proposing result is dominated by every stable matching."""
    bottom = gale_shapley(inst, "girls")
    for m in all_stable_matchings(inst):
        assert dominates(m, bottom, inst)
