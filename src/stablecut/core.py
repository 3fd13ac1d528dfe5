"""Stable matching instances, the dominance lattice, and pair weights.

Boys and girls are numbered 0..n-1 internally; file formats and error
messages use 1-based identifiers.  All weight arithmetic is exact: decimal
inputs are scaled once by a common power of ten and handled as integers
from then on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, Sequence

MAX_N = 5000
MAX_FRACTION_DIGITS = 9

# Scaled weight entries must fit a signed 64-bit word so that sums over a
# matching (at most MAX_N terms) stay well inside exact integer territory.
_ENTRY_LIMIT = 2**63 - 1
# A weight with more significant digits than the limit lies outside it.
_ENTRY_DIGITS = len(str(_ENTRY_LIMIT))


def _fits_entry_range(row: tuple[int, ...]) -> bool:
    return -_ENTRY_LIMIT <= min(row) and max(row) <= _ENTRY_LIMIT


class ParseError(ValueError):
    """An input file does not follow its documented format."""


class ContractViolation(RuntimeError):
    """An operation was invoked outside its documented contract."""


def _inverse(perm: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a permutation of 0..n-1: entry x is the position of
    x in ``perm``."""
    inverse = [0] * len(perm)
    for pos, x in enumerate(perm):
        inverse[x] = pos
    return tuple(inverse)


@dataclass(frozen=True)
class Instance:
    """A complete preference profile: one strict ranking per boy and girl.

    ``boy_prefs[b]`` lists girl ids most preferred first; ``girl_prefs[g]``
    lists boy ids the same way.
    """

    boy_prefs: tuple[tuple[int, ...], ...]
    girl_prefs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.boy_prefs)
        if n < 1:
            raise ValueError("instance needs at least one boy")
        if len(self.girl_prefs) != n:
            raise ValueError("boy and girl sides must have the same size")
        expected = set(range(n))
        for side, rows in (("boy", self.boy_prefs), ("girl", self.girl_prefs)):
            for i, row in enumerate(rows):
                if len(row) != n or set(row) != expected:
                    raise ValueError(
                        f"{side} {i + 1}: preference row is not a permutation of 1..{n}"
                    )

    @property
    def n(self) -> int:
        return len(self.boy_prefs)

    @cached_property
    def boy_rank(self) -> tuple[tuple[int, ...], ...]:
        """``boy_rank[b][g]`` is the position of g in b's list (0 = best)."""
        return tuple(map(_inverse, self.boy_prefs))

    @cached_property
    def girl_rank(self) -> tuple[tuple[int, ...], ...]:
        """``girl_rank[g][b]`` is the position of b in g's list (0 = best)."""
        return tuple(map(_inverse, self.girl_prefs))


@dataclass(frozen=True)
class Matching:
    """A perfect matching stored as the girl assigned to each boy."""

    partner_of_boy: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.partner_of_boy)
        if sorted(self.partner_of_boy) != list(range(n)):
            raise ValueError("partner array is not a bijection onto 0..n-1")

    @property
    def n(self) -> int:
        return len(self.partner_of_boy)

    @cached_property
    def partner_of_girl(self) -> tuple[int, ...]:
        return _inverse(self.partner_of_boy)

    def pairs(self) -> Iterator[tuple[int, int]]:
        return iter(enumerate(self.partner_of_boy))


def _check_scale(scale: int) -> None:
    """Raise ValueError unless scale is a power of ten."""
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    if scale != 10 ** (len(str(scale)) - 1):
        raise ValueError(f"scale {scale} is not a power of ten")


@dataclass(frozen=True)
class WeightFunction:
    """Pair weights as scaled integers: true weight of (b, g) is
    ``table[b][g] / scale`` with ``scale`` a power of ten."""

    table: tuple[tuple[int, ...], ...]
    scale: int = 1

    def __post_init__(self) -> None:
        _check_scale(self.scale)
        n = len(self.table)
        for row in self.table:
            if len(row) != n:
                raise ValueError("weight table must be square")
            if not _fits_entry_range(row):
                raise ValueError("scaled weight exceeds the 64-bit entry range")

    @property
    def n(self) -> int:
        return len(self.table)

    @classmethod
    def zero(cls, n: int) -> "WeightFunction":
        return cls(tuple(tuple(0 for _ in range(n)) for _ in range(n)), 1)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], scale: int = 1) -> "WeightFunction":
        return cls(tuple(tuple(int(v) for v in row) for row in rows), scale)


def _content_lines(text: str) -> list[tuple[int, str]]:
    """Pairs (1-based line number, stripped content), skipping blank lines
    and ``#`` comment lines."""
    kept = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        kept.append((lineno, stripped))
    return kept


def _parse_pref_row(lineno: int, line: str, n: int, kind: str, row_index: int) -> tuple[int, ...]:
    tokens = line.split()
    try:
        values = [int(tok) for tok in tokens]
    except ValueError:
        raise ParseError(f"line {lineno}: malformed {kind} preference row") from None
    if sorted(values) != list(range(1, n + 1)):
        raise ParseError(
            f"line {lineno}: {kind} {row_index + 1} preference row"
            f" is not a permutation of 1..{n}"
        )
    return tuple(v - 1 for v in values)


def parse_instance(text: str) -> Instance:
    """Parse the n / boy rows / girl rows instance format.

    Line 1 holds n; the next n lines are boy rows (most preferred first),
    the n after that are girl rows.  Identifiers are 1-based in the file.
    """
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
        extra_lineno = rows[2 * n][0]
        raise ParseError(f"line {extra_lineno}: unexpected content after the girl rows")
    # Identifiers written the plain way are looked up, and Instance checks
    # every row as a permutation.  Any other spelling int() reads (such as
    # "01" or "+1"), and any bad row, takes the row-by-row parse, which
    # raises at the first bad row's line.
    zero_based = {str(i + 1): i for i in range(n)}.__getitem__
    try:
        boys, girls = (
            tuple(tuple(map(zero_based, line.split())) for _, line in side)
            for side in (rows[:n], rows[n:])
        )
        return Instance(boys, girls)
    except (KeyError, ValueError):
        pass
    boys = tuple(
        _parse_pref_row(lineno, line, n, "boy", i) for i, (lineno, line) in enumerate(rows[:n])
    )
    girls = tuple(
        _parse_pref_row(lineno, line, n, "girl", i) for i, (lineno, line) in enumerate(rows[n:])
    )
    return Instance(boys, girls)


_DECIMAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)")


@cache
def _row_re(digits: int) -> re.Pattern[str]:
    """A whole row of ``_DECIMAL_RE`` tokens that all have exactly
    ``digits`` fraction digits.  Compiled on first use, not at import."""
    # _DECIMAL_RE with the fraction length fixed: with no fraction digits a
    # token is digits and an optional point; with some, the digits before
    # the point may be absent.  No token has more than _ENTRY_DIGITS
    # digits, so int() reads each one; a longer token, even one padded
    # with zeros, takes the token-by-token parse.
    whole = _ENTRY_DIGITS - digits
    if digits == 0:
        token = rf"[+-]?\d{{1,{whole}}}\.?"
    else:
        token = rf"[+-]?\d{{0,{whole}}}\.\d{{{digits}}}"
    return re.compile(rf"{token}(?:\s+{token})*")


def _parse_decimal(token: str) -> tuple[int, int]:
    """Return (unscaled integer, number of fraction digits).  Raises
    ValueError for a token that is no decimal, has too many fraction
    digits, or has more significant digits than a 64-bit weight."""
    if not _DECIMAL_RE.fullmatch(token):
        raise ValueError(f"{token!r} is not a decimal number")
    frac = token.partition(".")[2]
    if len(frac) > MAX_FRACTION_DIGITS:
        raise ValueError(
            f"{token.lstrip('+-')!r} has more than {MAX_FRACTION_DIGITS} fraction digits"
        )
    digits = token.lstrip("+-").replace(".", "", 1)
    # Leading zeros, in any script's digits, are not significant.
    lead = next((i for i, c in enumerate(digits) if int(c)), len(digits))
    significant = digits[lead:] or "0"
    if len(significant) > _ENTRY_DIGITS:
        raise ValueError(f"a weight of {len(significant)} digits exceeds the 64-bit range")
    value = int(significant)
    return (-value if token.startswith("-") else value), len(frac)


def _scale_rows(
    rows: list[tuple[int, int, tuple[int, ...]]],
) -> tuple[list[tuple[int, ...]], int]:
    """Bring rows of unscaled integers, each tagged with its line number
    and fraction length, to one power-of-ten scale chosen from the longest
    fraction.  Returns the scaled rows and the scale."""
    digits = max((d for _, d, _ in rows), default=0)
    scaled_rows = []
    for lineno, d, row in rows:
        if d < digits:
            factor = 10 ** (digits - d)
            row = tuple([value * factor for value in row])
        if not _fits_entry_range(row):
            raise ParseError(f"line {lineno}: weight exceeds the 64-bit range after scaling")
        scaled_rows.append(row)
    return scaled_rows, 10**digits


def _uniform_weight_row(line: str, n: int) -> tuple[int, tuple[int, ...]] | None:
    """Fraction length and unscaled integers of a row of n decimals that
    all have its first token's fraction length; None for any other row."""
    digits = len(line.split(None, 1)[0].partition(".")[2])
    if digits > MAX_FRACTION_DIGITS or not _row_re(digits).fullmatch(line):
        return None
    values = tuple(map(int, line.replace(".", "").split()))
    return (digits, values) if len(values) == n else None


def _weight_row(lineno: int, line: str, n: int) -> tuple[int, tuple[int, ...]]:
    """:func:`_uniform_weight_row` token by token, for any row: raises the
    ParseError that names the row's first fault."""
    tokens = line.split()
    if len(tokens) != n:
        raise ParseError(f"line {lineno}: expected {n} weights, found {len(tokens)}")
    parsed = []
    for token in tokens:
        try:
            parsed.append(_parse_decimal(token))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    digits = max(d for _, d in parsed)
    return digits, tuple([value * 10 ** (digits - d) for value, d in parsed])


def parse_weights(text: str, n: int) -> WeightFunction:
    """Parse an n-by-n table of decimal weights (row = boy, column = girl).

    All entries share one power-of-ten scale chosen from the largest
    fraction length present, so arithmetic downstream is exact.
    """
    lines = _content_lines(text)
    if len(lines) != n:
        raise ParseError(f"expected {n} weight rows, found {len(lines)}")
    rows = []
    for lineno, line in lines:
        digits, values = _uniform_weight_row(line, n) or _weight_row(lineno, line, n)
        rows.append((lineno, digits, values))
    table, scale = _scale_rows(rows)
    return WeightFunction(tuple(table), scale)


def format_scaled(value: int, scale: int) -> str:
    """Render a scaled integer as an exact decimal string (never a float)."""
    _check_scale(scale)
    if scale == 1:
        return str(value)
    sign = "-" if value < 0 else ""
    whole, rem = divmod(abs(value), scale)
    if rem == 0:
        return f"{sign}{whole}"
    frac = str(rem).rjust(len(str(scale)) - 1, "0").rstrip("0")
    return f"{sign}{whole}.{frac}"


def gale_shapley(inst: Instance, proposing_side: str = "boys") -> Matching:
    """Deferred acceptance from one side.

    Returns the boy-optimal stable matching when boys propose and the
    girl-optimal one when girls do.  The result is keyed by boys either way.
    """
    if proposing_side not in ("boys", "girls"):
        raise ValueError("proposing_side must be 'boys' or 'girls'")
    if proposing_side == "boys":
        prefs, receiver_rank = inst.boy_prefs, inst.girl_rank
    else:
        prefs, receiver_rank = inst.girl_prefs, inst.boy_rank
    n = inst.n
    next_choice = [0] * n
    engaged_to = [-1] * n  # receiver -> proposer
    free = list(range(n - 1, -1, -1))
    while free:
        proposer = free.pop()
        receiver = prefs[proposer][next_choice[proposer]]
        next_choice[proposer] += 1
        holder = engaged_to[receiver]
        if holder < 0:
            engaged_to[receiver] = proposer
        elif receiver_rank[receiver][proposer] < receiver_rank[receiver][holder]:
            engaged_to[receiver] = proposer
            free.append(holder)
        else:
            free.append(proposer)
    if proposing_side == "boys":
        return Matching(_inverse(engaged_to))
    return Matching(tuple(engaged_to))


def blocking_pairs(inst: Instance, m: Matching) -> set[tuple[int, int]]:
    """All pairs (b, g) where both would rather be together than stay put."""
    found = set()
    girl_rank = inst.girl_rank
    partner_of_girl = m.partner_of_girl
    for b in range(inst.n):
        my_rank = inst.boy_rank[b][m.partner_of_boy[b]]
        for g in inst.boy_prefs[b][:my_rank]:
            if girl_rank[g][b] < girl_rank[g][partner_of_girl[g]]:
                found.add((b, g))
    return found


def is_stable(inst: Instance, m: Matching) -> bool:
    return not blocking_pairs(inst, m)


def matching_weight(m: Matching, w: WeightFunction) -> int:
    """Total scaled weight of the matched pairs.  Exact for any instance
    size: entries are 64-bit bounded and Python integers never wrap."""
    return sum(w.table[b][g] for b, g in m.pairs())


def meet(m1: Matching, m2: Matching, inst: Instance) -> Matching:
    """Boy-wise better matching.  Both inputs must be stable; the lattice
    guarantee does not hold otherwise and unstable inputs are not detected."""
    rank = inst.boy_rank
    chosen = tuple(
        g1 if rank[b][g1] <= rank[b][g2] else g2
        for b, (g1, g2) in enumerate(zip(m1.partner_of_boy, m2.partner_of_boy))
    )
    return Matching(chosen)


def join(m1: Matching, m2: Matching, inst: Instance) -> Matching:
    """Boy-wise worse matching; the dual of :func:`meet`."""
    rank = inst.boy_rank
    chosen = tuple(
        g1 if rank[b][g1] >= rank[b][g2] else g2
        for b, (g1, g2) in enumerate(zip(m1.partner_of_boy, m2.partner_of_boy))
    )
    return Matching(chosen)


def dominates(m1: Matching, m2: Matching, inst: Instance) -> bool:
    """True when every boy weakly prefers his partner in m1 to his partner
    in m2."""
    rank = inst.boy_rank
    return all(
        rank[b][g1] <= rank[b][g2]
        for b, (g1, g2) in enumerate(zip(m1.partner_of_boy, m2.partner_of_boy))
    )


def preset_desirable_undesirable(
    inst: Instance,
    desirable: Iterable[tuple[int, int]],
    undesirable: Iterable[tuple[int, int]],
) -> WeightFunction:
    """Weight +1 for desirable pairs, -1 for undesirable ones, 0 elsewhere."""
    desirable = set(desirable)
    undesirable = set(undesirable)
    overlap = desirable & undesirable
    if overlap:
        b, g = min(overlap)
        raise ValueError(f"pair ({b + 1}, {g + 1}) is both desirable and undesirable")
    table = [[0] * inst.n for _ in range(inst.n)]
    for name, pairs, value in (("desirable", desirable, 1), ("undesirable", undesirable, -1)):
        for b, g in pairs:
            if not (0 <= b < inst.n and 0 <= g < inst.n):
                raise ValueError(f"{name} pair ({b + 1}, {g + 1}) is out of range")
            table[b][g] = value
    return WeightFunction(tuple(tuple(row) for row in table), 1)


def preset_egalitarian(inst: Instance, sense: str = "minimize") -> WeightFunction:
    """Weight of (b, g) is rank_b(g) + rank_g(b) with rank 1 for the most
    preferred.  ``minimize`` negates every entry so that a maximum-weight
    matching minimises the total rank."""
    if sense not in ("minimize", "maximize"):
        raise ValueError("sense must be 'minimize' or 'maximize'")
    flip = -1 if sense == "minimize" else 1
    table = tuple(
        tuple(
            flip * (inst.boy_rank[b][g] + 1 + inst.girl_rank[g][b] + 1)
            for g in range(inst.n)
        )
        for b in range(inst.n)
    )
    return WeightFunction(table, 1)
