"""Seeded instance families for the benchmark, written in the CLI's file formats.

Three families:

* random: independent uniform preference lists, few rotations;
* cyclic shift: boy b ranks b, b+1, ... and girl g ranks g+1, g+2, ...
  (mod n), which has n-1 rotations of size n;
* doubling: built from the 1-instance by repeated doubling (Irving and
  Leather 1986), which reaches n(n-1)/2 rotations at every power of two
  and has exponentially many stable matchings.

Preferences are lists of 0-based ids, best first; files are 1-based.
Every function is a pure function of its arguments, so one seed always
gives the same files.
"""

from __future__ import annotations

import random
from pathlib import Path

Prefs = list[list[int]]


def random_prefs(rng: random.Random, n: int) -> tuple[Prefs, Prefs]:
    boys = [rng.sample(range(n), n) for _ in range(n)]
    girls = [rng.sample(range(n), n) for _ in range(n)]
    return boys, girls


def cyclic_prefs(n: int) -> tuple[Prefs, Prefs]:
    boys = [[(b + i) % n for i in range(n)] for b in range(n)]
    girls = [[(g + 1 + i) % n for i in range(n)] for g in range(n)]
    return boys, girls


def doubling_prefs(n: int) -> tuple[Prefs, Prefs]:
    """From an m-instance (B, G): boy b lists B[b] then B[b]+m, boy m+b
    lists B[b]+m then B[b]; girl g lists G[g]+m then G[g], girl m+g lists
    G[g] then G[g]+m.  ``n`` must be a power of two."""
    if n < 1 or n & (n - 1):
        raise ValueError("the doubling family needs n to be a power of two")
    boys: Prefs = [[0]]
    girls: Prefs = [[0]]
    m = 1
    while m < n:
        boys = [row + [g + m for g in row] for row in boys] + [
            [g + m for g in row] + row for row in boys
        ]
        girls = [[b + m for b in row] + row for row in girls] + [
            row + [b + m for b in row] for row in girls
        ]
        m *= 2
    return boys, girls


def expected_rotations(family: str, n: int) -> int | None:
    """The rotation count a family is known to have, or None for random."""
    if family == "cyclic":
        return n - 1
    if family == "doubling":
        return n * (n - 1) // 2
    return None


def relabel(rng: random.Random, boys: Prefs, girls: Prefs) -> tuple[Prefs, Prefs]:
    """Rename boys and girls by two random permutations.  The instance is
    isomorphic, so rotation counts and lattice shape do not change."""
    n = len(boys)
    boy_name = rng.sample(range(n), n)
    girl_name = rng.sample(range(n), n)
    new_boys: Prefs = [[] for _ in range(n)]
    new_girls: Prefs = [[] for _ in range(n)]
    for b, row in enumerate(boys):
        new_boys[boy_name[b]] = [girl_name[g] for g in row]
    for g, row in enumerate(girls):
        new_girls[girl_name[g]] = [boy_name[b] for b in row]
    return new_boys, new_girls


def random_weights(
    rng: random.Random, n: int, low: int, high: int, digits: int
) -> list[list[int]]:
    """Weights in [low, high] with ``digits`` fraction digits, as integers
    scaled by 10**digits."""
    scale = 10**digits
    return [[rng.randint(low * scale, high * scale) for _ in range(n)] for _ in range(n)]


def zero_weights(n: int) -> list[list[int]]:
    return [[0] * n for _ in range(n)]


def format_fixed(value: int, digits: int) -> str:
    """A scaled integer as a decimal with exactly ``digits`` fraction digits."""
    if digits == 0:
        return str(value)
    whole, frac = divmod(abs(value), 10**digits)
    sign = "-" if value < 0 else ""
    return f"{sign}{whole}.{frac:0{digits}d}"


def write_instance(path: Path, boys: Prefs, girls: Prefs) -> None:
    rows = [str(len(boys))]
    rows.extend(" ".join(str(x + 1) for x in row) for row in boys + girls)
    path.write_text("\n".join(rows) + "\n")


def write_weights(path: Path, table: list[list[int]], digits: int) -> None:
    rows = (" ".join(format_fixed(v, digits) for v in row) for row in table)
    path.write_text("\n".join(rows) + "\n")


def check_rotation_count(family: str, boys: Prefs, girls: Prefs) -> None:
    """Fail when a generated instance does not have its family's known
    rotation count; random instances have none to check."""
    expected = expected_rotations(family, len(boys))
    if expected is None:
        return
    from stablecut import Instance, enumerate_rotations

    inst = Instance(tuple(map(tuple, boys)), tuple(map(tuple, girls)))
    found = len(enumerate_rotations(inst))
    if found != expected:
        raise RuntimeError(
            f"{family} instance at n={len(boys)} has {found} rotations, expected {expected}"
        )
