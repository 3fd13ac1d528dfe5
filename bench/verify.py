"""Independent checks of stablecut CLI reports.

The referee re-reads the instance and weight files with its own parser
and checks every report with plain integer arithmetic: perfect matching,
no blocking pair, exact weight sums, agreement between commands on the
same input, and the shape of enumerate and poset reports.  It never calls
into stablecut, so a defect there cannot hide itself.

``oracle_preflight`` is the one place that does use stablecut's brute-force
oracle: it compares the CLI with exhaustive answers on instances small
enough to exhaust.
"""

from __future__ import annotations

import random
from pathlib import Path

import families


class Rejected(Exception):
    """A report failed a check; the message says which."""


class Problem:
    """An instance read back from its file: preference lists and ranks."""

    def __init__(self, path: str) -> None:
        lines = Path(path).read_text().splitlines()
        n = self.n = int(lines[0])
        rows = [[int(tok) - 1 for tok in line.split()] for line in lines[1 : 2 * n + 1]]
        self.boy_prefs = rows[:n]
        girl_prefs = rows[n:]
        self.girl_rank = [[0] * n for _ in range(n)]
        for g, row in enumerate(girl_prefs):
            for pos, b in enumerate(row):
                self.girl_rank[g][b] = pos

    def blocking_pair(self, partner: list[int]) -> tuple[int, int] | None:
        """A pair that would rather be together than stay put, if any."""
        holder = [0] * self.n
        for b, g in enumerate(partner):
            holder[g] = b
        girl_rank = self.girl_rank
        threshold = [girl_rank[g][holder[g]] for g in range(self.n)]
        for b, mine in enumerate(partner):
            for g in self.boy_prefs[b]:
                if g == mine:
                    break
                if girl_rank[g][b] < threshold[g]:
                    return b, g
        return None


def read_weights(path: str) -> tuple[list[list[int]], int]:
    """The weight table as integers over one power-of-ten scale."""
    tokens = [line.split() for line in Path(path).read_text().splitlines() if line.strip()]
    digits = max(len(tok.partition(".")[2]) for row in tokens for tok in row)
    return [[parse_scaled(tok, digits) for tok in row] for row in tokens], 10**digits


def parse_scaled(token: str, digits: int) -> int:
    """A decimal string as an integer scaled by 10**digits, exactly."""
    sign = -1 if token.startswith("-") else 1
    whole, _, frac = token.lstrip("+-").partition(".")
    if len(frac) > digits or not (whole + frac).isdigit():
        raise Rejected(f"{token!r} is not a decimal with at most {digits} fraction digits")
    return sign * int((whole or "0") + frac.ljust(digits, "0"))


def _matching(lines: list[str], n: int) -> list[int]:
    """Parse n lines 'b g' listing boys 1..n in order into a partner array."""
    if len(lines) != n:
        raise Rejected(f"expected {n} pair lines, found {len(lines)}")
    partner = []
    for b, line in enumerate(lines):
        parts = line.split()
        if len(parts) != 2 or parts[0] != str(b + 1) or not parts[1].isdigit():
            raise Rejected(f"pair line {line!r} is not 'boy girl' for boy {b + 1}")
        partner.append(int(parts[1]) - 1)
    if sorted(partner) != list(range(n)):
        raise Rejected("reported pairs are not a perfect matching")
    return partner


def _labelled(lines: list[str], label: str) -> str:
    if not lines or not lines[0].startswith(label + " "):
        raise Rejected(f"missing '{label}' line")
    return lines[0][len(label) + 1 :]


class Referee:
    """Checks each report against its request's input files.

    Files are read once.  The first reported optimum weight of an input
    is remembered, and every later report on that input must agree.
    """

    def __init__(self) -> None:
        self._problems: dict[str, Problem] = {}
        self._weights: dict[str, tuple[list[list[int]], int]] = {}
        self._optimum: dict[tuple[str, str], int] = {}

    def problem(self, path: str) -> Problem:
        if path not in self._problems:
            self._problems[path] = Problem(path)
        return self._problems[path]

    def weights(self, path: str) -> tuple[list[list[int]], int]:
        if path not in self._weights:
            self._weights[path] = read_weights(path)
        return self._weights[path]

    def check(self, request: dict, status: int, report: str) -> str | None:
        """None when the report is right, otherwise the reason it is not."""
        if status != 0:
            return f"exit status {status}: {report.splitlines()[0] if report else ''}"
        cfg = request["config"]
        try:
            handler = {
                "solve": self._solve,
                "bi-objective": self._bi_objective,
                "enumerate": self._enumerate,
                "poset": self._poset,
            }[cfg["subcommand"]]
            handler(cfg, request.get("expect", {}), report.split("\n"))
        except (Rejected, ValueError, IndexError) as exc:
            return str(exc) or type(exc).__name__
        return None

    def _stable_weight(self, cfg: dict, weights_path: str, partner: list[int]) -> int:
        pair = self.problem(cfg["instance_path"]).blocking_pair(partner)
        if pair is not None:
            raise Rejected(f"boy {pair[0] + 1} and girl {pair[1] + 1} block the matching")
        table, _ = self.weights(weights_path)
        return sum(table[b][g] for b, g in enumerate(partner))

    def _reported(self, text: str, weights_path: str) -> int:
        _, scale = self.weights(weights_path)
        return parse_scaled(text, len(str(scale)) - 1)

    def _agree(self, cfg: dict, weights_path: str, value: int) -> None:
        key = (cfg["instance_path"], weights_path)
        if self._optimum.setdefault(key, value) != value:
            raise Rejected("optimum weight disagrees with another command on the same input")

    def _solve(self, cfg: dict, expect: dict, lines: list[str]) -> None:
        n = self.problem(cfg["instance_path"]).n
        reported = self._reported(_labelled(lines, "weight"), cfg["weights_path"])
        total = self._stable_weight(cfg, cfg["weights_path"], _matching(lines[1:], n))
        if reported != total:
            raise Rejected("reported weight differs from the sum of the pair weights")
        self._agree(cfg, cfg["weights_path"], total)

    def _bi_objective(self, cfg: dict, expect: dict, lines: list[str]) -> None:
        n = self.problem(cfg["instance_path"]).n
        first = self._reported(_labelled(lines, "weight1"), cfg["weights1_path"])
        second = self._reported(_labelled(lines[1:], "weight2"), cfg["weights2_path"])
        partner = _matching(lines[2:], n)
        total1 = self._stable_weight(cfg, cfg["weights1_path"], partner)
        table2, _ = self.weights(cfg["weights2_path"])
        if first != total1 or second != sum(table2[b][g] for b, g in enumerate(partner)):
            raise Rejected("reported weights differ from the sums of the pair weights")
        self._agree(cfg, cfg["weights1_path"], total1)

    def _enumerate(self, cfg: dict, expect: dict, lines: list[str]) -> None:
        n = self.problem(cfg["instance_path"]).n
        count = int(_labelled(lines, "count"))
        if count != expect.get("count", count):
            raise Rejected(f"enumerated {count} matchings, expected {expect['count']}")
        if len(lines) != 2 + count * (n + 1):
            raise Rejected("enumerate report has the wrong number of lines")
        flag = "yes" if expect.get("truncated") else "no"
        if lines[-1] != f"truncated: {flag}":
            raise Rejected(f"expected 'truncated: {flag}'")
        seen: set[tuple[int, ...]] = set()
        totals = set()
        for i in range(count):
            start = 1 + i * (n + 1)
            if lines[start] != f"matching {i + 1}":
                raise Rejected(f"missing 'matching {i + 1}' header")
            partner = _matching(lines[start + 1 : start + 1 + n], n)
            if tuple(partner) in seen:
                raise Rejected(f"matching {i + 1} is listed twice")
            seen.add(tuple(partner))
            totals.add(self._stable_weight(cfg, cfg["weights_path"], partner))
        if len(totals) > 1:
            raise Rejected("enumerated matchings differ in weight")

    def _poset(self, cfg: dict, expect: dict, lines: list[str]) -> None:
        n = self.problem(cfg["instance_path"]).n
        rotations = [line for line in lines if line.startswith("rotation ")]
        edges = [line for line in lines if line.startswith("edge ")]
        if len(rotations) + len(edges) != len(lines):
            raise Rejected("poset report has lines that are neither rotations nor edges")
        if len(rotations) != expect.get("rotations", len(rotations)):
            raise Rejected(f"{len(rotations)} rotations, expected {expect['rotations']}")
        for rid, line in enumerate(rotations):
            head, _, body = line.partition(": ")
            size = len(body.split())
            if head != f"rotation {rid}" or size != expect.get("rotation_size", size):
                raise Rejected(f"rotation line {rid} is malformed or has the wrong size")
            for pair in body.split():
                b, g = (int(x) for x in pair.strip("()").split(","))
                if not (1 <= b <= n and 1 <= g <= n):
                    raise Rejected(f"rotation {rid} names pair {pair} out of range")
        for line in edges:
            _, a, b = line.split()
            if not (0 <= int(a) < len(rotations) and 0 <= int(b) < len(rotations)):
                raise Rejected(f"{line!r} names a rotation out of range")


def oracle_preflight(rng: random.Random, workdir: Path) -> None:
    """Compare the CLI with brute force on oracle-sized members of every
    family; raises RuntimeError on the first mismatch."""
    from stablecut import Instance, WeightFunction, all_stable_matchings, brute_max_weight_matching, cli
    from stablecut import dominates, matching_weight

    cases = [("random", families.random_prefs(rng, n)) for n in (5, 6, 7, 7)]
    cases.append(("cyclic", families.relabel(rng, *families.cyclic_prefs(6))))
    cases.append(("doubling", families.relabel(rng, *families.doubling_prefs(4))))
    for index, (family, (boys, girls)) in enumerate(cases):
        n = len(boys)
        inst_path, w1_path, w2_path = (workdir / f"oracle-{index}{part}.txt" for part in ("", "-w1", "-w2"))
        table1, table2 = families.random_weights(rng, n, -3, 3, 0), families.random_weights(rng, n, -2, 2, 1)
        families.write_instance(inst_path, boys, girls)
        families.write_weights(w1_path, table1, 0)
        families.write_weights(w2_path, table2, 1)

        inst = Instance(tuple(map(tuple, boys)), tuple(map(tuple, girls)))
        w1, w2 = WeightFunction.from_rows(table1), WeightFunction.from_rows(table2, 10)
        stable = all_stable_matchings(inst)
        boy_pole, best = brute_max_weight_matching(inst, w1, stable)
        optima = [m for m in stable if matching_weight(m, w1) == best]
        girl_pole = next(m for m in optima if all(dominates(o, m, inst) for o in optima))
        best2 = max(matching_weight(m, w2) for m in optima)

        def ask(**config) -> list[str]:
            status, report = cli.run(cli.RunConfig(instance_path=str(inst_path), **config))
            if status != 0:
                raise RuntimeError(f"oracle preflight, {family} case {index}: {report}")
            return report.split("\n")

        def partner(pair_lines: list[str]) -> tuple[int, ...]:
            return tuple(_matching(pair_lines, n))

        solve = ask(subcommand="solve", weights_path=str(w1_path))
        pole = ask(subcommand="solve", weights_path=str(w1_path), pole="boy")
        bi = ask(subcommand="bi-objective", weights1_path=str(w1_path), weights2_path=str(w2_path))
        listing = ask(subcommand="enumerate", weights_path=str(w1_path), cap=1000)
        listed = {partner(listing[i + 1 : i + 1 + n]) for i in range(1, len(listing) - 1, n + 1)}
        checks = {
            "solve": solve[0] == f"weight {best}" and partner(solve[1:]) == girl_pole.partner_of_boy,
            "solve --pole boy": partner(pole[1:]) == boy_pole.partner_of_boy,
            "bi-objective": bi[:2] == [f"weight1 {best}", f"weight2 {format_tenths(best2)}"],
            "enumerate": listed == {m.partner_of_boy for m in optima},
        }
        expected = families.expected_rotations(family, n)
        if expected is not None:
            checks["poset"] = sum(line.startswith("rotation ") for line in ask(subcommand="poset")) == expected
        wrong = [name for name, ok in checks.items() if not ok]
        if wrong:
            raise RuntimeError(
                f"oracle preflight, {family} case {index}: {', '.join(wrong)} disagree with brute force"
            )


def format_tenths(value: int) -> str:
    """A weight scaled by ten as the CLI prints it: exact, no trailing zeros."""
    whole, tenth = divmod(abs(value), 10)
    sign = "-" if value < 0 else ""
    return f"{sign}{whole}" + (f".{tenth}" if tenth else "")
