"""A seeded mutation fuzz of the command line's input files.

Small instance, weight, pair and DAG files get a few line and token
mutations each round: lines dropped, duplicated or swapped, tokens
dropped, duplicated or swapped, and tokens replaced by garbage, huge or
negative numbers or over-long decimals.  Every mutant goes through
``cli.run`` for each subcommand that reads it.  Bad input must exit 1
with a message and good input 0; an exit 2 (a contract violation) or an
escaping exception is a bug in the program.
"""

from __future__ import annotations

import random

from stablecut.cli import RunConfig, run

INSTANCE = """\
4
2 4 3 1
3 4 2 1
3 2 1 4
2 1 4 3
1 4 2 3
2 3 4 1
4 1 2 3
3 2 1 4
"""
WEIGHTS = "2 2 -1 1\n-4 3 1 -2\n-5 2 -1.5 -3\n1 -3 3 -4\n"
OTHER_WEIGHTS = "1 0 0 2\n0 3 0 0\n0 0 1 0\n2 0 0 1\n"
PAIRS = "d 1 2\nu 3 4\nd 4 1\nu 2 2\n"
DAG = "5 6\n1 5\n1 2 1\n1 3 -4\n2 4 3\n3 4 2.5\n2 5 -1\n4 5 2\n"

ROUNDS = 300
# The last four are decimals int() or the weight row pattern treat at
# their edge: "1_0" is refused as a weight, the rest are accepted.
GARBAGE = ("x", "-", "1.2.3", "nan", "1e3", "0x1f", "+-1", "٣", ".", "1_0", "5.", "+.5", "-3.141593")


def _token(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(GARBAGE)
    if kind == 1:
        return str(rng.choice((5000, 5001, 2**63, 10**30)))
    if kind == 2:
        return str(-rng.randint(0, 9))
    return "0." + "7" * rng.randint(17, 40)


def mutate(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            break
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        op = rng.randrange(4)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split()
            if not tokens:
                continue
            a, b = rng.randrange(len(tokens)), rng.randrange(len(tokens))
            top = rng.randrange(4)
            if top == 0:
                del tokens[a]
            elif top == 1:
                tokens.insert(a, tokens[a])
            elif top == 2:
                tokens[a], tokens[b] = tokens[b], tokens[a]
            else:
                tokens[a] = _token(rng)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _configs(paths: dict[str, str], mutated: str) -> list[RunConfig]:
    inst, w, w2, pairs, dag = (paths[k] for k in ("inst", "w", "w2", "pairs", "dag"))
    by_file = {
        "inst": [
            RunConfig("solve", instance_path=inst, weights_path=w),
            RunConfig("solve", instance_path=inst, weights_path=w, pole="boy"),
            RunConfig("enumerate", instance_path=inst, weights_path=w, cap=20),
            RunConfig("bi-objective", instance_path=inst, weights1_path=w, weights2_path=w2),
        ],
        "w": [
            RunConfig("solve", instance_path=inst, weights_path=w),
            RunConfig("enumerate", instance_path=inst, weights_path=w, cap=20),
            RunConfig("bi-objective", instance_path=inst, weights1_path=w, weights2_path=w2),
            RunConfig("bi-objective", instance_path=inst, weights1_path=w2, weights2_path=w),
        ],
        "pairs": [
            RunConfig(
                "solve",
                instance_path=inst,
                preset="desirable-undesirable",
                pairs_path=pairs,
            ),
        ],
        "dag": [
            RunConfig("cut-solve", dag_path=dag),
            RunConfig("cut-solve", dag_path=dag, oracle=True),
        ],
    }
    return by_file[mutated]


def test_mutated_inputs_exit_zero_or_one(tmp_path):
    originals = {
        "inst": INSTANCE,
        "w": WEIGHTS,
        "w2": OTHER_WEIGHTS,
        "pairs": PAIRS,
        "dag": DAG,
    }
    paths = {name: str(tmp_path / f"{name}.txt") for name in originals}
    for name, text in originals.items():
        (tmp_path / f"{name}.txt").write_text(text)
    rng = random.Random(12)
    statuses = {0: 0, 1: 0}
    for round_ in range(ROUNDS):
        name = ("inst", "w", "pairs", "dag")[round_ % 4]
        text = mutate(rng, originals[name])
        (tmp_path / f"{name}.txt").write_text(text)
        for cfg in _configs(paths, name):
            status, report = run(cfg)
            assert status in (0, 1), f"{cfg}\n--- {name} ---\n{text}--- report ---\n{report}"
            statuses[status] += 1
        (tmp_path / f"{name}.txt").write_text(originals[name])
    # The corpus must reach both the error paths and the solvers.
    assert min(statuses.values()) > 100, statuses
