"""Reference figures and output checks, written apart from ``canex``.

Nothing here imports the package under test: the parser, evaluator, sampler,
enumerator and exact simple rate are the benchmark's own, so a fault in
``canex`` cannot hide by agreeing with itself.  Terms use the same shape as
the package's outputs describe in text: an ``int`` is a variable index and a
2-tuple ``(premise, conclusion)`` is an implication.
"""

from __future__ import annotations

import math
import random
import re

_TOKEN = re.compile(r"a\d+|->|[()]|\S")
_IMPLY = object()
# Tolerance of the sampled simple-rate check, in binomial standard deviations.
RATE_SIGMAS = 6.0


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's own figures."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------- text

def parse(text: str):
    """Expression text to a term; ``->`` associates right."""
    frames: list[list] = [[]]
    want_operand = True
    for tok in _TOKEN.findall(text):
        if tok == "(":
            require(want_operand, f"unexpected '(' in {text[:60]!r}")
            frames.append([])
        elif tok == ")":
            require(not want_operand and len(frames) > 1, f"unbalanced ')' in {text[:60]!r}")
            items = frames.pop()
            frames[-1].append(_fold(items))
        elif tok == "->":
            require(not want_operand, f"misplaced '->' in {text[:60]!r}")
            want_operand = True
        elif tok[0] == "a" and tok[1:].isdigit():
            require(want_operand, f"missing '->' in {text[:60]!r}")
            frames[-1].append(int(tok[1:]))
            want_operand = False
        else:
            raise CheckError(f"unexpected token {tok!r} in {text[:60]!r}")
    require(not want_operand and len(frames) == 1, f"incomplete expression {text[:60]!r}")
    return _fold(frames[0])


def _fold(items: list):
    node = items[-1]
    for premise in reversed(items[:-1]):
        node = (premise, node)
    return node


def render(term) -> str:
    """Text with parentheses around compound premises only."""
    out = []
    work = [term]
    while work:
        node = work.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, int):
            out.append(f"a{node}")
        elif isinstance(node[0], tuple):
            work += [node[1], ")->", node[0], "("]
        else:
            work += [node[1], "->", node[0]]
    return "".join(out)


def leaves(term) -> list[int]:
    out = []
    work = [term]
    while work:
        node = work.pop()
        if isinstance(node, tuple):
            work.append(node[1])
            work.append(node[0])
        else:
            out.append(node)
    return out


def is_growth_string(labels) -> bool:
    """Rightmost label 0; scanning left, each new label is the next index."""
    highest = -1
    for x in reversed(labels):
        if x > highest + 1:
            return False
        highest = max(highest, x)
    return bool(labels)


# ---------------------------------------------------------------- spine patterns

def spine(term):
    premises = []
    while isinstance(term, tuple):
        premises.append(term[0])
        term = term[1]
    return premises, term


def goal_of(term) -> int:
    while isinstance(term, tuple):
        term = term[1]
    return term


def is_simple(term) -> bool:
    premises, goal = spine(term)
    return any(p == goal for p in premises if isinstance(p, int))


def is_mp(term) -> bool:
    premises, goal = spine(term)
    present = {p for p in premises if isinstance(p, int)}
    return any(isinstance(p, tuple) and p[1] == goal and isinstance(p[0], int)
               and p[0] in present for p in premises)


def is_gkz_simple_non_taut(term) -> bool:
    premises, goal = spine(term)
    return all(goal_of(p) != goal for p in premises)


def is_raw_antilogy(term) -> bool:
    """Every premise survives the goal-false, others-true valuation."""
    premises, goal = spine(term)
    return all(goal_of(p) != goal or (isinstance(p, tuple) and is_simple(p))
               for p in premises)


# ---------------------------------------------------------------- evaluation

def evaluate(term, lanes, mask: int) -> int:
    """Value of ``term`` on every lane at once; bit i of ``lanes[v]`` is v's value."""
    out = []
    work = [term]
    while work:
        node = work.pop()
        if node is _IMPLY:
            right = out.pop()
            out.append((~out.pop() | right) & mask)
        elif isinstance(node, int):
            out.append(lanes[node])
        else:
            work += [_IMPLY, node[1], node[0]]
    return out[0]


def holds_under(term, valuation: dict) -> bool:
    return evaluate(term, {v: int(bool(b)) for v, b in valuation.items()}, 1) == 1


def truth_table_tautology(term, width: int) -> bool:
    """Exact decision over all 2**width valuations of variables 0..width-1."""
    size = 1 << width
    mask = (1 << size) - 1
    lanes = []
    for i in range(width):
        period = 1 << (i + 1)
        block = ((1 << (1 << i)) - 1) << (1 << i)
        lanes.append(block * (mask // ((1 << period) - 1)))
    return evaluate(term, lanes, mask) == mask


def holds_on_random_valuations(term, width: int, rng: random.Random, lanes: int = 256) -> bool:
    mask = (1 << lanes) - 1
    values = [rng.getrandbits(lanes) for _ in range(width)]
    return evaluate(term, values, mask) == mask


# ---------------------------------------------------------------- exact simple rate

def partition_class_distribution(n: int) -> list[tuple[int, float]]:
    """P(a uniform partition of n elements has m classes), by Dobinski's formula.

    The weights m**n / m! are normalised in the log domain; classes whose
    share is below 1e-22 of the largest are dropped.
    """
    logs = []
    best = -math.inf
    m = 1
    while True:
        w = n * math.log(m) - math.lgamma(m + 1)
        logs.append((m, w))
        best = max(best, w)
        if w < best - 50:
            break
        m += 1
    top = best
    total = sum(math.exp(x - top) for _, x in logs)
    return [(m, math.exp(x - top) / total) for m, x in logs]


def spine_leaf_moment(n: int, x: float) -> float:
    """E[x**K] for K the number of leaf premises on the right spine of a
    uniform binary tree with n leaves.

    With C(z) the leaf-counting tree series (C = z + C**2), the spine series
    gives E[x**K] = sum_r r y**(r-1) C(2n-r-1, n-1) / C(2n-2, n-1), y = x - 1,
    by Lagrange inversion; the binomial ratio is carried as a running product.
    """
    y = x - 1.0
    total = 0.0
    ratio = 1.0
    for r in range(1, n + 1):
        term = r * y ** (r - 1) * ratio
        total += term
        if r == n or (r > 2 and abs(term) < 1e-18):
            break
        ratio *= (n - r) / (2 * n - r - 1)
    return total


def exact_simple_rate(n: int) -> float:
    """Probability that a uniform canonical expression with n leaves is simple.

    Given m classes, the goal's class avoids each of the K leaf premises
    independently with probability 1 - 1/m (Stam's urn picture of a uniform
    partition), so the rate is 1 - sum_m P(m) E[(1 - 1/m)**K].
    """
    return 1.0 - sum(p * spine_leaf_moment(n, 1.0 - 1.0 / m)
                     for m, p in partition_class_distribution(n))


def check_rate(label: str, hits: int, trials: int, exact: float) -> None:
    sigma = math.sqrt(exact * (1.0 - exact) / trials)
    observed = hits / trials
    require(abs(observed - exact) <= RATE_SIGMAS * sigma + 1.0 / trials,
            f"{label}: simple rate {observed:.6f} over {trials} samples is more than "
            f"{RATE_SIGMAS} sd ({sigma:.6f}) from the exact {exact:.6f}")


# ---------------------------------------------------------------- own sampler and enumerator

def random_term(rng: random.Random, n: int, classes: list[tuple[int, float]]):
    """A uniform canonical expression: Remy tree growth, then Stam labels."""
    kids: list = [None]
    parent = [-1]
    root = 0
    for _ in range(n - 1):
        x = rng.randrange(len(kids))
        inner, leaf = len(kids), len(kids) + 1
        kids += [(x, leaf) if rng.random() < 0.5 else (leaf, x), None]
        parent += [parent[x], inner]
        p = parent[x]
        if p < 0:
            root = inner
        else:
            left, right = kids[p]
            kids[p] = (inner, right) if left == x else (left, inner)
        parent[x] = inner
    u = rng.random()
    m = classes[-1][0]
    for cls, p in classes:
        u -= p
        if u < 0:
            m = cls
            break
    raw = [rng.randrange(m) for _ in range(n)]
    names: dict = {}
    labels = [names.setdefault(x, len(names)) for x in reversed(raw)][::-1]
    return _attach(root, kids, iter(labels))


def _attach(root: int, kids: list, labels):
    out = []
    work = [root]
    while work:
        node = work.pop()
        if node is _IMPLY:
            right = out.pop()
            out.append((out.pop(), right))
        elif kids[node] is None:
            out.append(next(labels))
        else:
            work += [_IMPLY, kids[node][1], kids[node][0]]
    return out[0]


def all_shapes(n: int) -> list:
    """Every binary tree with n leaves; a leaf is None."""
    if n == 1:
        return [None]
    return [(left, right) for k in range(1, n)
            for left in all_shapes(k) for right in all_shapes(n - k)]


def all_growth_strings(n: int) -> list[tuple[int, ...]]:
    strings = [(0,)]
    for _ in range(n - 1):
        strings = [(x,) + s for s in strings for x in range(max(s) + 2)]
    return strings


def brute_force_simple_count(n: int) -> tuple[int, int]:
    """(simple expressions, all expressions) with n leaves, by enumeration."""
    strings = all_growth_strings(n)
    hits = 0
    total = 0
    for shape in all_shapes(n):
        labels = iter(range(n))
        term = _attach_shape(shape, labels)
        premises, goal = spine(term)
        positions = [p for p in premises if isinstance(p, int)]
        for s in strings:
            total += 1
            hits += any(s[i] == s[goal] for i in positions)
    return hits, total


def _attach_shape(shape, labels):
    if shape is None:
        return next(labels)
    left = _attach_shape(shape[0], labels)
    return (left, _attach_shape(shape[1], labels))


# ---------------------------------------------------------------- program outputs

def read_csv_row(text: str) -> dict:
    lines = text.strip().splitlines()
    require(len(lines) == 2, f"expected a header and one row, got {len(lines)} lines")
    names, cells = lines[0].split(","), lines[1].split(",")
    require(len(names) == len(cells), "CSV row and header differ in length")
    return {k: (float(v) if "." in v or "e" in v else int(v)) for k, v in zip(names, cells)}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def check_experiment_row(row: dict, n: int, count: int, seed: int) -> None:
    """Aggregate identities every experiment CSV row must satisfy."""
    require((row["n"], row["count"], row["seed"]) == (n, count, seed),
            f"CSV names n/count/seed {row['n']}/{row['count']}/{row['seed']}")
    c = row
    require(c["nSimple"] <= c["nEasy"] and c["nMP"] <= c["nEasy"] <= c["nCheap"] <= count,
            f"nSimple, nMP <= nEasy <= nCheap fails: {c}")
    require(c["nEasy"] <= c["nSimple"] + c["nMP"], f"nEasy exceeds nSimple + nMP: {c}")
    require(c["nGKZSimpleNonTaut"] <= c["nAntilogy"], f"nGKZSimpleNonTaut > nAntilogy: {c}")
    require(c["nCheapAndTaut"] <= min(c["nCheap"], c["nTautology"]),
            f"nCheapAndTaut > min(nCheap, nTautology): {c}")
    require(c["nTautology"] + c["nAntilogy"] + c["nUnknown"] <= count,
            f"tautologies, antilogies and unknowns exceed the count: {c}")
    taut = c["nTautology"]
    rest = count - c["nGKZSimpleNonTaut"]
    require(_close(c["ratioCheapOverTaut"], c["nCheapAndTaut"] / taut if taut else 0.0),
            "ratioCheapOverTaut is not nCheapAndTaut / nTautology")
    require(_close(c["gkzRatio"], c["nSimple"] / rest if rest else 0.0),
            "gkzRatio is not nSimple / (count - nGKZSimpleNonTaut)")
    require(_close(c["simpleRate"], c["nSimple"] / count), "simpleRate is not nSimple / count")


# JSONL field -> CSV column it is tallied into.
TALLIES = {"simple": "nSimple", "mp": "nMP", "easy": "nEasy", "cheap": "nCheap"}


def tally(records: list[dict]) -> dict:
    out = {col: sum(bool(r[key]) for r in records) for key, col in TALLIES.items()}
    out["nTautology"] = sum(r["status"] == "tautology" for r in records)
    out["nCheapAndTaut"] = sum(r["cheap"] and r["status"] == "tautology" for r in records)
    out["nGKZSimpleNonTaut"] = sum(bool(r["gkzSimpleNonTaut"]) for r in records)
    out["nAntilogy"] = sum(r["certificate"] == "antilogy" for r in records)
    out["nUnknown"] = sum(r["status"] == "unknown" for r in records)
    return out


def check_verdicts(record: dict, term, rng: random.Random, n: int | None = None) -> None:
    """Per-record checks shared by the JSONL dump and classify payloads."""
    labels = leaves(term)
    where = f"expression {record['expr'][:60]!r}"
    if n is not None:
        require(len(labels) == n, f"{where} has {len(labels)} leaves, not {n}")
    require(is_growth_string(labels), f"{where} is not canonically numbered")
    simple, mp = is_simple(term), is_mp(term)
    require(record["simple"] == simple, f"{where}: simple should be {simple}")
    require(record["mp"] == mp, f"{where}: mp should be {mp}")
    require(record["easy"] == (simple or mp), f"{where}: easy should be {simple or mp}")
    require(record["gkzSimpleNonTaut"] == is_gkz_simple_non_taut(term),
            f"{where}: gkzSimpleNonTaut is wrong")
    require(1 <= record["cleanedSize"] <= len(labels), f"{where}: cleanedSize out of range")
    status = record["status"]
    require(status in ("tautology", "not-tautology", "unknown"), f"{where}: status {status!r}")
    if record["easy"]:
        require(record["cheap"], f"{where} is easy but not cheap")
    if record["cheap"]:
        require(status != "not-tautology", f"{where} is cheap but reported not-tautology")
    if record["certificate"] == "antilogy":
        require(status == "not-tautology", f"{where}: antilogy certificate on {status}")
        goal = goal_of(term)
        require(not holds_under(term, {v: v != goal for v in set(labels)}),
                f"{where}: the antilogy valuation does not falsify it")
    width = max(labels) + 1
    if status == "tautology":
        require(holds_on_random_valuations(term, width, rng),
                f"{where} is reported a tautology but a random valuation falsifies it")
