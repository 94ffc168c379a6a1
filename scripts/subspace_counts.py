"""Count subspaces of F_q^n three independent ways, and their covers.

Run before trusting any hard-coded lattice sizes.  Prints, for each (n, q),
the Gaussian-binomial column counts and their total, cross-checked against
the q-Pascal recurrence and against brute enumeration of reduced row
echelon forms for prime q.  Then, by brute force over those forms, it
tests every k-subspace against every (k+1)-subspace for containment, and
checks that each k-subspace has [n-k]_q covers and [k]_q subcovers, with
[m]_q = (q^m - 1)/(q - 1); it prints both per dimension.

Usage: python3 scripts/subspace_counts.py
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def gauss_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(q ** (n - i) - 1, q ** (k - i) - 1)
    assert num.denominator == 1
    return int(num)


def gauss_binomial_pascal(n: int, k: int, q: int) -> int:
    # [n,k]_q = [n-1,k-1]_q + q^k [n-1,k]_q
    table = {(0, 0): 1}
    for m in range(1, n + 1):
        for j in range(m + 1):
            table[(m, j)] = table.get((m - 1, j - 1), 0) + q**j * table.get((m - 1, j), 0)
    return table[(n, k)]


def count_rref(n: int, k: int, q: int) -> int:
    """Enumerate reduced row echelon forms of rank k, k by n, entries mod q."""
    total = 0
    for pivots in itertools.combinations(range(n), k):
        free = 0
        for r, p in enumerate(pivots):
            for c in range(p + 1, n):
                if c not in pivots:
                    free += 1
        total += q**free
    return total


def rref_forms(n: int, k: int, q: int) -> list:
    """Every reduced row echelon form of rank k, k by n, entries mod prime q."""
    forms = []
    for pivots in itertools.combinations(range(n), k):
        free = [(r, c) for r, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [[int(c == p) for c in range(n)] for p in pivots]
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            forms.append(rows)
    return forms


def rank_mod(rows, q: int) -> int:
    """Rank of a list of rows mod prime q, by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] % q), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], q - 2, q)
        for i in range(len(rows)):
            if i != rank and rows[i][c] % q:
                factor = rows[i][c] * inv
                rows[i] = [(a - factor * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def cover_counts(n: int, q: int) -> tuple[list, list]:
    """Covers of each k-subspace and subcovers of each (k+1)-subspace,
    found by testing every pair for containment; each must be one number
    per dimension, which is returned."""
    grades = [rref_forms(n, k, q) for k in range(n + 1)]
    covers = [[0] * len(g) for g in grades]
    subcovers = [[0] * len(g) for g in grades]
    for k in range(n):
        for i, low in enumerate(grades[k]):
            for j, up in enumerate(grades[k + 1]):
                if rank_mod(up + low, q) == k + 1:
                    covers[k][i] += 1
                    subcovers[k + 1][j] += 1
    per_dim = []
    for counts in (covers, subcovers):
        values = [set(c) for c in counts]
        assert all(len(v) == 1 for v in values), (n, q, values)
        per_dim.append([v.pop() for v in values])
    return per_dim[0], per_dim[1]


def q_int(m: int, q: int) -> int:
    return (q**m - 1) // (q - 1)


def main() -> None:
    cases = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]
    for n, q in cases:
        cols = [gauss_binomial(n, k, q) for k in range(n + 1)]
        cols2 = [gauss_binomial_pascal(n, k, q) for k in range(n + 1)]
        cols3 = [count_rref(n, k, q) for k in range(n + 1)]
        assert cols == cols2 == cols3, (n, q, cols, cols2, cols3)
        covers, subcovers = cover_counts(n, q)
        assert covers == [q_int(n - k, q) for k in range(n + 1)], (n, q, covers)
        assert subcovers == [q_int(k, q) for k in range(n + 1)], (n, q, subcovers)
        print(
            f"n={n} q={q}: per-dimension {cols} total {sum(cols)} "
            f"covers {covers} subcovers {subcovers}"
        )


if __name__ == "__main__":
    main()
