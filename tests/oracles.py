"""Slow, direct reference computations that the library's fast paths are
checked against.

joint_intertwiner_basis solves X G = G Y for every pair at once as one
dense n^2 x n^2 kernel.  The two roundtrip oracles decide
verification_report's cross-checks the direct way: recognise the
construction again with the orderings it was built in and extract its
parameter array.
"""

from leonardpairs.errors import FieldMismatchError, LeonardPairsError
from leonardpairs.leonard import system_from_bidiagonal_pair, system_from_pair_with_orderings
from leonardpairs.matrix import ExactMatrix, _nullspace_grid


def joint_intertwiner_basis(pairs) -> list[ExactMatrix]:
    """Deterministic basis of {G : X @ G = G @ Y for every (X, Y) pair}."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one matrix pair")
    field = pairs[0][0].field
    n = pairs[0][0].n
    for x, y in pairs:
        if x.field != field or y.field != field:
            raise FieldMismatchError("intertwiner pairs over different fields")
        if x.n != n or y.n != n:
            raise ValueError("intertwiner pairs of different sizes")
    rows = []
    for x, y in pairs:
        for i in range(n):
            for j in range(n):
                row = [field.zero] * (n * n)
                for a in range(n):
                    row[a * n + j] = field.add(row[a * n + j], x.rows[i][a])
                for b in range(n):
                    row[i * n + b] = field.sub(row[i * n + b], y.rows[b][j])
                rows.append(row)
    basis = _nullspace_grid(field, rows)
    return [
        ExactMatrix._raw(field, [vec[i * n : (i + 1) * n] for i in range(n)])
        for vec in basis
    ]


def bidiagonal_roundtrip(pa, b, b_star) -> bool:
    """Whether the system of the bidiagonal (B, B*), ordered by their
    diagonals, has the array pa; False where there is no such system."""
    try:
        return system_from_bidiagonal_pair(b, b_star).parameter_array() == pa
    except (LeonardPairsError, ValueError):
        return False


def tridiagonal_roundtrip(pa, t, t_star) -> bool:
    """Whether the system of (T, T*) with pa's orderings has the array pa;
    False where there is no such system."""
    try:
        system = system_from_pair_with_orderings(t, t_star, pa.theta, pa.theta_star)
        return system.parameter_array() == pa
    except (LeonardPairsError, ValueError):
        return False
