"""Slow, direct reference computations that the library's fast paths are
checked against.

joint_intertwiner_basis solves X G = G Y for every pair at once as one
dense n^2 x n^2 kernel.  split_basis builds a system's split basis, and
split_walk_array extracts its parameter array by the paper's definition,
reading both split sequences off A* in the two split bases.  The two
roundtrip oracles decide verification_report's cross-checks the direct
way: recognise the construction again with the orderings it was built in
and extract its parameter array by the split walk.
"""

from leonardpairs.errors import (
    DegenerateSplitError,
    FieldMismatchError,
    InternalCheckError,
    LeonardPairsError,
)
from leonardpairs.leonard import (
    LeonardSystem,
    system_from_bidiagonal_pair,
    system_from_pair_with_orderings,
)
from leonardpairs.matrix import ExactMatrix, _is_invertible, _nullspace_grid
from leonardpairs.parray import ParameterArray, validate


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


def split_basis(system: LeonardSystem, *, reverse_theta: bool = False) -> ExactMatrix:
    """Columns u_i = (A - theta_{i-1} I) ... (A - theta_0 I) xi.

    xi is the theta*_0 eigenvector of A*, which spans the image of E*_0;
    its leading coordinate is 1, which makes the basis deterministic.  In
    this basis A is lower bidiagonal with subdiagonal 1 and A* is upper
    bidiagonal; passing reverse_theta walks the thetas backwards, which
    swaps the two split sequences.
    """
    field = system.field
    n = system.d + 1
    theta = tuple(reversed(system.theta)) if reverse_theta else system.theta
    cols = [list(system.dual_eigen.eigenvectors.column(0))]
    for i in range(n - 1):
        nxt = _shifted_apply(system.a, theta[i], cols[-1])
        if all(field.is_zero(v) for v in nxt):
            raise DegenerateSplitError(f"split vector u_{i + 1} vanishes")
        cols.append(nxt)
    return ExactMatrix._raw(field, zip(*cols))


def _shifted_apply(x: ExactMatrix, shift, vector) -> list:
    """(X - shift I) vector."""
    f = x.field
    return [f.sub(v, f.mul(shift, w)) for v, w in zip(x.apply(vector), vector)]


def split_superdiagonal(system, *, reverse_theta: bool) -> list:
    """The superdiagonal phi of A* in the split basis u_0, ..., u_d.

    A u_i = theta_i u_i + u_{i+1} holds for i < d by construction, so the
    split form is certified by three exact checks: the u_i are independent
    (full rank on forward elimination), (A - theta_d I) u_d = 0, and
    A* u_i - theta*_i u_i = phi_i u_{i-1} for each i (0 for i = 0), which
    is also where phi_i is read.
    """
    field = system.field
    n = system.d + 1
    theta = tuple(reversed(system.theta)) if reverse_theta else system.theta
    s = split_basis(system, reverse_theta=reverse_theta)
    if not _is_invertible(s):
        raise DegenerateSplitError("split basis is singular")
    cols = [s.column(i) for i in range(n)]
    if any(not field.is_zero(v) for v in _shifted_apply(system.a, theta[-1], cols[-1])):
        raise DegenerateSplitError(
            f"split form of A: A u_{n - 1} != theta_{n - 1} u_{n - 1}"
        )
    phi = []
    for i in range(n):
        rest = _shifted_apply(system.a_star, system.theta_star[i], cols[i])
        if i == 0:
            want = [field.zero] * n
        else:
            prev = cols[i - 1]
            lead = next(k for k, v in enumerate(prev) if not field.is_zero(v))
            phi.append(field.div(rest[lead], prev[lead]))
            want = [field.mul(phi[-1], v) for v in prev]
        if rest != want:
            raise DegenerateSplitError(
                f"split form of A* is not upper bidiagonal with diagonal theta* "
                f"(column {i})"
            )
    return phi


def split_walk_array(system) -> ParameterArray:
    """A system's parameter array: varphi is the superdiagonal of A* in
    the split basis, and phi the same reading with theta reversed."""
    pa = ParameterArray(
        system.field,
        system.theta,
        system.theta_star,
        split_superdiagonal(system, reverse_theta=False),
        split_superdiagonal(system, reverse_theta=True),
    )
    report = validate(pa)
    if not report.valid:
        raise InternalCheckError(
            "extracted data violates the parameter array axioms: "
            + ", ".join(report.failing())
        )
    return pa


def bidiagonal_roundtrip(pa, b, b_star) -> bool:
    """Whether the system of the bidiagonal (B, B*), ordered by their
    diagonals, has the array pa; False where there is no such system."""
    try:
        return split_walk_array(system_from_bidiagonal_pair(b, b_star)) == pa
    except (LeonardPairsError, ValueError):
        return False


def tridiagonal_roundtrip(pa, t, t_star) -> bool:
    """Whether the system of (T, T*) with pa's orderings has the array pa;
    False where there is no such system."""
    try:
        system = system_from_pair_with_orderings(t, t_star, pa.theta, pa.theta_star)
        return split_walk_array(system) == pa
    except (LeonardPairsError, ValueError):
        return False
