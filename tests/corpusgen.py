"""Shared builders for test arrays.

The direct construction: pick eigenvalue sequences theta, theta* that are
distinct and share the three-term ratio (PA1 + PA5), pick a free nonzero
phi_1, then define varphi_i by the PA3 right-hand side and phi_i by the
PA4 right-hand side.  PA3 only reads phi_1 and PA4 only reads varphi_1,
so both hold by construction; the only axiom left to chance is PA2.
array_from_eigen_data is the library's own completion, which returns None
when the result breaks PA2.  dense_reduced_pair dresses the split form of
such an array as a dense pair whose Hessenberg form splits.
"""

import random

from leonardpairs.field import Field
from leonardpairs.generators import _complete_array as array_from_eigen_data
from leonardpairs.generators import _random_invertible
from leonardpairs.matrix import ExactMatrix, conjugate
from leonardpairs.parray import construct_bidiagonal, validate


def theta_by_recurrence(field: Field, starts, r, d):
    """Extend starts by theta_{i+1} = theta_{i-2} - r (theta_{i-1} - theta_i).

    Returns d+1 payloads, or None if a repeat appears.
    """
    seq = [field.coerce(v) for v in starts]
    r = field.coerce(r)
    while len(seq) < d + 1:
        nxt = field.sub(seq[-3], field.mul(r, field.sub(seq[-2], seq[-1])))
        seq.append(nxt)
    seq = seq[: d + 1]
    seen = set()
    for v in seq:
        key = field.serialize(v)
        if key in seen:
            return None
        seen.add(key)
    return seq


def random_valid_array(field: Field, rng, d, max_tries: int = 400):
    """Draw a valid array of diameter d, via the direct construction."""
    for _ in range(max_tries):
        if d <= 2:
            theta = _distinct_sample(field, rng, d + 1)
            theta_star = _distinct_sample(field, rng, d + 1)
            if theta is None or theta_star is None:
                continue
        else:
            r = field.random_element(rng)
            starts = _distinct_sample(field, rng, 3)
            starts_star = _distinct_sample(field, rng, 3)
            if starts is None or starts_star is None:
                continue
            theta = theta_by_recurrence(field, starts, r, d)
            theta_star = theta_by_recurrence(field, starts_star, r, d)
            if theta is None or theta_star is None:
                continue
        phi1 = field.random_element(rng).payload
        if field.is_zero(phi1):
            continue
        pa = array_from_eigen_data(field, theta, theta_star, phi1)
        if pa is None:
            continue
        report = validate(pa)
        if report.valid:
            return pa
    raise RuntimeError(f"no valid array of diameter {d} found over {field.name}")


def _distinct_sample(field: Field, rng, count, tries: int = 50):
    for _ in range(tries):
        values = [field.random_element(rng).payload for _ in range(count)]
        if len({field.serialize(v) for v in values}) == count:
            return values
    return None


def dense_reduced_pair(field: Field, d, seed):
    """A split-form pair conjugated by S, a _random_invertible matrix whose
    first column is replaced by e_d.  The lower bidiagonal A has A e_d =
    theta_d e_d, so S^-1 A S maps e_0 to theta_d e_0: dense, but its
    Hessenberg form splits after the first row."""
    rng = random.Random(seed)
    b, b_star = construct_bidiagonal(random_valid_array(field, rng, d))
    rows = [list(row) for row in _random_invertible(field, d + 1, rng).rows]
    for i, row in enumerate(rows):
        row[0] = field.one if i == d else field.zero
    s = ExactMatrix._raw(field, rows)
    return conjugate(b, s), conjugate(b_star, s)
