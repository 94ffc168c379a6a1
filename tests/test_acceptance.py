"""Acceptance gate: nine exact-arithmetic criteria, one test each.

Every comparison below is exact equality in the ground field; there are
no tolerances anywhere.  Shared across criteria is a seeded corpus of
valid parameter arrays drawn from the two algebraic families and their
affine perturbations, over Q, GF(5), and GF(101).  Criteria with stated
runtime budgets time themselves and fail when over budget.

Run with -v to get the per-criterion pass/fail lines.
"""

import functools
import itertools
import random
import time

from leonardpairs.errors import InvalidParameterArrayError
from leonardpairs.field import FieldElement, PrimeField, Rationals
from leonardpairs.generators import (
    NONEXAMPLE_KINDS,
    _sqrt_q_setup,
    build_lattice,
    example2,
    lattice_pair,
    random_nonexample,
    sl2_module,
    sl2_pair,
    uq_forbidden_set,
    uq_module,
    uq_pair,
)
from leonardpairs.leonard import (
    AskeyWilsonFit,
    extract_parameter_array,
    fit_askey_wilson,
    is_leonard_pair,
    system_from_bidiagonal_pair,
)
from leonardpairs.matrix import ExactMatrix, _solve_grid, is_multiplicity_free
from leonardpairs.parray import (
    ParameterArray,
    affine_transform,
    check_poly_characterization,
    construct_bidiagonal,
    construct_tridiagonal,
    find_g_matrix,
    fingerprint,
    validate,
)
from oracles import askey_wilson_residuals, lattice_operators

CORPUS_SEED = 20260814
MUTATION_SEED = 31415
NONEXAMPLE_SEED = 271828

# (alpha, beta) candidates tried in order until two clear the forbidden set
SCALAR_CANDIDATES = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (5, 1), (1, 5))


def _q_family_arrays():
    """Arrays extracted from both algebraic families over Q, d <= 8."""
    q_field = Rationals()
    out = []
    for d in range(9):
        a, a_star = sl2_pair(q_field, d)
        rec = is_leonard_pair(a, a_star)
        assert rec, f"sl2 d={d} must be recognized"
        out.append((f"sl2-d{d}", extract_parameter_array(rec.canonical)))
    for d in range(7):
        for q_text in ("2", "3/2"):
            q = q_field.coerce(q_text)
            for eps in (1, -1):
                forbidden = {str(v) for v in uq_forbidden_set(q_field, d, q)}
                picked = 0
                for al, be in SCALAR_CANDIDATES:
                    product = q_field.serialize(q_field.from_int(eps * al * be))
                    if product in forbidden:
                        continue
                    a, a_star, allowed = uq_pair(
                        q_field, d, q, alpha=al, beta=be, epsilon=eps
                    )
                    assert allowed
                    rec = is_leonard_pair(a, a_star)
                    assert rec, f"uq d={d} q={q_text} eps={eps}"
                    out.append(
                        (
                            f"uq-d{d}-q{q_text}-e{eps}-a{al}b{be}",
                            extract_parameter_array(rec.canonical),
                        )
                    )
                    picked += 1
                    if picked == 2:
                        break
    return out


def _reduce_mod_p(pa, field):
    """Exact image of a rational array in GF(p); None when a denominator
    vanishes mod p or the image fails an axiom."""
    p = field.p

    def reduce_seq(values):
        out = []
        for v in values:
            num, den = int(v.payload.numerator), int(v.payload.denominator)
            if den % p == 0:
                return None
            out.append(field.div(field.from_int(num), field.from_int(den)))
        return out

    seqs = [
        reduce_seq(pa.theta_elements()),
        reduce_seq(pa.theta_star_elements()),
        reduce_seq(pa.varphi_elements()),
        reduce_seq(pa.phi_elements()),
    ]
    if any(s is None for s in seqs):
        return None
    candidate = ParameterArray(field, *seqs)
    return candidate if validate(candidate).valid else None


@functools.lru_cache(maxsize=1)
def corpus():
    """Seeded valid arrays: families over Q, their mod-p images, and one
    affine perturbation of everything."""
    base = _q_family_arrays()
    pool = list(base)
    for p in (5, 101):
        field = PrimeField(p)
        for label, pa in base:
            reduced = _reduce_mod_p(pa, field)
            if reduced is not None:
                pool.append((f"{label}-mod{p}", reduced))
    rng = random.Random(CORPUS_SEED)
    full = list(pool)
    for label, pa in pool:
        f = pa.field

        def nonzero():
            while True:
                v = f.random_element(rng)
                if not v.is_zero:
                    return v

        mapped = affine_transform(
            pa, nonzero(), f.random_element(rng), nonzero(), f.random_element(rng)
        )
        assert validate(mapped).valid
        full.append((f"{label}-affine", mapped))
    return tuple(full)


def test_criterion_1_fixture():
    started = time.perf_counter()
    q_field = Rationals()
    a, a_star, p = example2(q_field)
    pp = p @ p
    eight = q_field.from_int(8)
    for i in range(4):
        for j in range(4):
            expected = eight if i == j else q_field.zero
            assert pp.rows[i][j] == expected
    left, right = a @ p, p @ a_star
    for i in range(4):
        for j in range(4):
            assert left.rows[i][j] == right.rows[i][j]
    assert is_leonard_pair(a, a_star)

    a3, a3_star, _ = example2(PrimeField(3))
    rec = is_leonard_pair(a3, a3_star)
    assert rec.is_pair is False
    assert "irreducible" in rec.failure_reason
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"criterion 1: PASS (fixture identities, GF(3) rejection, {elapsed:.2f}s)")


def test_criterion_2_bijection_roundtrip():
    arrays = corpus()
    assert len(arrays) >= 200
    names = {pa.field.name for _, pa in arrays}
    assert {"Q", "GF(5)", "GF(101)"} <= names
    assert max(pa.d for _, pa in arrays) == 8
    for label, pa in arrays:
        a, a_star = construct_bidiagonal(pa)
        back = extract_parameter_array(system_from_bidiagonal_pair(a, a_star))
        assert back == pa, label
    print(f"criterion 2: PASS ({len(arrays)} arrays, extract after construct is identity)")


def _three_way(pa):
    """validate / intertwiner existence / polynomial agreement as booleans.

    The latter two presuppose distinct eigenvalues and nonzero split
    products; when those fail every route counts the array as rejected.
    """
    valid = validate(pa).valid
    try:
        g_found = find_g_matrix(pa).found
    except InvalidParameterArrayError:
        g_found = False
    try:
        poly_ok = check_poly_characterization(pa)
    except InvalidParameterArrayError:
        poly_ok = False
    return valid, g_found, poly_ok


def _mutations(pa, rng):
    # d = 0 arrays are immune: every axiom is vacuous there
    if pa.d == 0:
        return
    f = pa.field
    seqs = {
        "theta": list(pa.theta),
        "theta_star": list(pa.theta_star),
        "varphi": list(pa.varphi),
        "phi": list(pa.phi),
    }
    for name in ("theta", "theta_star", "varphi", "phi"):
        values = dict(seqs)
        target = list(values[name])
        idx = rng.randrange(len(target))
        target[idx] = f.add(target[idx], f.from_int(rng.randrange(1, 4)))
        values[name] = target
        yield name, ParameterArray(
            f, values["theta"], values["theta_star"], values["varphi"], values["phi"]
        )


def test_criterion_3_characterization_equivalences():
    rng = random.Random(MUTATION_SEED)
    rejected = skipped = 0
    for label, pa in corpus():
        verdicts = _three_way(pa)
        assert verdicts == (True, True, True), (label, verdicts)
        for name, mutated in _mutations(pa, rng):
            valid, g_found, poly_ok = _three_way(mutated)
            assert valid == g_found == poly_ok, (label, name)
            if valid:
                skipped += 1  # mutation landed on another valid array
            else:
                rejected += 1
    assert rejected >= 900
    print(
        f"criterion 3: PASS (three-way agreement everywhere, "
        f"{rejected} mutations rejected, {skipped} re-valid skips)"
    )


def test_criterion_4_tridiagonal_construction():
    started = time.perf_counter()
    arrays = corpus()
    for label, pa in arrays:
        f = pa.field
        d = pa.d
        ts = pa.theta_star
        a, a_star = construct_tridiagonal(pa)
        for i in range(d + 1):
            assert a_star.rows[i][i] == ts[i]
            expected = pa.theta[i]
            if i >= 1:
                expected = f.add(expected, f.div(pa.varphi[i - 1], f.sub(ts[i], ts[i - 1])))
            if i <= d - 1:
                expected = f.add(expected, f.div(pa.varphi[i], f.sub(ts[i], ts[i + 1])))
            assert a.rows[i][i] == expected, (label, i)
        for i in range(1, d + 1):
            numer = f.mul(pa.varphi[i - 1], pa.phi[i - 1])
            for h in range(i - 1):
                numer = f.mul(numer, f.sub(ts[i - 1], ts[h]))
            for h in range(i + 1, d + 1):
                numer = f.mul(numer, f.sub(ts[i], ts[h]))
            denom = f.one
            for h in range(i):
                denom = f.mul(denom, f.sub(ts[i], ts[h]))
            for h in range(i, d + 1):
                denom = f.mul(denom, f.sub(ts[i - 1], ts[h]))
            product = f.mul(a.rows[i][i - 1], a.rows[i - 1][i])
            assert product == f.div(numer, denom), (label, i)
        rec = is_leonard_pair(a, a_star)
        assert rec, label
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.2f}s"
    print(
        f"criterion 4: PASS ({len(arrays)} tridiagonal realizations, "
        f"entry formulas exact, {elapsed:.2f}s)"
    )


def test_criterion_5_askey_wilson_on_corpus():
    for label, pa in corpus():
        a, a_star = construct_bidiagonal(pa)
        fit = fit_askey_wilson(a, a_star)
        assert fit.found, label
        res1, res2 = askey_wilson_residuals(a, a_star, fit)
        assert res1.is_zero and res2.is_zero, label
        assert fit.unique == (pa.d >= 3), (label, fit.unique, fit.nullity)
    print("criterion 5: PASS (every fit exact, unique exactly when d >= 3)")


def test_criterion_6_sl2_defaults():
    q_field = Rationals()
    two = q_field.from_int(2)
    for d in range(9):
        mod = sl2_module(q_field, d)
        e, f, h = mod.e, mod.f, mod.h
        assert h @ e - e @ h == e.scale(two)
        assert h @ f - f @ h == f.scale(q_field.neg(two))
        assert e @ f - f @ e == h
        a, a_star = sl2_pair(q_field, d)
        rec = is_leonard_pair(a, a_star)
        assert rec, d
        fp = fingerprint(extract_parameter_array(rec.canonical))
        if d >= 3:
            assert fp.family == "classical"
            assert fp.beta == FieldElement(q_field, two)
        else:
            assert fp.family == "small-diameter"
    print("criterion 6: PASS (commutators exact, all recognized, classical beta = 2)")


def _pinned_beta_consistent(a, a_star, beta):
    """Whether some coefficient vector with this beta satisfies both
    relations; needed below diameter 3 where the fit is not unique."""
    f = a.field
    n = a.n
    aa = a @ a
    ss = a_star @ a_star
    anti = a @ a_star + a_star @ a
    asa = (a @ a_star) @ a
    sas = (a_star @ a) @ a_star
    ident = ExactMatrix.identity(f, n)
    zero = ExactMatrix.zeros(f, n)
    columns1 = (anti, aa, a_star, zero, a, ident, zero)
    columns2 = (ss, anti, zero, a, a_star, zero, ident)
    rhs1 = (aa @ a_star + a_star @ aa) - asa.scale(beta)
    rhs2 = (ss @ a + a @ ss) - sas.scale(beta)
    rows, rhs = [], []
    for mats, target in ((columns1, rhs1), (columns2, rhs2)):
        for i in range(n):
            for j in range(n):
                rows.append([m.entry(i, j) for m in mats])
                rhs.append(target.entry(i, j))
    solution = _solve_grid(f, rows, rhs)
    if solution is None:
        return False
    names = ("gamma", "gamma_star", "rho", "rho_star", "omega", "eta", "eta_star")
    coeffs = {nm: FieldElement(f, v) for nm, v in zip(names, solution[0])}
    coeffs["beta"] = FieldElement(f, beta)
    fit = AskeyWilsonFit(True, False, 0, coeffs)
    res1, res2 = askey_wilson_residuals(a, a_star, fit)
    return res1.is_zero and res2.is_zero


def test_criterion_7_uq_pairs():
    q_field = Rationals()
    checked = 0
    for d in range(7):
        for q_text in ("2", "3/2"):
            q = q_field.coerce(q_text)
            q_sq = q_field.mul(q, q)
            beta_target = q_field.add(q_sq, q_field.inv(q_sq))
            for eps in (1, -1):
                mod = uq_module(q_field, d, q, epsilon=eps)
                e, f, k, k_inv = mod.e, mod.f, mod.k, mod.k_inv
                ident = ExactMatrix.identity(q_field, d + 1)
                assert k @ k_inv == ident and k_inv @ k == ident
                assert k @ e == (e @ k).scale(q_sq)
                assert k @ f == (f @ k).scale(q_field.inv(q_sq))
                den = q_field.sub(q, q_field.inv(q))
                assert e @ f - f @ e == (k - k_inv).scale(q_field.inv(den))

                forbidden = {str(v) for v in uq_forbidden_set(q_field, d, q)}
                picked = 0
                for al, be in SCALAR_CANDIDATES:
                    if q_field.serialize(q_field.from_int(eps * al * be)) in forbidden:
                        continue
                    a, a_star, allowed = uq_pair(
                        q_field, d, q, alpha=al, beta=be, epsilon=eps
                    )
                    assert allowed
                    assert is_leonard_pair(a, a_star), (d, q_text, eps, al, be)
                    fit = fit_askey_wilson(a, a_star)
                    assert fit.found
                    if d >= 3:
                        assert fit.unique
                        assert fit.beta.payload == beta_target, (d, q_text, eps)
                    else:
                        assert not fit.unique
                        assert _pinned_beta_consistent(a, a_star, beta_target)
                    checked += 1
                    picked += 1
                    if picked == 2:
                        break
    assert checked == 56
    print(
        "criterion 7: PASS (relations exact, 56 scalar choices recognized, "
        "fitted beta = q^2 + q^-2)"
    )


def test_criterion_8_subspace_lattices():
    started = time.perf_counter()
    # totals cross-checked by scripts/subspace_counts.py three ways
    expected = {(2, 2): 5, (3, 2): 16, (3, 3): 28, (4, 2): 67}
    for (n, q), total in expected.items():
        lat = build_lattice(n, q)
        assert lat.total_subspaces == total, (n, q)
        f = lat.field
        _, sq = _sqrt_q_setup(q)
        q_el = f.from_int(q)
        den = f.inv(f.sub(sq, f.inv(sq)))
        k_op, r_op, l_op = lattice_operators(lat)
        assert k_op @ l_op == (l_op @ k_op).scale(q_el)
        assert k_op @ r_op == (r_op @ k_op).scale(f.inv(q_el))
        k_inv = ExactMatrix.diagonal(
            f, [f.inv(k_op.rows[i][i]) for i in range(total)]
        )
        assert l_op @ r_op - r_op @ l_op == (k_op - k_inv).scale(den)

        _, _, decomposition = lattice_pair(lat)
        assert sum(c.diameter + 1 for c in decomposition.components) == total
        for comp in decomposition.components:
            assert is_leonard_pair(comp.a, comp.a_star), (n, q, comp.grade, comp.index)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f}s"
    print(
        f"criterion 8: PASS (counts 5/16/28/67, quantum relations exact, "
        f"all components certified, {elapsed:.2f}s)"
    )


def _support_grid(x, idempotents):
    f = x.field
    n = len(idempotents)
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            product = idempotents[i] @ x @ idempotents[j]
            row.append(any(not f.is_zero(v) for r in product.rows for v in r))
        grid.append(row)
    return grid


def _some_ordering_is_irreducible_tridiagonal(support):
    n = len(support)
    for perm in itertools.permutations(range(n)):
        ok = True
        for i in range(n):
            for j in range(n):
                occupied = support[perm[i]][perm[j]]
                gap = abs(i - j)
                if (gap > 1 and occupied) or (gap == 1 and not occupied):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def _oracle_is_leonard_pair(a, a_star):
    """Definition-level brute force: try all idempotent orderings."""
    mf_a = is_multiplicity_free(a)
    mf_star = is_multiplicity_free(a_star)
    if not mf_a or not mf_star:
        return False
    return _some_ordering_is_irreducible_tridiagonal(
        _support_grid(a, mf_star.eigen.idempotents)
    ) and _some_ordering_is_irreducible_tridiagonal(
        _support_grid(a_star, mf_a.eigen.idempotents)
    )


def test_criterion_9_recognition_robustness():
    rng = random.Random(NONEXAMPLE_SEED)
    fields = (Rationals(), PrimeField(5), PrimeField(101))
    for i in range(100):
        field = fields[i % 3]
        n = 2 + (i % 4)  # sizes 2..5, diameters 1..4
        kind = NONEXAMPLE_KINDS[i % len(NONEXAMPLE_KINDS)]
        a, a_star, _ = random_nonexample(field, n, rng, kind)
        rec = is_leonard_pair(a, a_star)
        assert rec.is_pair is False, (i, kind)
        assert isinstance(rec.failure_reason, str) and rec.failure_reason, i
        assert _oracle_is_leonard_pair(a, a_star) is False, (i, kind)
    # positive controls: the oracle and the recognizer agree on real pairs
    for d in range(5):
        a, a_star = sl2_pair(Rationals(), d)
        assert _oracle_is_leonard_pair(a, a_star) is True
        assert is_leonard_pair(a, a_star).is_pair is True
    print("criterion 9: PASS (100 non-examples rejected, oracle concurs, no false positives)")
