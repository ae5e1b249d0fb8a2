from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stratiform.exactalg import Matrix, _completion, hermite_basis

from reference import (
    _smith_core,
    apply,
    det,
    from_columns,
    identity,
    inverse,
    lattice_contains,
    lattice_coordinates,
    matmul,
    rank,
    right_kernel,
    rref,
    saturate,
    smith_normal_form,
    solve,
    torsion_invariants,
    zero_matrix,
)


def cofactor_det(rows):
    """Independent determinant oracle by Laplace expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def minor_gcd_invariants(rows, nrows, ncols):
    """Invariant factors via gcds of k-minors, an independent oracle."""
    from itertools import combinations
    from math import gcd

    out = []
    prev = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ris in combinations(range(nrows), k):
            for cis in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                g = gcd(g, abs(cofactor_det(sub)))
        if g == 0:
            out.append(0)
        else:
            out.append(g // prev)
            prev = g
    # pad: once a zero appears, all later invariants are zero
    saw_zero = False
    for i, d in enumerate(out):
        if saw_zero:
            out[i] = 0
        elif d == 0:
            saw_zero = True
    return tuple(out)


class TestRank:
    def test_identity(self):
        assert rank(identity(2)) == 2

    def test_proportional_rows(self):
        assert rank(Matrix([[1, 2], [2, 4]])) == 1

    def test_full_rank_3x3_against_cofactor_oracle(self):
        rows = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
        assert cofactor_det(rows) == 18
        assert rank(Matrix(rows)) == 3

    def test_empty_shapes(self):
        assert rank(Matrix([], ncols=3)) == 0
        assert rank(zero_matrix(2, 0)) == 0


class TestKernel:
    def test_identity_trivial(self):
        assert right_kernel(identity(3)) == ()

    def test_single_relation(self):
        (v,) = right_kernel(Matrix([[1, 1]]))
        assert v[0] * Fraction(-1) == v[1]
        assert apply(Matrix([[1, 1]]), v) == (0,)

    def test_rank_one_2x2(self):
        m = Matrix([[1, 2], [2, 4]])
        basis = right_kernel(m)
        assert len(basis) == 1
        (v,) = basis
        assert apply(m, v) == (0, 0)
        # (2, -1) lies in the kernel span
        target = (Fraction(2), Fraction(-1))
        assert apply(m, target) == (0, 0)
        assert v[0] * target[1] == v[1] * target[0]

    def test_rank_plus_kernel_dim(self):
        m = Matrix([[1, 2, 3], [0, 0, 1]])
        assert rank(m) + len(right_kernel(m)) == m.ncols


class TestSolve:
    def test_consistent(self):
        m = Matrix([[1, 2], [3, 4]])
        x = solve(m, [5, 6])
        assert x is not None
        assert apply(m, x) == (5, 6)

    def test_inconsistent(self):
        m = Matrix([[1, 1], [1, 1]])
        assert solve(m, [0, 1]) is None

    def test_underdetermined(self):
        m = Matrix([[1, 1, 1]])
        x = solve(m, [3])
        assert x is not None
        assert sum(x) == 3


class TestSmith:
    def test_single_entry(self):
        assert smith_normal_form(Matrix([[2]])).diag == (2,)

    def test_diag_2_3(self):
        m = Matrix([[2, 0], [0, 3]])
        snf = smith_normal_form(m)
        assert snf.diag == (1, 6)
        assert snf.verify(m)
        assert snf.diag == minor_gcd_invariants([[2, 0], [0, 3]], 2, 2)

    def test_zero_matrix(self):
        assert smith_normal_form(zero_matrix(2, 2)).diag == (0, 0)

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError):
            smith_normal_form(Matrix([[Fraction(1, 2)]]))

    def test_rectangular(self):
        m = Matrix([[1, 1], [1, -1], [2, 0]])
        snf = smith_normal_form(m)
        assert snf.verify(m)
        assert snf.diag == minor_gcd_invariants([[1, 1], [1, -1], [2, 0]], 3, 2)

    def test_torsion_invariants(self):
        assert torsion_invariants(Matrix([[2]])) == (2,)
        assert torsion_invariants(Matrix([[1, 1], [1, -1]])) == (2,)
        assert torsion_invariants(identity(3)) == ()


class TestHermite:
    def test_single_generator(self):
        assert hermite_basis([(2, 4)]) == ((2, 4),)

    def test_index_two_pair(self):
        basis = hermite_basis([(1, 1), (1, -1)])
        assert basis == ((1, 1), (0, 2))
        # same lattice as the generators: mutual membership
        for v in [(1, 1), (1, -1)]:
            assert lattice_contains(basis, v)
        for v in basis:
            gen = hermite_basis([(1, 1), (1, -1)])
            assert lattice_contains(gen, v)

    def test_empty(self):
        assert hermite_basis([]) == ()

    def test_idempotent(self):
        basis = hermite_basis([(2, 1, 0), (0, 3, 1), (4, 0, 1)])
        assert hermite_basis(basis) == basis

    def test_coordinates(self):
        basis = hermite_basis([(1, 1), (0, 2)])
        assert lattice_coordinates(basis, (1, 3)) == (1, 1)
        assert lattice_coordinates(basis, (0, 1)) is None


class TestSaturate:
    def test_divide_by_content(self):
        assert saturate([(2, 4)]) == ((1, 2),)

    def test_index_two(self):
        sat = saturate([(1, 1), (1, -1)])
        assert sat == ((1, 0), (0, 1))

    def test_idempotent(self):
        sat = saturate([(2, 4, 2), (0, 6, 3)])
        assert saturate(sat) == sat

    def test_rejects_dependent_rows(self):
        with pytest.raises(ValueError):
            saturate([(1, 2), (2, 4)])


# -- randomized properties ------------------------------------------------

small_int = st.integers(min_value=-6, max_value=6)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda nr: st.integers(1, max_dim).flatmap(
            lambda nc: st.lists(
                st.lists(small_int, min_size=nc, max_size=nc),
                min_size=nr,
                max_size=nr,
            )
        )
    )


@settings(max_examples=75, deadline=None)
@given(matrices())
def test_snf_reconstruction_and_chain(rows):
    m = Matrix(rows)
    snf = smith_normal_form(m)
    assert snf.verify(m)
    assert snf.diag == minor_gcd_invariants(rows, m.nrows, m.ncols)


@settings(max_examples=75, deadline=None)
@given(matrices())
def test_rank_kernel_dimension(rows):
    m = Matrix(rows)
    assert rank(m) + len(right_kernel(m)) == m.ncols
    for v in right_kernel(m):
        assert all(x == 0 for x in apply(m, v))


@settings(max_examples=60, deadline=None)
@given(
    matrices(3),
    st.lists(
        st.tuples(st.sampled_from(["add", "swap", "neg"]), st.integers(0, 2), st.integers(0, 2), small_int),
        max_size=8,
    ),
)
def test_hermite_invariance_under_unimodular_transforms(rows, ops):
    b1 = hermite_basis(rows)
    work = [list(r) for r in rows]
    n = len(work)
    for kind, i, j, q in ops:
        i, j = i % n, j % n
        if kind == "add" and i != j:
            work[i] = [x + q * y for x, y in zip(work[i], work[j])]
        elif kind == "swap":
            work[i], work[j] = work[j], work[i]
        elif kind == "neg":
            work[i] = [-x for x in work[i]]
    b2 = hermite_basis(work)
    assert b1 == b2


@settings(max_examples=60, deadline=None)
@given(matrices(3))
def test_saturation_index_matches_torsion(rows):
    m = Matrix(rows)
    independent = [list(r) for r in rows][: rank(m)]
    if rank(Matrix(independent)) != len(independent):
        # keep only an independent prefix
        independent = []
        for r in rows:
            if rank(Matrix(independent + [list(r)])) > len(independent):
                independent.append(list(r))
    if not independent:
        return
    sat = saturate(independent)
    assert saturate(sat) == sat
    coords = Matrix([list(lattice_coordinates(sat, tuple(r))) for r in independent])
    got = abs(det(coords))
    expected = 1
    for d in torsion_invariants(Matrix(independent)):
        expected *= d
    assert got == expected


@settings(max_examples=75, deadline=None)
@given(matrices())
def test_smith_core_carries_the_inverse_of_right(rows):
    ncols = len(rows[0])
    core = _smith_core(rows, ncols)
    right, right_inv = Matrix(core.right, ncols=ncols), Matrix(core.right_inverse, ncols=ncols)
    assert matmul(right_inv, right) == identity(ncols)
    assert matmul(right, right_inv) == identity(ncols)


@settings(max_examples=75, deadline=None)
@given(matrices())
def test_completion_of_a_saturated_hermite_span(rows):
    """The Hermite basis S of the saturation of drawn rows, up to all of
    Z^n or none: `_completion` gives the columns of a unimodular R with
    S R = [I | 0], and the rows of R^-1."""
    ncols = len(rows[0])
    independent = []
    for r in rows:
        if rank(Matrix(independent + [list(r)])) > len(independent):
            independent.append(list(r))
    span = saturate(independent)
    cols, inv = _completion(span, ncols)
    right = from_columns(cols, ncols)
    assert matmul(Matrix(span, ncols=ncols), right) == Matrix(identity(ncols).rows[:len(span)], ncols=ncols)
    assert matmul(right, Matrix(inv, ncols=ncols)) == identity(ncols)


def test_completion_refuses_an_unsaturated_span():
    """A pivot other than +-1 is the saturation check."""
    assert _completion(((1, 0),), 2) == ([[1, 0], [0, 1]], [[1, 0], [0, 1]])
    with pytest.raises(AssertionError, match="saturated"):
        _completion(((2, 0),), 2)


def test_integer_rows_keep_their_validation():
    assert hermite_basis([[Fraction(2), 4]]) == ((2, 4),)
    assert hermite_basis(((2, True),)) == ((2, 1),)
    with pytest.raises(ValueError, match="integral"):
        hermite_basis([[1, Fraction(1, 2)]])
    with pytest.raises(TypeError):
        hermite_basis([[1, 0.5]])
    with pytest.raises(ValueError, match="ragged"):
        hermite_basis([[1, 2], [3]])
    with pytest.raises(ValueError, match="ncols does not match row length"):
        Matrix([[1, 2]], ncols=3)
    with pytest.raises(ValueError, match="^ragged rows$"):
        Matrix([[1, 2], [3]])


def test_inverse_roundtrip():
    m = Matrix([[1, 2], [3, 7]])
    assert matmul(m, inverse(m)) == identity(2)
    assert det(m) == 1


# -- rref against a rational Gauss-Jordan reference ------------------------------


def reference_rref(rows, ncols):
    """Gauss-Jordan elimination in Fractions with the pivot rule of
    `rref` (first row with a nonzero entry in the leftmost unfinished
    column), normalizing each pivot row as it is found."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def reference_kernel(rows, ncols):
    red, pivots = reference_rref(rows, ncols)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def reference_solve(rows, ncols, b):
    red, pivots = reference_rref([list(r) + [x] for r, x in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return tuple(x)


big_denominator = st.sampled_from([1, 2, 3, 7, 10**9 + 7, 2**61 - 1, 10**30 + 57])
entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-(10**12), 10**12), big_denominator),
)


@st.composite
def rational_matrices(draw):
    """Shapes down to 0 x n and n x 0, zero columns, negative pivots, large
    denominators, and rows that combine earlier rows (rank deficiency)."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=2)) if ncols else set()
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
            row = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(ncols)]
        else:
            row = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rows.append([Fraction(0) if j in zero_cols else x for j, x in enumerate(row)])
    return rows, ncols


class TestRrefOracle:
    @settings(max_examples=150, deadline=None)
    @given(rational_matrices(), st.data())
    def test_rows_pivots_kernel_and_solve(self, matrix, data):
        rows, ncols = matrix
        m = Matrix(rows, ncols=ncols)
        red, pivots = rref(m)
        want_rows, want_pivots = reference_rref(rows, ncols)
        assert red.rows == want_rows and red.shape == (len(rows), ncols)
        assert all(type(x) is Fraction for row in red.rows for x in row)
        assert pivots == want_pivots and rank(m) == len(want_pivots)
        assert right_kernel(m) == reference_kernel(rows, ncols)
        b = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
        x = solve(m, b)
        assert x == reference_solve(rows, ncols, b)
        if x is not None:
            assert apply(m, x) == tuple(b)

    @pytest.mark.parametrize("rows,ncols", [
        ([], 0), ([], 4), ([[], [], []], 0),
        ([[0, 0], [0, 0]], 2),
        ([[0, -3, 6], [0, -1, 2], [0, 2, 5]], 3),
        ([[Fraction(-2, 10**30 + 57), Fraction(1, 3)], [Fraction(4, 10**30 + 57), Fraction(-2, 3)]], 2),
    ])
    def test_edge_shapes(self, rows, ncols):
        m = Matrix(rows, ncols=ncols)
        red, pivots = rref(m)
        assert (red.rows, pivots) == reference_rref(rows, ncols)
        assert right_kernel(m) == reference_kernel(rows, ncols)
