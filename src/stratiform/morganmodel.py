"""Bigraded cdga models from compactification data, and formality witnesses.

Given a smooth compactification with divisor components D_1..D_s, the
model places H^{2k-q}(D_I) with |I| = q - k in bidegree (k, q); the twist
makes that summand pure of weight q.  The differential sums signed Gysin
maps that drop one component; the product restricts both factors to the
union and cups, with the sign (-1)^{(q-n)q'} sgn(I, I').  Kernel and
cokernel witnesses extract zero-differential cdgas in the two purity
regimes (weights 2k resp. k) together with the comparison morphism and
an exact check that it is an r-quasi-isomorphism.

Compactification data is explicit input built by the provided
constructors (marked projective lines and their Kunneth products); no
resolution of singularities is attempted.  Composite restrictions are
held as integer rows over their own scale and extended one step at a
time in a memo owned by the caller: validation compares the two orders
of each pair of steps on them, and the model is assembled block by
block, a block being the summand of one stratum and degree, from the
nonzero entries of its Gysin blocks and by sweeping the cup tables' keys
against the composites' rows.  All checks are exact identities.  A model
keeps its maps in one form only, integers over one scale D (the product
tables and the sparse columns of each stored d), with `products` a
rational view made on each read; a morphism keeps the sparse integer
columns of its blocks over a scale of its own.  What a public
constructor is given is converted once, where it enters; `build_model`
and the witnesses write integer tables, which `_integer_form` brings to
one D.  No accessor renders a map as a `Matrix` or applies it to one
vector: the tests' oracles in `tests/reference.py` do.  The checks and
both witnesses run on these forms and make a Fraction only for a value
they return.  Every product on the model route, from the model's own
tables to both sides of Leibniz, associativity and f(ab) = f(a)f(b) and
the witnesses' products, is one join, `_accumulate`, of a sparse
product table with the sparse rows of the vectors on either side,
labelled by basis tuples, or identity rows where a side is the basis.
The ring and Leibniz sweeps visit only the bidegree tuples some table
reaches, and no tuple holding a verified unit.  A map is checked once,
where it enters: `BigradedModel` refuses a differential that does not
map between its spaces and a stored product with a nonzero entry
outside its space, `CdgaMorphism` a block that does not map between its
spaces, and a datum's validation (`_issues`) lists a missing or
misshapen restriction step once.  `cohomology_of_model` is the one
reader of a model's cohomology dimensions, ranking each stored d once
and keeping the result on the model; it gives no dimensions for a
sequence that is not a complex, but raises the ValueError "d o d
nonzero on M^k_q".  `check_r_quasi_iso` reads it for its source and its
target, so it refuses a non-complex too.  Both witnesses refuse a model
in one step (`_refuse`), in this order: that ValueError; then
cohomology off the witness's line of bidegrees, (k, 2k) or (k, k).
Both sweep the products of their chosen vectors in one loop
(`_line_model`), and, like the quasi-isomorphism check, build column
cohomology only where it is nonzero.  Ranks of d and of induced maps,
cocycles, representatives and class coordinates all come from one
fraction-free elimination of sparse integer columns, each carrying its
history (`_reduce`).  Only a datum's blocks are matrices: from `build_model` to
a verdict, nothing makes or eliminates a `Matrix`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from stratiform.exactalg import Matrix

INF = math.inf

Bidegree = tuple[int, int]
Sparse = dict[int, Fraction]


class DatumError(ValueError):
    """Structurally unusable compactification datum (missing or misshapen map)."""


class ModelPurityError(RuntimeError):
    """Witness extraction refused: model cohomology off the required column."""

    def __init__(self, kind: str, witnesses: Sequence[Bidegree]):
        self.witnesses = tuple(witnesses)
        super().__init__(
            "%s extraction refused; nonzero cohomology at (degree, weight) %s"
            % (kind, list(self.witnesses))
        )


class MorphismError(ValueError):
    """A map of models violates a cdga morphism identity."""


class ClosureError(RuntimeError):
    """A witness subspace or quotient fails to close under the product."""


def shuffle_sign(i_set: Iterable[int], j_set: Iterable[int]) -> int:
    """Sign of the permutation sorting (I ascending, I' ascending) together.

    Caller guarantees disjointness; the model product returns zero on
    overlapping index sets before consulting this sign.
    """
    a, b = sorted(i_set), sorted(j_set)
    inversions = sum(1 for x in a for y in b if x > y)
    return -1 if inversions % 2 else 1


def _sparse_columns(mat: Matrix) -> list[Sparse]:
    """The nonzero entries of each column of `mat`, keyed by row."""
    cols: list[Sparse] = [{} for _ in range(mat.ncols)]
    for i, row in enumerate(mat.rows):
        for j, v in enumerate(row):
            if v:
                cols[j][i] = v
    return cols


def _integer_form(maps: Mapping[Bidegree, list], groups: Iterable[tuple[int, Iterable[dict]]] = ()) -> tuple[int, dict]:
    """(D, `maps` as integer columns) for maps given as sparse rational
    columns, and `groups` (den, vectors) of integer vectors whose values
    stand for v / den, rescaled in place: D is the lcm of the denominators
    of the entries of `maps` and of the reduced ones of the groups' values,
    and each value v becomes the integer v * D."""
    groups = list(groups)
    scale = math.lcm(*{v.denominator for cols in maps.values() for col in cols for v in col.values()},
                     *(den // math.gcd(den, *(v for vec in vecs for v in vec.values())) for den, vecs in groups))
    for den, vecs in groups:
        g = math.gcd(scale, den)  # den // g divides every value of the group
        if den != scale:
            for vec in vecs:
                for c, v in vec.items():
                    vec[c] = v // (den // g) * (scale // g)
    return scale, {kq: [{i: v.numerator * (scale // v.denominator) for i, v in col.items()} for col in cols]
                   for kq, cols in maps.items()}


def _apply_columns(cols: Sequence[Mapping[int, Fraction]], vec: Mapping[int, Fraction]) -> Sparse:
    """Sparse mat-vec: the matrix given by its sparse columns times `vec`,
    in the arithmetic of their entries, ints or Fractions."""
    out: Sparse = {}
    for j, c in vec.items():
        if c == 0:
            continue
        for i, v in cols[j].items():
            prev = out.get(i)
            out[i] = c * v if prev is None else prev + c * v
    return {i: v for i, v in out.items() if v}


def _accumulate(acc: dict, table: Mapping, rows1: Mapping, rows2: Mapping, coeff=1) -> dict:
    """Add coeff * x * y * t_ij into acc[a + b] for each key (i, j) of the
    product `table`, each (a, x) in row i of `rows1` and each (b, y) in row
    j of `rows2`, and return `acc`.

    With the sparse rows {basis index: {label: coefficient}} of vectors
    labelled by tuples a and b, this adds coeff times ab to acc[a + b]:
    labels (a,) and (b,) give the key (a, b), and (a, b) and (c,), or (a,)
    and (b, c), give (a, b, c).  It is the one join of a product table with
    vectors on the model route.  A pair that meets no key gets no entry,
    and zero sums are kept; `_pair_products` and `_nonzero_keys` read the
    result."""
    for (i, j), ij in table.items():
        left, right = rows1.get(i), rows2.get(j)
        if left and right:
            for a, x in left.items():
                if coeff != 1:
                    x = coeff * x
                for b, y in right.items():
                    out = acc.setdefault(a + b, {})
                    xy = x * y
                    for c, v in ij.items():
                        prev = out.get(c)
                        out[c] = xy * v if prev is None else prev + xy * v
    return acc


def _pair_products(acc: Mapping) -> dict[tuple[int, int], Sparse]:
    """The vectors of `acc` by key (a, b) ascending, without their zero
    entries, and without the keys whose vector is then empty."""
    products = {}
    for ab in sorted(acc):
        vec = {c: v for c, v in acc[ab].items() if v}
        if vec:
            products[ab] = vec
    return products


def _identity_rows(span: Mapping) -> dict:
    """The identity on each range of `span` as sparse rows {a: {(a,): 1}}."""
    return {key: {a: {(a,): 1} for a in r} for key, r in span.items()}


def _sparse_rows(cols) -> dict[int, dict]:
    """The sparse columns `cols`, a sequence or a dict {label: {row:
    value}}, as sparse rows {row: {label: value}}, in the order of `cols`;
    column j of a sequence is labelled (j,).  Applied to sparse rows, it
    gives sparse columns."""
    rows: dict[int, dict] = {}
    for label, col in cols.items() if isinstance(cols, dict) else (((j,), col) for j, col in enumerate(cols)):
        for i, v in col.items():
            rows.setdefault(i, {})[label] = v
    return rows


def _compose_rows(after: tuple[int, dict], before: tuple[int, dict]) -> tuple[int, dict[int, dict[int, int]]]:
    """The product `after` times `before` of two matrices held as (D, their
    sparse integer rows {row: {column: value * D}}), zeros dropped, over the
    least D: row t is the combination of the rows of `before`, which omits
    its zero rows, with the coefficients of row t of `after`."""
    rows, out = before[1], {}
    for t, coeffs in after[1].items():
        row = _apply_columns(rows, {r: x for r, x in coeffs.items() if r in rows})
        if row:
            out[t] = row
    den = after[0] * before[0]
    g = math.gcd(den, *(v for row in out.values() for v in row.values()))
    return den // g, ({t: {a: v // g for a, v in row.items()} for t, row in out.items()} if g > 1 else out)


def _rational(v):
    """A structure constant as an int or a Fraction, which both carry a
    numerator and a denominator."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _scaled(v, scale: int) -> int:
    """The constant v times `scale`, a multiple of its denominator."""
    v = _rational(v)
    return v.numerator * (scale // v.denominator)


def _nonzero_keys(acc: Mapping) -> list:
    """The keys of `acc`, ascending, whose accumulated vector is not zero."""
    return sorted(key for key, vec in acc.items() if any(vec.values()))


def _sorted_subset(i_set: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(int(i) for i in i_set))
    if len(set(out)) != len(out):
        raise ValueError("repeated component index in %r" % (out,))
    return out


class CompactificationDatum:
    """Cohomology of the divisor strata with restriction, Gysin and cup data.

    `cohomology` maps a sorted component tuple I to {degree: dim} for
    H^*(D_I), with D_() the ambient compact variety; absent keys or
    degrees mean zero.  `restrictions[(I, j)][p]` is the one-step
    restriction H^p(D_I) -> H^p(D_{I+j}); longer restrictions compose in
    increasing component order, and `build_model` checks functoriality.
    `gysins[(I, i)][p]` maps H^p(D_I) -> H^{p+2}(D_{I-i}).  `cups[I][(p, p')]`
    holds sparse structure constants {(a, b): {c: coeff}}.
    """

    def __init__(
        self,
        components: int,
        cohomology: Mapping,
        restrictions: Mapping | None = None,
        gysins: Mapping | None = None,
        cups: Mapping | None = None,
    ):
        self.components = int(components)
        self.cohomology = {}
        for i_set, dims in cohomology.items():
            key = _sorted_subset(i_set)
            clean = {int(p): int(d) for p, d in dims.items() if d}
            if clean:
                self.cohomology[key] = clean
        self.restrictions = {
            (_sorted_subset(i_set), int(j)): {int(p): blk for p, blk in blocks.items()}
            for (i_set, j), blocks in (restrictions or {}).items()
        }
        self.gysins = {
            (_sorted_subset(i_set), int(i)): {int(p): blk for p, blk in blocks.items()}
            for (i_set, i), blocks in (gysins or {}).items()
        }
        self.cups = {_sorted_subset(i_set): dict(table) for i_set, table in (cups or {}).items()}

    # -- dimensions ------------------------------------------------------

    def dim(self, i_set: Sequence[int], p: int) -> int:
        return self.cohomology.get(tuple(sorted(i_set)), {}).get(p, 0)

    def degrees(self, i_set: Sequence[int]) -> tuple[int, ...]:
        return tuple(sorted(self.cohomology.get(tuple(sorted(i_set)), {})))

    def subsets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.cohomology, key=lambda s: (len(s), s)))

    # -- maps --------------------------------------------------------------

    def _block(self, maps: Mapping, name: str, i_key, x: int, p: int, tgt_key, tgt_p: int) -> Matrix:
        """Block p of `maps[(i_key, x)]` into H^tgt_p(D_tgt_key), zero if either
        space has no classes; `name` % (i_key, x, p) names it in errors.  Both
        keys are sorted."""
        cohomology = self.cohomology
        src, tgt = cohomology.get(i_key, {}).get(p, 0), cohomology.get(tgt_key, {}).get(tgt_p, 0)
        if src == 0 or tgt == 0:
            return Matrix.zero(tgt, src)
        block = maps.get((i_key, x), {}).get(p)
        if block is None:
            raise DatumError("missing " + name % (i_key, x, p))
        if block.shape != (tgt, src):
            raise DatumError("%s has shape %r, expected %r" % (name % (i_key, x, p), block.shape, (tgt, src)))
        return block

    def _step(self, i_key: tuple[int, ...], j: int, p: int, tgt_key: tuple[int, ...]) -> Matrix:
        """The restriction from D_I to D_{I+j} in degree p; `i_key` and
        `tgt_key`, the sorted I + j, are sorted."""
        return self._block(self.restrictions, "restriction for I=%r, j=%d, degree %d",
                           i_key, j, p, tgt_key, p)

    def _gysin(self, i_key: tuple[int, ...], i: int, p: int, tgt_key: tuple[int, ...]) -> Matrix:
        """The Gysin map from D_I to D_{I-i} in degree p; both keys sorted."""
        return self._block(self.gysins, "Gysin map for I=%r, i=%d, degree %d", i_key, i, p, tgt_key, p + 2)

    def _step_rows(self, memo: dict, i_key, j: int, p: int, tgt_key) -> tuple[int, dict[int, dict[int, int]]]:
        """`_step` as (D, its integer rows {row: {column: value * D}}), D the
        lcm of its denominators, zeros dropped, read once per `memo`; (1,
        {}), neither looked up nor kept, when either space has no classes."""
        cohomology = self.cohomology
        if not (cohomology.get(i_key, {}).get(p, 0) and cohomology.get(tgt_key, {}).get(p, 0)):
            return 1, {}
        got = memo.get((i_key, (j,), p))
        if got is None:
            rows = [(t, row) for t, row in enumerate(self._step(i_key, j, p, tgt_key).rows) if any(row)]
            den = math.lcm(*(v.denominator for _, row in rows for v in row))
            got = memo[(i_key, (j,), p)] = (den, {t: {a: v.numerator * (den // v.denominator) for a, v in enumerate(row)
                                                      if v} for t, row in rows})
        return got

    def _composite(self, memo: dict, i_key, js: tuple[int, ...], p: int) -> tuple[int, dict[int, dict[int, int]]]:
        """The one-step restrictions from D_I along `js`, composed in that
        order, as (D, integer rows) like `_step_rows`, D least; (1, {a: {a:
        1}}) when `js` is empty.  Each prefix of `js` is the one before it
        extended by one step, and a nonzero one is kept in `memo` under (I,
        prefix, p), so a step is read once per memo and a missing or
        misshapen one raises where the dense product of the steps did.
        Every step's shape is checked, so two composites of the same I, p
        and end stratum are equal exactly when their dense matrices are."""
        got = memo.get((i_key, js, p))
        if got is None:
            if not js:
                got = memo[(i_key, js, p)] = (1, {a: {a: 1} for a in range(self.cohomology.get(i_key, {}).get(p, 0))})
                return got
            cur = i_key
            for n, j in enumerate(js):
                nxt = tuple(sorted(cur + (j,)))
                prefix = memo.get((i_key, js[:n + 1], p)) if n else None
                if prefix is None:
                    prefix = self._step_rows(memo, cur, j, p, nxt)
                    if n:
                        prefix = _compose_rows(prefix, got)
                        if prefix[1]:
                            memo[(i_key, js[:n + 1], p)] = prefix
                got, cur = prefix, nxt
        return got

    # -- validation ----------------------------------------------------------

    def _issues(self, memo: dict) -> list[str]:
        """The faults of the datum, stratum by stratum in `subsets` order,
        with its steps and composites kept in `memo`.  For each stratum I:
        each missing or misshapen restriction step from I into a space with
        classes, once, by (j, degree); then each pair j1 < j2 whose two
        composites differ at a degree where D_{I+j1+j2} has classes; then
        the cup faults of D_I.  `build_model` refuses a datum with any.

        Only the pairs whose D_{I+j1+j2} is a stratum compose, since both
        composites are zero otherwise.  A pair whose composite needs a
        faulty step is skipped: that step is listed under its own stratum,
        which has classes in that degree."""
        issues = []
        cohomology = self.cohomology
        tops: dict = {}  # I -> [(j1, j2, H^*(D_{I+j1+j2}))] for the strata I + j1 + j2
        for t_key, top in cohomology.items():
            for j1, j2 in combinations(t_key, 2):
                i_key = tuple(x for x in t_key if x != j1 and x != j2)
                if i_key in cohomology and 0 < j1 and j2 <= self.components:
                    tops.setdefault(i_key, []).append((j1, j2, top))
        for i_key in self.subsets():
            degrees = sorted(cohomology[i_key])
            for j in range(1, self.components + 1):
                if j not in i_key:
                    above = tuple(sorted(i_key + (j,)))
                    for p in degrees:
                        try:
                            self._step_rows(memo, i_key, j, p, above)
                        except DatumError as err:
                            issues.append(str(err))
            for j1, j2, top in sorted(tops.get(i_key, ()), key=lambda pair: pair[:2]):
                for p in degrees:
                    if not top.get(p, 0):
                        continue
                    try:
                        via1 = self._composite(memo, i_key, (j1, j2), p)
                        via2 = self._composite(memo, i_key, (j2, j1), p)
                    except DatumError:
                        continue
                    if via1 != via2:
                        issues.append(
                            "restrictions from I=%r through %d and %d do not commute at degree %d"
                            % (i_key, j1, j2, p)
                        )
            issues.extend(self._check_cup(i_key))
        return issues

    def _check_cup(self, i_key) -> list[str]:
        """Closure, graded commutativity and associativity of the cup product
        on D_I: the checks of `verify_cdga_axioms` on H^p(D_I) in bidegree
        (p, 0), with zero constants dropped.  Each nonzero entry c of a
        stored product of classes (p, a) and (p2, b) outside H^{p+p2}(D_I)
        is a fault first, in the order of (p, p2, a, b, c); the ring faults
        follow in the order of the loop over the labels (p, a), and sweep
        such a product as it is."""
        cups = self.cups.get(i_key, {})
        scale = math.lcm(*(_rational(v).denominator
                           for entries in cups.values() for vec in entries.values() for v in vec.values() if v))
        tables = {((p, 0), (p2, 0)): {ab: {c: _scaled(v, scale) for c, v in vec.items() if v}
                                      for ab, vec in entries.items()}
                  for (p, p2), entries in cups.items()}
        span = {(p, 0): range(d) for p, d in sorted(self.cohomology.get(i_key, {}).items())}
        escapes = _escapes(tables, span)
        issues = ["cup product on D_%r at (%d,%d)x(%d,%d) has entry %d outside H^%d" % (i_key, p, a, p2, b, c, p + p2)
                  for (p, _), (p2, _), a, b, c in escapes]
        if self.cohomology.get(i_key) == {0: 1} and tables.get(((0, 0), (0, 0)), {}).keys() <= {(0, 0)}:
            # H^0 = <e> is all, and ee = v the only product: commutativity
            # compares v with itself, and both sides of associativity are v_0 v
            return issues
        commutativity, associativity = _ring_faults(tables, span, not escapes and _has_unit(tables, span))
        # a fault ((p, 0), a, (p2, 0), b, ...) sorts as its labels (p, a), (p2, b), ...
        issues += ["cup product on D_%r not graded-commutative at (%d,%d)x(%d,%d)" % (i_key, p, a, p2, b)
                   for (p, _), a, (p2, _), b in sorted(commutativity)]
        issues += ["cup product on D_%r not associative at (%d,%d),(%d,%d),(%d,%d)"
                   % (i_key, p, a, p2, b, p3, c) for (p, _), a, (p2, _), b, (p3, _), c in sorted(associativity)]
        return issues


def negate_gysin_block(cd: CompactificationDatum, i_set, i: int, p: int) -> CompactificationDatum:
    """Copy of the datum with one degree block of one Gysin map negated."""
    gysins = {key: dict(blocks) for key, blocks in cd.gysins.items()}
    key = (tuple(sorted(i_set)), i)
    if key not in gysins or p not in gysins[key]:
        raise KeyError("no Gysin block to negate at %r degree %d" % (key, p))
    block = gysins[key][p]
    gysins[key][p] = Matrix([[-x for x in row] for row in block.rows], ncols=block.ncols)
    return CompactificationDatum(cd.components, cd.cohomology, cd.restrictions, gysins, cd.cups)


# -- the bigraded model ----------------------------------------------------


class BigradedModel:
    """A finite bigraded cdga: spaces M^k_q, differential, sparse product.

    `spaces` maps (k, q) to a tuple of basis labels.  The maps are kept in
    integers over one scale, with no `Matrix` or Fraction: `scale` is D,
    the lcm of the reduced denominators of every product constant and
    entry of d; `tables[((k,q),(k',q'))][(a, b)]` is the product of basis
    vectors a and b in M^{k+k'}_{q+q'}, each constant v held as v * D,
    explicit zeros kept; `d[(k, q)]` holds the sparse columns {row: v * D}
    of each d: M^k_q -> M^{k+1}_q given.  `products` is a rational view.

    Construction refuses, with ValueError("differential at (k, q) has
    shape S, expected T"), the first stored d in sorted bidegree order
    whose shape is not (dim M^{k+1}_q, dim M^k_q); then, with
    ValueError("product (kq1, a) x (kq2, b) has entry c outside
    M^k_q"), the first nonzero entry c outside its target space of a
    stored product of basis vectors a and b, in the order of (kq1, kq2,
    a, b, c).  So every check and witness may take each d and each
    product to map into its space.  Keys outside the basis, tables on
    bidegrees without a space and explicit zeros outside a space are
    kept and ignored.
    """

    def __init__(self, spaces: Mapping[Bidegree, Sequence], diff: Mapping[Bidegree, Matrix],
                 products: Mapping[tuple[Bidegree, Bidegree], Mapping]):
        self.spaces = {kq: tuple(labels) for kq, labels in spaces.items() if labels}
        for kq in sorted(diff):
            shape, want = diff[kq].shape, (self.dim((kq[0] + 1, kq[1])), self.dim(kq))
            if shape != want:
                raise ValueError("differential at %r has shape %r, expected %r" % (kq, shape, want))
        tables = {key: {ab: dict(vec) for ab, vec in table.items() if vec} for key, table in products.items()}
        groups = []  # each product vector in integers over the lcm of its denominators
        for vec in [vec for table in tables.values() for vec in table.values()]:
            den = math.lcm(*(_rational(v).denominator for v in vec.values()))
            vec.update({c: _scaled(v, den) for c, v in vec.items()})
            groups.append((den, (vec,)))
        escapes = _escapes(tables, {kq: range(len(labels)) for kq, labels in self.spaces.items()})
        if escapes:
            raise ValueError(_escape_message(escapes[0]))
        self._hold(*_integer_form({kq: _sparse_columns(mat) for kq, mat in diff.items()}, groups), tables)

    @classmethod
    def _adopt(cls, spaces: dict, scale: int, d: dict, tables: dict) -> BigradedModel:
        """A model over the integer form its caller has just built, held
        without the copy `__init__` makes, nor its shape check: label tuples
        nonempty, no product vector empty, and each d fitting its spaces."""
        model = cls.__new__(cls)
        model.spaces = spaces
        model._hold(scale, d, tables)
        return model

    def _hold(self, scale: int, d: dict, tables: dict) -> None:
        """Keep the integer form as given, whether `_has_unit` holds on it,
        and empty caches of the rest of what is derived from it."""
        self.scale, self.d, self.tables = scale, d, tables
        self._unit = _has_unit(tables, {kq: range(len(labels)) for kq, labels in self.spaces.items()})
        self._cohomology_cache: dict[Bidegree, _ColumnCohomology] = {}
        self._cohomology: dict[Bidegree, int] | None = None
        self._d_squared_faults: list[Bidegree] | None = None

    @property
    def products(self) -> dict:
        """The tables as Fractions, {((k,q),(k',q')): {(a, b): {c: v}}} in
        their order, each v the stored integer over D: made on each read."""
        return {key: {ab: {c: Fraction(v, self.scale) for c, v in vec.items()} for ab, vec in table.items()}
                for key, table in self.tables.items()}

    def dim(self, kq: Bidegree) -> int:
        return len(self.spaces.get(kq, ()))

    def bidegrees(self) -> tuple[Bidegree, ...]:
        return tuple(sorted(self.spaces))

    def total_dimension(self) -> int:
        return sum(len(v) for v in self.spaces.values())

    def max_degree(self) -> int:
        return max((k for (k, _) in self.spaces), default=0)

    def _dcols(self, kq: Bidegree) -> list[dict[int, int]]:
        """The integer columns of d on M^k_q, or dim M^k_q empty ones where
        no d is stored."""
        cols = self.d.get(kq)
        return [{}] * self.dim(kq) if cols is None else cols

    def _column_cohomology(self, kq: Bidegree) -> _ColumnCohomology:
        """Cohomology representatives and coordinates at `kq`, built once
        per bidegree."""
        col = self._cohomology_cache.get(kq)
        if col is None:
            col = self._cohomology_cache[kq] = _ColumnCohomology(self, kq)
        return col

    def _d_squared(self) -> list[Bidegree]:
        """The (k, q), ascending, where d o d, applied to the sparse columns
        of the two stored d it composes, is not zero on M^k_q, found once."""
        if self._d_squared_faults is None:
            self._d_squared_faults = [(k, q) for (k, q), cols in sorted(self.d.items()) if (k + 1, q) in self.d
                                      and any(_apply_columns(self.d[(k + 1, q)], col) for col in cols)]
        return self._d_squared_faults


def build_model(cd: CompactificationDatum) -> BigradedModel:
    """Assemble the model of the complement from a compactification datum.

    The summand for (I, degree p) sits in bidegree (k, q) = (p + |I|,
    p + 2|I|); negative p never occurs, so degenerate summands are
    excluded structurally.  Raises DatumError when a required map is
    missing or the datum fails validation.

    The model is assembled in integers, block by block, a block being the
    summand of one (I, p).  The differential is written as sparse columns,
    from the nonzero entries of the Gysin blocks with one sign per (I, i).
    The products of two blocks with disjoint I1, I2 are the join
    (`_accumulate`) of the cup table of D_{I1+I2}, keys ascending, with the
    rows of both blocks' composites to D_{I1+I2}, each over its own scale
    and labelled by model indices, with the pair's sign as coefficient; no
    other pair reaches those basis pairs, so they share one denominator,
    and `_integer_form` brings them and d to the model's D once.
    Disjointness is tested on bitmasks of the index sets.  Validation and
    assembly share one memo of composites, released before the model is
    made.  Every disjoint pair whose product bidegree has a space takes its
    composites, as each basis pair did, so a step that validation does not
    read, one of a component index outside 1..components, raises the same
    first DatumError.
    """
    composites: dict = {}
    issues = cd._issues(composites)
    if issues:
        raise DatumError("; ".join(issues))
    cohomology = cd.cohomology
    spaces: dict[Bidegree, list] = {}
    blocks: dict[Bidegree, list] = {}  # (k, q) -> [(I, p, offset, mask of I)] in basis order
    offsets: dict = {}  # (I, p) -> offset of its block
    bits = {x: 1 << n for n, x in enumerate(sorted({x for i_key in cohomology for x in i_key}))}
    for i_key in cd.subsets():
        mask = sum(bits[x] for x in i_key)
        for p, n in sorted(cohomology[i_key].items()):
            kq = (p + len(i_key), p + 2 * len(i_key))
            labels = spaces.setdefault(kq, [])
            blocks.setdefault(kq, []).append((i_key, p, len(labels), mask))
            offsets[(i_key, p)] = len(labels)
            labels.extend((i_key, p, j) for j in range(n))

    d: dict[Bidegree, list[Sparse]] = {}
    for kq, labels in spaces.items():
        k, q = kq
        if not spaces.get((k + 1, q)):
            continue
        cols = d[kq] = [{} for _ in labels]
        for i_key, p, off, _ in blocks[kq]:
            for pos, i in enumerate(i_key):
                rest = i_key[:pos] + i_key[pos + 1:]
                row_off = offsets.get((rest, p + 2))
                if row_off is None:
                    continue  # D_{I-i} has no classes in degree p + 2
                negate = (q + pos) % 2  # pos components of I - i precede i
                # no other i of I reaches the rows of D_{I-i}: each entry is set once
                for t, gys_row in enumerate(cd._gysin(i_key, i, p, rest).rows):
                    for j, v in enumerate(gys_row):
                        if v:
                            cols[off + j][row_off + t] = -v if negate else v

    products: dict[tuple[Bidegree, Bidegree], dict] = {}
    groups: dict[int, list] = {}  # denominator -> the vectors of the block pairs over it
    for kq1 in spaces:
        for kq2 in spaces:
            kq3 = (kq1[0] + kq2[0], kq1[1] + kq2[1])
            if kq3 not in spaces:
                continue
            table: dict = {}
            for i1, p1, off1, mask1 in blocks[kq1]:
                acc: dict = {}  # (a, b) -> ab for the a of this block, each key filled by one block pair
                for i2, p2, off2, mask2 in blocks[kq2]:
                    if mask1 & mask2:
                        continue
                    union = tuple(sorted(i1 + i2))
                    den1, rows1 = cd._composite(composites, i1, tuple(x for x in union if x not in i1), p1)
                    den2, rows2 = cd._composite(composites, i2, tuple(x for x in union if x not in i2), p2)
                    base = offsets.get((union, p1 + p2))
                    # validation has refused a nonzero entry outside the space,
                    # so the product is zero where D_{I1+I2} has no classes
                    if not rows1 or not rows2 or base is None:
                        continue
                    entries = cd.cups.get(union, {}).get((p1, p2))
                    if not entries:
                        continue
                    den = math.lcm(*(_rational(v).denominator for vec in entries.values() for v in vec.values()))
                    vecs = groups.setdefault(den * den1 * den2, [])
                    # the keys ascend, so that each vector lists its entries
                    # in the order of the (a2, b2) that reach them
                    for ab, vec in _accumulate(
                            {}, {ab: {base + c: _scaled(v, den) for c, v in vec.items()}
                                 for ab, vec in sorted(entries.items())},
                            {t: {(off1 + a,): x for a, x in row.items()} for t, row in rows1.items()},
                            {t: {(off2 + b,): y for b, y in row.items()} for t, row in rows2.items()},
                            (-1) ** (len(i1) * kq2[1]) * shuffle_sign(i1, i2)).items():
                        vec = {c: v for c, v in vec.items() if v}
                        if vec:
                            acc[ab] = vec
                            vecs.append(vec)
                table.update(sorted(acc.items()))  # the blocks of kq1 ascend
            if table:
                products[(kq1, kq2)] = table
    del composites
    return BigradedModel._adopt({kq: tuple(labels) for kq, labels in spaces.items()},
                                *_integer_form(d, groups.items()), products)


# -- axioms and cohomology -------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[tuple[str, str], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def axioms_failing(self) -> tuple[str, ...]:
        return tuple(sorted({name for name, _ in self.violations}))


def verify_cdga_axioms(model: BigradedModel) -> AxiomReport:
    """d o d = 0, then Leibniz, graded commutativity and associativity, each
    as an exact identity on every basis pair or triple.

    The checks run on the model's integer form: every term of d o d, of
    Leibniz and of associativity is a product of two stored values, and
    commutativity compares single constants, so each scaled identity fails
    exactly where the rational one does.  Each sweep adds the terms of both
    sides into one difference per basis tuple and reports the tuples, in
    ascending order, whose difference is nonzero; a tuple that meets no
    table key has two empty sums.  d o d is applied to the sparse
    columns of d.  Leibniz sweeps three tables for each (kq1, kq2): d(ab)
    from the keys (a, b) of t(kq1, kq2); (da)b, the join (`_accumulate`)
    of t(d kq1, kq2) with the rows of d on kq1 and the identity rows of
    kq2; and a(db), the join of t(kq1, d kq2) with the identity rows of
    kq1 and the rows of d on kq2.  Only the pairs (kq1, kq2) that one of
    those tables reaches are swept.  The ring axioms are `_ring_faults`,
    which also checks a datum's cup rings.

    Every stored product of basis vectors lies inside its target space, as
    `BigradedModel` refuses one that does not.  Where `_has_unit` verifies
    a unit e spanning M^0_0 (ex = xe = s x as stored), no ring tuple
    holding e can fail; if also d(e) = 0, no Leibniz pair holding e can
    fail either, as every d maps M^k_q into M^{k+1}_q (`BigradedModel`
    refuses one that does not): d(ex) = s dx = e(dx) and d(xe) = s dx =
    (dx)e.  Those tuples are not swept.  Table keys outside the basis are
    ignored, and violations come in the order of the loop over all tuples
    (bidegrees, then basis indices).
    """
    tables, unit = model.tables, model._unit
    violations = [("d_squared", "d o d nonzero on M^%d_%d" % kq) for kq in model._d_squared()]
    dcols = model._dcols
    bidegs = model.bidegrees()
    span = {kq: range(model.dim(kq)) for kq in bidegs}

    swept = span.keys() - {(0, 0)} if unit and not dcols((0, 0))[0] else span.keys()
    rows = {kq: _sparse_rows(dcols(kq)) for kq in bidegs}
    units = _identity_rows(span)
    pairs = {pair for kq1, kq2 in tables
             for pair in ((kq1, kq2), ((kq1[0] - 1, kq1[1]), kq2), (kq1, (kq2[0] - 1, kq2[1])))
             if pair[0] in swept and pair[1] in swept}
    for kq1, kq2 in sorted(pairs):
        r1, r2 = span[kq1], span[kq2]
        acc: dict = {}  # (a, b) -> d(ab) - (da)b - (-1)^k1 a(db)
        t12 = tables.get((kq1, kq2))
        if t12:
            d12 = dcols((kq1[0] + kq2[0], kq1[1] + kq2[1]))
            acc = {(a, b): _apply_columns(d12, ab) for (a, b), ab in t12.items() if a in r1 and b in r2}
        _accumulate(acc, tables.get(((kq1[0] + 1, kq1[1]), kq2), {}), rows[kq1], units[kq2], -1)
        _accumulate(acc, tables.get((kq1, (kq2[0] + 1, kq2[1])), {}), units[kq1], rows[kq2], -(-1) ** kq1[0])
        violations += [("leibniz", "Leibniz fails for basis pair (%r, %d) x (%r, %d)" % (kq1, a, kq2, b))
                       for a, b in _nonzero_keys(acc)]

    commutativity, associativity = _ring_faults(tables, span, unit)
    violations += [("graded_commutativity", "commutativity fails for (%r, %d) x (%r, %d)" % fault)
                   for fault in commutativity]
    violations += [("associativity", "associativity fails for (%r,%d),(%r,%d),(%r,%d)" % fault)
                   for fault in associativity]
    return AxiomReport(tuple(violations))


def _escapes(tables: Mapping, span: Mapping[Bidegree, range]) -> list[tuple]:
    """The nonzero entries c of stored products ab, a and b basis vectors,
    that lie outside the target space, as (kq1, kq2, a, b, c) ascending."""
    out = []
    for (kq1, kq2), table in tables.items():
        r1, r2 = span.get(kq1), span.get(kq2)
        target = span.get((kq1[0] + kq2[0], kq1[1] + kq2[1]), range(0))
        if r1 and r2 and not all(map(target.__contains__, set().union(*table.values()))):
            out += [(kq1, kq2, a, b, c) for (a, b), vec in table.items() if a in r1 and b in r2
                    for c, v in vec.items() if v and c not in target]
    return sorted(out)


def _escape_message(escape: tuple) -> str:
    kq1, kq2, a, b, c = escape
    return "product (%r, %d) x (%r, %d) has entry %d outside M^%d_%d" % (
        kq1, a, kq2, b, c, kq1[0] + kq2[0], kq1[1] + kq2[1])


def _has_unit(tables: Mapping, span: Mapping[Bidegree, range]) -> bool:
    """Whether basis vector 0 of (0, 0) is a unit e that `_ring_faults` may
    leave out: (0, 0) is spanned by e, and for one s != 0 the stored
    vectors ex and xe are {x: s} for every basis vector x, with no other
    entry and no explicit zero.  The caller holds that every nonzero entry
    of a stored product of basis vectors lies inside its target space:
    otherwise a product ab could name an m outside its space, where me is
    not s m, and (ab)e would differ from a(be) = s ab.  `BigradedModel`
    refuses such a product, and `_check_cup` takes no unit where it finds
    one."""
    s = tables.get(((0, 0), (0, 0)), {}).get((0, 0), {}).get(0)
    if len(span.get((0, 0), ())) != 1 or not s:
        return False
    for kq, r in span.items():
        left, right = tables.get(((0, 0), kq), {}), tables.get((kq, (0, 0)), {})
        for x in r:
            if left.get((0, x)) != {x: s} or right.get((x, 0)) != {x: s}:
                return False
    return True


def _ring_faults(tables: Mapping, span: Mapping[Bidegree, range], unit: bool) -> tuple[list[tuple], list[tuple]]:
    """The pairs (kq1, a, kq2, b) where graded commutativity fails and the
    triples (kq1, a, kq2, b, kq3, c) where associativity fails, in loop order,
    for the integer product `tables` on the basis `span` of each bidegree.

    Commutativity compares the stored vectors ab and +-ba entry by entry,
    so an explicit zero constant in one order and none in the other is a
    fault.  Associativity, for each (kq1, kq2, kq3), adds (ab)c, the join
    (`_accumulate`) of t(kq12, kq3) with the rows {m: {(a, b): v}} of
    t(kq1, kq2) and the identity rows of kq3, and minus a(bc), the join of
    t(kq1, kq23) with the identity rows of kq1 and the rows of t(kq2, kq3),
    into one accumulator keyed (a, b, c); the rows of each table are built
    once.  Only the bidegree pairs and triples those tables reach are
    swept, in ascending order.

    With `unit`, `_has_unit` holds: ex = xe = s x as stored, and every
    stored product lies in its space, so each sum the sweep forms for a
    tuple holding e is s times one stored product on both sides, (ex)y =
    e(xy), (xe)y = x(ey) and (xy)e = x(ye), and the sweep leaves out
    (0, 0), which e spans.
    """
    swept = span.keys() - {(0, 0)} if unit else span.keys()
    live = [key for key, table in tables.items() if table and key[0] in swept and key[1] in swept]
    commutativity = []
    for kq1, kq2 in sorted({pair for kq1, kq2 in live for pair in ((kq1, kq2), (kq2, kq1))}):
        r1, r2 = span[kq1], span[kq2]
        t12, t21 = tables.get((kq1, kq2), {}), tables.get((kq2, kq1), {})
        pairs = {(a, b) for a, b in t12 if a in r1 and b in r2}
        pairs.update((a, b) for b, a in t21 if b in r2 and a in r1)
        negate = kq1[0] * kq2[0] % 2
        for a, b in sorted(pairs):
            ab, ba = t12.get((a, b), {}), t21.get((b, a), {})
            if ab != ({c: -v for c, v in ba.items()} if negate else ba):
                commutativity.append((kq1, a, kq2, b))

    # a triple is reached by t(kq1, kq2) and t(kq12, kq3), or by t(kq2, kq3)
    # and t(kq1, kq23)
    triples = set()
    for kq1, kq2 in live:
        kq12 = (kq1[0] + kq2[0], kq1[1] + kq2[1])
        for kq in swept:
            if tables.get((kq12, kq)):
                triples.add((kq1, kq2, kq))
            if tables.get((kq, kq12)):
                triples.add((kq, kq1, kq2))
    units = _identity_rows(span)
    rows: dict = {}  # (kq1, kq2) -> {m: {(a, b): v}}, the entries m of ab for a and b inside their spaces
    associativity = []
    for kq1, kq2, kq3 in sorted(triples):
        for x, y in ((kq1, kq2), (kq2, kq3)):
            if (x, y) not in rows:
                rows[(x, y)] = _sparse_rows({(a, b): ab for (a, b), ab in tables.get((x, y), {}).items()
                                             if a in span[x] and b in span[y]})
        kq12 = (kq1[0] + kq2[0], kq1[1] + kq2[1])
        kq23 = (kq2[0] + kq3[0], kq2[1] + kq3[1])
        acc = _accumulate({}, tables.get((kq12, kq3), {}), rows[(kq1, kq2)], units[kq3])  # (a, b, c) -> (ab)c
        _accumulate(acc, tables.get((kq1, kq23), {}), units[kq1], rows[(kq2, kq3)], -1)  # minus a(bc)
        associativity += [(kq1, a, kq2, b, kq3, c) for a, b, c in _nonzero_keys(acc)]
    return commutativity, associativity


def cohomology_of_model(model: BigradedModel) -> dict[Bidegree, int]:
    """dim H^k(M_q) per (degree, weight), nonzero entries only, in sorted
    order: dim M^k_q - rank d_out - rank d_in.  This is the one reader of
    the model's cohomology dimensions: each stored d is ranked once by
    `_sparse_rank`, the result is kept on the model, and every call
    returns a fresh copy of it.  Each d maps between its spaces, as
    `BigradedModel` refuses one that does not.  A model whose d does not
    square to zero has no cohomology: it raises ValueError("d o d nonzero
    on M^k_q"), the text of the axiom check, at the first such (k, q) in
    sorted order, where the formula could read a negative dimension."""
    if model._cohomology is None:
        faults = model._d_squared()
        if faults:
            raise ValueError("d o d nonzero on M^%d_%d" % faults[0])
        rank = {kq: _sparse_rank(cols) for kq, cols in model.d.items()}
        model._cohomology = {(k, q): h for k, q in model.bidegrees()
                             if (h := model.dim((k, q)) - rank.get((k, q), 0) - rank.get((k - 1, q), 0))}
    return dict(model._cohomology)


def _reduce(pivots: Mapping[int, tuple[dict, dict]], vec: Mapping[int, int], hist: dict) -> tuple:
    """The sparse integer column `vec`, with its history `hist`, reduced
    against `pivots` until it vanishes or its lowest row has no pivot:
    (that row, or None if it vanished, the vector, its history), zeros
    dropped.

    This is the one elimination of the model route.  A history holds the
    integer coefficients h with v = sum h[l] col_l of the vector v a
    column has been reduced to, over columns labelled l; an empty one
    carries nothing.  `pivots` maps a row r to the kept (vector, history)
    whose lowest row is r.  Fraction-free: v is reduced on its lowest row
    r against the pivot p kept for r, v -> (p_r/g) v - (v_r/g) p with
    g = gcd(p_r, v_r), h likewise, and both are divided by the gcd of all
    their entries.  Columns added in turn by `_add_column` are kept
    exactly when they are independent of the ones before them, so the
    kept columns are the pivot columns of the rref, and a column that
    vanishes leaves a relation sum h[l] col_l = 0 whose h is primitive.
    """
    vec = {i: x for i, x in vec.items() if x}
    while vec:
        r = min(vec)
        pivot = pivots.get(r)
        if pivot is None:
            return r, vec, hist
        pvec, phist = pivot
        g = math.gcd(pvec[r], vec[r])
        a, b = pvec[r] // g, vec[r] // g
        out = {i: a * x for i, x in vec.items()}
        for i, y in pvec.items():
            out[i] = out.get(i, 0) - b * y
        vec = {i: x for i, x in out.items() if x}
        if hist:
            out = {l: a * x for l, x in hist.items()}
            for l, y in phist.items():
                out[l] = out.get(l, 0) - b * y
            hist = {l: x for l, x in out.items() if x}
        g = math.gcd(*vec.values(), *hist.values())
        if g > 1:
            vec = {i: x // g for i, x in vec.items()}
            hist = {l: x // g for l, x in hist.items()}
    return None, vec, hist


def _add_column(pivots: dict, vec: Mapping[int, int], hist: dict) -> dict | None:
    """Reduce `vec` against `pivots` and keep it there, returning None, or
    return the relation it leaves when it vanishes."""
    r, vec, hist = _reduce(pivots, vec, hist)
    if r is None:
        return hist
    pivots[r] = (vec, hist)
    return None


def _sparse_rank(cols: Iterable[Mapping[int, int]]) -> int:
    """The rank of the integer matrix with the sparse columns `cols`."""
    pivots: dict = {}
    for col in cols:
        _add_column(pivots, col, {})
    return len(pivots)


def _relations(cols: Sequence[Mapping[int, int]]) -> dict[int, dict[int, int]]:
    """The primitive relation h that each column f of `cols` dependent on
    the columns before it leaves, by f ascending: h[f] != 0, and the rest
    of its support lies in the kept columns before f.  These are the free
    columns of the rref, and h / h[f] is its right-kernel vector at f."""
    pivots: dict = {}
    return {f: h for f, col in enumerate(cols) if (h := _add_column(pivots, col, {f: 1})) is not None}


class _ColumnCohomology:
    """Representatives and quotient coordinates for one (k, q) column, from
    `_reduce` over the integer columns of d.

    The cocycle basis Z is the rref right kernel of d_out: a free column f
    of d_out leaves a primitive relation h (`_relations`), so z_f = h /
    h[f], which is 1 at f and 0 at the other free columns, and its
    denominator is |h[f]|.  The cocycles are held as the integer
    columns `cocycle_scale` z_f, over the lcm of those denominators.  Where
    no d_out is stored, Z is the standard basis.

    Greedy selection of independent columns, first from the boundaries B
    (the columns of d_in in the model's integer form) and then from Z,
    keeps exactly the columns that one elimination of [B | Z] keeps: the
    chosen boundaries, which carry no history, and the chosen cocycles,
    the representatives, each with the history {its index among them: 1}.
    A cocycle v reduced against them vanishes with a relation c v + sum
    h[l] z'_l + (boundaries) = 0 over the integer representatives z'_l,
    which gives its class coordinates.
    Without a nonzero boundary, as at every (k, 2k) of a model built from a
    datum and in a model with d = 0, nothing is eliminated: every cocycle
    is a representative, and the coordinates of a cocycle are its entries
    at the free columns.
    """

    cocycle_scale = 1
    cocycle_cols = representative_cols = boundary_cols = ()
    _d_out = _pivots = None
    _free: Mapping[int, int] | range = range(0)

    def __init__(self, model: BigradedModel, kq: Bidegree):
        n = model.dim(kq)
        if not n:
            return
        if kq in model.d:
            d_out = self._d_out = model.d[kq]
            relations = _relations(d_out)
            self.cocycle_scale = scale = math.lcm(*(abs(h[f]) for f, h in relations.items()))
            self.cocycle_cols = [{l: x * (scale // h[f]) for l, x in sorted(h.items())} for f, h in relations.items()]
            self._free = {f: c for c, f in enumerate(relations)}
        else:
            self.cocycle_cols = [{i: 1} for i in range(n)]  # no d_out: the standard basis
            self._free = range(n)
        self.representative_cols = self.cocycle_cols
        d_in_cols = model.d.get((kq[0] - 1, kq[1]), ())
        if not any(d_in_cols):
            return
        pivots = self._pivots = {}
        self.boundary_cols = [col for col in d_in_cols if _add_column(pivots, col, {}) is None]
        reps = self.representative_cols = []
        for z in self.cocycle_cols:  # a cocycle left out leaves no pivot to carry its label
            if _add_column(pivots, z, {len(reps): 1}) is None:
                reps.append(z)

    @property
    def dim(self) -> int:
        return len(self.representative_cols)

    def cocycle_coordinates(self, vec: Mapping[int, int]) -> dict[int, int] | None:
        """Sparse coordinates of `vec` on `cocycles` in ascending order, or
        None if d_out vec != 0: each cocycle is 1 at its own free column and
        0 at the others, so they are the entries of `vec` there, zeros
        dropped."""
        vec = {i: x for i, x in vec.items() if x}
        if self._d_out is not None and _apply_columns(self._d_out, vec):
            return None
        free = self._free
        return {free[i]: x for i, x in sorted(vec.items()) if i in free}

    def class_coordinates(self, vec: Mapping[int, int]) -> tuple[int, dict[int, int]]:
        """Coordinates of the sparse integer cocycle `vec` on the
        representatives, modulo boundaries, as a positive denominator and
        the integers over it: (den, {representative: value}), ascending,
        zeros dropped.  Raises ValueError unless `vec` lies in the span of
        the chosen boundaries and representatives."""
        if self._pivots is None:
            coords = self.cocycle_coordinates(vec)
            if coords is None:
                raise ValueError("vector is not a cocycle class representative")
            return 1, coords
        r, _, hist = _reduce(self._pivots, vec, {-1: 1})
        if r is not None:
            raise ValueError("vector is not a cocycle class representative")
        c = hist.pop(-1)  # c vec = -sum h[l] z'_l, and z'_l = cocycle_scale z_l
        scale = -self.cocycle_scale if c > 0 else self.cocycle_scale
        return abs(c), {l: scale * x for l, x in sorted(hist.items())}


# -- morphisms and quasi-isomorphisms --------------------------------------


class CdgaMorphism:
    """A weight-preserving map of bigraded models, given by blocks per
    bidegree; missing blocks are zero.

    The morphism keeps `source`, `target` and the integer form of its
    blocks, built here once, and no `Matrix`: `scale` is Df, the lcm of
    the denominators of their entries, and `cols[kq]` holds the sparse
    columns {row: v * Df} of the block at kq, zeros dropped.

    Construction refuses, with ValueError("block at kq has shape S,
    expected T"), the first block in sorted bidegree order whose shape is
    not (target.dim(kq), source.dim(kq))."""

    def __init__(self, source: BigradedModel, target: BigradedModel, blocks: Mapping[Bidegree, Matrix]):
        for kq in sorted(blocks):
            shape, want = blocks[kq].shape, (target.dim(kq), source.dim(kq))
            if shape != want:
                raise ValueError("block at %r has shape %r, expected %r" % (kq, shape, want))
        self.source = source
        self.target = target
        self.scale, self.cols = _integer_form({kq: _sparse_columns(mat) for kq, mat in blocks.items()})

    @classmethod
    def _of_columns(cls, source: BigradedModel, target: BigradedModel, scale: int,
                    cols: Mapping[Bidegree, list]) -> CdgaMorphism:
        """The morphism whose block at each bidegree kq of `cols` has the
        sparse integer columns cols[kq] over `scale`, the lcm of the
        denominators of its entries, with target.dim(kq) rows, and whose
        other blocks are zero.  They are its integer form as they are."""
        f = cls.__new__(cls)
        f.source, f.target, f.scale, f.cols = source, target, scale, cols
        return f

    def _fcols(self, kq: Bidegree) -> list[dict[int, int]]:
        """The integer columns of the block at `kq`, or source.dim(kq) empty
        ones where none is stored."""
        cols = self.cols.get(kq)
        return [{}] * self.source.dim(kq) if cols is None else cols

    def _keeps_unit(self) -> bool:
        """Whether every pair holding the source's unit passes f(ab) =
        f(a)f(b): `_has_unit` holds on both models, with ex = sigma x and
        e'y = tau y, f(e) = u e' is one entry, and sigma = u tau.  Then
        f(ex) = sigma f(x) = u tau f(x) = f(e)f(x), and f(xe) likewise.  In
        integer form sigma = u tau reads s_src Df Dt = u s_tgt Ds."""
        source, target = self.source, self.target
        if not (source._unit and target._unit):
            return False
        e = (0, 0)
        u = self._fcols(e)[0].get(0, 0)
        return (source.tables[(e, e)][(0, 0)][0] * self.scale * target.scale
                == u * target.tables[(e, e)][(0, 0)][0] * source.scale)

    def violations(self) -> list[str]:
        """The identities of a cdga morphism that f breaks, in this order:
        d o f = f o d per bidegree of the source, and f(ab) = f(a)f(b) per
        pair of basis vectors of the source.  The blocks, both differentials
        and every stored product fit their spaces, as construction refuses
        any that does not.

        The product check sweeps only the live bidegree pairs, those with a
        table on the source or the target side, as no other pair has a
        term; and none holding the source's unit (0, 0) when `_keeps_unit`
        holds.  Faults come in the order of the loop over all pairs."""
        out = []
        # both identities run on the integer forms of the two models and of
        # the blocks, over Ds, Dt and Df.  d o f = f o d is compared column
        # by column, f d_src carrying Df Ds and d_tgt f carrying Dt Df
        source, target, fcols = self.source, self.target, self._fcols
        src, tgt = source.tables, target.tables
        for kq in source.bidegrees():
            src_cols, tgt_cols = source._dcols(kq), target._dcols(kq)
            f_cols, f_up = fcols(kq), fcols((kq[0] + 1, kq[1]))
            if any(
                {i: target.scale * v for i, v in _apply_columns(f_up, src_col).items()}
                != {i: source.scale * v for i, v in _apply_columns(tgt_cols, f_col).items()}
                for src_col, f_col in zip(src_cols, f_cols)
            ):
                out.append("differential compatibility fails at %r" % (kq,))
        # f(ab) = f(a)f(b): f(ab), from the keys (a, b) of the source table,
        # carries Df Ds, and f(a)f(b), the join of the target table with the
        # rows of f, carries Df^2 Dt and goes into the difference times -Ds
        left, right = self.scale * target.scale, source.scale
        span = {kq: range(source.dim(kq)) for kq in source.bidegrees()}
        pairs = {key for tables in (src, tgt) for key, table in tables.items()
                 if table and key[0] in span and key[1] in span}
        if self._keeps_unit():
            pairs = {key for key in pairs if (0, 0) not in key}
        rows = {kq: _sparse_rows(fcols(kq)) for kq in {kq for pair in pairs for kq in pair}}
        for kq1, kq2 in sorted(pairs):
            r1, r2 = span[kq1], span[kq2]
            acc: dict = {}  # (a, b) -> Df Dt f(ab) - Ds f(a)f(b)
            t12 = src.get((kq1, kq2))
            if t12:
                f3 = fcols((kq1[0] + kq2[0], kq1[1] + kq2[1]))
                acc = {(a, b): {i: left * x for i, x in _apply_columns(f3, ab).items()}
                       for (a, b), ab in t12.items() if a in r1 and b in r2}
            _accumulate(acc, tgt.get((kq1, kq2), {}), rows[kq1], rows[kq2], -right)
            out += ["product compatibility fails for (%r, %d) x (%r, %d)" % (kq1, a, kq2, b)
                    for a, b in _nonzero_keys(acc)]
        return out


@dataclass(frozen=True)
class QuasiIsoVerdict:
    """Exact ranks of the induced maps on cohomology, per total degree."""

    r: float
    ok: bool
    per_degree: tuple[tuple[int, int, int, int], ...]  # (k, h_src, h_tgt, rank)
    failures: tuple[str, ...]


def check_r_quasi_iso(f: CdgaMorphism, r: float) -> QuasiIsoVerdict:
    """Verdict: induced cohomology maps are isomorphisms for k <= r and
    injective for k = r + 1.  Raises, in this order, MorphismError when f
    is not a cdga morphism, naming the violated identity, then the
    ValueError of `cohomology_of_model` when the source, then when the
    target, is not a complex.  The dimensions are `cohomology_of_model`'s,
    and column data, with its elimination, is built only at the bidegrees,
    ascending, where the source or the target has cohomology.  The induced
    map at (k, q) is ranked by `_sparse_rank`, the pivot count of
    `_reduce`, on the integer class coordinates in the target of the
    images of the source's representatives; each column is over its own
    denominator, which does not change the rank."""
    problems = f.violations()
    if problems:
        raise MorphismError(problems[0])
    h_src, h_tgt = cohomology_of_model(f.source), cohomology_of_model(f.target)
    max_k = max(
        [k for (k, _) in f.source.bidegrees()] + [k for (k, _) in f.target.bidegrees()],
        default=0,
    )
    per_degree = [[k, 0, 0, 0] for k in range(max_k + 2)]  # (k, h_src, h_tgt, rank)
    not_iso, not_injective = set(), set()
    for kq in sorted(h_src.keys() | h_tgt.keys()):
        src, tgt = f.source._column_cohomology(kq), f.target._column_cohomology(kq)
        fcols = f._fcols(kq)
        rk = _sparse_rank([tgt.class_coordinates(_apply_columns(fcols, rep))[1] for rep in src.representative_cols])
        k, hs, ht = kq[0], h_src.get(kq, 0), h_tgt.get(kq, 0)
        per_degree[k][1] += hs
        per_degree[k][2] += ht
        per_degree[k][3] += rk
        if rk != hs:
            not_injective.add(k)
        if not rk == hs == ht:
            not_iso.add(k)
    failures = ["not an isomorphism on H^%d" % k for k in sorted(not_iso) if k <= r]
    failures += ["not injective on H^%d" % k for k in sorted(not_injective) if r != INF and k == r + 1]
    return QuasiIsoVerdict(r, not failures, tuple(map(tuple, per_degree)), tuple(failures))


# -- formality witnesses ------------------------------------------------------


@dataclass(frozen=True)
class FormalityWitness:
    """A zero-differential sub- or quotient-cdga with its comparison map."""

    kind: str
    model: BigradedModel
    morphism: CdgaMorphism
    quasi_iso: QuasiIsoVerdict


def _refuse(model: BigradedModel, kind: str, weight: int, bound: float) -> None:
    """The refusals both witnesses make before they build anything, in this
    order: the ValueError of `cohomology_of_model` where d o d != 0, and a
    ModelPurityError naming the bidegrees (k, q) with nonzero cohomology,
    q != weight * k and k <= bound.  A stored product outside its target
    space never gets here: `BigradedModel` refuses it."""
    bad = [kq for kq in cohomology_of_model(model) if kq[1] != weight * kq[0] and kq[0] <= bound]
    if bad:
        raise ModelPurityError(kind + " model", bad)


def _line_model(model: BigradedModel, weight: int, letter: str, line: Mapping[int, tuple[int, list]],
                coordinates: Callable[[int, int, tuple[int, int], dict], tuple[int, dict]]) -> BigradedModel:
    """The zero-differential witness model on the line (k, weight * k):
    `line` maps k to (Dz, the chosen integer vectors of M^k_{weight k} over
    Dz), and basis vector letter^k_j stands for vector j.  The products of
    the chosen vectors are swept over the keys of the model's tables
    (`_accumulate`), pairs (k1, k2) in the order of `line` and basis pairs
    ascending; coordinates(k1, k2, (a, b), product) gives each product's
    (den, integer coordinates) on the basis of the witness, or raises.  A
    product's coordinates stand for values over D Dz1 Dz2 den, and those
    over one denominator are one group of `_integer_form`, which brings
    them all to the least common D: for divisors g_v of a denominator n,
    the lcm of the n / g_v is n / gcd(g_v), so grouping does not change it."""
    spaces = {(k, weight * k): tuple("%s^%d_%d" % (letter, k, j) for j in range(len(vecs)))
              for k, (_, vecs) in line.items()}
    rows = {k: _sparse_rows(vecs) for k, (_, vecs) in line.items()}
    products: dict = {}
    groups: dict[int, list] = {}  # the products' coordinates by their denominator
    for k1, (scale1, _) in line.items():
        for k2, (scale2, _) in line.items():
            key = ((k1, weight * k1), (k2, weight * k2))
            if key not in model.tables:
                continue
            table: dict = {}
            for ab, prod in _pair_products(_accumulate({}, model.tables[key], rows[k1], rows[k2])).items():
                den, vec = coordinates(k1, k2, ab, prod)
                if vec:
                    table[ab] = vec
                    groups.setdefault(model.scale * scale1 * scale2 * den, []).append(vec)
            if table:
                products[key] = table
    return BigradedModel._adopt(spaces, *_integer_form({}, groups.items()), products)


def extract_kernel_model(model: BigradedModel, r: float) -> FormalityWitness:
    """Sub-cdga K^k = ker(M^k_{2k} -> M^{k+1}_{2k}) in the weight-2k regime.

    Refuses, in this order (`_refuse`): with ValueError a model with
    d o d != 0; with ModelPurityError and the offending bidegrees one with
    H^k(M_q) != 0 for some q != 2k and k <= r; and with ClosureError,
    naming the pair, one where a product of cocycles is not a cocycle.
    The basis of K^k and the coordinates of products in it come from the
    model's cached column cohomology at (k, 2k), which the check of the
    inclusion, a cdga morphism and an r-quasi-isomorphism, reads again.
    Products of cocycles are swept by `_line_model`.
    """
    _refuse(model, "kernel", 2, r)
    kernels: dict[int, _ColumnCohomology] = {}
    for k in range(model.max_degree() + 1):
        col = model._column_cohomology((k, 2 * k))
        if col.cocycle_cols:
            kernels[k] = col

    def coordinates(k1, k2, ab, prod):
        # the product of cocycles must vanish if K^{k1 + k2} is trivial
        vec = kernels[k1 + k2].cocycle_coordinates(prod) if k1 + k2 in kernels else None
        if vec is None:
            raise ClosureError("kernel product escapes at K^%d x K^%d pair (%d, %d)" % (k1, k2, *ab))
        return 1, vec

    line = {k: (col.cocycle_scale, col.cocycle_cols) for k, col in kernels.items()}
    witness_model = _line_model(model, 2, "K", line, coordinates)
    # the inclusion's columns are the cocycles over the lcm of their scales
    scale = math.lcm(*(col.cocycle_scale for col in kernels.values()))
    cols = {(k, 2 * k): col.cocycle_cols if col.cocycle_scale == scale else
            [{i: x * (scale // col.cocycle_scale) for i, x in v.items()} for v in col.cocycle_cols]
            for k, col in kernels.items()}
    inclusion = CdgaMorphism._of_columns(witness_model, model, scale, cols)
    verdict = check_r_quasi_iso(inclusion, r)
    return FormalityWitness("kernel", witness_model, inclusion, verdict)


def extract_cokernel_model(model: BigradedModel, r: float) -> FormalityWitness:
    """Quotient cdga C^k = M^k_k / d(M^{k-1}_k) in the weight-k regime.

    Refuses as `extract_kernel_model` does (`_refuse`), with the purity
    condition H^k(M_q) = 0 for q != k and k <= r + 1.  The
    quotient needs every vector of M^k_k to be a cocycle wherever C^k is
    not zero.  That holds in a model built from a datum, which has no
    M^{k+1}_k, but not in every model: where d does not vanish on such an
    M^k_k, extraction fails with a ClosureError naming it.  The projection
    from the model is checked to be a cdga morphism and an
    r-quasi-isomorphism; products of boundaries with anything must project
    to zero, otherwise the induced product is ill-defined and extraction
    fails with a ClosureError.  Products of representatives are swept by
    `_line_model`.
    """
    _refuse(model, "cokernel", 1, r + 1)
    data = {k: model._column_cohomology((k, k)) for k in range(model.max_degree() + 1) if model.dim((k, k))}
    line = {k: (col.cocycle_scale, col.representative_cols) for k, col in data.items() if col.dim}
    # C^k is a quotient of the cocycles, so the projection needs every
    # vector of M^k_k to be one; then so is every product checked below
    for k in line:
        if any(v for col in model._dcols((k, k)) for v in col.values()):
            raise ClosureError("cokernel model refused: d does not vanish on M^%d_%d" % (k, k))
    # the projection's column j at (k, k) holds the class coordinates of
    # basis vector j, over D, the lcm of the denominators of its entries
    coordinates = {(k, k): [data[k].class_coordinates({j: 1}) for j in range(model.dim((k, k)))] for k in line}
    den = _integer_form({}, [(c, (v,)) for cols in coordinates.values() for c, v in cols])[0]
    projections = {kq: [v for _, v in cols] for kq, cols in coordinates.items()}

    # well-definedness: boundaries must multiply into boundaries, checked
    # in the order of the loop over (k, boundary, k2, basis vector j)
    units = _identity_rows({k: range(model.dim((k, k))) for k in data})
    for k, col in data.items():
        rows = _sparse_rows(col.boundary_cols)
        checks = []
        for k2 in data:
            if k + k2 in line:
                pairs = _pair_products(_accumulate({}, model.tables.get(((k, k), (k2, k2)), {}), rows, units[k2]))
                checks += [(u, k2, j, prod) for (u, j), prod in pairs.items()]
        for _, k2, _, prod in sorted(checks, key=lambda check: check[:3]):
            if data[k + k2].class_coordinates(prod)[1]:
                raise ClosureError(
                    "boundary times basis vector survives in C^%d (from C^%d x C^%d)"
                    % (k + k2, k, k2)
                )

    # a product landing where there is no class projects to zero
    witness_model = _line_model(model, 1, "C", line, lambda k1, k2, ab, prod:
                                data[k1 + k2].class_coordinates(prod) if k1 + k2 in line else (1, {}))
    surjection = CdgaMorphism._of_columns(model, witness_model, den, projections)
    verdict = check_r_quasi_iso(surjection, r)
    return FormalityWitness("cokernel", witness_model, surjection, verdict)


# -- builders -----------------------------------------------------------------


def _unit_cup(dims: Mapping[int, int]) -> dict:
    """Cup table where degree 0 is one-dimensional and acts as the unit."""
    table: dict = {}
    for p, d in dims.items():
        if d == 0:
            continue
        table[(0, p)] = {(0, a): {a: Fraction(1)} for a in range(d)}
        if p != 0:
            table[(p, 0)] = {(a, 0): {a: Fraction(1)} for a in range(d)}
    return table


def builder_point() -> CompactificationDatum:
    """X a point, no divisor: the unit for Kunneth products."""
    return CompactificationDatum(0, {(): {0: 1}}, {}, {}, {(): _unit_cup({0: 1})})


def builder_projective_line_marked(s: int) -> CompactificationDatum:
    """The projective line with s disjoint marked points.

    All strata are the line or points; the Gysin map of each point sends
    its class to the degree-2 generator, restrictions in degree 0 are
    identities, and intersections of two or more points are empty.
    """
    if s < 0:
        raise ValueError("number of marked points must be nonnegative")
    cohomology: dict = {(): {0: 1, 2: 1}}
    restrictions: dict = {}
    gysins: dict = {}
    cups: dict = {(): _unit_cup({0: 1, 2: 1})}
    for i in range(1, s + 1):
        cohomology[(i,)] = {0: 1}
        restrictions[((), i)] = {0: Matrix([[1]])}
        gysins[((i,), i)] = {0: Matrix([[1]])}
        cups[(i,)] = _unit_cup({0: 1})
    return CompactificationDatum(s, cohomology, restrictions, gysins, cups)


def _lift(factor_cols, left: bool, shift: int, src: Mapping, tgt: Mapping, maps: dict) -> dict[int, Matrix]:
    """A map f of one factor as f (x) id (`left`) or id (x) f on the product.

    `factor_cols(p)` is f on degree p of its factor, raising the degree by
    `shift` (0 for a restriction, 2 for a Gysin map), as sparse columns
    {column: {row: value}} with Fraction values and no zeros, and is called
    once per degree: `maps` keeps its results, and the caller shares it
    between the product strata that lift the same f.  `src` maps each
    degree to the product labels (p1, p2, a1, a2) of the source stratum,
    and `tgt` each degree to the label -> index dict of the target.  f has
    even degree, so it commutes with the other factor without a sign.
    """
    zero = Fraction(0)
    blocks: dict[int, Matrix] = {}
    for p, labels in src.items():
        index = tgt.get(p + shift)
        if index is None:
            continue
        rows = [[zero] * len(labels) for _ in index]
        for col, (p1, p2, a1, a2) in enumerate(labels):
            q = p1 if left else p2
            cols = maps.get(q)
            if cols is None:
                cols = maps[q] = factor_cols(q)
            for b, v in cols.get(a1 if left else a2, {}).items():
                rows[index[(p1 + shift, p2, b, a2) if left else (p1, p2 + shift, a1, b)]][col] = v
        blocks[p] = Matrix._of_fractions([tuple(row) for row in rows], len(labels))
    return blocks


def kunneth_product(cd1: CompactificationDatum, cd2: CompactificationDatum) -> CompactificationDatum:
    """Product datum: divisor components of the first factor crossed with
    the second variety, then the first variety crossed with components of
    the second.  Cohomology, restrictions, Gysin maps and cups are graded
    tensors with Koszul signs.

    Each factor map is read once per degree as sparse columns: a
    restriction step through `_step_rows`, its integers over its scale
    made Fractions again, a Gysin block from its rows.  The lifted blocks
    are `Matrix` rows of those Fractions and one shared zero.  The cups of
    a product stratum look up each factor's cup table of that stratum once.
    """
    s1, s2 = cd1.components, cd2.components

    # the basis of H^p(D_I x D_I') is (p1, p2, a1, a2) with p1 ascending,
    # then a1, then a2; degrees come in the order they first occur
    factors: dict = {}
    bases: dict = {}
    for i1 in cd1.subsets():
        for i2 in cd2.subsets():
            key = tuple(sorted(i1 + tuple(j + s1 for j in i2)))
            labels: dict[int, list] = {}
            for p1 in cd1.degrees(i1):
                for p2 in cd2.degrees(i2):
                    labels.setdefault(p1 + p2, []).extend(
                        (p1, p2, a1, a2) for a1 in range(cd1.dim(i1, p1)) for a2 in range(cd2.dim(i2, p2))
                    )
            if labels:
                factors[key], bases[key] = (i1, i2), labels
    cohomology = {key: {p: len(labels) for p, labels in basis.items()} for key, basis in bases.items()}
    index = {
        key: {p: {lab: i for i, lab in enumerate(labels)} for p, labels in basis.items()}
        for key, basis in bases.items()
    }

    def side(x, i1, i2):
        """Whether component x of the product is on the left, its factor's
        datum and stratum, and its index there."""
        return (True, cd1, i1, x) if x <= s1 else (False, cd2, i2, x - s1)

    def step_cols(cd, own, local):
        above = tuple(sorted(own + (local,)))

        def cols(p):
            den, rows = cd._step_rows({}, own, local, p, above)
            return _sparse_rows({t: {a: Fraction(v, den) for a, v in row.items()} for t, row in rows.items()})
        return cols

    def gysin_cols(cd, own, local):
        rest = tuple(x for x in own if x != local)
        return lambda p: _sparse_rows({b: {a: v for a, v in enumerate(row) if v}
                                       for b, row in enumerate(cd._gysin(own, local, p, rest).rows)})

    restrictions: dict = {}
    gysins: dict = {}
    lifted: dict = {}  # (left, shift, own, local) -> the factor's map by degree
    for key, (i1, i2) in factors.items():
        for j in range(1, s1 + s2 + 1):
            tgt_key = tuple(sorted(key + (j,)))
            if j in key or tgt_key not in index:
                continue
            left, cd, own, local = side(j, i1, i2)
            blocks = _lift(step_cols(cd, own, local), left, 0, bases[key], index[tgt_key],
                           lifted.setdefault((left, 0, own, local), {}))
            if blocks:
                restrictions[(key, j)] = blocks
        for i in key:
            tgt_key = tuple(x for x in key if x != i)
            if tgt_key not in index:
                continue
            left, cd, own, local = side(i, i1, i2)
            blocks = _lift(gysin_cols(cd, own, local), left, 2, bases[key], index[tgt_key],
                           lifted.setdefault((left, 2, own, local), {}))
            if blocks:
                gysins[(key, i)] = blocks

    cups: dict = {}
    zero = Fraction(0)
    for key, (i1, i2) in factors.items():
        basis, lookup = bases[key], index[key]
        cups1, cups2 = cd1.cups.get(i1, {}), cd2.cups.get(i2, {})
        table: dict = {}
        degrees = sorted(basis)
        for p in degrees:
            for p2 in degrees:
                target = lookup.get(p + p2, {})
                entries: dict = {}
                for a, (pa1, pa2, a1, a2) in enumerate(basis[p]):
                    for b, (pb1, pb2, b1, b2) in enumerate(basis[p2]):
                        c1 = cups1.get((pa1, pb1), {}).get((a1, b1))
                        c2 = cups2.get((pa2, pb2), {}).get((a2, b2)) if c1 else None
                        if not c2:
                            continue
                        # Koszul sign: the left part of b passes the right part of a
                        sign = (-1) ** (pa2 * pb1)
                        vec: Sparse = {}
                        for t1_idx, v1 in c1.items():
                            for t2_idx, v2 in c2.items():
                                pos = target.get((pa1 + pb1, pa2 + pb2, t1_idx, t2_idx))
                                if pos is None:
                                    continue
                                vec[pos] = vec.get(pos, zero) + sign * v1 * v2
                        vec = {c: v for c, v in vec.items() if v}
                        if vec:
                            entries[(a, b)] = vec
                if entries:
                    table[(p, p2)] = entries
        if table:
            cups[key] = table
    return CompactificationDatum(s1 + s2, cohomology, restrictions, gysins, cups)


# -- localization ------------------------------------------------------------


@dataclass(frozen=True)
class LocalizedBetti:
    """Graded dimensions of the complement of a point, with weights."""

    dims: tuple[int, ...]
    weights: tuple[int, ...]


def localization_betti(betti_of_x: Sequence[int], d: int) -> LocalizedBetti:
    """Betti numbers of X minus a point from those of compact X.

    The localization sequence keeps b_k for k <= 2d - 1 and kills the top
    class, because the Gysin map of the point hits the fundamental class;
    each degree is then pure of weight k.
    """
    dims = tuple(int(b) for b in betti_of_x)
    if d < 1:
        raise ValueError("complex dimension must be at least 1")
    if len(dims) != 2 * d + 1:
        raise ValueError("expected graded dimensions up to degree 2d")
    if any(b < 0 for b in dims):
        raise ValueError("negative graded dimension")
    if dims[0] != 1 or dims[-1] != 1:
        raise ValueError("need b_0 = 1 and b_{2d} = 1 for a connected compact variety")
    out = dims[:-1] + (0,)
    return LocalizedBetti(out, tuple(range(len(out))))
