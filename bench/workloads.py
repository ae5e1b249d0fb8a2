"""Seeded corpora for the benchmark workloads, and the timed job runner.

Each workload yields one corpus per pass.  A corpus mixes fixed anchor
instances, whose cost is known and large, with seeded random instances.
Every input is new within the process: anchors come back in each pass
only as isomorphic copies (a translated braid arrangement, a torus
translated by a torsion point, a model datum in a rescaled basis), so a
cache kept across calls cannot serve a job that a command-line user,
who starts a fresh process per call, would have to compute.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from stratiform import cli, morganmodel
from stratiform.exactalg import Matrix

WORKLOADS = ("hyperplane", "toric", "model")
COMMANDS = ("betti", "poset", "certificate")
INF = math.inf

# The 1-torus anchor `eq N : t` has N points, hence N + 1 layers.
EQ_N = 150

# Each pass runs the `largest_job_s` anchor this often, on distinct
# copies, so that its median rests on twice as many samples.
ANCHOR_REPEATS = 2

# Braid anchors are moved to points with coordinates in [-4, 4]: 2465
# distinct braid-4 and 26281 distinct braid-5 arrangements, which cost
# the same as the untranslated one.
BRAID_SHIFT = 4

# The `eq N : r/q` anchor takes reduced phases with q <= 60: 1102
# distinct files, whose cost does not depend on q.
EQ_DENOMINATORS = range(1, 61)


class InputsExhausted(RuntimeError):
    """The generator found no input it had not handed out already."""


@dataclass(frozen=True)
class Job:
    """One timed call into the package.

    `kind` is "cli" (parse `text`, then `cli.run_command(command, ...)`)
    or "model" (Kunneth product of `factors`, model, axioms, witness).
    `name` is stable across passes, so per-anchor times can be pooled.
    `key` is the canonical form of the input, the same for any line
    order.  `oracle` carries what the check needs to know about the input.
    """

    name: str
    kind: str
    key: str
    command: str = ""
    text: str = ""
    expect_code: int = 0
    factors: tuple = ()
    regime: str = ""
    oracle: tuple = ()
    anchor: bool = False

    def input_text(self) -> str:
        """The input as handed to the package: the file, or the datum spec."""
        if self.kind == "cli":
            return "%s\n%s" % (self.command, self.text)
        return "%s %s\n" % (self.regime, " x ".join(
            "line%d[%s]" % (s, ",".join(str(x) for x in scales)) for s, scales in self.factors))


# -- arrangement files -------------------------------------------------------


def _eq_line(coeffs, constant) -> str:
    c = Fraction(constant)
    return "eq %s : %d/%d" % (" ".join(str(x) for x in coeffs), c.numerator, c.denominator)


def _arrangement_text(kind, dim, equations, rng) -> str:
    lines = ["%s %d" % (kind, dim)]
    eqs = list(equations)
    rng.shuffle(eqs)
    lines.extend(_eq_line(a, c) for a, c in eqs)
    return "\n".join(lines) + "\n"


def _gcd(values):
    g = 0
    for x in values:
        g = math.gcd(g, x)
    return g


def _primitive(vec):
    g = _gcd(vec)
    v = tuple(x // g for x in vec)
    first = next(x for x in v if x)
    return v if first > 0 else tuple(-x for x in v)


def braid_hyperplanes(n, shift):
    """x_i - x_j = shift_i - shift_j: the braid arrangement moved to `shift`."""
    out = []
    for i, j in combinations(range(n), 2):
        v = [0] * n
        v[i], v[j] = 1, -1
        out.append((tuple(v), Fraction(shift[i] - shift[j])))
    return out


def braid_betti(n):
    """Coefficients of prod_{k<n} (1 + k t), the braid Poincare polynomial."""
    poly = [1]
    for k in range(1, n):
        poly = [a + k * b for a, b in zip(poly + [0], [0] + poly)]
    return tuple(poly)


# Random hyperplane arrangements by dimension: (hyperplanes, central).
# The count is the largest whose bound on the number of flats,
# sum_k C(m, k), stays within braid-5's 52.  A central arrangement costs
# a third to a fifth of an affine one of the same size, so a coin flip
# between the two would decide the median job; the kinds are fixed per
# dimension instead.  The d = 2 and d = 3 arrangements cost about the same.
HYPERPLANES_BY_DIM = {2: (7, False), 3: (6, True), 4: (5, False)}

# (dimension, arrangements per command) in each pass.  Twelve of the
# 24 jobs of a pass are d = 2 and d = 3 arrangements, so the median job
# is the middle of a dozen samples per pass of one cost class.
RANDOM_ARRANGEMENTS = ((2, 2), (3, 2), (4, 1))


def random_hyperplanes(rng, d):
    """Projectively distinct hyperplanes in dimension d, as HYPERPLANES_BY_DIM says.

    Normals lie in [-2, 2], and so do the constants of affine arrangements.
    """
    m, central = HYPERPLANES_BY_DIM[d]
    seen = set()
    out = []
    while len(out) < m:
        a = tuple(rng.randint(-2, 2) for _ in range(d))
        if not any(a):
            continue
        c = 0 if central else rng.randint(-2, 2)
        key = _primitive(a + (c,))
        if key in seen:
            continue
        seen.add(key)
        out.append((key[:-1], Fraction(key[-1])))
    return out


def _b_type_characters(n):
    """x_i, x_i^2 and x_i x_j^(+-1): the toric arrangement of type B_n."""
    out = []
    for i in range(n):
        for e in (1, 2):
            v = [0] * n
            v[i] = e
            out.append(tuple(v))
    for i, j in combinations(range(n), 2):
        for s in (1, -1):
            v = [0] * n
            v[i], v[j] = 1, s
            out.append(tuple(v))
    return out


# Poincare polynomials of the B2 and B3 toric arrangements.  They agree
# with sum_L |mu(L)| t^codim(L) (1 + t)^dim(L) over the layer poset.
B_TYPE_BETTI = {2: (1, 8, 15), 3: (1, 15, 71, 105)}

# Denominators of the torsion points that translate the B-type anchors.
# A translate is isomorphic to the anchor and costs the same for any q
# up to these bounds; they leave 4032 points of the 2-torus and 5542 of
# the 3-torus, each a distinct file.
B_TYPE_DENOMINATORS = {2: range(1, 25), 3: range(1, 13)}


def translated_torus(characters, rng, denominators):
    """Hypersurfaces z^chi = 1 moved by a torsion point w: phases <chi, w>.

    The coordinates of w have a common denominator q from `denominators`.
    """
    n = len(characters[0])
    q = rng.choice(denominators)
    w = [Fraction(rng.randrange(q), q) for _ in range(n)]
    return [(chi, sum((c * x for c, x in zip(chi, w)), Fraction(0)) % 1) for chi in characters]


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


def generic_layers(chars):
    """Layers of the arrangement of characters `chars` when no phases coincide.

    The torus, the components of each hypersurface (the gcd of its
    exponents), of each intersection of two on a 3-torus (the gcd of the
    2x2 minors), and the points where n of them meet (|det|).
    """
    n = len(chars[0])
    layers = 1 + sum(_gcd(c) for c in chars)
    if n == 3:
        for a, b in combinations(chars, 2):
            layers += _gcd(a[i] * b[j] - a[j] * b[i] for i, j in ((0, 1), (0, 2), (1, 2)))
    return layers + sum(abs(_det([list(c) for c in sub])) for sub in combinations(chars, n))


# The cost of a random torus follows generic_layers closely.  Within these
# bands it stays within about a fifth of 0.02 s (reference host), so the
# median job of a pass, which is a random torus, does not hinge on which
# tori a seed draws.
RANDOM_TORUS_LAYERS = {2: range(18, 24), 3: range(12, 16)}


def random_torus(rng, n):
    """4 (2-torus) or 3 (3-torus) hypersurfaces with exponents in [-2, 2].

    Phases have denominator at most 4, and the layer count without
    coincidences is in RANDOM_TORUS_LAYERS.
    """
    m = 4 if n == 2 else 3
    while True:
        chars = []
        while len(chars) < m:
            chi = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(chi) and chi not in chars and tuple(-x for x in chi) not in chars:
                chars.append(chi)
        if generic_layers(chars) in RANDOM_TORUS_LAYERS[n]:
            break
    out = []
    for chi in chars:
        q = rng.randint(1, 4)
        out.append((chi, Fraction(rng.randrange(q), q)))
    return out


def random_strata(rng):
    """Synthetic strata file with one planted impure class: (text, key, class).

    The impure class sits in degree 1 with weight 1 or 3 (pure would be 2),
    so `betti` must refuse the uncertified table and `certificate` must
    fail purity, both with exit code 2.
    """
    n = rng.randint(2, 3)
    strata = [(0, 1, ((0, 1, 0),))]
    for codim in range(1, n + 1):
        for _ in range(rng.randint(1, 2)):
            dim = n - codim
            coh = tuple((p, math.comb(dim, p), 2 * p) for p in range(dim + 1))
            strata.append((codim, rng.randint(1, 3), coh))
    impure = (1, rng.randint(1, 2), rng.choice((1, 3)))
    codim = rng.randint(1, n - 1)
    strata.append((codim, rng.randint(1, 2), ((0, 1, 0), impure)))
    key = "strata %d %r" % (n, sorted(strata))
    rng.shuffle(strata)
    lines = ["strata %d" % n]
    for codim, local, coh in strata:
        lines.append(
            "stratum %d %d : %s" % (codim, local, " ".join("%d:%d:%d" % e for e in coh))
        )
    return "\n".join(lines) + "\n", key, impure


# -- model data ----------------------------------------------------------------


def marked_line_basis(s):
    """Basis vectors (I, degree, index) of the marked-line datum with s points."""
    return [((), 0, 0), ((), 2, 0)] + [((i,), 0, 0) for i in range(1, s + 1)]


def rescaled_datum(cd, scales):
    """The same datum in the basis e'_v = scales[v] * e_v.

    Restriction and Gysin blocks become S_tgt^-1 M S_src and every cup
    structure constant v_ab^c becomes scale_a scale_b / scale_c * v_ab^c.
    """

    def scale(key, p, j):
        return Fraction(scales.get((key, p, j), 1))

    def conj(block, src_key, p, tgt_key, q):
        return Matrix(
            [
                [block.rows[b][a] * scale(src_key, p, a) / scale(tgt_key, q, b) for a in range(block.ncols)]
                for b in range(block.nrows)
            ],
            ncols=block.ncols,
        )

    restrictions = {
        (i_key, j): {
            p: conj(blk, i_key, p, tuple(sorted(i_key + (j,))), p) for p, blk in blocks.items()
        }
        for (i_key, j), blocks in cd.restrictions.items()
    }
    gysins = {
        (i_key, i): {
            p: conj(blk, i_key, p, tuple(x for x in i_key if x != i), p + 2)
            for p, blk in blocks.items()
        }
        for (i_key, i), blocks in cd.gysins.items()
    }
    cups = {}
    for i_key, table in cd.cups.items():
        cups[i_key] = {
            (p, p2): {
                (a, b): {
                    c: Fraction(v) * scale(i_key, p, a) * scale(i_key, p2, b) / scale(i_key, p + p2, c)
                    for c, v in vec.items()
                }
                for (a, b), vec in entries.items()
            }
            for (p, p2), entries in table.items()
        }
    return morganmodel.CompactificationDatum(
        cd.components, cd.cohomology, restrictions, gysins, cups
    )


def datum_key(cd) -> str:
    """Digest of everything a datum holds; equal data give equal keys."""
    def blocks(maps):
        return sorted((k, sorted((p, m.rows) for p, m in b.items())) for k, b in maps.items())

    cups = sorted(
        (k, sorted((pp, sorted((ab, sorted(v.items())) for ab, v in e.items())) for pp, e in t.items()))
        for k, t in cd.cups.items()
    )
    content = repr((cd.components, sorted(cd.cohomology.items()), blocks(cd.restrictions),
                    blocks(cd.gysins), cups))
    return hashlib.sha256(content.encode()).hexdigest()[:16]


def model_key(regime, factors) -> str:
    """Canonical form of the Kunneth product of rescaled marked lines.

    Rescaling one factor by c and another by 1/c gives the same product,
    and the scale of H^2 of an unmarked line (s = 0) shows up nowhere.
    So the key keeps each factor's scales relative to its unit, without
    that H^2 scale, and the product of the units.  Two jobs have equal
    keys exactly when their product data are equal; the benchmark's
    tests check this against `datum_key(product_datum(...))`.
    """
    units = Fraction(1)
    relative = []
    for s, scales in factors:
        unit = Fraction(scales[0])
        units *= unit
        kept = scales[2:] if s == 0 else scales[1:]
        relative.append((s, tuple(Fraction(x) / unit for x in kept)))
    return "%s %r %r" % (regime, relative, units)


def factor_datum(factor):
    s, scales = factor
    basis = marked_line_basis(s)
    cd = morganmodel.builder_projective_line_marked(s)
    return rescaled_datum(cd, {v: Fraction(x) for v, x in zip(basis, scales)})


# -- corpora ---------------------------------------------------------------------


@dataclass
class Corpus:
    """Generator of one workload's passes for one seed.

    It remembers the canonical form of every input it has handed out and
    never repeats one: not for another command, and not in another pass.
    """

    workload: str
    seed: int
    seen: set = field(default_factory=set)
    passes: int = 0

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % self.workload)
        self.rng = random.Random("stratiform-bench:%s:%d" % (self.workload, self.seed))

    def next_pass(self) -> list[Job]:
        build = {"hyperplane": self._hyperplane, "toric": self._toric, "model": self._model}
        jobs = build[self.workload]()
        self.passes += 1
        return jobs

    def _fresh(self, make) -> Job:
        """Call make() until it returns a job whose input was not seen yet."""
        for _ in range(1000):
            job = make()
            if job.key not in self.seen:
                self.seen.add(job.key)
                return job
        raise InputsExhausted("no new input for %s after %d passes" % (self.workload, self.passes))

    def _arrangement(self, name, kind, dim, command, equations, oracle, anchor=False) -> Job:
        equations = sorted(equations)
        text = _arrangement_text(kind, dim, equations, self.rng)
        key = "%s %d %r" % (kind, dim, equations)
        return Job(name, "cli", key, command, text, 0, oracle=oracle, anchor=anchor)

    def _hyperplane(self) -> list[Job]:
        rng = self.rng
        jobs = []
        for n in (4, 5):
            for command in COMMANDS:
                anchor = n == 5 and command == "betti"
                for _ in range(ANCHOR_REPEATS if anchor else 1):
                    jobs.append(self._fresh(lambda: self._arrangement(
                        "braid-%d/%s" % (n, command), "hyperplane", n, command,
                        braid_hyperplanes(n, [rng.randint(-BRAID_SHIFT, BRAID_SHIFT) for _ in range(n)]),
                        ("betti", braid_betti(n)), anchor=anchor,
                    )))
        for d, repeats in RANDOM_ARRANGEMENTS:
            for command in COMMANDS * repeats:
                def make(d=d, command=command):
                    hyps = random_hyperplanes(rng, d)
                    return self._arrangement(
                        "random-d%d/%s" % (d, command), "hyperplane", d, command, hyps,
                        ("coned", d, tuple(hyps)),
                    )
                jobs.append(self._fresh(make))
        for command in ("betti", "certificate"):
            def make_strata(command=command):
                text, key, impure = random_strata(rng)
                return Job("strata/%s" % command, "cli", key, command, text, 2, oracle=("impure", impure))
            jobs.append(self._fresh(make_strata))
        return jobs

    def _toric(self) -> list[Job]:
        rng = self.rng
        jobs = []
        for n in (2, 3):
            chars = _b_type_characters(n)
            for command in COMMANDS:
                anchor = n == 3 and command == "betti"
                for _ in range(ANCHOR_REPEATS if anchor else 1):
                    jobs.append(self._fresh(lambda: self._arrangement(
                        "B%d/%s" % (n, command), "toric", n, command,
                        translated_torus(chars, rng, B_TYPE_DENOMINATORS[n]),
                        ("betti", B_TYPE_BETTI[n]), anchor=anchor,
                    )))
        def make_eq():
            q = rng.choice(EQ_DENOMINATORS)
            return self._arrangement(
                "eq%d/betti" % EQ_N, "toric", 1, "betti",
                [((EQ_N,), Fraction(rng.randrange(q), q))], ("betti", (1, EQ_N + 1)),
            )
        jobs.append(self._fresh(make_eq))
        for n in (2, 3):
            for command in COMMANDS * 2:
                jobs.append(self._fresh(lambda: self._arrangement(
                    "random-t%d/%s" % (n, command), "toric", n, command,
                    random_torus(rng, n), ("poset",),
                )))
        return jobs

    def _model_job(self, name, regime, sizes, scale, oracle=(), anchor=False) -> Job:
        def make():
            factors = tuple((s, tuple(scale() for _ in marked_line_basis(s))) for s in sizes)
            key = model_key(regime, factors)
            return Job(name, "model", key, factors=factors, regime=regime, oracle=oracle, anchor=anchor)

        return self._fresh(make)

    def _model(self) -> list[Job]:
        rng = self.rng

        def signs():
            return rng.choice((1, -1))

        def wide():
            return Fraction(rng.choice((1, -1)) * rng.randint(1, 30), rng.randint(1, 30))

        # Large data keep scales +-1, so that their entries, and hence
        # their cost, do not change.  A compact square is fixed by the
        # product of its two unit scales alone, so compact data take
        # scales a/b with a, b <= 30, which leave thousands of them.
        jobs = [
            self._model_job("square-5x5", "kernel", (5, 5), signs, anchor=True)
            for _ in range(ANCHOR_REPEATS)
        ]
        # Two compact squares make four tiny jobs of eleven, so that the
        # median job lies inside the class of the (2, 5) and (5, 2) squares
        # rather than halfway between it and the (3, 4) class.
        jobs += [
            self._model_job("cube-2", "kernel", (2, 2, 2), signs),
            self._model_job("compact-square", "cokernel", (0, 0), wide),
            self._model_job("compact-square", "cokernel", (0, 0), wide),
            self._model_job("compact-cube", "cokernel", (0, 0, 0), wide),
            self._model_job("fault-mixed", "fault", (2, 0), wide, oracle=("leibniz",)),
        ]
        # Squares (s, 7 - s) for s in 2..5 in a seeded order: the sizes are
        # the same in every pass, so that the pass time and the median job
        # do not hinge on how many large squares a seed happens to draw.
        sizes = [2, 3, 4, 5]
        rng.shuffle(sizes)
        for s in sizes:
            jobs.append(self._model_job("square-%dx%d" % (s, 7 - s), "kernel", (s, 7 - s), signs))
        return jobs


def product_datum(factors):
    """The Kunneth product of the factors' data, as the job computes it."""
    data = [factor_datum(f) for f in factors]
    product = data[0]
    for other in data[1:]:
        product = morganmodel.kunneth_product(product, other)
    return product


def prepare(job: Job):
    """Untimed per-job input: the factor data of a model job."""
    if job.kind == "model":
        return tuple(factor_datum(f) for f in job.factors)
    return None


# -- the timed call ----------------------------------------------------------------


@dataclass
class ModelOutcome:
    model: object
    axioms: object
    witness: object = None


def run_job(job: Job, prepared):
    """The timed work of one job; returns its raw result.

    CLI jobs return (exit code, stdout text) as `stratiform CMD FILE`
    would.  Model jobs run the library pipeline on the prepared factors.
    Functions are looked up on their modules at call time, so tracing
    wrappers installed on the modules are seen.
    """
    if job.kind == "cli":
        af = cli.parse_arrangement_file(job.text)
        return cli.run_command(job.command, af)
    cd = prepared[0]
    for other in prepared[1:]:
        cd = morganmodel.kunneth_product(cd, other)
    if job.regime == "fault":
        cd = morganmodel.negate_gysin_block(cd, (1,), 1, 0)
    model = morganmodel.build_model(cd)
    axioms = morganmodel.verify_cdga_axioms(model)
    if not axioms.passed:
        return ModelOutcome(model, axioms)
    if job.regime == "kernel":
        witness = morganmodel.extract_kernel_model(model, INF)
    else:
        witness = morganmodel.extract_cokernel_model(model, INF)
    return ModelOutcome(model, axioms, witness)


def render_result(job: Job, result) -> str:
    """Byte form of a job's result, for digests and trace comparisons."""
    if job.kind == "cli":
        code, text = result
        return "exit %d\n%s" % (code, text)
    lines = [
        "model_dim: %d" % result.model.total_dimension(),
        "axioms: %s" % ("pass" if result.axioms.passed else "fail"),
        "failing: %s" % " ".join(result.axioms.axioms_failing()),
        "violations: %d" % len(result.axioms.violations),
    ]
    w = result.witness
    if w is not None:
        dims = " ".join("%d,%d:%d" % (k, q, w.model.dim((k, q))) for k, q in w.model.bidegrees())
        products = hashlib.sha256(repr(sorted(w.model.products.items())).encode()).hexdigest()
        lines += [
            "witness: %s" % w.kind,
            "witness_dims: %s" % dims,
            "witness_products: %s" % products,
            "quasi_iso: %s" % ("ok" if w.quasi_iso.ok else "fail"),
            "per_degree: %s" % " ".join("%d:%d:%d:%d" % row for row in w.quasi_iso.per_degree),
        ]
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
