"""Checks of job results, made outside the timed region.

Where an oracle exists it shares no code with the timed path:

- hyperplane Betti numbers times (1 + t) must equal the Whitney numbers
  of the coned central arrangement, computed here from scratch;
- braid and B-type anchors have known Poincare polynomials, and the
  1-torus `eq N` has Betti numbers (1, N + 1);
- a `poset` report determines the Betti numbers through the Moebius
  function of its cover relation, computed here;
- model cohomology must equal the E2 route on the matching torus
  arrangement (Kunneth squares and cubes of marked lines) or the
  Kunneth formula (compact data), with axioms and quasi-isomorphism ok;
- the fault-injected datum must report exactly the `leibniz` violation;
- a synthetic strata file must be refused with its planted witness.

Random tori have no independent oracle: their `betti` and
`certificate` results are compared with the Moebius function of the
package's own `poset` report, and their `poset` results with `betti`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from stratiform import cli, morganmodel


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _trim(poly):
    poly = list(poly)
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


# -- Whitney numbers of a central arrangement, from scratch ---------------------


def _reduce(basis, v):
    """v reduced against an echelon basis {pivot: row with 1 at pivot}."""
    v = list(v)
    for p, row in basis.items():
        if v[p]:
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
    return v


def _extend(basis, v):
    v = _reduce(basis, v)
    p = next((i for i, x in enumerate(v) if x), None)
    if p is None:
        return basis
    row = [x / v[p] for x in v]
    out = {q: _reduce({p: row}, r) for q, r in basis.items()}
    out[p] = row
    return out


def central_whitney(vectors):
    """Unsigned Whitney numbers of the first kind of the central arrangement
    with these normals: sums of |mu| over flats of each rank."""
    vecs = [[Fraction(x) for x in v] for v in vectors]
    bottom = frozenset(i for i, v in enumerate(vecs) if not any(v))
    flats = {bottom: {}}
    frontier = [bottom]
    while frontier:
        new = []
        for f in frontier:
            for e in range(len(vecs)):
                if e in f:
                    continue
                basis = _extend(flats[f], vecs[e])
                g = frozenset(i for i, v in enumerate(vecs) if not any(_reduce(basis, v)))
                if g not in flats:
                    flats[g] = basis
                    new.append(g)
        frontier = new
    order = sorted(flats, key=lambda f: (len(flats[f]), sorted(f)))
    mobius = {}
    for f in order:
        mobius[f] = 1 if f == bottom else -sum(mobius[g] for g in mobius if g < f)
    out = [0] * (max(len(b) for b in flats.values()) + 1)
    for f in order:
        out[len(flats[f])] += abs(mobius[f])
    return tuple(out)


def coned_whitney(dim, hyperplanes):
    """Whitney numbers of the cone over {a.x = c}: normals (a, -c) and e_0."""
    vectors = [tuple(a) + (-Fraction(c),) for a, c in hyperplanes]
    vectors.append((0,) * dim + (1,))
    return central_whitney(vectors)


# -- reading CLI reports -----------------------------------------------------------


def _fields(line):
    return dict(part.split("=", 1) for part in line.split()[1:])


def parse_report(text):
    """The `name: value` lines, node rows and cover pairs of a text report."""
    values, nodes, covers, witnesses = {}, [], [], []
    for line in text.splitlines():
        if line.startswith("node "):
            f = _fields(line)
            nodes.append((int(f["codim"]), int(f["dim"])))
        elif line.startswith("cover "):
            f = _fields(line)
            covers.append((int(f["from"]), int(f["to"])))
        elif line.startswith("witness "):
            f = _fields(line)
            witnesses.append((int(f["degree"]), int(f["weight"])))
        elif ": " in line:
            name, value = line.split(": ", 1)
            values[name] = value
    return values, nodes, covers, witnesses


def _betti_line(values):
    if "betti" not in values:
        return None
    return tuple(int(x) for x in values["betti"].split())


def poset_poincare(nodes, covers, toric):
    """sum_X |mu(bottom, X)| t^codim X, times (1 + t)^dim X for layers of a torus.

    Node 0 is the ambient space; the order is the transitive closure of
    the covers, which go from codimension q to q + 1.
    """
    below = [{i} for i in range(len(nodes))]
    for i, j in sorted(covers, key=lambda c: nodes[c[1]][0]):
        below[j] |= below[i]
    mobius = {}
    for j in sorted(range(len(nodes)), key=lambda x: nodes[x][0]):
        mobius[j] = 1 if j == 0 else -sum(mobius[i] for i in below[j] if i != j)
    top = max(codim + (dim if toric else 0) for codim, dim in nodes)
    out = [0] * (top + 1)
    for j, (codim, dim) in enumerate(nodes):
        term = (0,) * codim + (abs(mobius[j]),)
        if toric:
            for _ in range(dim):
                term = poly_mul(term, (1, 1))
        for k, x in enumerate(term):
            out[k] += x
    return _trim(out)


def _found_betti(job, values, nodes, covers):
    if job.command == "poset":
        return poset_poincare(nodes, covers, toric=job.text.startswith("toric"))
    if job.command == "certificate":
        expected = {"purity": "pass", "degeneration": "degenerate", "formal": "true"}
        for name, want in expected.items():
            if values.get(name) != want:
                return None
    return _betti_line(values)


def _reference_betti(job):
    tag = job.oracle[0]
    if tag == "betti":
        return _trim(job.oracle[1])
    if tag == "coned":
        return None  # compared through the cone below
    # Random torus: the package's other command on the same file.
    af = cli.parse_arrangement_file(job.text)
    if job.command == "poset":
        code, text = cli.run_command("betti", af)
        return _trim(_betti_line(parse_report(text)[0]) or ())
    code, text = cli.run_command("poset", af)
    _, nodes, covers, _ = parse_report(text)
    return poset_poincare(nodes, covers, toric=True)


def check_cli(job, result):
    code, text = result
    if code != job.expect_code:
        return "exit code %d, expected %d" % (code, job.expect_code)
    values, nodes, covers, witnesses = parse_report(text)
    if job.oracle[0] == "impure":
        degree, _, weight = job.oracle[1]
        if job.command == "betti":
            return None if "refused" in values and "betti" not in values else "betti not refused"
        if values.get("purity") != "fail" or values.get("formal") != "refused":
            return "certificate not refused"
        if witnesses != [(degree, weight)]:
            return "purity witnesses %r, planted %r" % (witnesses, (degree, weight))
        return None
    found = _found_betti(job, values, nodes, covers)
    if found is None:
        return "no Betti numbers in the report"
    found = _trim(found)
    if job.oracle[0] == "coned":
        _, dim, hyps = job.oracle
        want = coned_whitney(dim, hyps)
        if poly_mul(found, (1, 1)) != want:
            return "Betti %r times (1 + t) differs from coned Whitney numbers %r" % (found, want)
        return None
    want = _reference_betti(job)
    if found != want:
        return "Betti %r, expected %r" % (found, want)
    return None


# -- model jobs ------------------------------------------------------------------


def torus_betti(points):
    """E2-route Betti numbers of the torus minus z_i^{n_i} = 1, via the CLI."""
    n = len(points)
    lines = ["toric %d" % n]
    for i, m in enumerate(points):
        if m:
            chi = [0] * n
            chi[i] = m
            lines.append("eq %s : 0/1" % " ".join(map(str, chi)))
    code, text = cli.run_command("betti", cli.parse_arrangement_file("\n".join(lines) + "\n"))
    if code != 0:
        return None
    return _betti_line(parse_report(text)[0])


def check_model(job, outcome):
    if job.regime == "fault":
        failing = outcome.axioms.axioms_failing()
        if failing != job.oracle:
            return "fault datum reported %r, expected %r" % (failing, job.oracle)
        return None
    if not outcome.axioms.passed:
        return "axioms fail: %r" % (outcome.axioms.axioms_failing(),)
    if outcome.witness is None or not outcome.witness.quasi_iso.ok:
        return "no %s witness with a quasi-isomorphism" % job.regime
    cohomology = morganmodel.cohomology_of_model(outcome.model)
    sizes = [s for s, _ in job.factors]
    if job.regime == "kernel":
        betti = torus_betti([s - 2 for s in sizes])
        want = {(k, 2 * k): b for k, b in enumerate(betti or ()) if b}
    else:
        want = {(2 * j, 2 * j): math.comb(len(sizes), j) for j in range(len(sizes) + 1)}
    if cohomology != want:
        return "model cohomology %r, expected %r" % (cohomology, want)
    return None


def check(job, result):
    """None when the result is right, else a one-line reason."""
    if job.kind == "cli":
        return check_cli(job, result)
    return check_model(job, result)
