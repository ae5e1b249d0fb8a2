"""The weight-graded E2 model of an arrangement complement.

Strata contribute H^p(S) tensored with the local component A_S, placed in
bidegree (p, codim S) and Tate-twisted so the weight of an entry is the
stratum weight plus twice the codimension.  When every stratum in range
is pure of weight 2k in degree k, all entries at (p, q) sit in weight
2(p+q); every differential would shift that weight by 2 and is therefore
forced to vanish, so the table computes Betti numbers exactly, and the
purity report upgrades to a formality certificate.

A toric arrangement's strata are read off the integer keys of
`layer_search`, in the order the search finds them, and an affine
arrangement's off `flat_search` alone, unkeyed and unordered: the E2
commands need only each stratum's codimension and |mu|, and only
`poset` and `strata` sort them (`layer_order`, `flat_order`).  Each
search returns mu with its strata.  Each lower interval of either poset
is a geometric lattice, the lattice of flats of a central arrangement,
so each search computes mu at its end from its covers by Weisner's
theorem, mu(X) = -sum mu(Y) over the Y that X covers and that do not lie
on one fixed hypersurface through X, the atom of X (`weisner_mobius`).
A flat's mask is the set of hyperplanes through it, and its atom the
lowest of them; a layer's mask is the set of hypersurfaces whose
characters lie in its span, and its atom the hypersurface whose cut
found it.  A stratum's name is formatted by the same `_layer_name` or
`_flat_name`, on first read, which only `strata` rows and purity
witnesses do; an affine flat's key is made then, from the step that
found it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from stratiform.matroidos import _search_name, flat_search
from stratiform.toriclayers import ToricHypersurface, _layer_name, layer_search, torus_cohomology

INF = math.inf


class DegenerationUnknown(RuntimeError):
    """Raised when Betti numbers are requested from an uncertified table."""


@dataclass(frozen=True)
class Stratum:
    """One stratum: its codimension, graded cohomology with declared
    weights as (degree, dim, weight) triples, and the local dimension."""

    key: str
    codim: int
    cohomology: tuple[tuple[int, int, int], ...]
    local_dim: int

    @classmethod
    def _named_later(cls, name: tuple, codim: int, cohomology, local_dim: int) -> Stratum:
        """A stratum whose key is `name[0](*name[1:])`, formatted on first read."""
        stratum = object.__new__(cls)
        stratum.__dict__.update(_name=name, codim=codim, cohomology=cohomology, local_dim=local_dim)
        return stratum

    def __getattr__(self, attr):  # only reached for an attribute the instance lacks
        if attr != "key" or "_name" not in self.__dict__:
            raise AttributeError("'Stratum' object has no attribute %r" % attr)
        format_name, *args = self.__dict__.pop("_name")
        key = self.__dict__["key"] = format_name(*args)
        return key


@dataclass(frozen=True)
class StrataData:
    strata: tuple[Stratum, ...]

    def validate(self) -> None:
        ambient = [s for s in self.strata if s.codim == 0]
        if len(ambient) != 1 or ambient[0].local_dim != 1:
            raise ValueError("need exactly one ambient stratum with local dimension 1")
        for s in self.strata:
            if s.codim < 0 or s.local_dim < 0:
                raise ValueError("negative codimension or local dimension")
            if any(d < 0 for _, d, _ in s.cohomology):
                raise ValueError("negative cohomology dimension")


def strata_data_from_toric(
    ambient_dim: int, arrangement: Sequence[ToricHypersurface], max_strata: int | None = None
) -> StrataData:
    """Strata of a toric arrangement: layers with torus cohomology.

    Every layer of dimension d contributes binomial dims, pure of weight
    2p in degree p; the local dimension is |mu(ambient, layer)| in the
    layer poset, whose interval below the layer is the lattice of flats
    of the characters of hypersurfaces through it.  The layers of one
    codimension share one cohomology tuple.  The strata come by
    codimension, in the order `layer_search` finds them, not in the
    order `poset` prints them.  More than `max_strata` layers raise
    ValueError.
    """
    keys, _, mobius = layer_search(ambient_dim, arrangement, max_strata)
    cohomology = [torus_cohomology(ambient_dim - q) for q in range(ambient_dim + 1)]
    sd = StrataData(tuple(
        Stratum._named_later((_layer_name, *key), len(key[0]), cohomology[len(key[0])], abs(mu))
        for key, mu in zip(keys, mobius)
    ))
    sd.validate()
    return sd


def strata_data_from_hyperplanes(
    ambient_dim: int, hyperplanes: Sequence[tuple[Sequence, object]], max_strata: int | None = None
) -> StrataData:
    """Strata of an affine hyperplane arrangement: affine spaces.

    Each stratum has one dimension of cohomology in degree 0, weight 0;
    the local dimension is |mu(ambient, stratum)| in the intersection
    poset, whose interval below the stratum is the lattice of flats of
    the normals of hyperplanes containing it; `flat_search` returns mu
    with the flats.  The strata come by codimension, in the order
    `flat_search` finds them, not in the order `poset` prints them.  A stratum's name is the flat's name,
    made on first read through one memo of keys shared by the strata.
    More than `max_strata` strata raise ValueError.
    """
    _, codims, steps, _, mobius = flat_search(ambient_dim, hyperplanes, max_strata)
    memo: dict = {}
    sd = StrataData(tuple(
        Stratum._named_later((_search_name, steps, memo, k), codim, ((0, 1, 0),), abs(mu))
        for k, (codim, mu) in enumerate(zip(codims, mobius))
    ))
    sd.validate()
    return sd


LERAY_NOTE = "E_infinity^{p,q} = gr_L^p H^{p+q}(U) for the decreasing Leray filtration L"


@dataclass(frozen=True)
class LerayTable:
    """E2 dimensions with their declared weights.

    `entries` maps (p, q) to {weight: dimension}; the weight of a stratum
    contribution is its cohomology weight plus 2q from the Tate twist.
    """

    entries: dict[tuple[int, int], dict[int, int]]
    note: str = LERAY_NOTE

    def rows(self) -> tuple[tuple[int, int, int, int], ...]:
        """(p, q, weight, dim) rows, sorted."""
        out = []
        for (p, q), by_weight in self.entries.items():
            for w, d in by_weight.items():
                out.append((p, q, w, d))
        return tuple(sorted(out))

    def total_degree_dims(self) -> tuple[int, ...]:
        if not self.entries:
            return (0,)
        top = max(p + q for (p, q) in self.entries)
        out = [0] * (top + 1)
        for (p, q), by_weight in self.entries.items():
            out[p + q] += sum(by_weight.values())
        return tuple(out)


def assemble_e2(sd: StrataData) -> LerayTable:
    """dim E2^{p,q} = sum over codim-q strata of dim H^p(S) * local dim."""
    entries: dict[tuple[int, int], dict[int, int]] = {}
    for s in sd.strata:
        if s.local_dim == 0:
            continue
        for (p, d, w) in s.cohomology:
            if d == 0:
                continue
            cell = entries.setdefault((p, s.codim), {})
            shifted = w + 2 * s.codim
            cell[shifted] = cell.get(shifted, 0) + d * s.local_dim
    return LerayTable(entries)


@dataclass(frozen=True)
class PurityReport:
    """Verdict of the purity hypothesis at level r.

    Passes iff every stratum S and degree k with codim(S) + k <= r has
    H^k(S) declared pure of weight 2k.  Witnesses list the violations as
    (stratum key, degree, declared weight).
    """

    r: float
    passed: bool
    witnesses: tuple[tuple[str, int, int], ...]


def purity_hypothesis_check(sd: StrataData, r: float) -> PurityReport:
    witnesses = []
    for s in sd.strata:
        for (k, d, w) in s.cohomology:
            if d and w != 2 * k and s.codim + k <= r:
                witnesses.append((s.key, k, w))
    return PurityReport(r, not witnesses, tuple(witnesses))


@dataclass(frozen=True)
class DegenerationReport:
    """Outcome of the weight argument on a table, up to total degree r+1.

    verdict 'degenerate' means every entry with p+q <= r+1 has weight
    2(p+q), so any differential out of total degree p+q <= r would map
    weight 2(p+q) onto weight 2(p+q+1) and is forced to vanish: through
    degree r the table already equals the abutment.  Entries in that
    range off the pure weight leave the verdict 'unknown'.
    """

    verdict: str
    forced_zero: tuple[tuple[int, int, int, int, int], ...]
    impure_entries: tuple[tuple[int, int, int], ...]

    @property
    def degenerate(self) -> bool:
        return self.verdict == "degenerate"


def degeneration_by_weights(table: LerayTable, r: float = INF) -> DegenerationReport:
    impure = []
    for (p, q), by_weight in sorted(table.entries.items()):
        for w, d in sorted(by_weight.items()):
            if d > 0 and w != 2 * (p + q) and p + q <= r + 1:
                impure.append((p, q, w))
    if impure:
        return DegenerationReport("unknown", (), tuple(impure))
    forced = []
    nonzero = {pq for pq, by_w in table.entries.items() if sum(by_w.values()) > 0}
    max_q = max((q for (_, q) in nonzero), default=0)
    for (p, q) in sorted(nonzero):
        if p + q > r:
            continue
        for d in range(2, max_q + 2):
            target = (p + d, q - d + 1)
            if target[1] >= 0 and target in nonzero:
                forced.append((d, p, q, 2 * (p + q), 2 * (p + q + 1)))
    return DegenerationReport("degenerate", tuple(forced), ())


@dataclass(frozen=True)
class BettiResult:
    """Graded dimensions of the abutment, with the weight bookkeeping."""

    betti: tuple[int, ...]
    poincare: str
    weights: tuple[int, ...]
    hodge_type_note: str


def poincare_string(betti: Sequence[int]) -> str:
    terms = []
    for k, b in enumerate(betti):
        if b == 0:
            continue
        if k == 0:
            terms.append(str(b))
        elif k == 1:
            terms.append("t" if b == 1 else "%dt" % b)
        else:
            terms.append("t^%d" % k if b == 1 else "%dt^%d" % (b, k))
    return " + ".join(terms) if terms else "0"


def betti_and_poincare(table: LerayTable) -> BettiResult:
    """Betti numbers b_k = sum_{p+q=k} dim E2^{p,q}, once degeneration holds.

    Refuses tables whose degeneration is unknown: there the sums are only
    upper bounds.
    """
    report = degeneration_by_weights(table)
    if not report.degenerate:
        raise DegenerationUnknown(
            "table has entries off weight 2(p+q); Betti sums are only upper bounds"
        )
    betti = table.total_degree_dims()
    return BettiResult(
        betti,
        poincare_string(betti),
        tuple(2 * k for k in range(len(betti))),
        "each H^k is pure of weight 2k, necessarily of Hodge type (k, k)",
    )


@dataclass(frozen=True)
class FormalityCertificate:
    """Bundle of evidence: purity report, weight-graded table, degeneration
    through total degree r+1, Betti data when the whole table degenerates,
    and the reasoning chain that this evidence supports."""

    r: float
    purity: PurityReport
    table: LerayTable
    degeneration: DegenerationReport
    betti: BettiResult | None
    reasoning: tuple[str, ...]

    @property
    def formal(self) -> bool:
        """The weight argument certifies the range: purity passed and no
        E2 entry of total degree <= r+1 is off the pure weight."""
        return self.degeneration.degenerate


def _reasoning(r: float, degeneration: DegenerationReport) -> tuple[str, ...]:
    """The steps of the weight argument that the evidence supports."""
    purity = "every stratum in range is pure of weight 2k in degree k"
    if not degeneration.degenerate:
        return (
            purity,
            "E2 entries (p, q, weight) off weight 2(p+q) in range: %s"
            % " ".join("(%d, %d, %d)" % e for e in degeneration.impure_entries),
            "the weight argument cannot force the differentials at these entries to vanish",
        )
    entries = "each E2 entry at (p, q)" if r == INF else "each E2 entry at (p, q) with p+q <= %d" % (r + 1)
    differentials = "every differential" if r == INF else "every differential out of total degree <= %d" % r
    return (
        purity,
        "%s is pure of weight 2(p+q) after the Tate twist" % entries,
        "%s shifts total degree by 1 and hence weight by 2: it vanishes" % differentials,
        "the complement has H^k pure of weight 2k in the certified range",
        "weight-2k purity gives a zero-differential model through degree r",
    )


def formality_certificate(sd: StrataData, r: float):
    """FormalityCertificate when purity passes at level r, else the
    failing PurityReport.  The certificate's `formal` is false when
    entries of total degree <= r+1 off the pure weight leave the weight
    argument undecided."""
    purity = purity_hypothesis_check(sd, r)
    if not purity.passed:
        return purity
    table = assemble_e2(sd)
    degeneration = degeneration_by_weights(table, r)
    try:
        betti = betti_and_poincare(table)
    except DegenerationUnknown:
        betti = None
    return FormalityCertificate(r, purity, table, degeneration, betti, _reasoning(r, degeneration))
