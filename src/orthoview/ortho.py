"""Orthocomplemented posets and their classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poset import OK, InternalCheckError, ValidationError, Verdict, _as_index, _check_laws, _each, _rows, size_groups, stack_tables


def _complement_faults(leq, ortho):
    """x and x' with a common lower bound other than 0 or a common upper
    bound other than 1, per matrix: 0 and 1 are the only common bounds
    exactly when x and x' have one common lower and one common upper."""
    geq = np.swapaxes(leq, -1, -2)
    lower = (geq & _rows(geq, ortho)).sum(axis=-1)
    upper = (leq & _rows(leq, ortho)).sum(axis=-1)
    return (lower != 1) | (upper != 1)


# The laws of `OrthoPoset` on a complement map that covers every element,
# in the order they are checked, as in `poset._ORDER_LAWS`: faults(elements,
# leq, ortho) masks a law's failures for an order matrix and complement map,
# or for each of a stack.
_ORTHO_LAWS = (
    (
        "not-bounded",
        "no least/greatest element",
        lambda els, leq, ortho: ~(leq.all(axis=-1).any(axis=-1) & leq.all(axis=-2).any(axis=-1)),
    ),
    ("not-involutive", "({0!r}')' != {0!r}", lambda els, leq, ortho: _rows(ortho, ortho) != np.arange(ortho.shape[-1])),
    (
        "not-antitone",
        "{0!r} <= {1!r} but complements are not reversed",
        # y' <= x' at [x, y]: the rows, then the columns, taken at the complements
        lambda els, leq, ortho: leq & ~_rows(_rows(leq, ortho).swapaxes(-1, -2), ortho),
    ),
    (
        "complement-law",
        "{0!r} and its complement do not meet at 0 / join at 1",
        lambda els, leq, ortho: _complement_faults(leq, ortho),
    ),
)


def _bounds(leq):
    """The positions of the least and the greatest element of a bounded
    order matrix, or of each matrix of a stack."""
    return leq.all(axis=-1).argmax(axis=-1), leq.all(axis=-2).argmax(axis=-1)


class OrthoPoset:
    """Bounded poset with an orthocomplementation x -> x'.

    Validation is exhaustive: the map must be involutive and antitone, the
    poset bounded, and every x must satisfy meet(x, x') = 0 and
    join(x, x') = 1 (both existing), i.e. 0 and 1 are the only common lower
    and upper bounds of x and x'. The first failure in index order is
    reported.
    """

    def __init__(self, poset, ortho):
        ortho = tuple(map(_as_index, ortho))
        n = poset.n
        if len(ortho) != n or any(not 0 <= i < n for i in ortho):
            raise ValidationError("bad-ortho", "orthocomplement map must cover every element")
        dual = np.array(ortho, dtype=np.intp)
        _check_laws(_ORTHO_LAWS, poset.elements, poset.leq, dual)
        poset._dual = dual
        self._adopt(poset, ortho, *map(int, _bounds(poset.leq)))

    @classmethod
    def _validated(cls, poset, ortho, least, greatest):
        """The orthoposet on poset with the complement map ortho (a tuple
        of ints) and the given bounds, which have already passed every law
        `__init__` checks (a row of a stack `ortho_stack` checked). Nothing
        is checked again, so the poset's `_dual` is left to the caller that
        checked the laws."""
        o = cls.__new__(cls)
        o._adopt(poset, ortho, least, greatest)
        return o

    def _adopt(self, poset, ortho, least, greatest):
        self.poset = poset
        self.ortho = ortho
        self.least = least
        self.greatest = greatest
        self._cache = {}

    @property
    def elements(self):
        return self.poset.elements

    @property
    def n(self):
        return self.poset.n

    def idx(self, element):
        return self.poset.idx(element)

    def __repr__(self):
        return f"OrthoPoset({self.n} elements)"


def ortho_stack(posets, ortho):
    """The orthoposets on posets of one size n (as from `poset_stack`) with
    the rows of ortho, an (m, n) stack of complement maps, checked against
    `_ORTHO_LAWS`."""
    leq = np.stack([p.leq for p in posets])
    _check_laws(_ORTHO_LAWS, [p.elements for p in posets], leq, ortho)
    for p, dual in zip(posets, ortho.astype(np.intp)):
        p._dual = dual
    bounds = zip(*(b.tolist() for b in _bounds(leq)))
    return [OrthoPoset._validated(p, tuple(row), *b) for p, row, b in zip(posets, ortho.tolist(), bounds)]


def _cached(o, key, compute):
    if key not in o._cache:
        o._cache[key] = compute()
    return o._cache[key]


def is_lattice(o):
    return _cached(o, "lattice", o.poset.is_lattice)


def _foulis_holland(join, meet, ortho):
    """x = (x ^ y) v (x ^ y') for all x, y, per matrix of total tables (a
    bool, or one per matrix of a stack): one n x n gather each."""
    opposite = np.swapaxes(_rows(np.swapaxes(meet, -1, -2), ortho), -1, -2)  # x ^ y'
    return (join[(*_each(join), meet, opposite)] == np.arange(join.shape[-1])[:, None]).all(axis=(-2, -1))


def distributivity_failure(join, meet, ortho=None):
    """First triple (x, y, z) in index order breaking x ^ (y v z) =
    (x ^ y) v (x ^ z) in total join/meet tables, or None; one n x n gather
    per x, never an n^3 array. With the ortho of an ortholattice, one n x n
    gather decides first (see `is_boolean_algebra`)."""
    if ortho is not None and _foulis_holland(join, meet, np.asarray(ortho)):
        return None
    for x in range(len(join)):
        mx = meet[x]
        bad = mx[join] != join[np.ix_(mx, mx)]
        if bad.any():
            y, z = map(int, np.argwhere(bad)[0])
            return x, y, z
    return None


def _distributive_lattice(p, ortho=None):
    """A lattice whose tables pass `distributivity_failure`."""
    lat = p.is_lattice()
    if not lat:
        return Verdict(False, "not-lattice", lat.witness)
    bad = distributivity_failure(*p.tables(), ortho)
    if bad is not None:
        return Verdict(False, "not-distributive", tuple(p.elements[i] for i in bad))
    return OK


def is_boolean_algebra(o):
    """Lattice + distributive, with the orthocomplement as complement.

    An ortholattice is boolean iff x = (x ^ y) v (x ^ y') for all x, y: on
    comparable pairs that is the orthomodular law, and an orthomodular
    lattice whose elements all commute is boolean (Foulis-Holland; Kalmbach,
    *Orthomodular Lattices*, 1983). That one n x n gather decides; the n^3
    scan runs only to name the first failing triple."""
    return _cached(o, "boolean", lambda: _distributive_lattice(o.poset, o.ortho))


def stack_boolean(orthos):
    """Decide `is_boolean_algebra` for many orthoposets, those of one size
    as one stack: `stack_tables` builds (and caches) their join and meet
    tables, then each view that is a lattice and passes the Foulis-Holland
    gather caches OK as its verdict. The others keep no verdict, so that
    `is_boolean_algebra` decides and names their failure on its own."""
    todo = [o for o in orthos if "boolean" not in o._cache]
    for ks in size_groups([o.n for o in todo]).values():
        group = [todo[k] for k in ks]
        join, meet = stack_tables([o.poset for o in group])
        ortho = np.array([o.ortho for o in group], dtype=np.intp)
        total = ((join >= 0) & (meet >= 0)).all(axis=(-2, -1))
        for o, ok in zip(group, total & _foulis_holland(join, meet, ortho)):
            if ok:
                o._cache["boolean"] = OK


def is_orthomodular_poset(o):
    """Orthogonal joins must exist and x <= y must force y = x v (y ^ x').

    Existence is checked before the law: a missing join/meet is reported
    under its own code, never silently conflated with a law violation.
    """

    def compute():
        els = o.elements
        join, meet = o.poset.tables()
        leq = o.poset.leq
        missing = leq[:, o.ortho] & (join < 0)
        if missing.any():
            x, y = map(int, np.argwhere(missing)[0])
            return Verdict(False, "orthogonal-join-missing", (els[x], els[y]))
        m = meet[o.ortho, :]  # m[x, y] = y ^ x'
        j = np.take_along_axis(join, np.maximum(m, 0), axis=1)  # x v m[x, y] where m exists
        failed = leq & ~np.eye(o.n, dtype=bool) & ((m < 0) | (j != np.arange(o.n)))
        if not failed.any():
            return OK
        x, y = map(int, np.argwhere(failed)[0])
        code = "law-meet-missing" if m[x, y] < 0 else "law-join-missing" if j[x, y] < 0 else "law-violation"
        return Verdict(False, code, (els[x], els[y]))

    return _cached(o, "omp", compute)


def is_orthomodular_lattice(o):
    omp = is_orthomodular_poset(o)
    if not omp:
        return omp
    return is_lattice(o)


@dataclass(frozen=True)
class StructureClass:
    """Classification flags with the verdicts (and witnesses) behind them."""

    boolean: Verdict
    ortholattice: Verdict
    omp: Verdict
    oml: Verdict

    @property
    def is_boolean(self):
        return self.boolean.ok

    @property
    def is_ortholattice(self):
        return self.ortholattice.ok

    @property
    def is_omp(self):
        return self.omp.ok

    @property
    def is_oml(self):
        return self.oml.ok

    def flags(self):
        return {
            "is_boolean": self.is_boolean,
            "is_ortholattice": self.is_ortholattice,
            "is_omp": self.is_omp,
            "is_oml": self.is_oml,
        }


def classify(o):
    """All four structure flags; booleans imply OMLs imply OMPs by construction."""
    sc = StructureClass(
        boolean=is_boolean_algebra(o),
        ortholattice=is_lattice(o),
        omp=is_orthomodular_poset(o),
        oml=is_orthomodular_lattice(o),
    )
    if (sc.is_boolean and not sc.is_oml) or (sc.is_oml and not (sc.is_omp and sc.is_ortholattice)):
        raise InternalCheckError("classify-implication", f"flags break boolean => OML => lattice OMP: {sc.flags()}")
    return sc


def sasaki_projection(o, x, y):
    """(x v y') ^ y, total on orthomodular lattices only. An index outside
    0..n-1 raises unknown-element first."""
    o.poset._check_index(x, y)
    oml = is_orthomodular_lattice(o)
    if not oml:
        raise ValidationError("not-oml", f"sasaki projection needs an orthomodular lattice: {oml.code}", oml.witness)
    return o.poset.meet(o.poset.join(x, o.ortho[y]), y)


def derive_boolean_ortho(p):
    """The complement map a boolean-shaped bare poset determines, or a
    failure Verdict. In a distributive complemented lattice complements are
    unique, so no choice is involved."""
    least, greatest = p.bounds()
    if least is None or greatest is None:
        return Verdict(False, "not-bounded", ())
    boolean = _distributive_lattice(p)
    if not boolean:
        return boolean
    join, meet = p.tables()
    complement = (meet == least) & (join == greatest)
    found = complement.any(axis=1)
    if not found.all():
        return Verdict(False, "not-complemented", (p.elements[int(np.argmin(found))],))
    return complement.argmax(axis=1).tolist()
