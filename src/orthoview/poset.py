"""Finite posets stored as dense boolean order matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ValidationError(Exception):
    """A structure or input failed validation.

    `code` names the check that failed, `witness` the offending elements,
    so callers and tests can re-verify the failure independently.
    """

    def __init__(self, code, message, witness=()):
        super().__init__(message)
        self.code = code
        self.witness = tuple(witness)


class InternalCheckError(Exception):
    """A self-check failed on data that had already passed validation."""

    def __init__(self, code, message, witness=()):
        super().__init__(message)
        self.code = code
        self.witness = tuple(witness)


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exhaustive check: ok, or a failure code plus witness."""

    ok: bool
    code: str = ""
    witness: tuple = ()

    def __bool__(self):
        return self.ok


OK = Verdict(True)


def _packed(rel):
    """The rows of a boolean matrix as little-endian uint64 words: bit b of
    word k of row i is rel[i, 64 * k + b]. Padding bits are 0."""
    rows, n = rel.shape
    padded = np.zeros((rows, -(-n // 64) * 64), dtype=bool)
    padded[:, :n] = rel
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


def _compose(rel):
    """The boolean product rel @ rel on packed rows: row i ORs the packed
    rows k with rel[i, k], one 64-bit word column at a time."""
    up = _packed(rel)
    out = np.empty_like(up)
    for w in range(up.shape[1]):
        out[:, w] = np.bitwise_or.reduce(np.where(rel, up[:, w], np.uint64(0)), axis=1)
    return np.unpackbits(out.view(np.uint8), axis=1, count=len(rel), bitorder="little").astype(bool)


def _closure(rel):
    """Reflexive-transitive closure by squaring with `_compose` until
    nothing changes: about log2(height) rounds."""
    rel = rel | np.eye(len(rel), dtype=bool)
    while not ((nxt := _compose(rel)) == rel).all():
        rel = nxt
    return rel


def _least_bounds(leq):
    """t[i, j] = the least element above i and j, or -1; the transposed
    order gives greatest lower bounds.

    Elements are relabelled into a linear extension (by down-set size), so
    the least element of U = up(i) & up(j), if there is one, is its lowest
    set bit, and it is least exactly when its own up-set equals U. Up-sets
    are packed into 64-bit words; each pass works on one word of every
    pair at once."""
    n = len(leq)
    perm = np.argsort(leq.sum(axis=0), kind="stable")
    up = _packed(leq[np.ix_(perm, perm)])
    least = np.full((n, n), -1, dtype=np.intp)
    for k in range(up.shape[1]):
        common = up[:, None, k] & up[None, :, k]
        # x & -x is the lowest set bit 2^b, whose frexp exponent is b + 1 (0 for x = 0)
        bit = np.frexp((common & -common).astype(float))[1] - 1
        first = (least < 0) & (bit >= 0)
        least[first] = 64 * k + bit[first]
    found = least >= 0
    cand = np.where(found, least, 0)
    for k in range(up.shape[1]):
        found &= up[cand, k] == up[:, None, k] & up[None, :, k]
    inv = np.argsort(perm)
    table = np.where(found, perm[cand], -1)[np.ix_(inv, inv)]
    table.flags.writeable = False
    return table


class FinitePoset:
    """Immutable finite poset.

    Elements are opaque string identifiers kept in declaration order; all
    operations work on element indices. The order relation is a dense
    read-only boolean matrix with leq[i, j] meaning element i <= element j.
    Joins and meets are partial: operations return None when no least upper
    (greatest lower) bound exists; both come from two tables built on first
    use, never by the constructor (see `tables`). Witnesses are always the
    first hit in index order, which keeps reports reproducible.
    """

    def __init__(self, elements, leq):
        elements = tuple(elements)
        n = len(elements)
        if len(set(elements)) != n:
            seen = set()
            dup = next(e for e in elements if e in seen or seen.add(e))
            raise ValidationError("duplicate-element", f"duplicate element id {dup!r}", (dup,))
        leq = np.array(leq, dtype=bool)
        if leq.shape != (n, n):
            raise ValidationError("bad-shape", f"order matrix must be {n}x{n}, got {leq.shape}")
        if not leq.diagonal().all():
            i = int(np.flatnonzero(~leq.diagonal())[0])
            raise ValidationError("reflexivity", f"{elements[i]!r} not <= itself", (elements[i],))
        both = leq & leq.T
        np.fill_diagonal(both, False)
        if both.any():
            i, j = map(int, np.argwhere(both)[0])
            raise ValidationError(
                "antisymmetry",
                f"cycle: {elements[i]!r} <= {elements[j]!r} <= {elements[i]!r}",
                (elements[i], elements[j]),
            )
        missing = _compose(leq) & ~leq
        if missing.any():
            i, j = map(int, np.argwhere(missing)[0])
            raise ValidationError(
                "transitivity",
                f"missing {elements[i]!r} <= {elements[j]!r}",
                (elements[i], elements[j]),
            )
        leq.flags.writeable = False
        self.elements = elements
        self.leq = leq
        self.n = n
        self._index = {e: i for i, e in enumerate(elements)}
        self._tables = None

    @classmethod
    def from_covers(cls, elements, pairs):
        """Build a poset from cover/comparability pairs, closing transitively.

        Rejects pairs over undeclared elements and relations whose closure
        is not antisymmetric (the error witnesses a cycle).
        """
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        rel = np.eye(n, dtype=bool)
        for lo, hi in pairs:
            for e in (lo, hi):
                if e not in index:
                    raise ValidationError("unknown-element", f"pair mentions undeclared id {e!r}", (e,))
            rel[index[lo], index[hi]] = True
        return cls(elements, _closure(rel))

    def idx(self, element):
        """Index of an element id."""
        try:
            return self._index[element]
        except KeyError:
            raise ValidationError("unknown-element", f"no element {element!r}", (element,)) from None

    def le(self, i, j):
        return bool(self.leq[i, j])

    def tables(self):
        """(join, meet): read-only n x n int arrays of least upper and
        greatest lower bounds, -1 where none exists; built on first use."""
        if self._tables is None:
            self._tables = (_least_bounds(self.leq), _least_bounds(self.leq.T))
        return self._tables

    def join(self, i, j):
        """Least upper bound of i and j, or None if there is none."""
        k = self.tables()[0][i, j]
        return None if k < 0 else int(k)

    def meet(self, i, j):
        """Greatest lower bound of i and j, or None if there is none."""
        k = self.tables()[1][i, j]
        return None if k < 0 else int(k)

    def bounds(self):
        """(least, greatest) global bounds, each None when absent."""
        ends = (np.flatnonzero(self.leq.all(axis=axis)) for axis in (1, 0))
        return tuple(int(e[0]) if e.size else None for e in ends)

    def is_lattice(self):
        """True iff every pair has a join and a meet; witness names a failing pair."""
        join, meet = self.tables()
        missing = np.triu((join < 0) | (meet < 0))
        if not missing.any():
            return OK
        i, j = map(int, np.argwhere(missing)[0])
        code = "no-join" if join[i, j] < 0 else "no-meet"
        return Verdict(False, code, (self.elements[i], self.elements[j]))

    def covers(self):
        """Hasse cover pairs (i, j): i < j with nothing strictly between."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        cover = lt & ~_compose(lt)
        return [(int(i), int(j)) for i, j in np.argwhere(cover)]

    def induced(self, indices):
        """Sub-poset on the given indices (element ids are kept)."""
        indices = list(indices)
        sub = self.leq[np.ix_(indices, indices)]
        return FinitePoset([self.elements[i] for i in indices], sub)

    def heights(self):
        """Longest-chain height of every element, bottom-up."""
        h = np.zeros(self.n, dtype=int)
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        order = sorted(range(self.n), key=lambda i: int(lt[:, i].sum()))
        for i in order:
            below = np.flatnonzero(lt[:, i])
            h[i] = 1 + max((h[b] for b in below), default=-1)
        return h

    def __repr__(self):
        return f"FinitePoset({len(self.elements)} elements)"


def _signatures(p):
    h = p.heights()
    return [(int(p.leq[:, i].sum()), int(p.leq[i].sum()), int(h[i])) for i in range(p.n)]


def find_order_isomorphism(p, q, candidate=None):
    """An order isomorphism p -> q as an element-id map, or None.

    A given candidate map is verified (bijective, order-preserving both
    ways) instead of searched. The search backtracks over assignments,
    pruned by (down-degree, up-degree, height) signatures.
    """
    if p.n != q.n:
        raise ValidationError("size-mismatch", f"|p|={p.n} vs |q|={q.n}")
    if candidate is not None:
        if sorted(candidate.keys()) != sorted(p.elements) or sorted(candidate.values()) != sorted(q.elements):
            return None
        f = [q.idx(candidate[e]) for e in p.elements]
        if not (p.leq == q.leq[np.ix_(f, f)]).all():
            return None
        return dict(candidate)

    sig_p, sig_q = _signatures(p), _signatures(q)
    if sorted(sig_p) != sorted(sig_q):
        return None
    cands = [[j for j in range(q.n) if sig_q[j] == sig_p[i]] for i in range(p.n)]
    order = sorted(range(p.n), key=lambda i: len(cands[i]))
    assign = [-1] * p.n
    used = [False] * q.n

    def extend(k):
        if k == p.n:
            return True
        i = order[k]
        for j in cands[i]:
            if used[j]:
                continue
            ok = True
            for prev in order[:k]:
                if p.leq[i, prev] != q.leq[j, assign[prev]] or p.leq[prev, i] != q.leq[assign[prev], j]:
                    ok = False
                    break
            if ok:
                assign[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                used[j] = False
                assign[i] = -1
        return False

    if not extend(0):
        return None
    return {p.elements[i]: q.elements[assign[i]] for i in range(p.n)}
