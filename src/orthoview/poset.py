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
    """The rows of a boolean matrix, or of each matrix of a stack, as
    little-endian uint64 words: bit b of word k of row i is
    rel[..., i, 64 * k + b]. Padding bits are 0."""
    n = rel.shape[-1]
    padded = np.zeros(rel.shape[:-1] + (-(-n // 64) * 64,), dtype=bool)
    padded[..., :n] = rel
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")


def _each(a):
    """The fancy index that picks each matrix of a stack, shaped (m, 1, 1) to
    broadcast against index arrays over the two trailing axes; () for a
    single matrix, so that a[(*_each(a), i, j)] is a[i, j] per matrix."""
    return () if a.ndim == 2 else (np.arange(len(a))[:, None, None],)


def _rows(a, idx):
    """a[..., idx[..., i], :] at [..., i, :]: the rows of a matrix, or of
    each matrix of a stack, taken in the order of its own index array."""
    return a[idx] if idx.ndim == 1 else a[np.arange(len(a))[:, None], idx]


def _relabel(a, perm):
    """a[..., perm[i], perm[j]] at [..., i, j]: rows and columns of each
    matrix taken in the order of its own index array perm[..., :]."""
    return a[(*_each(a), perm[..., :, None], perm[..., None, :])]


def _compose(rel):
    """The boolean product rel @ rel of a matrix, or of each matrix of a
    stack, on packed rows: row i ORs the packed rows k with rel[..., i, k],
    one 64-bit word column at a time."""
    up = _packed(rel)
    out = np.empty_like(up)
    for w in range(up.shape[-1]):
        out[..., w] = np.bitwise_or.reduce(np.where(rel, up[..., None, :, w], np.uint64(0)), axis=-1)
    return np.unpackbits(out.view(np.uint8), axis=-1, count=rel.shape[-1], bitorder="little").astype(bool)


def _closure(rel):
    """Reflexive-transitive closure of a relation, or of each relation of a
    stack, by squaring with `_compose` until nothing changes: about
    log2(height) rounds."""
    rel = rel | np.eye(rel.shape[-1], dtype=bool)
    while not ((nxt := _compose(rel)) == rel).all():
        rel = nxt
    return rel


def _least_bounds(leq):
    """t[..., i, j] = the least element above i and j, or -1, for an order
    matrix or each matrix of a stack; the transposed order gives greatest
    lower bounds.

    Elements are relabelled into a linear extension (by down-set size), so
    the least element of U = up(i) & up(j), if there is one, is its lowest
    set bit, and it is least exactly when its own up-set equals U. Up-sets
    are packed into 64-bit words; each pass works on one word of every
    pair of every matrix at once."""
    n = leq.shape[-1]
    each = _each(leq)
    perm = np.argsort(leq.sum(axis=-2), axis=-1, kind="stable")
    up = _packed(_relabel(leq, perm))
    least = np.full(leq.shape, -1, dtype=np.intp)
    for k in range(up.shape[-1]):
        common = up[..., :, None, k] & up[..., None, :, k]
        # x & -x is the lowest set bit 2^b, whose frexp exponent is b + 1 (0 for x = 0)
        bit = np.frexp((common & -common).astype(float))[1] - 1
        first = (least < 0) & (bit >= 0)
        least[first] = 64 * k + bit[first]
    found = least >= 0
    cand = np.where(found, least, 0)
    for k in range(up.shape[-1]):
        found &= up[(*each, cand, k)] == up[..., :, None, k] & up[..., None, :, k]
    table = _relabel(np.where(found, perm[(*each, cand)], -1), np.argsort(perm, axis=-1))
    table.flags.writeable = False
    return table


def _bound_tables(leq, dual=None):
    """(join, meet): the least- and greatest-bound tables of an order matrix
    or each matrix of a stack, -1 where none exists. The joins take one
    `_least_bounds` call. Given dual, an order-reversing involution of each
    matrix, the meets are read off the joins as x ^ y = (x' v y')', -1
    kept; without it they take a second call, on the reversed order."""
    join = _least_bounds(leq)
    if dual is None:
        return join, _least_bounds(np.swapaxes(leq, -1, -2))
    t = _relabel(join, dual)
    meet = np.where(t < 0, -1, dual[(*_each(t), t)])
    meet.flags.writeable = False
    return join, meet


def _pair_indices(index, pairs):
    """The indices under index of the ids of pairs, flat: lo, hi, lo, hi,
    ...; an id index lacks raises unknown-element, the first in pair order,
    lo before hi."""
    try:
        return [index[e] for pair in pairs for e in pair]
    except KeyError as e:
        raise ValidationError("unknown-element", f"pair mentions undeclared id {e.args[0]!r}", e.args) from None


def _repeats(elements, leq):
    """True at each id listed earlier in its own tuple: elements is the
    tuple of the order matrix leq, or one tuple per matrix of a stack. Just
    False when no tuple repeats an id."""
    tuples = [elements] if leq.ndim == 2 else elements
    if all(len(set(ids)) == len(ids) for ids in tuples):
        return np.False_
    mask = np.zeros(leq.shape[:-1], dtype=bool)
    for ids, row in zip(tuples, np.atleast_2d(mask)):
        seen = set()
        row[:] = [e in seen or seen.add(e) for e in ids]
    return mask


# The laws of `FinitePoset`, in the order they are checked: (code, message
# on the witness ids, faults), where faults(elements, leq) masks the law's
# failures in an order matrix, or in each matrix of a stack, over element
# positions.
_ORDER_LAWS = (
    ("duplicate-element", "duplicate element id {0!r}", _repeats),
    ("reflexivity", "{0!r} not <= itself", lambda els, leq: ~leq.diagonal(axis1=-2, axis2=-1)),
    (
        "antisymmetry",
        "cycle: {0!r} <= {1!r} <= {0!r}",
        lambda els, leq: leq & leq.swapaxes(-1, -2) & ~np.eye(leq.shape[-1], dtype=bool),
    ),
    ("transitivity", "missing {0!r} <= {1!r}", lambda els, leq: _compose(leq) & ~leq),
)
# The laws left to check on an order `_closure` made: it is reflexive and
# transitive by construction.
_CLOSED_ORDER_LAWS = (_ORDER_LAWS[0], _ORDER_LAWS[2])


def _check_laws(laws, elements, leq, *more):
    """Raise the first law of laws that a structure breaks, as a
    ValidationError whose witness is the law's first failure in index order.

    The structure is an order matrix leq on the tuple elements (with the
    arrays more, such as a complement map), or a stack of m of them: leq
    of shape (m, n, n), one tuple of elements and one row of each of more
    per matrix. A stack is decided law by law over all its matrices,
    stopping at the first law some matrix fails; only then are its
    structures checked one by one, so the first that fails raises its first
    law."""
    items = [(elements, leq, *more)]
    if leq.ndim == 3:
        if not any(faults(elements, leq, *more).any() for _, _, faults in laws):
            return
        items = zip(elements, leq, *more)
    for item in items:
        for code, message, faults in laws:
            bad = faults(*item)
            if bad.any():
                witness = tuple(item[0][int(i)] for i in np.argwhere(bad)[0])
                raise ValidationError(code, message.format(*witness), witness)


class FinitePoset:
    """Immutable finite poset.

    Elements are opaque string identifiers kept in declaration order; all
    operations work on element indices. The order relation is a dense
    read-only boolean matrix with leq[i, j] meaning element i <= element j.
    Joins and meets are partial: operations return None when no least upper
    (greatest lower) bound exists; both come from two tables built on first
    use, or for many posets at once by `stack_tables`, never by the
    constructor (see `tables`). Witnesses are always the
    first hit in index order, which keeps reports reproducible. Element
    indices outside 0..n-1 raise unknown-element.

    `_dual` is None, or an order-reversing involution of the elements as an
    intp array, set only by the orthoposet constructors once their laws
    hold; the meet table is then read off the join table (`_bound_tables`).
    """

    def __init__(self, elements, leq):
        elements = tuple(elements)
        n = len(elements)
        leq = np.array(leq, dtype=bool)
        if leq.shape != (n, n):
            raise ValidationError("bad-shape", f"order matrix must be {n}x{n}, got {leq.shape}")
        _check_laws(_ORDER_LAWS, elements, leq)
        self._adopt(elements, leq)

    @classmethod
    def _validated(cls, elements, leq):
        """The poset on `elements` ordered by leq, an order matrix that has
        already passed every law `__init__` checks (a slice of a stack
        `poset_stack` checked). Nothing is checked again."""
        p = cls.__new__(cls)
        p._adopt(tuple(elements), leq)
        return p

    def _adopt(self, elements, leq):
        leq.flags.writeable = False
        self.elements = elements
        self.leq = leq
        self.n = len(elements)
        self._index = {e: i for i, e in enumerate(elements)}
        self._tables = None
        self._dual = None

    @classmethod
    def from_covers(cls, elements, pairs):
        """Build a poset from cover/comparability pairs, closing transitively.

        Rejects pairs over undeclared elements and relations whose closure
        is not antisymmetric (the error witnesses a cycle).
        """
        elements = tuple(elements)
        rel = np.eye(len(elements), dtype=bool)
        ends = _pair_indices({e: i for i, e in enumerate(elements)}, pairs)
        rel[ends[::2], ends[1::2]] = True
        return _closed_stack([elements], rel[None])[0]

    def idx(self, element):
        """Index of an element id."""
        try:
            return self._index[element]
        except KeyError:
            raise ValidationError("unknown-element", f"no element {element!r}", (element,)) from None

    def _check_index(self, *indices):
        """Raise unknown-element for the first index outside 0..n-1."""
        for i in indices:
            if not 0 <= i < self.n:
                raise ValidationError("unknown-element", f"no element at index {i}", (i,))

    def le(self, i, j):
        self._check_index(i, j)
        return bool(self.leq[i, j])

    def tables(self):
        """(join, meet): read-only n x n int arrays of least upper and
        greatest lower bounds, -1 where none exists; built on first use
        unless `stack_tables` built them."""
        if self._tables is None:
            self._tables = _bound_tables(self.leq, self._dual)
        return self._tables

    def join(self, i, j):
        """Least upper bound of i and j, or None if there is none."""
        self._check_index(i, j)
        k = self.tables()[0][i, j]
        return None if k < 0 else int(k)

    def meet(self, i, j):
        """Greatest lower bound of i and j, or None if there is none."""
        self._check_index(i, j)
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


def poset_stack(elements, leq):
    """The posets on m views of one size n, from their element tuples and
    the (m, n, n) stack of their orders, checked against `_ORDER_LAWS`.
    The stack is made read-only; each poset keeps its slice."""
    _check_laws(_ORDER_LAWS, elements, leq)
    return _sliced(elements, leq)


def _closed_stack(elements, rel):
    """`poset_stack` on the closures (`_closure`) of an (m, n, n) stack of
    relations, checked against `_CLOSED_ORDER_LAWS` only."""
    leq = _closure(rel)
    _check_laws(_CLOSED_ORDER_LAWS, elements, leq)
    return _sliced(elements, leq)


def _sliced(elements, leq):
    leq.flags.writeable = False
    return [FinitePoset._validated(e, m) for e, m in zip(elements, leq)]


def stack_tables(posets):
    """The join and meet tables of posets of one size as two (m, n, n)
    stacks, by one `_bound_tables` call: the meets are read off the joins
    when every poset has a `_dual`; a poset whose tables are not built yet
    takes its slices as its `tables()`."""
    leq = np.stack([p.leq for p in posets])
    duals = [p._dual for p in posets]
    join, meet = _bound_tables(leq, None if any(d is None for d in duals) else np.stack(duals))
    for p, jn, mt in zip(posets, join, meet):
        if p._tables is None:
            p._tables = jn, mt
    return join, meet


def size_groups(sizes):
    """{n: the positions k with sizes[k] == n, ascending}, keyed in order of
    first appearance: the stacks of a family of structures."""
    groups = {}
    for k, n in enumerate(sizes):
        groups.setdefault(n, []).append(k)
    return groups


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
