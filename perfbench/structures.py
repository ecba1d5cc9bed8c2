"""Finite orthoposets whose answers theory predicts, built from order rules.

Every structure here is made directly from its definition (inclusion of
bitmasks, explicit chains, Greechie pastings), never through orthoview, so
the predictions below are independent of the program under test:

* 2^k: a boolean algebra; its boolean subalgebras are the set partitions of
  the k atoms, Bell(k) of them, one of size 2^m per partition into m blocks.
* MO-k (k >= 2): an orthomodular lattice, not boolean; its subalgebras are
  {0,1} and the k blocks {0,x,x',1}.
* double chain of height h >= 2: an ortholattice that is not orthomodular
  (h = 2 is the hexagon O6); subalgebras {0,1} and {0,c,c',1} per c.
* Greechie cycle of k three-atom blocks: by the loop lemma (Greechie 1971;
  McKay, Megill and Pavicic 2000) a loop of order 3 leaves no OMP, order 4
  gives an OMP that is not a lattice, and order >= 5 an OML. For k >= 4 the
  subalgebras are {0,1}, one {0,a,a',1} per atom and the k blocks: 3k+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Structure:
    """A bounded orthoposet as element ids, an order matrix and a complement
    map, plus the theory facts used to predict the program's answers."""

    name: str
    family: str
    param: int
    elements: tuple
    leq: np.ndarray
    ortho: tuple

    @property
    def n(self):
        return len(self.elements)

    def covers(self):
        return hasse_covers(self.leq)


def hasse_covers(leq):
    """Cover pairs (i, j) of an order matrix: i < j, nothing in between."""
    lt = leq & ~np.eye(len(leq), dtype=bool)
    between = (lt.astype(np.int32) @ lt.astype(np.int32)) > 0
    return [(int(i), int(j)) for i, j in np.argwhere(lt & ~between)]


def boolean_algebra(k):
    """2^k as subsets of k atoms: order is inclusion, ortho is complement."""
    n = 1 << k
    masks = np.arange(n)
    leq = (masks[:, None] | masks[None, :]) == masks[None, :]
    elements = tuple(f"s{m:0{k}b}" for m in range(n))
    return Structure(f"boolean_{k}", "boolean", k, elements, leq, tuple((n - 1) ^ m for m in range(n)))


def mo(k):
    """0 and 1 plus k incomparable complement pairs x_i, x_i'."""
    elements = ("0",) + tuple(e for i in range(k) for e in (f"x{i}", f"x{i}'")) + ("1",)
    n = len(elements)
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, n - 1] = True
    ortho = (n - 1,) + tuple(((i - 1) ^ 1) + 1 for i in range(1, n - 1)) + (0,)
    return Structure(f"MO{k}", "mo", k, elements, leq, ortho)


def double_chain(h):
    """0 < c1 < ... < ch < 1 beside the reversed chain of complements."""
    elements = ("0",) + tuple(f"c{i}" for i in range(1, h + 1)) + tuple(f"c{i}'" for i in range(1, h + 1)) + ("1",)
    n = len(elements)
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, n - 1] = True
    for i in range(1, h + 1):
        for j in range(i, h + 1):
            leq[i, j] = True
            leq[h + j, h + i] = True
    ortho = (n - 1,) + tuple(h + i for i in range(1, h + 1)) + tuple(range(1, h + 1)) + (0,)
    return Structure(f"double_chain_{h}", "double_chain", h, elements, leq, ortho)


def greechie_cycle(k):
    """k three-atom blocks {a_i, b_i, a_(i+1 mod k)} pasted in a cycle:
    0 < atoms < coatoms < 1, atom x under coatom y' iff x, y share a block."""
    blocks = [(f"a{i}", f"b{i}", f"a{(i + 1) % k}") for i in range(k)]
    atoms = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]
    m = len(atoms)
    elements = ("0",) + tuple(atoms) + tuple(a + "'" for a in atoms) + ("1",)
    n = len(elements)
    pos = {a: 1 + i for i, a in enumerate(atoms)}
    leq = np.eye(n, dtype=bool)
    leq[0, :] = True
    leq[:, n - 1] = True
    for block in blocks:
        for x in block:
            for y in block:
                if x != y:
                    leq[pos[x], m + pos[y]] = True
    ortho = (n - 1,) + tuple(m + i for i in range(1, m + 1)) + tuple(range(1, m + 1)) + (0,)
    return Structure(f"greechie_cycle_{k}", "greechie_cycle", k, elements, leq, ortho)


# -- predictions ---------------------------------------------------------------

_CHECKS = ("boolean_algebra", "ortholattice", "orthomodular_poset", "orthomodular_lattice")


def predicted_classes(s):
    """check -> (verdict, failure code or None when theory leaves the code
    to the element order) for the four `classify` records."""
    if s.family == "boolean":
        flags = (True, True, True, True)
    elif s.family == "mo" and s.param >= 2:
        flags = (False, True, True, True)
    elif s.family == "double_chain" and s.param >= 2:
        flags = (False, True, False, False)
    elif s.family == "greechie_cycle" and s.param >= 5:
        flags = (False, True, True, True)
    else:
        raise ValueError(f"no classification predicted for {s.name}")
    codes = {
        "boolean_algebra": "not-distributive",
        "ortholattice": None,
        "orthomodular_poset": "law-violation",
        "orthomodular_lattice": "law-violation",
    }
    return {c: (ok, "" if ok else codes[c]) for c, ok in zip(_CHECKS, flags)}


def bell(k):
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def predicted_subalgebra_sizes(s):
    """Sorted sizes of all boolean subalgebras, from theory."""
    if s.family == "boolean":
        sizes = [1 << len(p) for p in set_partitions(s.param)]
        if len(sizes) != bell(s.param):
            raise ValueError(f"set partitions of {s.param} atoms miscounted")
    elif s.family in ("mo", "double_chain") and s.param >= 2:
        sizes = [2] + [4] * s.param
    elif s.family == "greechie_cycle" and s.param >= 4:
        sizes = [2] + [4] * (2 * s.param) + [8] * s.param
    else:
        raise ValueError(f"no subalgebras predicted for {s.name}")
    return sorted(sizes)


def set_partitions(k):
    """All partitions of range(k) into nonempty blocks, as lists of lists."""
    if k == 0:
        return [[]]
    out = []
    for p in set_partitions(k - 1):
        for b in range(len(p)):
            out.append(p[:b] + [p[b] + [k - 1]] + p[b + 1:])
        out.append(p + [[k - 1]])
    return out


def canonical_carriers(s):
    """Host index carriers of every boolean subalgebra, from theory."""
    if s.family == "boolean":
        carriers = []
        for p in set_partitions(s.param):
            masks = [sum(1 << a for a in block) for block in p]
            carriers.append(sorted(
                sum(m for m, keep in zip(masks, pick) if keep)
                for pick in _subsets(len(masks))
            ))
        return carriers
    if s.family == "greechie_cycle" and s.param >= 4:
        k = s.param
        idx = {e: i for i, e in enumerate(s.elements)}
        bottom, top = 0, s.n - 1
        carriers = [[bottom, top]]
        atoms = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]
        carriers += [sorted([bottom, top, idx[a], idx[a + "'"]]) for a in atoms]
        for i in range(k):
            block = (f"a{i}", f"b{i}", f"a{(i + 1) % k}")
            carriers.append(sorted([bottom, top] + [idx[a] for a in block] + [idx[a + "'"] for a in block]))
        return carriers
    raise ValueError(f"no canonical system for {s.name}")


def _subsets(m):
    return [tuple((mask >> i) & 1 for i in range(m)) for mask in range(1 << m)]


def upper_projection(s, carrier, x):
    """The least carrier element above host element x, by direct scan of the
    order matrix; raises if there is none (the carrier is not a subalgebra)."""
    above = [u for u in carrier if s.leq[x, u]]
    least = [u for u in above if all(s.leq[u, v] for v in above)]
    if len(least) != 1:
        raise ValueError(f"{s.name}: no upper projection of {s.elements[x]} into {carrier}")
    return least[0]
