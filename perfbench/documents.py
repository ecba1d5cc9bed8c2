"""Model documents written by the benchmark itself, in the orthoview text
format, with a seeded relabelling and single-edit invalid variants.

The relabelling permutes the element order (and the order of covers, ortho
pairs, views and maps) of every document, so a claim made on one seed can
be re-checked on another. The program under test only ever sees the text.
"""

from __future__ import annotations

import numpy as np

from .structures import Structure, canonical_carriers, hasse_covers, upper_projection


def _order(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _structure_body(s, rng, carrier=None, indent="  "):
    """elements/covers/ortho lines of s, or of the sub-structure on carrier,
    in a seeded order."""
    keep = list(range(s.n)) if carrier is None else list(carrier)
    inside = set(keep)
    order = [keep[i] for i in _order(rng, len(keep))]
    els = s.elements
    covers = [(keep[i], keep[j]) for i, j in hasse_covers(s.leq[np.ix_(keep, keep)])]
    covers = [covers[i] for i in _order(rng, len(covers))]
    ortho = [(i, s.ortho[i]) for i in keep if i < s.ortho[i] and s.ortho[i] in inside]
    ortho = [ortho[i] for i in _order(rng, len(ortho))]
    ortho = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in ortho]
    return [
        f"{indent}elements {' '.join(els[i] for i in order)} ;",
        f"{indent}covers {' '.join(f'{els[a]}<{els[b]}' for a, b in covers)} ;",
        f"{indent}ortho {' '.join(f'{els[a]}:{els[b]}' for a, b in ortho)}",
    ]


def orthoposet_text(s, rng, name=None):
    lines = [f"orthoposet {name or s.name} {{"] + _structure_body(s, rng) + ["}"]
    return "\n".join(lines) + "\n"


def canonical_repsys_text(s, rng, name=None):
    """The decomposition system of s written from theory: one orthoposet view
    per boolean subalgebra and, for every ordered pair of distinct views,
    the upper projection as an explicit table. Returns (text, views, pairs)
    where pairs is the total number of view elements (the pre-sum size)."""
    carriers = canonical_carriers(s)
    views = [carriers[i] for i in _order(rng, len(carriers))]
    names = [f"V{k}" for k in range(len(views))]
    chunks = []
    for vname, carrier in zip(names, views):
        body = "\n".join(_structure_body(s, rng, carrier, indent="    "))
        chunks.append(f"  view {vname} = orthoposet {{\n{body}\n  }}")
    maps = [(i, j) for i in range(len(views)) for j in range(len(views)) if i != j]
    for m in _order(rng, len(maps)):
        i, j = maps[m]
        src = [views[j][k] for k in _order(rng, len(views[j]))]
        entries = [f"    {s.elements[x]}->{s.elements[upper_projection(s, views[i], x)]}" for x in src]
        chunks.append(f"  map {names[i]}<{names[j]} {{\n" + " ;\n".join(entries) + "\n  }")
    text = f"repsys {name or s.name + '_rs'} {{\n" + " ;\n".join(chunks) + "\n}\n"
    return text, len(views), sum(len(c) for c in views)


# -- single-edit invalid variants ------------------------------------------------
#
# Each applies one edit to a valid document whose failure is known in
# advance, and returns (text, exit code, failure code).


def with_cover_cycle(text, s):
    """Add the reverse of a cover a<b, making a cycle a<b<a."""
    a, b = s.covers()[0]
    edge = f"{s.elements[b]}<{s.elements[a]}"
    return text.replace("  covers ", f"  covers {edge} ", 1), 1, "antisymmetry"


def without_complement(text, s):
    """Drop the ortho pair of element 1 (never a bound)."""
    pair = {s.elements[1], s.elements[s.ortho[1]]}
    lines = text.split("\n")
    k = next(k for k, ln in enumerate(lines) if ln.startswith("  ortho "))
    tokens = lines[k].split()
    tokens = [t for t in tokens if set(t.split(":")) != pair]
    lines[k] = "  " + " ".join(tokens)
    return "\n".join(lines), 1, "ortho-incomplete"


def with_non_antitone_ortho(s, rng):
    """2^k (k >= 3) with the complements of two atoms crossed: a <-> b' and
    b <-> a'. The map stays an involution, but {a, c} <= ... breaks
    antitonicity, so validation fails on that law before the complement law."""
    if s.family != "boolean" or s.param < 3:
        raise ValueError("needs 2^k with k >= 3")
    a, b = 1, 2
    ortho = list(s.ortho)
    full = s.n - 1
    ortho[a], ortho[full ^ b] = full ^ b, a
    ortho[b], ortho[full ^ a] = full ^ a, b
    crossed = Structure(s.name + "_crossed", s.family, s.param, s.elements, s.leq, tuple(ortho))
    return orthoposet_text(crossed, rng), 1, "not-antitone"


def with_rewired_map(text, top, bottom):
    """In the first map whose source has more than two elements, send the
    source top to the target bottom. Every other nonzero source element
    then maps above the top's image, so the monotony law fails, and
    monotony is checked before composition."""
    lines = text.split("\n")
    k = 0
    while True:
        head = next(i for i in range(k, len(lines)) if lines[i].startswith("  map "))
        end = next(i for i in range(head + 1, len(lines)) if lines[i].startswith("  }"))
        if end - head - 1 > 2:
            break
        k = end
    entry = next(i for i in range(head + 1, end) if lines[i].strip().startswith(f"{top}->"))
    suffix = " ;" if lines[entry].endswith(" ;") else ""
    lines[entry] = f"    {top}->{bottom}{suffix}"
    return "\n".join(lines), 1, "monotony"


def with_syntax_error(text):
    """Remove the final closing brace."""
    return text.rstrip().rstrip("}") + "\n", 2, "parse-error"
