"""
Classifying orthocomplemented posets
====================================

Walk the builtin zoo and classify every model: boolean algebra,
ortholattice, orthomodular poset, orthomodular lattice. Witnesses
pinpoint each failed law.
"""

from orthoview import build_orthoposet, classify, zoo

for model in zoo().values():
    if model.kind != "orthoposet":
        continue
    o = build_orthoposet(model.doc)
    sc = classify(o)
    print(f"\n{model.name}  ({o.n} elements)  -- {model.note}")
    for label, verdict in (
        ("boolean algebra     ", sc.boolean),
        ("ortholattice        ", sc.ortholattice),
        ("orthomodular poset  ", sc.omp),
        ("orthomodular lattice", sc.oml),
    ):
        if verdict.ok:
            print(f"  {label}  yes")
        else:
            print(f"  {label}  no   ({verdict.code} at {', '.join(verdict.witness)})")

# The hexagon fails the orthomodular law at a <= b: a v (b ^ a') stays a.
o6 = build_orthoposet(zoo()["hexagon_O6"].doc)
a, b = o6.idx("a"), o6.idx("b")
recombined = o6.poset.join(a, o6.poset.meet(b, o6.ortho[a]))
print("\nhexagon: a v (b ^ a') =", o6.elements[recombined], " but b =", o6.elements[b])
