"""Collection to normal form, group arithmetic, and consistency audits.

Builds the extraspecial exponent-3 group of order 27, collects a few free
words, and runs the exhaustive audit, which proves the full table
associative from its generator columns (Light's test); a larger group is
proved consistent by the overlap test instead.
"""

from pgroups import catalog, collect, enumerate_elements

H3 = catalog.heisenberg(3)
print(f"group: {H3.name}, order {H3.order}, pc generators a, b, c with [b,a] = c")

# words are 1-based (generator, exponent) pairs
word = [(2, 1), (1, 1)]  # b * a
print("collect(b a) ->", collect(H3, word).exps, " (a b c: the commutator appears)")
print("collect(a^3) ->", collect(H3, [(1, 3)]).exps)

a, b, c = H3.gens
print("[b, a] =", b.comm(a).exps)
print("a^b    =", a.conj(b).exps, " (conjugation h^g = g^-1 h g)")
print("(ab)^-1 =", (a * b).inverse().exps)

x = H3.element((2, 1, 2))
print("order of", x.exps, "is", x.order())

print("\nconsistency audit:", H3.audit())
print("element count:", len(enumerate_elements(H3)))

D = catalog.parse_group_spec("d:3,3")
print(f"\nrank-3 class-2 exponent-3 group: order {D.order}")
print("audit (overlap proof above 3^5):", D.audit())
