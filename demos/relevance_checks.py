"""Exact-rational relevance facts behind the conditional and disjunction:
grid searches that would surface any counterexample as a fraction table.

Run:  python3 demos/relevance_checks.py
"""

from fractions import Fraction

from coordsem import (
    RationalDist,
    check_disjunction_corollary,
    check_frege_theorem,
    check_relevance_ordering,
    cond_prob,
    explosion_on_grid,
    llr,
    parse,
    prob,
)

print("1. A certain implication with both sides uncertain makes the")
print("   antecedent positive evidence for the consequent: P(C|A) > P(C).")
for den in (2, 4, 6, 12):
    r = check_frege_theorem(den)
    print(f"   denominator {den:>2}: {r.status.value} ({r.checked} premise-satisfying tests)")

print()
print("   Dropping the uncertainty premise breaks it:")
r = check_frege_theorem(6, drop_beta=True)
print(f"   {r.status.value}; witness {r.witness}")
d = r.witness
print(f"   there P(C|A) = {cond_prob(d, parse('C'), parse('A'))} "
      f"while P(C) = {prob(d, parse('C'))}")

print()
print("2. A certain disjunction with both disjuncts uncertain makes each")
print("   disjunct negative evidence for the other: P(B|A) < P(B).")
for den in (2, 4, 6, 12):
    r = check_disjunction_corollary(den)
    print(f"   denominator {den:>2}: {r.status.value} ({r.checked} tests)")

d = RationalDist.from_cells(
    ["A", "B"], {(True, False): Fraction(1, 2), (False, True): Fraction(1, 2)})
print(f"   extreme case P(A and B) = 0: P(B|A) = {cond_prob(d, parse('B'), parse('A'))} "
      f"< P(B) = {prob(d, parse('B'))}")

print()
print("3. A contradiction is irrelevant to everything under every")
print("   distribution: P((A and not A) and B) = P(A and not A) * P(B).")
r = explosion_on_grid(4)
print(f"   for B, not B, A, A and B, A or B on all {r.checked} denominator-4")
print(f"   distributions over A, B: {r.status.value}")

print()
print("4. With A and B independent given H and given not-H, and each")
print("   positively relevant short of certainty, relevance is ordered:")
print("   llr(A or B) <= max(llr A, llr B) <= llr(A and B).")
for den in (4, 6, 8, 12):
    r = check_relevance_ordering(den)
    print(f"   denominator {den:>2}: {r.status.value} ({r.checked} filtered distributions)")
print("   (the quarter grid has no distribution satisfying the filter,")
print("    so the denominator-4 line is vacuous; the others are not)")

print()
print("   Likelihood pairs on a concrete distribution:")
d = RationalDist.from_cells(["A", "B", "H"], {
    (True, True, True): Fraction(1, 2),
    (True, True, False): Fraction(1, 8),
    (True, False, False): Fraction(1, 8),
    (False, True, False): Fraction(1, 8),
    (False, False, False): Fraction(1, 8),
})
for text in ("A or B", "A", "B", "A and B"):
    pair = llr(d, parse(text), parse("H"))
    print(f"   llr({text:<7}) = ({pair.given_h}, {pair.given_not_h})")
