"""Cross-validation at enumeration scale.

At small block lengths everything can be counted directly, which is how
the recursion earns its trust: the closed-form average must agree with a
literal walk over every transform in the ensemble, and a fixed code's
spectrum must agree with a literal walk over every message.
"""

from polarspec import (
    CodeConfig,
    DyadicRational,
    avg_spectrum,
    construct_pw,
    ensemble_average_exact,
    exact_spectrum,
    free_entry_count,
    random_transform,
)

cfg = CodeConfig(4, (8, 12, 14, 15, 16))
f = free_entry_count(cfg)
print(f"Selection {cfg.info_set} at N=16: {f} free entries, 2^{f} transforms")

# Both routes give integers over one power of two: the enumeration sums
# every codebook's count over all 2^F_red reduced transforms (the free
# entries of T in frozen columns; the rest leave the code unchanged), the
# recursion gives numerators over 2^(N-K). Equal values are equal
# integers after shifts.
enumerated = ensemble_average_exact(cfg)
recursed = avg_spectrum(cfg)
f_red = enumerated.samples.bit_length() - 1
agree = [e << recursed.exp == r << f_red
         for e, r in zip(enumerated.counts[1:], recursed.nums)]
print(f"{'d':>3} {'enumerated':>14} {'recursion':>14}")
for d in range(1, 17):
    e, r = DyadicRational(enumerated.counts[d], f_red), recursed[d]
    if e or r:
        mark = "" if agree[d - 1] else "   MISMATCH"
        print(f"{d:>3} {e.decimal(6):>14} {r.decimal(6):>14}{mark}")
assert all(agree)
print("exact dyadic agreement at every weight\n")

# One concrete member of the ensemble, counted message by message.
code = construct_pw(16, 8)
t = random_transform(code, seed=7)
hist = exact_spectrum(code, t)
print(f"One seeded transform on {code.info_set}:")
print("  weight histogram:", hist.nonzero())
print("  total codewords :", sum(hist.counts), "= 2^8")
