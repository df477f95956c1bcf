"""The pre-transform family tree, and sampling the ensemble.

Every code here is "some unit upper-triangular T, then the polar
transform". Identity gives the plain code, a Toeplitz T gives a
convolution code, CRC columns give dynamically frozen bits, and a
seeded uniform T gives one ensemble member.
"""

from polarspec import (
    avg_spectrum,
    construct_pw,
    crc_transform,
    ensemble_average_mc,
    exact_spectrum,
    identity_transform,
    pac_transform,
    random_transform,
)


def show(name, cfg, t):
    hist = exact_spectrum(cfg, t)
    first = [f"T[{i},:]={t.full_row(i):0{cfg.n}b}" for i in cfg.info_set[:2]]
    print(f"{name:<22} {first[0]}")
    print(f"{'':<22} {first[1]}")
    nz = list(hist.nonzero().items())[:5]
    print(f"{'':<22} spectrum head: {nz}\n")


cfg = construct_pw(16, 8)
show("identity", cfg, identity_transform(cfg))
show("seeded uniform", cfg, random_transform(cfg, seed=5))
show("convolution 1011", cfg, pac_transform(cfg, "1011"))

outer = construct_pw(16, 12)
inner, t = crc_transform(outer, 8, crc_poly="10011")
show("8 message + 4 crc", inner, t)

# Monte-Carlo over the ensemble converges on the recursion's exact value.
wide = construct_pw(32, 12)
exact = avg_spectrum(wide, d_max=8)[8]
print(f"exact  E[N_8] = {exact.decimal(6)}   (N=32 K=12)")
for samples in (10, 100, 1000):
    mc = ensemble_average_mc(wide, master_seed=1, samples=samples)
    print(f"{samples:>5} samples: {mc.counts[8] / mc.samples:.4f}")
