"""Every pair of routes that admit a drawn code agrees on their common
weights, under every TABLE_LEVEL and block size. The routes and their
domains are the table in routes.py; POLARSPEC_ACCEPT_FULL=1 draws more
examples and codes up to N = 128."""

import os
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polarspec.oracle
from polarspec import spectrum
from routes import KINDS, ROUTES, agree, codes

FULL = os.environ.get("POLARSPEC_ACCEPT_FULL", "") == "1"


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=600 if FULL else 120, deadline=None)
@given(data=st.data(), table_level=st.integers(0, 6), block_bits=st.sampled_from([0, 3, 20]))
def test_every_admitted_pair_agrees(kind, data, table_level, block_bits):
    cfg, t = data.draw(codes(kind, max_m=7 if FULL else 6))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "TABLE_LEVEL", table_level)
        patch.setattr(polarspec.oracle, "BLOCK_BITS", block_bits)
        ran = [(r.name, r.run(cfg, t)) for r in ROUTES
               if r.ensemble == (kind == "ensemble") and r.admits(cfg)]
    # every route but avg_nmin covers its weights up to N
    assert all(v.lo + len(v.nums) == cfg.n + 1 for name, v in ran if name != "avg_nmin"), cfg
    for (name_a, a), (name_b, b) in combinations(ran, 2):
        assert agree(a, b), (name_a, name_b)
