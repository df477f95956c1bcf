import hashlib
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from polarspec.construct import (
    CodeConfig,
    _pw_rank,
    _rm_rank,
    construct_pw,
    construct_rm,
    load_info_set,
    min_row_weight,
)
from polarspec.kernel import row_weight
from polarspec.report import report_from_average
from polarspec.spectrum import avg_spectrum


class TestCodeConfig:
    def test_basic_properties(self):
        cfg = CodeConfig(3, (4, 6, 7, 8))
        assert cfg.n == 8 and cfg.k == 4
        assert cfg.frozen_set == (1, 2, 3, 5)

    @pytest.mark.parametrize(
        "m,info",
        [(0, (1,)), (2, ()), (2, (1, 1)), (2, (2, 1)), (2, (0, 1)), (2, (4, 5))],
    )
    def test_rejects_bad_configs(self, m, info):
        with pytest.raises(ValueError):
            CodeConfig(m, info)

    def test_numpy_ints_become_python_ints_that_report(self):
        cfg, plain = CodeConfig(np.int64(3), np.array([1, 2, 4])), CodeConfig(3, (1, 2, 4))
        assert [type(x) for x in (cfg.m, *cfg.info_set)] == [int] * 4
        reports = [report_from_average(c, "file", avg_spectrum(c)).to_json() for c in (cfg, plain)]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("m,info", [(3, (1, 2.5, 4)), (3, (1.0, 2, 4)), (3.0, (1, 2, 4))])
    def test_rejects_floats(self, m, info):
        with pytest.raises(TypeError):
            CodeConfig(m, info)


class TestRM:
    def test_full_code(self):
        assert construct_rm(2, 2).info_set == (1, 2)

    def test_single_row(self):
        assert construct_rm(8, 1).info_set == (8,)

    def test_rm_128_64_is_a_weight_class(self):
        cfg = construct_rm(128, 64)
        assert cfg.k == 64
        assert all((i - 1).bit_count() >= 4 for i in cfg.info_set)
        # exactly the indices of row weight >= 16: no tie-break needed
        assert sum(1 for i in range(1, 129) if (i - 1).bit_count() >= 4) == 64

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_full_selection_is_everything(self, n):
        assert construct_rm(n, n).info_set == tuple(range(1, n + 1))

    def test_binomial_prefix_sums_give_weight_classes(self):
        # when K hits a binomial prefix, the set is {i : popcount(i-1) >= r}
        from math import comb

        m = 5
        for r in range(m + 1):
            k = sum(comb(m, j) for j in range(r, m + 1))
            cfg = construct_rm(1 << m, k)
            expected = tuple(i for i in range(1, (1 << m) + 1) if (i - 1).bit_count() >= r)
            assert cfg.info_set == expected

    def test_tie_break_inside_weight_class_prefers_high_pw(self):
        # N=4, K=2: row weights (1,2,2,4); the boundary class {2,3} is cut.
        # PW prefers index 3 (higher bit position scores more).
        assert construct_rm(4, 2).info_set == (3, 4)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_a_stable_sort_by_row_weight(self, m):
        # the popcount key orders rows as row_weight does, at every K
        from polarspec.construct import _pw_rank

        order = sorted(_pw_rank(m), key=lambda i: -row_weight(m, i))
        for k in range(1, (1 << m) + 1):
            assert construct_rm(1 << m, k).info_set == tuple(sorted(order[:k]))


class TestPW:
    def test_spec_values(self):
        assert construct_pw(2, 1).info_set == (2,)
        assert construct_pw(8, 4).info_set == (4, 6, 7, 8)

    def test_pw_128_64_min_weight(self):
        assert min_row_weight(construct_pw(128, 64)) == 8

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_full_selection_is_everything(self, n):
        assert construct_pw(n, n).info_set == tuple(range(1, n + 1))

    def test_deterministic(self):
        assert construct_pw(256, 100).info_set == construct_pw(256, 100).info_set

    def test_partial_order_consistency(self):
        # bitwise domination of i-1 over j-1 implies i ranks at least as high
        n = 64
        order = {i: pos for pos, i in enumerate(construct_pw(n, n - 1).info_set)}
        full = construct_pw(n, n).info_set
        for i in full:
            for j in full:
                a, b = i - 1, j - 1
                if a != b and a & b == b:  # support(j-1) subset of support(i-1)
                    # j can only be dropped before i when shrinking K
                    for k in range(1, n + 1):
                        sel = set(construct_pw(n, k).info_set)
                        if j in sel:
                            assert i in sel or i == j

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            construct_pw(8, 0)
        with pytest.raises(ValueError):
            construct_pw(8, 9)
        with pytest.raises(ValueError):
            construct_pw(6, 2)  # not a power of two


class TestLoadInfoSet:
    def test_basic_file(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("3\n4\n")
        cfg = load_info_set(p, 4)
        assert (cfg.m, cfg.k, cfg.info_set) == (2, 2, (3, 4))

    def test_comments_blanks_and_crlf(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_bytes(b"# heading\r\n8\r\n\r\n4\n# tail\n6\n7")
        assert load_info_set(p, 8).info_set == (4, 6, 7, 8)

    def test_unsorted_input_is_sorted(self, tmp_path):
        p = tmp_path / "a.txt"
        p.write_text("4\n1\n3\n")
        assert load_info_set(p, 4).info_set == (1, 3, 4)

    # body -> the message after the path, which names the line
    BAD = {"4\n4\n": ":2: duplicate index 4", "129\n": ":1: index 129 outside [1, 128]",
           "zebra\n": ":1: not an integer: 'zebra'", "": ": no indices found",
           "0\n": ":1: index 0 outside [1, 128]"}

    @pytest.mark.parametrize("body", BAD)
    def test_rejects_bad_content(self, tmp_path, body):
        p = tmp_path / "bad.txt"
        p.write_text(body)
        with pytest.raises(ValueError, match=re.escape(f"{p}{self.BAD[body]}")):
            load_info_set(p, 128)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_info_set(tmp_path / "nope.txt", 8)


@pytest.mark.parametrize(
    "builder,args,expected",
    [
        (construct_rm, (128, 64), 16),
        (construct_pw, (128, 64), 8),
        (construct_rm, (2, 2), 1),
    ],
)
def test_min_row_weight(builder, args, expected):
    assert min_row_weight(builder(*args)) == expected


def test_min_row_weight_matches_definition():
    cfg = CodeConfig(4, (2, 7, 13))
    assert min_row_weight(cfg) == min(row_weight(4, i) for i in cfg.info_set)


# sha256 prefixes of repr(_pw_rank(m)), recorded from exact comparators that
# preceded the integer key: m <= 13 from an interval refinement, m = 14..18
# from the closed-form sign rule over integer coordinates (c0, .., c3)
PW_RANK_DIGESTS = {
    1: "34e6f08aad18ac98", 2: "f789caa0094510d5", 3: "422680d5f1313ceb",
    4: "bffd299ba2aeee96", 5: "64f00d277f27adb8", 6: "db90bcbf84d5c207",
    7: "4ab756df733a4ff5", 8: "8dbdac9c5cdac390", 9: "b346e8d1b3238ff3",
    10: "b9645ef8129d6dc7", 11: "682f9e4acb97d802", 12: "1c13b332a75e3230",
    13: "6896b27be323d55c", 14: "d118ca124603cfde", 15: "fc1cdc90ab3d29ef",
    16: "9af71ed6d9c3feb7", 17: "ce8e71938cdaa4f2", 18: "ea06a816cd567ae8",
}


@pytest.mark.parametrize("m", sorted(PW_RANK_DIGESTS))
def test_pw_rank_pinned(m):
    digest = hashlib.sha256(repr(_pw_rank(m)).encode()).hexdigest()[:16]
    assert digest == PW_RANK_DIGESTS[m]


# sha256 prefixes of repr(_rm_rank(m)), recorded from the stable sort by
# popcount that construct_rm made on every call before the ranking was cached
RM_RANK_DIGESTS = {
    1: "34e6f08aad18ac98", 2: "f789caa0094510d5", 3: "422680d5f1313ceb",
    4: "bffd299ba2aeee96", 5: "f080ec69f5a43a25", 6: "42b2c6ba4913bd94",
    7: "7f0a4d4d74b4a956", 8: "fe14003825afc9b2", 9: "4323245bf963436f",
    10: "802f653ebbe94164", 11: "3d7de2c82e19879b", 12: "3602cf75f9b7a851",
    13: "9e872533f9a69e38", 14: "a9c748ca69fc2dc4",
}


@pytest.mark.parametrize("m", sorted(RM_RANK_DIGESTS))
def test_rm_rank_pinned(m):
    digest = hashlib.sha256(repr(_rm_rank(m)).encode()).hexdigest()[:16]
    assert digest == RM_RANK_DIGESTS[m]


@pytest.mark.parametrize("m", range(1, 15))
def test_pw_rank_scores_strictly_decrease(m):
    # Distinct scores differ by more than S^-3, S < 2^(m/4 + 2.5) the
    # largest score: over 2^-18 at m = 14. Sixty digits resolve that, so
    # every consecutive pair must compare strictly in Decimal.
    with localcontext() as ctx:
        ctx.prec = 60
        powers = [Decimal(2) ** (Decimal(j) / 4) for j in range(m)]
        scores = [sum((powers[j] for j in range(m) if (i - 1) >> j & 1), Decimal(0))
                  for i in _pw_rank(m)]
    assert sorted(_pw_rank(m)) == list(range(1, (1 << m) + 1))
    assert all(a > b for a, b in zip(scores, scores[1:]))
