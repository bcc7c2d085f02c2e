from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from umbrakit import multiindex as mi

from oracles import bell_number, multiindex_partition_count


def test_bell_numbers_all_ones():
    for d, expected in [(2, 2), (3, 5), (4, 15), (5, 52)]:
        assert sum(1 for _ in mi.partitions((1,) * d)) == expected
        assert bell_number(d) == expected


@pytest.mark.parametrize("v", [(1, 1), (2, 1), (1, 1, 1), (3,), (2, 2), (4,)])
def test_partition_count_vs_set_partition_oracle(v):
    assert sum(1 for _ in mi.partitions(v)) == multiindex_partition_count(v)


def test_zero_index_has_one_empty_partition():
    parts = list(mi.partitions((0, 0)))
    assert len(parts) == 1
    assert parts[0].columns == () and parts[0].length() == 0
    assert mi.partition_weight(parts[0], (0, 0)) == 1


def test_partitions_are_distinct_and_reconstruct():
    for v in [(3, 1), (2, 2), (4,), (1, 1, 2)]:
        seen = set()
        for lam in mi.partitions(v):
            assert lam.index() == v
            assert lam not in seen
            seen.add(lam)
            # columns strictly increasing lexicographically
            assert list(lam.columns) == sorted(set(lam.columns))


def test_partition_weight_examples():
    lams = {lam.columns: lam for lam in mi.partitions((2,))}
    assert mi.partition_weight(lams[((1,),)], (2,)) == 1       # {(1)^2}
    assert mi.partition_weight(lams[((2,),)], (2,)) == 1       # {(2)}
    lam11 = next(lam for lam in mi.partitions((1, 1))
                 if lam.columns == ((0, 1), (1, 0)))
    assert mi.partition_weight(lam11, (1, 1)) == 1


def test_weight_sum_is_bell_number():
    # with all factors 1 the partition expansion counts set partitions
    for k, b in [(1, 1), (2, 2), (3, 5), (4, 15)]:
        total = sum(mi.partition_weight(lam, (k,)) for lam in mi.partitions((k,)))
        assert total == b


def test_multi_binomial():
    assert mi.multi_binomial((3, 2), (1, 1)) == 6
    assert mi.multi_binomial((3, 2), (3, 2)) == 1
    assert mi.multi_binomial((3, 2), (0, 0)) == 1
    assert mi.multi_binomial((1, 2), (2, 0)) == 0
    with pytest.raises(ValueError):
        mi.multi_binomial((1, 2), (1,))


def test_order_caps():
    with pytest.raises(mi.OrderOverflowError):
        list(mi.partitions((21,)))
    with pytest.raises(mi.OrderOverflowError):
        mi.check_index((1,) * 9)
    with pytest.raises(ValueError):
        mi.check_index((-1, 2))


def test_order_cap_from_environment(monkeypatch):
    with pytest.raises(mi.OrderOverflowError):
        mi.parse_index("(21)")
    with pytest.raises(ValueError):
        mi.parse_index("(-1,2)")
    monkeypatch.setenv("UMBRA_MAX_ORDER", "3")
    assert mi.order_cap() == 3
    assert mi.parse_index("(1,2)") == (1, 2)
    with pytest.raises(mi.OrderOverflowError):
        mi.parse_index("(2,2)")
    with pytest.raises(mi.OrderOverflowError):
        mi.check_index((2, 2))
    with pytest.raises(mi.OrderOverflowError):
        list(mi.partitions((4,)))
    with pytest.raises(mi.OrderOverflowError):
        mi.check_order(4)
    monkeypatch.setenv("UMBRA_MAX_ORDER", "many")
    with pytest.raises(ValueError, match="UMBRA_MAX_ORDER"):
        mi.order_cap()


def test_parse_format_roundtrip():
    for v in [(1,), (0, 3), (2, 0, 1)]:
        assert mi.parse_index(mi.format_index(v)) == v
    assert mi.parse_index("1,2") == (1, 2)
    with pytest.raises(ValueError):
        mi.parse_index("()")


@given(st.integers(1, 4), st.integers(0, 6))
def test_iter_indices_of_total_count(d, n):
    got = list(mi.iter_indices_of_total(d, n))
    assert len(got) == comb(n + d - 1, d - 1)
    assert all(sum(v) == n and len(v) == d for v in got)
    assert got == sorted(got)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)
       .filter(lambda v: 0 < sum(v) <= 5))
def test_partition_weights_are_positive_integers(v):
    for lam in mi.partitions(v):
        w = mi.partition_weight(lam, v)
        assert w > 0 and w.denominator == 1


def test_mi_factorial():
    assert mi.mi_factorial((3, 2)) == 12
    assert mi.mi_factorial((0, 0)) == 1
