import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from diatomic import Side, quotient_scan, sdi, sdi_quadruple, stern
from diatomic.errors import OutOfTable

from oracles import stern_table


def test_sequence_base_values():
    assert stern(0) == 0
    assert stern(5) == 3
    assert stern(21) == 8


def test_sequence_matches_recurrence_oracle():
    table = stern_table(4096)
    assert [stern(m) for m in range(4097)] == table


def test_sequence_rejects_negative():
    with pytest.raises(OutOfTable):
        stern(-1)


def test_table_entries():
    assert sdi(3, 7) == 3
    assert sdi(6, 51) == 12
    for n in range(11):
        assert sdi(n, 1 << n) == 1


def test_table_rejects_order_past_row_end():
    with pytest.raises(OutOfTable):
        sdi(3, 9)
    with pytest.raises(OutOfTable):
        sdi_quadruple(3, 8)


def test_quadruple_values():
    assert sdi_quadruple(2, 2) == (2, 1, 1, 1)
    assert sdi_quadruple(5, 20) == (8, 3, 5, 2)
    for n in range(1, 8):
        assert sdi_quadruple(n, 0) == (1, 0, n, 1)


def test_determinant_identity_small_rows():
    for n in range(9):
        for m in range(1 << n):
            q1, q2, q3, q4 = sdi_quadruple(n, m)
            assert q1 * q4 - q2 * q3 == 1


def test_neighbours_and_mirrors_are_coprime():
    for n in range(13):
        top = 1 << n
        for m in range(top):
            assert gcd(stern(m), stern(m + 1)) == 1
            assert gcd(stern(m), stern(top - m)) == 1


def test_depth_stability():
    for n in range(9):
        for m in range(1 << n):
            assert sdi(n + 1, 2 * m) == sdi(n, m)
            assert sdi(n + 1, m) == sdi(n, m)


def test_consecutive_pair_refinement():
    # a*[2^n:m+1] + [2^n:m] and its mirror land at explicit deeper addresses
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randrange(0, 6)
        n = rng.randrange(0, 8)
        m = rng.randrange(0, 1 << n)
        lhs1 = a * sdi(n, m + 1) + sdi(n, m)
        assert lhs1 == sdi(n + a, (m << a) + (1 << a) - 1)
        lhs2 = sdi(n, m + 1) + a * sdi(n, m)
        assert lhs2 == sdi(n + a, (m << a) + 1)


def test_last_entry_of_row_counts_depth():
    for a in range(1, 12):
        assert stern((1 << a) - 1) == a


def _refined_orders(rs, m):
    # index arithmetic for the two coprime-combination refinements
    t = len(rs)
    total = sum(rs)
    m1 = (m << total) + sum(
        (-1) ** j * (1 << sum(rs[j:])) for j in range(t)
    ) + (-1) ** t
    if t >= 2:
        m2 = (m << total) + sum(
            (-1) ** (j - 1) * (1 << sum(rs[j:])) for j in range(1, t)
        ) + (-1) ** (t - 1)
    else:
        m2 = (m << rs[0]) + 1
    return total, m1, m2


def test_coprime_combination_refinement():
    from diatomic import partial_quotients

    rng = random.Random(11)
    pairs = [(a, b) for a in range(1, 30) for b in range(1, 30) if gcd(a, b) == 1]
    for a, b in rng.sample(pairs, 60):
        rs = partial_quotients(a, b)
        n = rng.randrange(0, 5)
        m = rng.randrange(0, 1 << n)
        total, m1, m2 = _refined_orders(rs, m)
        assert a * sdi(n, m + 1) + b * sdi(n, m) == sdi(n + total, m1)
        assert b * sdi(n, m + 1) + a * sdi(n, m) == sdi(n + total, m2)


def test_an_address_reads_its_value_and_quadruple():
    assert sdi(6, 51) == 12
    assert sdi_quadruple(6, 51)[1] == 12
    with pytest.raises(OutOfTable):
        sdi(2, 5)


def test_row_end_checks_at_every_order_near_the_end():
    for n in range(8):
        for m in range((1 << n) + 3):
            for check, end, tail in ((sdi, 1 << n, ""), (sdi_quadruple, (1 << n) - 1, " - 1")):
                if m <= end:
                    check(n, m)
                    continue
                with pytest.raises(OutOfTable) as err:
                    check(n, m)
                assert str(err.value) == f"order {m} exceeds row end 2^{n}{tail}"


def test_a_deep_address_is_checked_without_building_its_row_end():
    # 2^depth at depth 10^7 is a 1.25 MB integer; the row end itself, built
    # before tracing, is a_{2^n} = 1 with no word spelt along its bits
    n = 10**7
    top = 1 << n
    tracemalloc.start()
    try:
        assert sdi(n, 1) == 1
        assert sdi(n, 3) == 2
        assert sdi(n, top) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_a_far_out_order_is_refused_without_a_copy():
    # the order (built before tracing) is 1.25 MB; order - 1 or order >> depth
    # would copy it before the range check refused it
    n = 10**7
    order = 1 << n
    tracemalloc.start()
    try:
        for depth in (n - 1, 3):
            for check in (sdi, sdi_quadruple):
                with pytest.raises(OutOfTable):
                    check(depth, order)
        with pytest.raises(OutOfTable):
            sdi_quadruple(n, order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_quadruple_cache_is_small_and_keeps_the_second_side_of_a_scan():
    sdi_quadruple.cache_clear()
    for eta in (Fraction(2000, 8093), Fraction(2, 3), Fraction(1, 5)):
        for side in Side:
            quotient_scan(eta, side, 4)
    info = sdi_quadruple.cache_info()
    assert info.maxsize <= 8
    assert (info.hits, info.misses) == (3, 3)


def test_quadruple_cache_is_thread_safe():
    import threading

    results = []

    def worker():
        acc = []
        for m in range(256):
            acc.append(sdi_quadruple(10, m))
        results.append(acc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_quadruple_against_oracle():
    table = stern_table(1 << 9)
    for n in range(9):
        top = 1 << n
        for m in range(top):
            assert sdi_quadruple(n, m) == (
                table[m + 1], table[m], table[top - m - 1], table[top - m]
            )
