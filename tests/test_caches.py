"""Per-matrix caches: entries live exactly as long as their matrix."""

import gc
import random
import sys
import threading
import tracemalloc

from click.testing import CliRunner

from knotrho import floatpass, seifert
from knotrho.alexander import _alexander_root_enclosures, alexander_polynomial
from knotrho.cli import cli
from knotrho.cyclotomic import UnitRoot
from knotrho.floatpass import _tridiag_layout
from knotrho.seifert import jn_seifert, per_matrix_cache, torus_knot_seifert
from knotrho.signature import (
    _herm_residues,
    _minor_chain,
    _signature_exact_cached,
    avg_signature,
    avg_signature_details,
    hermitian_form,
)

MATRIX_CACHES = (
    alexander_polynomial,
    _alexander_root_enclosures,
    _tridiag_layout,
    _herm_residues,
    _minor_chain,
    _signature_exact_cached,
)


def _clear():
    for cache in MATRIX_CACHES:
        cache.cache_clear()


def test_entries_die_with_their_matrix():
    _clear()
    a = torus_knot_seifert(2)
    avg_signature(a, 10)  # whole grid, exact chain at the jump points
    avg_signature(a, 1009)  # arcs between the roots of Delta
    hermitian_form(a, UnitRoot(1, 5))
    alexander_polynomial(a)  # the arc route reads Q off the band, not Delta
    assert all(cache.cache_info().currsize > 0 for cache in MATRIX_CACHES)
    del a
    gc.collect()
    assert [cache.cache_info().currsize for cache in MATRIX_CACHES] == [0] * len(MATRIX_CACHES)


def test_equal_matrices_share_entries_while_the_first_lives():
    _clear()
    a, b = jn_seifert(5), jn_seifert(5)
    assert a is not b and a == b
    first = alexander_polynomial(a)
    assert alexander_polynomial(b) == first
    assert tuple(alexander_polynomial.cache_info()) == (1, 1, None, 1)
    del a
    gc.collect()
    assert tuple(alexander_polynomial.cache_info()) == (1, 1, None, 0)
    assert alexander_polynomial(b) == first
    assert tuple(alexander_polynomial.cache_info()) == (1, 2, None, 1)
    alexander_polynomial.cache_clear()
    assert tuple(alexander_polynomial.cache_info()) == (0, 0, None, 0)


def test_cli_query_leaves_no_live_entry():
    _clear()
    res = CliRunner().invoke(cli, ["rho", "jn:150", "--slope", "-7", "--levels"])
    assert res.exit_code == 0
    del res
    gc.collect()
    assert [cache.cache_info().currsize for cache in MATRIX_CACHES] == [0] * len(MATRIX_CACHES)


def test_twist_family_averages_stay_small():
    # Every matrix dies after its average, and its entries with it; keeping
    # the matrices and their entries would peak near 19 MB over this loop.
    _clear()
    gc.collect()
    tracemalloc.start()
    try:
        for n in range(3, 121):
            avg_signature_details(jn_seifert(n), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_tridiagonality_is_scanned_once_per_matrix(monkeypatch):
    calls = []
    original = seifert._is_tridiagonal

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(seifert, "_is_tridiagonal", counting)
    monkeypatch.setattr(floatpass, "_is_tridiagonal", counting, raising=False)
    _clear()
    a = jn_seifert(10)
    assert _tridiag_layout(a)[0] is not None
    assert calls == [20]


def test_concurrent_lookups_read_only_their_own_entries():
    @per_matrix_cache
    def fingerprint(a, k):
        return (a.entries, a.kind, k)

    errors = []
    calls_per_thread = 3000

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(calls_per_thread):
                n, k = rng.randint(1, 6), rng.randint(0, 3)
                a = jn_seifert(n) if rng.random() < 0.5 else torus_knot_seifert(n)
                if fingerprint(a, k) != (a.entries, a.kind, k):
                    errors.append((seed, n, k))
        except Exception as exc:  # reported below, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    gc.collect()
    info = fingerprint.cache_info()
    assert info.hits + info.misses == 8 * calls_per_thread
    assert info.currsize == 0
