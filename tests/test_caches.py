"""Per-matrix caches: entries live exactly as long as their matrix."""

import contextlib
import gc
import io
import random
import sys
import threading
import tracemalloc
import weakref

import pytest

from knotrho import floatpass, seifert
from knotrho.alexander import _root_arcs, alexander_polynomial
from knotrho.cli import cli
from knotrho.cyclotomic import UnitRoot
from knotrho.floatpass import _tridiag_layout
from knotrho.rho import rho_knot_surgery_result
from knotrho.seifert import SeifertMatrix, jn_seifert, per_matrix_cache, torus_knot_seifert
from knotrho.signature import (
    _herm_residues,
    _minor_chain,
    avg_signature,
    avg_signature_details,
    hermitian_form,
)

from clirun import run_cli

MATRIX_CACHES = (
    alexander_polynomial,
    _root_arcs,
    _tridiag_layout,
    _herm_residues,
    _minor_chain,
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


def test_interrupt_while_a_matrix_dies_reaches_the_caller():
    # Python reports and drops an exception raised in a weak-reference
    # callback, so a KeyboardInterrupt due while one runs Python code is
    # lost and the computation goes on.  The trace function raises it at
    # the first Python call after it is set, as a signal handler would
    # at the next check: where a callback that forgets the dying matrix is
    # Python code, that is its first line; where none is, it is the call
    # below, and the interrupt reaches this frame.
    _clear()
    a = jn_seifert(3)
    alexander_polynomial(a)
    raised = []

    def interrupt(frame, event, arg):
        if not raised:
            raised.append(frame.f_code.co_name)
            raise KeyboardInterrupt

    def after_collection():
        pass

    previous = sys.gettrace()
    with pytest.raises(KeyboardInterrupt):
        sys.settrace(interrupt)
        try:
            del a
            after_collection()
        finally:
            sys.settrace(previous)
    assert raised == ["after_collection"]
    assert alexander_polynomial.cache_info().currsize == 0


def test_rho_levels_keep_no_entry_per_grid_point():
    # The levels of rho read one signature per conjugate pair of roots and
    # store none, so a live matrix keeps as many entries at every d.
    _clear()
    a = jn_seifert(3)
    sizes = []
    for d in (401, 1009, 2003):
        rho_knot_surgery_result(a, d)
        sizes.append(sum(cache.cache_info().currsize for cache in MATRIX_CACHES))
    assert sizes == [sizes[0]] * 3, sizes
    assert sizes[0] < 10


# jn:3 scrambled by P^T A P (signed column additions): a dense knot, whose
# root enclosures come from Delta and whose arcs carry no certified sigma
SCRAMBLED_JN3 = (
    (1, 0, 0, 0, -1, 0),
    (-1, 1, 1, -1, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, -1, 3, 2, 0),
    (0, -1, -1, 3, 2, 1),
    (0, 0, 0, -1, 0, -1),
)


def test_averages_keep_no_entry_per_grid():
    # One live knot averaged at 16 grids up to d = 20011, all by arcs: after
    # the first grid, no per-matrix cache gains an entry, and no entry is
    # lost while the knot lives.  The root enclosures and arc signatures are
    # one entry.  A tridiagonal knot and a scrambled one.
    grids = (20011, 241, 1009, 3001, 5003, 210, 2310, 7919, 10007, 10010, 12011, 15013, 17011, 18000, 19997, 20010)
    for a in (jn_seifert(6), SeifertMatrix(SCRAMBLED_JN3, kind="knot")):
        _clear()
        assert len(set(grids)) == 16 and all(d > 4 * a.size + 16 for d in grids)
        sizes = []
        for d in grids:
            avg_signature(a, d)
            sizes.append([cache.cache_info().currsize for cache in MATRIX_CACHES])
        assert sizes == [sizes[0]] * len(grids), (a.entries, sizes)
        assert _root_arcs.cache_info().currsize == 1


def test_cli_query_leaves_no_live_entry():
    _clear()
    code, output = run_cli(["rho", "jn:150", "--slope", "-7", "--levels"])
    assert code == 0
    del output
    gc.collect()
    assert [cache.cache_info().currsize for cache in MATRIX_CACHES] == [0] * len(MATRIX_CACHES)


def test_cli_call_keeps_no_redirected_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(args=["slope-length", "6", "1"], prog_name="knotrho", standalone_mode=False)
    assert "exceeds_two_pi" in buf.getvalue()
    ref = weakref.ref(buf)
    del buf
    gc.collect()
    assert ref() is None


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
