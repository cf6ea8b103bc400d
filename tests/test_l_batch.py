"""character.l_batch evaluates the L(1, chi) series of many Delta in one pass:
one set of Euler-criterion powers for every chi table and one E1 pass per run
of pieces. Every value and bound must equal, bit for bit, the per-Delta
series of tests/oracles.py, whatever the batch, its order or the block size,
and every chi table must equal the one built alone."""

import random

import numpy as np
import pytest

from quadprimes import character
from quadprimes.character import is_discriminant, l_batch, l_one
from quadprimes.errors import ToleranceUnreachable
from quadprimes.polynomial import _chi_upto

from oracles import fundamental_part, series_e1, series_l_value


def seeded_deltas(seed: int, count: int, top: float) -> list[int]:
    """count distinct discriminants, both signs, |Delta| from 3 to top in log
    scale, a quarter of them D*m^2 with m > 1 (Euler factors)."""
    rng = random.Random(seed)
    out: set[int] = set()
    while len(out) < count:
        delta = rng.choice([-1, 1]) * round(10 ** rng.uniform(0.5, np.log10(top)))
        if rng.random() < 0.25:
            delta *= rng.choice([2, 3, 4, 5, 6, 7, 10]) ** 2
        if is_discriminant(delta) and 3 <= abs(delta) <= top * 50:
            out.add(delta)
    return sorted(out)


DELTAS = seeded_deltas(27, 420, 4e6) + [-99999971, 99999989, -399999988, 100000037 * 9]


def alone_chi(d: int, limit: int) -> np.ndarray:
    [table] = _chi_upto([d], [limit])
    return table


def reference(deltas: list[int], tol: float) -> dict:
    out = {}
    for delta in deltas:
        try:
            out[delta] = series_l_value(delta, tol, alone_chi, character._BLOCK)
        except ValueError:
            out[delta] = None
    return out


def assert_batches_match(deltas: list[int], tol: float, seed: int) -> None:
    want = reference(deltas, tol)
    order = list(deltas)
    random.Random(seed).shuffle(order)
    for size in (1, 2, 7, len(order)):
        for i in range(0, len(order), size):
            got = l_batch(order[i : i + size], tol)
            assert sorted(got) == sorted(order[i : i + size])
            for delta, result in got.items():
                if want[delta] is None:
                    assert isinstance(result, ToleranceUnreachable), delta
                else:
                    assert tuple(map(float.hex, result)) == tuple(map(float.hex, want[delta])), (
                        delta, tol, size)


def test_signs_sizes_and_euler_factors_are_covered():
    parts = [fundamental_part(delta) for delta in DELTAS]
    assert len(DELTAS) >= 400
    assert any(d < 0 for d, _ in parts) and any(d > 0 for d, _ in parts)
    assert sum(bool(primes) for _, primes in parts) >= 80
    assert min(map(abs, DELTAS)) <= 5 and max(map(abs, DELTAS)) > 10**8


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_batches_equal_the_per_delta_series_bit_for_bit(tol):
    assert_batches_match(DELTAS, tol, seed=int(-np.log10(tol)))


@pytest.mark.parametrize("block, top, count", [(7, 2e4, 40), (64, 1e6, 120)])
def test_pieces_split_inside_and_across_delta(block, top, count, monkeypatch):
    # pieces of d > 0 with every value of E1 at most 1, every value above 1,
    # and both; with block = 7, one Delta spans many pieces and a run many
    # Delta. The chi tables are built a run at a time: together at most block
    # terms, or one Delta's alone, so a batch never holds every table at once.
    kinds, tables = set(), []
    real_e1, real_chi = character._e1, character._chi_upto

    def recording(x, edges):
        for start, stop in zip(edges, edges[1:]):
            kinds.add((bool((x[start:stop] <= 1).any()), bool((x[start:stop] > 1).any())))
        return real_e1(x, edges)

    def chi_tables(ds, limits):
        tables.append(limits)
        return real_chi(ds, limits)

    monkeypatch.setattr(character, "_BLOCK", block)
    monkeypatch.setattr(character, "_e1", recording)
    monkeypatch.setattr(character, "_chi_upto", chi_tables)
    deltas = seeded_deltas(block, count, top)
    for tol in (1e-4, 1e-8):
        assert_batches_match(deltas, tol, seed=block)
    assert kinds == {(True, False), (False, True), (True, True)}
    assert all(sum(limits) <= block or len(limits) == 1 for limits in tables)
    assert any(limits[0] > block for limits in tables)
    assert any(len(limits) > 1 for limits in tables) == (block == 64)  # every M exceeds 7


def test_one_e1_pass_equals_e1_of_each_piece_bit_for_bit():
    # ascending pieces: all values at most 1, all above, both, single values,
    # and values just above 1, which take the most levels
    rng = np.random.default_rng(29)
    pieces = [np.sort(rng.uniform(lo, hi, size)) for lo, hi, size in (
        (1e-6, 1.0, 40), (1.0 + 1e-12, 3.0, 25), (0.2, 60.0, 300), (5.0, 5.5, 1), (0.5, 0.6, 1),
        (1.0, 1.0 + 1e-9, 3), (30.0, 700.0, 64), (0.9, 1.1, 17))]
    pieces.append(np.array([1.0]))
    edges = np.cumsum([0] + [piece.size for piece in pieces]).tolist()
    got = character._e1(np.concatenate(pieces), edges)
    for piece, start, stop in zip(pieces, edges, edges[1:]):
        assert np.array_equal(got[start:stop].view(np.int64), series_e1(piece).view(np.int64))


def test_chi_tables_equal_tables_built_alone():
    rng = random.Random(28)
    ds = [fundamental_part(delta)[0] for delta in rng.sample(DELTAS, 120)]
    limits = [rng.choice([1, 2, 3, 4, 49, rng.randint(5, 40000)]) for _ in ds]
    for table, d, limit in zip(_chi_upto(ds, limits), ds, limits):
        assert table.dtype == np.int8 and table.size == limit + 1
        assert np.array_equal(table, alone_chi(d, limit)), (d, limit)


def test_each_delta_keeps_its_own_error():
    deltas = [-163, 3, 9, -4, 5, -163, 1997, 12]
    got = l_batch(deltas, 1e-4, cutoff_cap=40)
    assert sorted(got) == sorted(set(deltas))
    assert {type(got[3]).__name__, type(got[9]).__name__} == {"NotADiscriminant"}
    assert isinstance(got[1997], ToleranceUnreachable) and "cap is 40" in str(got[1997])
    for delta in (-163, -4, 5, 12):
        assert got[delta] == l_one(delta, 1e-4)
        assert l_one(delta, 1.0, batch=got) == got[delta]  # the batch decides, not tol
    with pytest.raises(ToleranceUnreachable, match="cap is 40"):
        l_one(1997, 1e-4, batch=got)
    assert l_batch([], 1e-4) == {}
    with pytest.raises(ValueError):
        l_batch([-4], 0.0)
