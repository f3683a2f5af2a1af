"""The simulator's paths rest on the published Philox4x64-10 algorithm.

``chains.philox_words`` is a pure-Python Philox4x64-10 (Salmon, Moraes,
Dror and Shaw, SC'11).  It must reproduce the algorithm's known-answer
vectors and numpy's raw ``Philox`` stream.  ``chains.reference_paths``
turns its words into uniforms and steps each path by the dense rule, with
no guide or run-length table; ``simulate`` must give the same paths bit for
bit, on the fixture and on the wide N=200 chain, whether its blocks run on
one core or two.  The check is shown to have teeth: a changed key, a block
offset one off and a draw made with ``>> 12`` each break the agreement.
"""

import numpy as np
import pytest

import premval as pv
from premval import oracle
from chains import philox_block, philox_words, reference_paths, wide_initial, wide_sequence

FIXTURE_PATHS, WIDE_PATHS = 300, 64
SEED = 20261022
#: Counter, key and output of the Random123 known-answer vectors for Philox4x64-10.
KNOWN_ANSWERS = [
    (0, 0, [0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B]),
    ((1 << 256) - 1, (1 << 128) - 1, [0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0]),
    (0x082EFA98EC4E6C89_A4093822299F31D0_13198A2E03707344_243F6A8885A308D3, 0xBE5466CF34E90C6C_452821E638D01377,
     [0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6]),
]


@pytest.mark.parametrize("counter, key, words", KNOWN_ANSWERS, ids=["zeros", "ones", "pi"])
def test_philox_block_gives_the_known_answers(counter, key, words):
    assert philox_block(counter, key) == words


@pytest.mark.parametrize("key", [0, 1, SEED, 2 ** 63 + 5, 2 ** 100 + 7])
@pytest.mark.parametrize("first_block", [0, 3, 1_000])
def test_philox_words_are_numpys_raw_stream(key, first_block):
    stream = np.random.Philox(key=key).advance(first_block)
    assert philox_words(key, first_block, 10) == stream.random_raw(10).tolist()


@pytest.fixture(scope="module")
def wide():
    return wide_sequence(120)


def simulated(monkeypatch, seq, initial, n_paths, cores):
    """``simulate``'s paths with the given core count, in blocks small enough
    that two cores step them on two threads."""
    monkeypatch.setattr(oracle, "_usable_cores", lambda: cores)
    monkeypatch.setattr(oracle, "CHUNK_SIZE", 1 << 5)
    monkeypatch.setattr(oracle, "_THREADED_PATHS", 1 << 3)
    blocks, threads = oracle._path_blocks(n_paths)
    assert threads == cores and len(blocks) > cores
    return pv.simulate(seq, initial, n_paths, SEED).paths


@pytest.mark.parametrize("cores", [1, 2])
def test_fixture_paths_are_the_published_algorithms(dread, monkeypatch, cores):
    want = reference_paths(dread.seq, dread.initial, FIXTURE_PATHS, SEED)
    assert np.array_equal(simulated(monkeypatch, dread.seq, dread.initial, FIXTURE_PATHS, cores), want)


def test_wide_paths_are_the_published_algorithms(wide, monkeypatch):
    want = reference_paths(wide, wide_initial(), WIDE_PATHS, SEED)
    # Every path differs from every other, so the walk reads many rows of many periods.
    assert len(np.unique(want[:, 1:], axis=0)) == WIDE_PATHS
    for cores in (1, 2):
        assert np.array_equal(simulated(monkeypatch, wide, wide_initial(), WIDE_PATHS, cores), want), f"{cores} cores"


@pytest.mark.parametrize("mutation", [dict(key=SEED + 1), dict(first_block=1), dict(shift=12)],
                         ids=["key", "block-offset", "shift-12"])
def test_a_mutated_reference_disagrees(dread, monkeypatch, mutation):
    paths = simulated(monkeypatch, dread.seq, dread.initial, FIXTURE_PATHS, 2)
    mutated = reference_paths(dread.seq, dread.initial, FIXTURE_PATHS, **{"key": SEED, **mutation})
    assert not np.array_equal(paths, mutated)
