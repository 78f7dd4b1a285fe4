"""Known answers for the random streams that every report rests on.

numpy keeps the raw words of its bit generators stable across releases,
not the ``Generator`` methods built on them (NEP 19).  The referee reads
each input x from raw Philox words and every uniform from ``random()``,
which is (raw >> 11) * 2**-53 of one word, so these literals pin every
stream a run draws.  A numpy release that changed one fails here by name,
not as a moved report digest.  The words are written as numpy's own
philox-testset files write theirs, as 64-bit hex.
"""

import numpy as np

from exclab.game import GameConfig, referee_draw, run_trial
from exclab.qcore import make_rng

SEED = 2024
# The first raw words of make_rng(SEED) and of block 3's substream.
ROOT_WORDS = (0x4546e3b4b70d6550, 0x9e75b4220ad13bab,
              0x09e92f67995dc12e, 0xb0d42ce8cca18ef3)
BLOCK = 3
BLOCK_WORDS = (0x28d7d95fd3c28553, 0xbf0747d2495c1a41,
               0xabfbc3fce2337317, 0xaad4e41390256871)
# A quantum trial at n = 70 draws d from ROOT_WORDS[0], then x: all 64 bits
# of ROOT_WORDS[1] and the top 6 of ROOT_WORDS[2], whose other 58 are unused.
X_70 = ("1001111001110101101101000010001000001010110100010011101110101011"
        "000010")


def python_inputs(rng: np.random.Generator, n: int, rows: int) -> list[str]:
    """``rows`` inputs x as strings of n bits, each the first n bits of its
    ceil(n / 64) raw words of ``rng``, written out by Python ints."""
    per_row = -(-n // 64)
    words = rng.bit_generator.random_raw(rows * per_row).tolist()
    return ["".join(format(w, "064b")
                    for w in words[row * per_row:(row + 1) * per_row])[:n]
            for row in range(rows)]


def as_bits(inputs: list[str]) -> np.ndarray:
    """The (rows, n) uint8 bit matrix of equal-length bit strings."""
    text = "".join(inputs).encode("ascii")
    return (np.frombuffer(text, np.uint8) - ord("0")).reshape(len(inputs), -1)


def block_rng(block: int) -> np.random.Generator:
    return make_rng(np.random.SeedSequence(SEED, spawn_key=(block,)))


def test_the_root_stream_words_are_pinned():
    assert make_rng(SEED).bit_generator.random_raw(4).tolist() == list(
        ROOT_WORDS)


def test_a_block_substream_words_are_pinned():
    assert block_rng(BLOCK).bit_generator.random_raw(4).tolist() == list(
        BLOCK_WORDS)


def test_random_is_the_top_53_bits_of_one_raw_word():
    rng = block_rng(BLOCK)
    assert [rng.random() for _ in BLOCK_WORDS] == [
        (w >> 11) * 2**-53 for w in BLOCK_WORDS]
    # On 1,000 draws, and with raw draws and uniforms interleaved as a block
    # interleaves its inputs and keys: both advance one stream a word each.
    words = block_rng(BLOCK).bit_generator.random_raw(2000).tolist()
    rng = block_rng(BLOCK)
    uniforms = [rng.random() for _ in range(1000)]
    assert uniforms == [(w >> 11) * 2**-53 for w in words[:1000]]
    assert rng.bit_generator.random_raw(3).tolist() == words[1000:1003]
    assert rng.random(2).tolist() == [(w >> 11) * 2**-53
                                      for w in words[1003:1005]]


def test_an_input_is_the_leading_bits_of_its_words():
    # referee_draw hands over the words themselves, one row of two at n = 70.
    assert referee_draw(70, make_rng(SEED), 2).tolist() == [
        list(ROOT_WORDS[:2]), list(ROOT_WORDS[2:])]
    rng = make_rng(SEED)
    rng.random()
    assert python_inputs(rng, 70, 1) == [X_70]
    # A trial's transcript carries that input, MSB first, tail discarded.
    quantum = run_trial(GameConfig(70, 5, "quantum", 1, 0), make_rng(SEED))
    assert str(quantum.x) == X_70
    # The cover's input is the top n bits of the block's first word.
    cover = run_trial(GameConfig(16, 8, "classical_cover", 1, 0),
                      make_rng(SEED))
    assert str(cover.x) == format(ROOT_WORDS[0] >> 48, "016b")
    assert cover.x.to_index() == 0x4546
