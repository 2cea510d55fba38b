"""Per-round Philox streams for many rounds at once.

Round ``i`` of a batch with seed ``s`` draws from the numpy ``Generator``
on ``Philox(key=[s mod 2**64, i])``; a block of rows may mix seeds, one
per row.  Philox-4x64-10 is counter based
(Salmon et al., SC'11): word ``j`` of a stream is lane ``j % 4`` of the
block cipher applied to counter ``j // 4 + 1`` (numpy increments the
counter before each block), so any word of any round can be computed
directly.  :func:`philox_words` does that for many rounds with numpy
uint64 arithmetic, the 64x64->128 multiply split into 32-bit limbs.

:class:`RowStreams` turns those words into draws by numpy's
``Generator`` rules, one stream per row:

* ``random()`` is ``(w >> 11) * 2**-53`` of the next whole word;
* a 32-bit draw takes the low half of a fresh word and buffers the high
  half, which the next 32-bit draw takes; a ``random()`` in between skips
  the buffered half without discarding it;
* ``integers(0, n)`` (int64, ``n <= 2**32``) is Lemire's bounded draw on
  32-bit draws, rejecting while the low product word is below
  ``2**32 % n``; ``integers(0, 1)`` draws nothing.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_WEYL = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_ROUNDS = 10
_TWO_M53 = 1.0 / 9007199254740992.0
TILE = 2048  # rows per piece of philox_words


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of a * m: the high word by Hacker's
    Delight ``mulhu`` on 32-bit limbs, updated in place."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LO32, a >> _S32
    t = a_lo * m_lo
    t >>= _S32
    t += a_hi * m_lo  # < 2**64: (2**32 - 1)**2 + 2**32 - 1
    a_lo *= m_hi
    a_lo += t & _LO32
    a_lo >>= _S32
    t >>= _S32
    a_hi *= m_hi
    a_hi += t
    a_hi += a_lo
    return a_hi, a * np.uint64(m)


def philox_words(seed: int | np.ndarray, indices: np.ndarray, first_block: int,
                 n_blocks: int) -> np.ndarray:
    """Words ``4*first_block`` up to ``4*(first_block + n_blocks)`` of the
    streams ``Philox(key=[seed, index])``, one row per index; ``seed`` is
    one int for every row, or a uint64 array with one seed per row.  The
    rows are computed ``TILE`` at a time into the result, so the cipher's
    temporaries stay those of one tile."""
    indices = np.asarray(indices, dtype=np.uint64)
    seeds = np.asarray(seed, dtype=np.uint64) if np.ndim(seed) else None
    words = np.empty((len(indices), n_blocks, 4), dtype=np.uint64)
    # the counter (1, n_blocks) and zero words broadcast: rounds 0-1 run on small operands
    counter = np.arange(first_block + 1, first_block + n_blocks + 1, dtype=np.uint64)[None]
    with np.errstate(over="ignore"):
        for lo in range(0, len(indices), TILE):
            key1 = indices[lo:lo + TILE, None]
            key0 = np.uint64(int(seed) & _MASK64) if seeds is None else seeds[lo:lo + TILE, None]
            c0, c1, c2, c3 = counter, np.uint64(0), np.uint64(0), np.uint64(0)
            for r in range(_ROUNDS):
                if r:
                    key0 = key0 + _WEYL[0]
                    key1 = key1 + _WEYL[1]
                hi0, lo0 = _mulhilo(c0, _MULTIPLIERS[0])
                hi1, lo1 = _mulhilo(c2, _MULTIPLIERS[1])
                c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
            for lane, c in enumerate((c0, c1, c2, c3)):
                words[lo:lo + TILE, :, lane] = c
    return words.reshape(len(indices), 4 * n_blocks)


class RowStreams:
    """One numpy-``Generator``-equivalent stream per row; every draw method
    takes the rows (int array) that draw, in any order."""

    def __init__(self, seed: int | np.ndarray, indices: np.ndarray, words: np.ndarray):
        """``words`` holds the first whole Philox blocks of each row's stream
        (:func:`philox_words` of ``seed`` and ``indices``); later words are
        computed when first drawn."""
        self._seed = seed
        self._indices = np.asarray(indices, dtype=np.uint64)
        self.words = words
        n = len(self._indices)
        self.pos = np.zeros(n, dtype=np.int64)
        self._half = np.zeros(n, dtype=np.uint64)
        self._has_half = np.zeros(n, dtype=bool)

    def __len__(self) -> int:
        return len(self.pos)

    def _next(self, rows: np.ndarray) -> np.ndarray:
        pos = self.pos[rows]
        if pos.size and pos.max() >= self.words.shape[1]:
            have = self.words.shape[1] // 4
            more = int(pos.max()) // 4 + 1 - have
            extra = philox_words(self._seed, self._indices, have, more)
            self.words = np.concatenate((self.words, extra), axis=1)
        self.pos[rows] = pos + 1
        return self.words[rows, pos]

    def random(self, rows: np.ndarray) -> np.ndarray:
        return (self._next(rows) >> _S11).astype(np.float64) * _TWO_M53

    def _uint32(self, rows: np.ndarray) -> np.ndarray:
        has = self._has_half[rows]
        out = np.empty(len(rows), dtype=np.uint64)
        out[has] = self._half[rows[has]]
        fresh = rows[~has]
        word = self._next(fresh)
        out[~has] = word & _LO32
        self._half[fresh] = word >> _S32
        self._has_half[rows] = ~has
        return out

    def integers(self, rows: np.ndarray, n: int) -> np.ndarray:
        """``Generator.integers(0, n)`` per row, for 1 <= n <= 2**32."""
        out = np.zeros(len(rows), dtype=np.int64)
        if n == 1:
            return out
        threshold = (1 << 32) % n
        todo = np.arange(len(rows))
        while todo.size:
            m = self._uint32(rows[todo]) * np.uint64(n)
            out[todo] = (m >> _S32).astype(np.int64)
            todo = todo[(m & _LO32) < threshold]
        return out
