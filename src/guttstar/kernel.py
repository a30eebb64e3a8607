"""PBW normal-ordering kernel.

Words are tuples of basis indices; an element is a dict mapping a sorted
(non-decreasing) word to a z-polynomial in plain-dict form {z_exp: coeff}.
The one hot primitive is ``insert``: left-multiplication of a sorted word by a
single basis letter, rewritten into the sorted basis via

    e_a e_b  ->  e_b e_a + t [e_a, e_b]        (a > b)

where t is z (deformed kernel) or 1 (classical kernel).  Results are memoized
per (letter, word); the domain of sorted words is small, so the memo stays
compact even for long products.

Coefficients are built only from the unit 1 and the structure constants, so
they are Python ``int`` whenever the constants passed in are (the pbw layer
passes integral constants as ``int``) and ``Fraction`` otherwise.
"""

from __future__ import annotations

from .zpoly import zp_accumulate


class PbwKernel:
    """Normal-ordering engine for one algebra and one bracket weight."""

    def __init__(self, dim, bracket_rows, deform=True):
        # bracket_rows: {(a, b): ((k, c), ...)} for all ordered pairs a != b
        # with a nonzero bracket (antisymmetry already applied); c is an int
        # or a Fraction.
        self.dim = dim
        self.deform = deform
        z_exp = 1 if deform else 0
        self._rows = {
            pair: tuple((k, {z_exp: c}) for k, c in row)
            for pair, row in bracket_rows.items()
            if row
        }
        self._insert_memo = {}

    def insert(self, letter, word):
        """Normal form of e_letter * word for a sorted word.

        Returns {sorted_word: {z_exp: coeff}}; callers must not mutate.
        """
        key = (letter, word)
        memo = self._insert_memo
        found = memo.get(key)
        if found is not None:
            return found
        if not word or letter <= word[0]:
            result = {(letter,) + word: {0: 1}}
            memo[key] = result
            return result
        b = word[0]
        rest = word[1:]
        out = {}
        # e_letter e_b rest = e_b (e_letter rest) + [e_letter, e_b] rest
        for w, coeff in self.insert(letter, rest).items():
            for w2, coeff2 in self.insert(b, w).items():
                zp_accumulate(out, w2, coeff, coeff2)
        row = self._rows.get((letter, b))
        if row is not None:
            for k, zc in row:
                for w, coeff in self.insert(k, rest).items():
                    zp_accumulate(out, w, coeff, zc)
        memo[key] = out
        return out

    def word_mul(self, u, v):
        """Normal form of the product of a word u and a sorted word v."""
        if all(u[t] <= u[t + 1] for t in range(len(u) - 1)) and (
            not u or not v or u[-1] <= v[0]
        ):
            return {u + v: {0: 1}}  # concatenation already sorted
        result = {v: {0: 1}}
        for letter in reversed(u):
            nxt = {}
            for w, coeff in result.items():
                for w2, coeff2 in self.insert(letter, w).items():
                    zp_accumulate(nxt, w2, coeff, coeff2)
            result = nxt
        return result

    def normal_order(self, word):
        """Normal form of an arbitrary word."""
        return self.word_mul(word, ())
