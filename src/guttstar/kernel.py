"""PBW normal-ordering kernel.

Words are tuples of basis indices.  An element is a flat dict mapping
``(sorted_word, e)`` to a scalar, where ``e`` is the power of z.  The one hot
primitive is ``insert``: left-multiplication of a sorted word by a single
basis letter, rewritten into the sorted basis via

    e_a e_b  ->  e_b e_a + z [e_a, e_b]        (a > b)

Each bracket row taken adds 1 to ``e``, and composing two rewrites adds their
counts.  With every letter and z of degree 1 the rule is homogeneous, so a
word of length m in the normal form of a word of length n carries
e = n - m; the kernel counts ``e`` rather than deriving it, which keeps
``star_pbw``'s z-exponents independent of ``star_graded``'s degree drop.
Results are memoized per (letter, word); the domain of sorted words is small,
so the memo stays compact even for long products.

Coefficients are built only from the unit 1 and the structure constants, so
they are Python ``int`` whenever the constants passed in are (the pbw layer
passes integral constants as ``int``) and ``Fraction`` otherwise.
"""

from __future__ import annotations

from .zpoly import add_scaled


class PbwKernel:
    """Normal-ordering engine for one algebra."""

    def __init__(self, dim, bracket_rows):
        # bracket_rows: {(a, b): ((k, c), ...)} for all ordered pairs a != b with a
        # nonzero bracket (antisymmetry applied); c is an int or a Fraction.
        self.dim = dim
        self._rows = {pair: row for pair, row in bracket_rows.items() if row}
        self._insert_memo = {}

    def insert(self, letter, word):
        """Normal form of e_letter * word for a sorted word.

        Returns {(sorted_word, e): coeff}; callers must not mutate.
        """
        key = (letter, word)
        memo = self._insert_memo
        found = memo.get(key)
        if found is not None:
            return found
        if not word or letter <= word[0]:
            result = {((letter,) + word, 0): 1}
            memo[key] = result
            return result
        b = word[0]
        rest = word[1:]
        out = {}
        # e_letter e_b rest = e_b (e_letter rest) + z [e_letter, e_b] rest
        for (w, e), c in self.insert(letter, rest).items():
            add_scaled(out, self.insert(b, w).items(), c, e)
        row = self._rows.get((letter, b))
        if row is not None:
            for k, c in row:
                add_scaled(out, self.insert(k, rest).items(), c, 1)
        memo[key] = out
        return out

    def word_mul(self, u, v):
        """Normal form of the product of two sorted words u and v.

        u must be sorted: the concatenation shortcut trusts it unchecked
        (``normal_order`` takes an arbitrary word)."""
        if not u or not v or u[-1] <= v[0]:
            return {(u + v, 0): 1}  # concatenation already sorted
        return self._fold(u, v)

    def normal_order(self, word):
        """Normal form of an arbitrary word."""
        return self._fold(word, ())

    def _fold(self, u, v):
        """Normal form of u * v for any word u and a sorted word v, one
        letter of u at a time from the right through ``insert``."""
        result = {(v, 0): 1}
        for letter in reversed(u):
            nxt = {}
            for (w, e), c in result.items():
                add_scaled(nxt, self.insert(letter, w).items(), c, e)
            result = nxt
        return result
