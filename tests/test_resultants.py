"""Polynomial-matrix determinants against the Leibniz permutation sum."""

from __future__ import annotations

import itertools
import random

import pytest

from polymap import Poly, VarContext, poly_matrix_det

from conftest import random_poly

WU = VarContext(("w", "u"))


def det_by_permutations(rows, ctx):
    """Independent oracle: Leibniz permutation-sum determinant."""
    n = len(rows)
    total = Poly.zero(ctx)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Poly.constant(ctx, sign)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


class TestDeterminant:
    def test_empty_matrix(self):
        assert poly_matrix_det([], WU) == Poly.one(WU)

    def test_matches_permutation_expansion(self):
        rng = random.Random(13)
        for size in (1, 2, 3, 4):
            for _ in range(8):
                rows = [[random_poly(rng, WU, max_deg=1, max_terms=2, bound=2) for _ in range(size)]
                        for _ in range(size)]
                assert poly_matrix_det(rows, WU) == det_by_permutations(rows, WU)

    def test_not_square(self):
        with pytest.raises(ValueError):
            poly_matrix_det([[Poly.one(WU)], [Poly.one(WU)]], WU)
