"""Shared fixtures."""

import pytest

from leonardpairs.field import PrimeField


class _CountingField(PrimeField):
    """GF(p) that counts in muls the products it forms: payload
    multiplications, and the integer products of the matrix kernel's
    dot products, elimination steps and quotients, and of image_mul."""

    def __init__(self, p: int):
        super().__init__(p)
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return super().mul(a, b)

    def dot(self, x, y, support):
        self.muls += len(support)
        return super().dot(x, y, support)

    def image_mul(self, x, y):
        self.muls += 1
        return super().image_mul(x, y)

    def combine(self, row, p, prev, a=None, lead=None):
        self.muls += len(row) * (1 if lead is None else 2)
        return super().combine(row, p, prev, a, lead)

    def quotients(self, values, w):
        self.muls += len(values)
        return super().quotients(values, w)


@pytest.fixture
def counting_field():
    """Constructor of GF(p) fields that count their multiplications, for
    tests that pin how an algorithm's cost grows."""
    return _CountingField
