"""Shared fixtures."""

import pytest

from leonardpairs.field import PrimeField


class _CountingField(PrimeField):
    """GF(p) that counts its multiplications in muls."""

    def __init__(self, p: int):
        super().__init__(p)
        self.muls = 0

    def mul(self, a, b):
        self.muls += 1
        return super().mul(a, b)


@pytest.fixture
def counting_field():
    """Constructor of GF(p) fields that count their multiplications, for
    tests that pin how an algorithm's cost grows."""
    return _CountingField
