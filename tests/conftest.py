"""Shared reference data for the tests."""

from __future__ import annotations

import pytest

from dfv.parabolic import BlockComposition


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for k in range(1, n + 1):
        for rest in _compositions(n - k):
            yield (k,) + rest


def reference_block_parabolics(family: str, n: int) -> list[BlockComposition]:
    """Every block parabolic of a classical group, built from compositions.

    All compositions of n for SL, the symmetric ones for SO and Sp, plus
    the stroke variant of each SO_n (n even) composition without a
    central block.  Independent of the removed-root enumeration in
    ``dfv.classifier``.
    """
    out = set()
    for sizes in _compositions(n):
        if family != "SL" and sizes != sizes[::-1]:
            continue
        comp = BlockComposition(family, n, sizes)
        out.add(comp)
        if family == "SO" and n % 2 == 0 and not comp.has_central_block():
            out.add(BlockComposition(family, n, comp.sizes, True))
    return sorted(out, key=BlockComposition.sort_key)


@pytest.fixture
def block_parabolics():
    return reference_block_parabolics
