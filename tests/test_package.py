"""The package's public surface."""

from collections import Counter

import mudeform


def test_all_names_resolve_once():
    # a name deleted from a module must leave __all__ too
    assert [n for n, c in Counter(mudeform.__all__).items() if c > 1] == []
    assert [n for n in mudeform.__all__ if not hasattr(mudeform, n)] == []
