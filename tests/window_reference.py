"""Reference level windows, listed window by window, for differential tests of PrefixSource."""

from apword.stream import _merged_windows, _two_words


def level_windows(fp, k: int) -> tuple[tuple[int, int], ...]:
    """The level-k windows of all the 2-words of x, B = L**k."""
    return _merged_windows(sorted(_two_words(fp).values()), fp.sub.length**k)


def orbit_windows(fp, symmetries, k: int) -> tuple[tuple[int, int], ...]:
    """The level-k windows of the 2-words w that no symmetry τ moves to an earlier one:
    those that occur first in their orbit."""
    first = _two_words(fp)
    kept = sorted(f for (u, v), f in first.items()
                  if all(first[t[u], t[v]] >= f for t in symmetries))
    return _merged_windows(kept, fp.sub.length**k)


def window_letters(windows) -> int:
    return sum(b - a for a, b in windows)
