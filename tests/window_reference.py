"""Reference level windows, listed block by block, for differential tests of WindowIndex."""

from apword.stream import _two_words


def _windows(firsts, B: int) -> tuple[tuple[int, int], ...]:
    """The blocks f and f + 1 of B letters at each first occurrence f, joined into
    windows wherever two blocks are neighbours."""
    windows = []
    for i in sorted({*firsts, *(f + 1 for f in firsts)}):
        if windows and windows[-1][1] == i * B:
            windows[-1] = (windows[-1][0], (i + 1) * B)
        else:
            windows.append((i * B, (i + 1) * B))
    return tuple(windows)


def level_windows(fp, k: int) -> tuple[tuple[int, int], ...]:
    """The level-k windows of all the 2-words of x, B = L**k."""
    return _windows(_two_words(fp).values(), fp.sub.length**k)


def orbit_windows(fp, symmetries, k: int) -> tuple[tuple[int, int], ...]:
    """The level-k windows of the 2-words w that no symmetry τ moves to an earlier one:
    those that occur first in their orbit."""
    first = _two_words(fp)
    kept = [f for (u, v), f in first.items() if all(first[t[u], t[v]] >= f for t in symmetries)]
    return _windows(kept, fp.sub.length**k)


def window_letters(windows) -> int:
    return sum(b - a for a, b in windows)
