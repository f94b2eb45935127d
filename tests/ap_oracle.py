"""Plain-Python reference for the progression kernel, shared by the tests."""


def max_ap_oracle(word, d: int) -> tuple[int, int]:
    """Plain double-loop reference: extend from every run start."""
    n = len(word)
    best_len, best_start = 1, 0
    for s in range(n):
        if s >= d and word[s - d] == word[s]:
            continue
        length = 1
        j = s + d
        while j < n and word[j] == word[s]:
            length += 1
            j += d
        if length > best_len:
            best_len, best_start = length, s
    return best_len, best_start
