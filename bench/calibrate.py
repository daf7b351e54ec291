"""Fixed reference work, timed as a child process to gauge how fast the
machine runs Python right now.

The host's speed drifts by tens of percent over minutes, and the drift
hits every process alike.  bench/run.py times this script beside the
jobs and scales its times to the speed at which this script takes
``REFERENCE_S`` seconds.  Like the jobs, the work is interpreter
start-up plus dict, set, tuple and sort work on short strings.  Do not
change it: the scaled figures of every commit depend on it.
"""

from __future__ import annotations

import itertools

REFERENCE_S = 0.2


def idkey(s: str):
    return (len(s), s)


def kernel() -> int:
    ids = sorted((f"v{i}" for i in range(18)), key=idkey)
    index = {}
    for combo in itertools.combinations(ids, 4):
        index[tuple(sorted(combo, key=idkey))] = len(index)
    links = 0
    for key in index:
        rest = set(key)
        for v in key:
            for w in ids[:9]:
                if w not in rest:
                    other = tuple(sorted((rest - {v}) | {w}, key=idkey))
                    links += index.get(other, 0) & 1
    return links


if __name__ == "__main__":
    kernel()
