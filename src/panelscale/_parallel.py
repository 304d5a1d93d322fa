"""Deterministic fan-out over independent tasks.

Results are returned in input order no matter how many workers run.
n_workers=1 short-circuits to a plain loop; only a fan-out imports the
thread pool, because concurrent.futures also loads logging.
"""

from __future__ import annotations


def ordered_map(fn, items, n_workers: int = 1) -> list:
    items = list(items)
    if n_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(fn, items))
