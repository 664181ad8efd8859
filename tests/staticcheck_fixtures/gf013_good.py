"""Clean fixture for GF013: threads are fine anywhere; processes spawn only in runner/."""

from concurrent.futures import ThreadPoolExecutor


def fan_out(tasks, handler):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(handler, tasks))


def summarise(results):
    return sum(results)
