"""Deliberately-bad fixture for GF013: process spawning outside runner/."""

import subprocess
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import Process


def launch_helper(args):
    subprocess.run(args, check=True)
    return args


def fan_out(tasks, handler):
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(handler, tasks))


def background(worker):
    child = Process(target=worker)
    child.start()
    return child
