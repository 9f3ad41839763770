"""Generation child of ``bench/run.py``: writes one set-up's phantoms.

Usage::

    python3 bench/generate.py <workload> <seed> <scale> <out_dir> <trace 0|1> <result.pickle>

Pickles ``(generated, spans)`` from :func:`workloads.generate_in_child` to
``result.pickle``.  It runs as a plain child process that ``run.py`` waits
for, so that its memory does not count toward the loop's peak RSS and no
helper process outlives the run.
"""

from __future__ import annotations

import os
import pickle
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv: list[str]) -> int:
    name, seed, scale, out_dir, trace, result_path = argv
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import workloads

    result = workloads.generate_in_child(name, int(seed), scale, out_dir, trace == "1")
    with open(result_path, "wb") as fh:
        pickle.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
