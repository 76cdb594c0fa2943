"""One cold set-up in a fresh interpreter, timed from the inside.

Usage: ``python3 perfbench/setup_probe.py <default|decode>``

Imports numpy, then the package from ``src/``, loads the named shipped
scene and makes one warm-up full-frame render of camera 0. Prints one JSON
object with the phase times in seconds; ``import_s`` includes
``numpy_s``, the time of ``import numpy`` alone. ``run.py`` starts this
several times per run and reports the median as ``setup_s``, scaled by
``numpy_s``: a fixed amount of the same kind of work, done in the same
interpreter just before. ``pin_threads`` is the one place where
the benchmark pins BLAS and OpenMP threads; ``harness`` uses it too.
"""

import os
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def pin_threads():
    """Pin BLAS and OpenMP to one thread; call it before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def main(argv):
    pin_threads()
    import json
    import sys
    from pathlib import Path

    which = argv[1]
    src = Path(__file__).resolve().parents[1] / "src"
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    tn = time.perf_counter()
    sys.path.insert(0, str(src))
    import deflect_gaze
    from deflect_gaze import render, scene
    t1 = time.perf_counter()
    load = {"default": scene.default_scene, "decode": scene.decode_scene}
    sc = load[which]()
    t2 = time.perf_counter()
    render.render_correspondence(sc, 0)
    t3 = time.perf_counter()
    print(json.dumps({"package": deflect_gaze.__file__, "numpy_s": tn - t0,
                      "import_s": t1 - t0,
                      "load_s": t2 - t1, "render_s": t3 - t2,
                      "total_s": t3 - t0}))


if __name__ == "__main__":
    import sys

    main(sys.argv)
