import gc
import sys

from .cli import main

if __name__ == "__main__":
    # Freeze what start-up and the shared front (cli, config, errors,
    # record and the standard modules they use) created: those objects
    # live as long as the process, and frozen they cost the collector no
    # passes.  The job's own pipeline is imported later, by its first job.
    # The saving is at exit: a job makes at most one more generation-0
    # pass without the freeze, but the full collections of interpreter
    # shutdown then traverse and free every start-up object, 6-9 ms of a
    # 60-90 ms job against 0.3-0.5 ms frozen (BENCH_run_time_imports.json).
    gc.freeze()
    sys.exit(main())
