import gc
import sys

from .cli import main

if __name__ == "__main__":
    # Freeze what start-up and the shared front (cli, config, errors,
    # record and the standard modules they use) created: those objects
    # live as long as the process, and frozen they cost the collector no
    # passes.  The job's own pipeline is imported later, by its first job.
    gc.freeze()
    sys.exit(main())
