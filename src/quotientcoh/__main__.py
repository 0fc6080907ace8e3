import gc
import sys

from .cli import main

if __name__ == "__main__":
    # The objects the imports created live as long as the process;
    # freezing them spares the job the collector's passes over them.
    gc.freeze()
    sys.exit(main())
