"""Module entry point: ``python -m repro``."""

import sys

# Importing this module loads nothing.  (The execution layer's
# spawn-started workers do not even import it: multiprocessing never
# re-runs a package's ``__main__.py`` in a child.)
if __name__ == "__main__":
    from .cli import main

    sys.exit(main())
