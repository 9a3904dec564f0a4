"""Module entry point: ``python -m repro``."""

import sys

# Importing this module loads nothing.
if __name__ == "__main__":
    from .cli import main

    sys.exit(main())
