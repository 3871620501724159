"""`python -m ringheat`: the same command line as `python -m ringheat.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
