"""`python -m advlab <command> ...`: the same entry point as the `advlab` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
