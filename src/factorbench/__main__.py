"""`python -m factorbench ARGS` runs the command line, as `factorbench ARGS` does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
